"""Bandlimited elements as spectral coefficient vectors on quadrature nodes.

The source of truth for a function is always its coefficient array F on the
model's frequency nodes (two components, one per fundamental solution);
spatial values are synthesized on demand.  This keeps every function exactly
inside the discretized space, so projection and reconstruction operators act
on a well-defined finite model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .kernel import _as_matrix
from .profile import _unpack


class FunctionError(ValueError):
    pass


@dataclass
class VarBandFunction:
    model: object
    F: np.ndarray  # shape (2, n_nodes), complex

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=complex)
        if self.F.shape != (2, len(self.model.quad)):
            raise FunctionError(
                f"coefficient shape {self.F.shape} does not match quadrature "
                f"(2, {len(self.model.quad)})"
            )

    def evaluate(self, x):
        scalar = not np.ndim(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        vals = self.model.synthesize(self.F, _as_matrix(self.model.basis(xs)))
        return complex(vals[0]) if scalar else vals

    __call__ = evaluate

    def norm(self):
        w = self.model.norm_weights()
        return float(np.sqrt(np.sum(w * np.abs(self.F) ** 2).real))

    def __add__(self, other):
        self._compat(other)
        return VarBandFunction(self.model, self.F + other.F)

    def __sub__(self, other):
        self._compat(other)
        return VarBandFunction(self.model, self.F - other.F)

    def __mul__(self, c):
        return VarBandFunction(self.model, self.F * c)

    __rmul__ = __mul__

    def _compat(self, other):
        if other.model is not self.model:
            raise FunctionError("functions live on different models")

    def spatial_norm(self, window, n=4001):
        """L2 norm by Simpson quadrature on a window (Parseval cross-check)."""
        from scipy.integrate import simpson

        xs = np.linspace(*_unpack(window), n)
        vals = np.abs(self.evaluate(xs)) ** 2
        return float(np.sqrt(simpson(vals, x=xs)))

    def dump_csv(self, path, xs):
        vals = self.evaluate(np.asarray(xs, dtype=float))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "re_f", "im_f"])
            for x, v in zip(np.atleast_1d(xs), np.atleast_1d(vals)):
                w.writerow([x, v.real, v.imag])

    def dump_coefficients_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["omega", "re_F1", "im_F1", "re_F2", "im_F2"])
            for om, f1, f2 in zip(self.model.quad.nodes, self.F[0], self.F[1]):
                w.writerow([om, f1.real, f1.imag, f2.real, f2.imag])


def zero_function(model):
    return VarBandFunction(model, np.zeros((2, len(model.quad)), dtype=complex))


def _unit(model, F):
    f = VarBandFunction(model, F)
    nrm = f.norm()
    if nrm == 0:
        raise FunctionError("degenerate random draw")
    return f * (1.0 / nrm)


def random_function(model, rng=None):
    """Unit-norm coefficients with independent standard complex Gaussian entries."""
    rng = np.random.default_rng(rng)
    n = len(model.quad)
    return _unit(model, rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))


def random_smooth_function(model, rng=None):
    """Random coefficients that sample a smooth function of omega.

    Node-wise white noise synthesizes an almost periodic, non-decaying
    function; a random sine polynomial vanishing at the interval endpoints
    gives an honestly square integrable one, which is what Parseval and
    windowed-transform tests need.  Eight sine modes per interval and
    component; the result has unit norm.
    """
    rng = np.random.default_rng(rng)
    w = model.quad.nodes
    F = np.zeros((2, w.size), dtype=complex)
    for a, b in model.sset.sqrt_intervals:
        sel = (w >= a) & (w <= b)
        if not np.any(sel):
            continue
        t = (w[sel] - a) / (b - a)
        modes = np.sin(np.pi * np.outer(np.arange(1, 9), t)).T
        for c in range(2):
            amp = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            F[c, sel] += modes @ amp
    return _unit(model, F)


def reproducing_function(model, x0):
    """The kernel section k(x0, .) as a VarBandFunction."""
    phi0 = model.phi(np.array([float(x0)]))[:, :, 0]
    return VarBandFunction(model, model.transform_prefactor * phi0.conj())


def transform(model, f, window, n_panels=None):
    """Spectral coefficients of a spatial callable by windowed quadrature."""
    a, b = _unpack(window)
    wmax = float(np.max(model.quad.nodes))
    if n_panels is None:
        n_panels = max(8, int(np.ceil((b - a) * wmax / np.pi)) * 2)
    gx, gw = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(a, b, n_panels + 1)
    F = np.zeros((2, len(model.quad)), dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        pts = 0.5 * (lo + hi) + half * gx
        fv = np.asarray(f(pts), dtype=complex)
        F += model.analyze(half * (fv * gw), _as_matrix(model.basis(pts)))
    return VarBandFunction(model, F)


def bernstein_ratio(f, k, omega_max):
    """Spectral estimate of ||A^k f|| / (omega_max^k ||f||); at most 1 for
    functions bandlimited to [0, omega_max]."""
    if k < 0 or int(k) != k:
        raise FunctionError("k must be a nonnegative integer")
    w = f.model.norm_weights()
    lam = f.model.quad.nodes[None, :] ** 2
    dens = float(np.sum(w * np.abs(f.F) ** 2).real)
    if dens == 0:
        raise FunctionError("Bernstein ratio of the zero function is undefined")
    num = float(np.sum(w * lam ** (2 * k) * np.abs(f.F) ** 2).real)
    return float(np.sqrt(num / dens) / omega_max**k)


def warped_bandlimited_eval(profile, F, lam_intervals, x):
    """First-order warped evaluator: classical inverse transform of F at eta^{-1}(x).

    f(x) = int_Lambda F(lambda) exp(i lambda eta^{-1}(x)) d lambda, with
    eta(x) = int_0^x dt / p(t).  F is a callable on the spectral parameter;
    the integral is a composite 10-point Gauss-Legendre rule with panels no
    wider than pi / (4 max |eta^{-1}(x)|).
    """
    scalar = not np.ndim(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(profile.eta_inv(xs))
    tmax = max(float(np.max(np.abs(t))), 1e-9)
    gx, gw = np.polynomial.legendre.leggauss(10)
    max_panel = np.pi / (4 * tmax)
    out = np.zeros(t.size, dtype=complex)
    for a, b in lam_intervals:
        n_pan = max(1, int(np.ceil((b - a) / max_panel)))
        edges = np.linspace(a, b, n_pan + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            lam = 0.5 * (lo + hi) + half * gx
            Fv = np.asarray(F(lam), dtype=complex)
            out += half * np.einsum("k,k,jk->j", Fv, gw, np.exp(1j * np.outer(t, lam)))
    return complex(out[0]) if scalar else out
