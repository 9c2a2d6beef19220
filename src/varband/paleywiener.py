"""Bandlimited elements as spectral coefficient vectors on quadrature nodes.

The source of truth for a function is always its coefficient array F on the
model's frequency nodes (two components, one per fundamental solution),
F_c = int f conj(Phi_c) for every model, so that f = sum w rho F Phi and
||f||^2 = sum w rho |F|^2 with the model's ``weights()``; spatial values are
synthesized on demand by the model's sampling plan
(`kernel.SpectralModel.plan`): nonuniform FFTs where U is plane-wave
tails on a lattice rule, and a table of U at the other points.
This keeps every function exactly inside the discretized space, so
projection and reconstruction operators act on a well-defined finite model.
"""

from __future__ import annotations

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
        vals = self.model.plan(xs).at_points(self.F)
        return complex(vals[0]) if scalar else vals

    __call__ = evaluate

    def norm(self):
        w = self.model.weights()
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


def transform(model, f, window, n_panels=None):
    """Spectral coefficients of a spatial callable by windowed quadrature.

    By default the window gets two 10-point panels per half wavelength of
    the space's fastest wave on it: near x a wave of frequency omega
    oscillates at omega / sqrt(p(x)) in x, so the fastest is the largest
    node over sqrt(inf p) on the window. ``n_panels`` sets the count for an
    f that oscillates faster than the space.
    """
    a, b = _unpack(window)
    wmax = float(np.max(model.quad.nodes)) / np.sqrt(model.profile.inf_p(a, b))
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
    w = f.model.weights()
    lam = f.model.quad.nodes[None, :] ** 2
    dens = float(np.sum(w * np.abs(f.F) ** 2).real)
    if dens == 0:
        raise FunctionError("Bernstein ratio of the zero function is undefined")
    num = float(np.sum(w * lam ** (2 * k) * np.abs(f.F) ** 2).real)
    return float(np.sqrt(num / dens) / omega_max**k)

