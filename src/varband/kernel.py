"""Reproducing kernels of the variable-bandwidth Paley-Wiener spaces.

Every kernel has the form

    k(x, y) = sum_l w_l sum_c rho[c, l] Phi_c(omega_l, x) conj(Phi_c(omega_l, y))

for a pair of fundamental solutions Phi and a diagonal measure weight rho on
the frequency nodes.  The models below differ only in how Phi and rho are
produced: closed forms for the two-plateau step profile, scattering solutions
for a compactly supported Schrodinger potential, and the warped pullback of
the latter for smooth eventually constant profiles.  Closed-form kernels
(step profile, half line, free sinc) are kept as independent evaluation
paths for cross-validation.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from .profile import SmoothProfile
from .schrodinger import ScatteringSweep
from .spectral import SpectralQuadrature, SpectralSet, gauss_legendre_quadrature


class KernelError(RuntimeError):
    pass


class ImaginaryResidueWarning(UserWarning):
    pass


def _realize(z, tol=1e-9):
    z = np.asarray(z)
    resid = float(np.max(np.abs(z.imag))) if z.size else 0.0
    if resid > tol * max(1.0, float(np.max(np.abs(z.real))) if z.size else 1.0):
        warnings.warn(
            f"kernel evaluation has imaginary residue {resid:g}", ImaginaryResidueWarning
        )
        return z
    return z.real if z.ndim else float(z.real)


def _as_matrix(stack):
    """A (2, n_nodes, ...) spectral stack as a (2 * n_nodes, m) matrix.

    Merging the component and node axes turns every sum over them, and every
    sum over the points of a table, into one BLAS product (GEMM, or GEMV
    against a vector). For a contiguous stack the result is a view: no table
    is copied.
    """
    return stack.reshape(stack.shape[0] * stack.shape[1], -1)


def _sinc(z):
    """sin(z)/z with the removable singularity filled."""
    return np.sinc(np.asarray(z, dtype=float) / np.pi)


# ---------------------------------------------------------------------------
# closed forms


def toy_kernel(p_minus, p_plus, omega_max, x, y):
    """Kernel of the step-profile space with spectral set [0, omega_max]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.sqrt(omega_max)
    sm, sp = np.sqrt(p_minus), np.sqrt(p_plus)
    r = (sp - sm) / (sp + sm)
    both_neg = (x <= 0) & (y <= 0)
    both_pos = (x > 0) & (y > 0)
    neg_pos = (x <= 0) & (y > 0)
    pos_neg = (x > 0) & (y <= 0)
    out = np.zeros(np.broadcast(x, y).shape)
    xb, yb = np.broadcast_arrays(x, y)
    cmix = 2 * u / (np.pi * (sp + sm))
    out = np.where(
        both_neg,
        (u / (np.pi * sm)) * (_sinc(u * (xb - yb) / sm) - r * _sinc(u * (xb + yb) / sm)),
        out,
    )
    out = np.where(
        both_pos,
        (u / (np.pi * sp)) * (_sinc(u * (xb - yb) / sp) + r * _sinc(u * (xb + yb) / sp)),
        out,
    )
    out = np.where(neg_pos, cmix * _sinc(u * (xb / sm - yb / sp)), out)
    out = np.where(pos_neg, cmix * _sinc(u * (xb / sp - yb / sm)), out)
    return out if out.ndim else float(out)


def free_kernel(omega_max, x, y):
    u = np.sqrt(omega_max)
    out = (u / np.pi) * _sinc(u * (np.asarray(x, float) - np.asarray(y, float)))
    return out if np.ndim(out) else float(out)


def halfline_kernel(omega_max, x, y):
    """Kernel of the half-line limit (Dirichlet at 0); zero off the half line."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.sqrt(omega_max)
    val = (u / np.pi) * (_sinc(u * (x - y)) - _sinc(u * (x + y)))
    out = np.where((x >= 0) & (y >= 0), val, 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# quadrature-backed spectral models


class SpectralModel:
    """Shared layout: quadrature, fundamental solutions, measure weights.

    Subclasses set ``rho`` with shape (2, n_nodes) (kernel measure factor)
    and ``transform_prefactor`` so that

        transform:  F_c(w_l) = transform_prefactor * int f conj(Phi_c) dx
        synthesis:  f(x) = sum_l w_l sum_c (rho/transform_prefactor) F_c Phi_c
        norm^2:     sum_l w_l sum_c (rho/transform_prefactor^2) |F_c|^2
    """

    quad: SpectralQuadrature
    rho: np.ndarray
    transform_prefactor: float = 1.0

    @property
    def sset(self):
        return self.quad.sset

    @property
    def omegas(self):
        return self.quad.nodes

    def phi(self, x):
        """Phi_c(omega_l, x), shape (2, n_nodes, n_x), in a fresh array.

        The kernel methods overwrite the result in place, so an override must
        not return an array it keeps.
        """
        raise NotImplementedError

    def cell_integral(self, lo, hi):
        """int_lo^hi Phi_c(omega_l, y) dy, shape (2, n_nodes)."""
        raise NotImplementedError

    # -- kernel evaluation ---------------------------------------------------

    def _weights(self):
        return self.quad.weights[None, :] * self.rho

    def _factors(self, x, y):
        """w rho Phi(x) and conj Phi(y); Phi is evaluated once when y is x."""
        px = self.phi(x)
        if y is x:
            py = px.conj()
        else:
            py = self.phi(y)
            np.conjugate(py, out=py)
        px *= self._weights()[:, :, None]
        return px, py

    def kernel_pairs(self, x, y, keep_complex=False):
        """k(x_i, y_i) elementwise over two equal-length arrays."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        wx, cy = self._factors(x, y)
        wx *= cy
        vals = wx.sum(axis=(0, 1))
        return vals if keep_complex else _realize(vals)

    def kernel_matrix(self, xs, ys, keep_complex=False):
        """k(x_i, y_j) on the grid xs by ys; pass one array twice to evaluate Phi once."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        wx, cy = self._factors(xs, ys)
        vals = _as_matrix(wx).T @ _as_matrix(cy)
        return vals if keep_complex else _realize(vals)

    def kernel(self, x, y):
        if np.ndim(x) or np.ndim(y):
            xb, yb = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
            return self.kernel_pairs(xb.ravel(), yb.ravel()).reshape(xb.shape)
        return float(np.atleast_1d(self.kernel_pairs([x], [y]))[0])

    def diagonal(self, y):
        return self.kernel_pairs(y, y)

    def dump_csv(self, path, xs, ys):
        K = np.asarray(self.kernel_matrix(xs, ys, keep_complex=True))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "y", "re_k", "im_k"])
            for i, x in enumerate(np.atleast_1d(xs)):
                for j, y in enumerate(np.atleast_1d(ys)):
                    w.writerow([x, y, K[i, j].real, K[i, j].imag])


class ToyModel(SpectralModel):
    """Step-profile spectral representation from the closed-form solutions."""

    def __init__(self, p_minus, p_plus, sset, quad=None, x_max=25.0):
        if not isinstance(sset, SpectralSet):
            sset = SpectralSet(sset)
        self.p_minus, self.p_plus = float(p_minus), float(p_plus)
        self.quad = quad or gauss_legendre_quadrature(sset, x_max=x_max)
        sm, sp = np.sqrt(self.p_minus), np.sqrt(self.p_plus)
        c = 2.0 / (np.pi * (sm + sp) ** 2)
        n = len(self.quad)
        self.rho = np.vstack([np.full(n, sm * c), np.full(n, sp * c)])
        self.transform_prefactor = 1.0

    def phi(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sm, sp = np.sqrt(self.p_minus), np.sqrt(self.p_plus)
        right = x > 0
        # one table E = exp(i omega x / sqrt(p)), p taken on x's side of the jump.
        # Each Phi_c is a E + b conj(E) with real a, b, i.e. Re E + i v_c Im E:
        # v = +-1 where Phi_c is a pure wave, +-(ratio of sqrt(p)) where it is cos + i v sin
        E = np.exp(1j * ((self.quad.nodes[:, None] / np.where(right, sp, sm)) * x))
        v = np.where(right, [[1.0], [-sm / sp]], [[sp / sm], [-1.0]])
        out = np.empty((2,) + E.shape, dtype=complex)
        out.real = E.real
        out.imag = v[:, None, :] * E.imag
        return out

    def cell_integral(self, lo, hi):
        w = self.quad.nodes
        sm, sp = np.sqrt(self.p_minus), np.sqrt(self.p_plus)
        km, kp = w / sm, w / sp
        out = np.zeros((2, w.size), dtype=complex)

        def seg(a, b, side):
            # antiderivatives of the closed forms on one side of the jump
            if side == "right":
                i_plus = (np.exp(1j * kp * b) - np.exp(1j * kp * a)) / (1j * kp)
                cosdiff = (np.sin(kp * b) - np.sin(kp * a)) / kp
                sindiff = (np.cos(kp * a) - np.cos(kp * b)) / kp
                out[0] += i_plus
                out[1] += cosdiff - 1j * (sm / sp) * sindiff
            else:
                cosdiff = (np.sin(km * b) - np.sin(km * a)) / km
                sindiff = (np.cos(km * a) - np.cos(km * b)) / km
                out[0] += cosdiff + 1j * (sp / sm) * sindiff
                out[1] += (np.exp(-1j * km * b) - np.exp(-1j * km * a)) / (-1j * km)

        if hi <= 0:
            seg(lo, hi, "left")
        elif lo >= 0:
            seg(lo, hi, "right")
        else:
            seg(lo, 0.0, "left")
            seg(0.0, hi, "right")
        return out


class SchrodingerModel(SpectralModel):
    """Lebesgue spectral representation of -D^2 + q via scattering solutions."""

    def __init__(self, q, support_radius, sset, quad=None, x_max=25.0, step=1e-3,
                 store_interior=True):
        if not isinstance(sset, SpectralSet):
            sset = SpectralSet(sset)
        self.quad = quad or gauss_legendre_quadrature(sset, x_max=x_max)
        self.sweep = ScatteringSweep(q, support_radius, self.quad.nodes, step=step,
                                     store_interior=store_interior)
        n = len(self.quad)
        self.rho = np.full((2, n), 1.0 / (2 * np.pi))
        self.transform_prefactor = 1.0 / np.sqrt(2 * np.pi)

    @property
    def support_radius(self):
        return self.sweep.a

    def phi(self, x):
        return self.sweep.phi(x)

    def cell_integral(self, lo, hi):
        return self.sweep.cell_integral(lo, hi)

    # fast evaluation paths from the plane-wave tails -----------------------

    def kernel_tails(self, x, y):
        """Kernel for |x|, |y| outside the potential support, from (T, R) only."""
        a = self.support_radius
        x, y = float(x), float(y)
        if abs(x) < a or abs(y) < a:
            raise KernelError("tail formula needs |x|, |y| >= support radius")
        if x > y:
            x, y = y, x  # kernel is real symmetric
        w = self.quad.nodes
        wt = self.quad.weights
        if x >= a or y <= -a:
            R = self.sweep.R2 if x >= a else self.sweep.R1
            s = 1.0 if x >= a else -1.0
            val = (1.0 / np.pi) * np.sum(
                wt * (np.cos(w * (x - y)) + (R * np.exp(1j * s * w * (x + y))).real)
            )
            return float(val)
        if x <= -a and y >= a:
            T = self.sweep.T
            val = (1.0 / np.pi) * np.sum(wt * (T * np.exp(-1j * w * (x - y))).real)
            return float(val)
        raise KernelError("tail formula needs both points outside the support")

    def diagonal_tail(self, y):
        """k(y, y) for y > support radius: measure term plus reflection ripple."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(y < self.support_radius):
            raise KernelError("diagonal tail formula needs y >= support radius")
        ripple = (np.exp(2j * np.outer(y, self.quad.nodes)) * self.sweep.R2[None, :]
                  * self.quad.weights[None, :]).real.sum(axis=1)
        return (self.sset.sqrt_measure + ripple) / np.pi

    def diagonal_tail_average(self, lo, hi):
        """Mean of k(y, y) over [lo, hi] right of the support, exact in y.

        The reflection ripple integrates in closed form, leaving a single
        frequency quadrature; use this on long windows where sampling the
        diagonal would be wasteful.
        """
        lo, hi = float(lo), float(hi)
        if lo < self.support_radius or hi <= lo:
            raise KernelError("need a nonempty interval right of the support")
        w = self.quad.nodes
        inner = (np.exp(2j * w * hi) - np.exp(2j * w * lo)) / (2j * w)
        ripple = float(np.sum(self.quad.weights * (self.sweep.R2 * inner).real))
        return (self.sset.sqrt_measure + ripple / (hi - lo)) / np.pi


def free_model(sset, quad=None, x_max=25.0):
    """The classical Paley-Wiener model (q = 0, p = 1)."""
    return SchrodingerModel(None, 0.0, sset, quad=quad, x_max=x_max)


class LiouvilleModel(SpectralModel):
    """Warped pullback: kernel of -(p f')' through the scattering kernel of q."""

    def __init__(self, profile, sset, quad=None, x_max=25.0, step=1e-3):
        if not isinstance(profile, SmoothProfile):
            raise KernelError("warped pullback needs a smooth eventually constant profile")
        if not isinstance(sset, SpectralSet):
            sset = SpectralSet(sset)
        self.profile = profile
        # x_max in the original coordinate; the warped coordinate shrinks by
        # at most 1/sqrt(lower), so be conservative for quadrature density
        warped_x_max = x_max / np.sqrt(profile.lower)
        self.quad = quad or gauss_legendre_quadrature(sset, x_max=warped_x_max)
        self.inner = SchrodingerModel(
            profile.potential_q_warped,
            profile.warped_support_radius,
            sset,
            quad=self.quad,
            step=step,
        )
        self.rho = self.inner.rho
        self.transform_prefactor = self.inner.transform_prefactor

    def phi(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        pref = np.asarray(self.profile.eval_p(x), dtype=float) ** -0.25
        return self.inner.phi(self.profile.zeta(x)) * pref[None, None, :]

    def cell_integral(self, lo, hi):
        # no plane-wave closed form in the original coordinate; composite
        # Gauss-Legendre with panels resolving the fastest local oscillation
        wmax = float(np.max(self.quad.nodes))
        panel = np.pi / (4 * wmax * np.sqrt(max(self.profile.lower, 1e-12)))
        n_pan = max(1, int(np.ceil((hi - lo) / panel)))
        gx, gw = np.polynomial.legendre.leggauss(10)
        edges = np.linspace(lo, hi, n_pan + 1)
        out = np.zeros((2, len(self.quad)), dtype=complex)
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            pts = 0.5 * (a + b) + half * gx
            out += half * (_as_matrix(self.phi(pts)) @ gw).reshape(out.shape)
        return out


# ---------------------------------------------------------------------------
# convenience wrappers


def toy_quadrature_kernel(p_minus, p_plus, sset, x, y, x_max=25.0):
    """Direct quadrature of the spectral formula; cross-check for `toy_kernel`."""
    return ToyModel(p_minus, p_plus, sset, x_max=x_max).kernel(x, y)


def kernel_tail_mass(kernel_fn, x, b, window, n=4001):
    """int over {|y - x| > b} within `window` of |k(x, y)|^2, composite Simpson."""
    from scipy.integrate import simpson

    a0, a1 = (window.a, window.b) if hasattr(window, "a") else window
    total = 0.0
    for lo, hi in ((a0, x - b), (x + b, a1)):
        if hi <= lo:
            continue
        ys = np.linspace(lo, hi, n)
        vals = np.abs(np.asarray(kernel_fn(np.full(ys.shape, x), ys))) ** 2
        total += float(simpson(vals, x=ys))
    return total


def diagonal_average(model, interval, n=2001):
    """Mean of k(y, y) over an interval, composite Simpson.

    Uses the reflection-ripple closed form when the whole interval sits to
    the right of the potential support (much cheaper on long windows).
    """
    from scipy.integrate import simpson

    a, b = (interval.a, interval.b) if hasattr(interval, "a") else interval
    if b <= a:
        raise KernelError("empty interval")
    ys = np.linspace(a, b, n)
    if isinstance(model, SchrodingerModel) and a >= model.support_radius:
        vals = model.diagonal_tail(ys)
    else:
        vals = np.asarray(model.diagonal(ys))
    return float(simpson(vals, x=ys) / (b - a))
