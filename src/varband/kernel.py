"""Reproducing kernels of the variable-bandwidth Paley-Wiener spaces.

Every kernel has the form

    k(x, y) = sum_l w_l sum_c rho[c, l] Phi_c(omega_l, x) conj(Phi_c(omega_l, y))

for a pair of fundamental solutions Phi and a diagonal measure weight rho on
the frequency nodes.  The models below differ only in how Phi and rho are
produced: closed forms for the two-plateau step profile, scattering solutions
for a compactly supported Schrodinger potential, and the warped pullback of
the latter for smooth eventually constant profiles.  ``kernel_pairs`` and
``kernel_matrix`` are the one pointwise evaluator of every model; the
closed-form kernels (step profile, half line, free sinc) are independent
references for cross-validation.

Every model also writes Phi = mix U for a constant (2, 2) matrix ``mix`` and a
basis pair U, the identity and Phi itself unless the model has a cheaper pair:
the step profile's U = (cos theta, sin theta / sqrt(p)) is real.
``SpectralModel.synthesize`` and ``analyze`` apply the mix, the weights and
the transform prefactor to (2, n_nodes) coefficients and leave the tables of
U to ``_contract``, the one product of a vector with a table, which never
upcasts a real table to complex.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from .profile import SmoothProfile, _unpack
from .schrodinger import ScatteringSweep
from .spectral import SpectralQuadrature, SpectralSet, gauss_legendre_quadrature


class KernelError(RuntimeError):
    pass


class ImaginaryResidueWarning(UserWarning):
    pass


def _realize(z):
    z = np.asarray(z)
    resid = float(np.max(np.abs(z.imag))) if z.size else 0.0
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(z.real))) if z.size else 1.0):
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


def _contract(vec, table):
    """vec @ table for a vector of length m and an (m, k) table, real or complex.

    A real table is not upcast to complex: a complex vector's real and
    imaginary parts are read, without a copy, as one real (2, m) matrix, so a
    single real GEMM reads the table once and its (2, k) result holds the
    real and imaginary parts of the answer.
    """
    vec = np.asarray(vec)
    if np.iscomplexobj(table) or not np.iscomplexobj(vec):
        return vec @ table
    parts = np.ascontiguousarray(vec, dtype=complex).view(float).reshape(-1, 2).T @ table
    return parts[0] + 1j * parts[1]


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
    # Phi_c = sum_a mix[c, a] U_a with U = ``basis``
    mix: np.ndarray = np.eye(2)

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

    def antiderivative(self, x):
        """int Phi_c(omega_l, y) dy up to x, shape (2, n_nodes, n_x).

        Anchored at a fixed point of the model's choosing, so the integral
        over a cell [lo, hi] is the entry at hi minus the entry at lo: one
        table and one ``np.diff`` give every cell between sorted edges.
        """
        raise NotImplementedError

    def basis(self, x):
        """The pair U with Phi = mix U, shape (2, n_nodes, n_x); Phi by default."""
        return self.phi(x)

    def basis_antiderivative(self, x):
        """int U up to x, anchored as ``antiderivative``; its Phi by default."""
        return self.antiderivative(x)

    # -- coefficients against basis tables ----------------------------------

    def synthesize(self, F, table):
        """f = sum over (c, l) of synthesis weights times F Phi, at a table's points.

        ``table`` is U at m points as a (2 n_nodes, m) matrix; the mix and
        the weights act on the coefficients, mix^T (weights F).
        """
        return _contract((self.mix.T @ (self.synthesis_weights() * F)).ravel(), table)

    def analyze(self, values, table):
        """transform_prefactor sum_i conj(Phi_i) v_i, shape (2, n_nodes).

        ``table`` holds U (or its cell integrals) at m points as a
        (2 n_nodes, m) matrix. Since conj(Phi) v = conj(mix U conj(v)), the
        table is never conjugated: only the vector and the coefficients are.
        """
        H = _contract(np.conj(np.asarray(values, dtype=complex)), table.T)
        return self.transform_prefactor * np.conj(self.mix @ H.reshape(2, -1))

    # -- kernel evaluation ---------------------------------------------------

    def _weights(self):
        return self.quad.weights[None, :] * self.rho

    def synthesis_weights(self):
        """w rho / transform_prefactor: f = sum of these times F Phi."""
        return self._weights() / self.transform_prefactor

    def norm_weights(self):
        """w rho / transform_prefactor**2: ||f||^2 = sum of these times |F|^2."""
        return self._weights() / self.transform_prefactor**2

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
        # Phi_0 = cos + i sqrt(p+) sin / sqrt(p), Phi_1 = cos - i sqrt(p-) sin / sqrt(p):
        # both keep u and p u' continuous across the jump; _mixed relies on
        # the first column being 1 and the second imaginary
        self.mix = np.array([[1.0, 1j * sp], [1.0, -1j * sm]])

    def _theta(self, x):
        """theta = (omega / sqrt(p)) x and sqrt(p), with p on x's side of the jump."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        root = np.where(x > 0, np.sqrt(self.p_plus), np.sqrt(self.p_minus))
        return (self.quad.nodes[:, None] / root) * x, root

    def basis(self, x):
        """The real pair U = (cos theta, sin theta / sqrt(p)), float64."""
        theta, root = self._theta(x)
        out = np.empty((2,) + theta.shape)
        np.cos(theta, out=out[0])
        np.sin(theta, out=out[1])
        out[1] /= root
        return out

    def basis_antiderivative(self, x):
        """int_0^x U = (sqrt(p) sin theta / omega, (1 - cos theta) / omega), float64.

        Both entries vanish at 0 from either side, so the table is continuous
        across the jump.
        """
        theta, root = self._theta(x)
        omega = self.quad.nodes[:, None]
        out = np.empty((2,) + theta.shape)
        np.sin(theta, out=out[0])
        out[0] *= root
        np.cos(theta, out=out[1])
        np.subtract(1.0, out[1], out=out[1])
        out /= omega
        return out

    def _mixed(self, U):
        """mix U in a fresh complex array, written through its real and imaginary views.

        The mix's first column is real and its second imaginary, so no
        complex copy of U is made.
        """
        out = np.empty(U.shape, dtype=complex)
        out.real = U[0]
        np.multiply(self.mix[:, 1, None, None].imag, U[1], out=out.imag)
        return out

    def phi(self, x):
        return self._mixed(self.basis(x))

    def antiderivative(self, x):
        """int_0^x Phi = mix int_0^x U, in closed form on both sides."""
        return self._mixed(self.basis_antiderivative(x))


class SchrodingerModel(SpectralModel):
    """Lebesgue spectral representation of -D^2 + q via scattering solutions."""

    def __init__(self, q, support_radius, sset, quad=None, x_max=25.0, breakpoints=(),
                 store_interior=True):
        if not isinstance(sset, SpectralSet):
            sset = SpectralSet(sset)
        self.quad = quad or gauss_legendre_quadrature(sset, x_max=x_max)
        self.sweep = ScatteringSweep(q, support_radius, self.quad.nodes,
                                     breakpoints=breakpoints, store_interior=store_interior)
        n = len(self.quad)
        self.rho = np.full((2, n), 1.0 / (2 * np.pi))
        self.transform_prefactor = 1.0 / np.sqrt(2 * np.pi)

    @property
    def support_radius(self):
        return self.sweep.a

    def phi(self, x):
        return self.sweep.phi(x)

    def antiderivative(self, x):
        return self.sweep.antiderivative(x)

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

    def __init__(self, profile, sset, quad=None, x_max=25.0):
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
            breakpoints=profile.zeta([-profile.R, profile.R]),
        )
        self.rho = self.inner.rho
        self.transform_prefactor = self.inner.transform_prefactor

    def phi(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        pref = np.asarray(self.profile.eval_p(x), dtype=float) ** -0.25
        return self.inner.phi(self.profile.zeta(x)) * pref[None, None, :]

    def antiderivative(self, x):
        """int Phi up to x, anchored at the leftmost of x and -R.

        No plane-wave closed form exists in the original coordinate: one
        composite 10-point Gauss-Legendre pass runs over panels that break at
        every x and at the blend edges +-R, where Phi has a kink, and are no
        wider than pi / (4 max(omega) sqrt(inf p)); a cumulative sum chains
        them. Phi is evaluated in blocks of at most 2**18 node-point values
        (8 MB, plus the interior spline's temporaries), and only the entries
        at x are kept, so memory does not grow with the number of panels.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        R, n = self.profile.R, len(self.quad)
        lo, hi = min(float(x.min()), -R), max(float(x.max()), R)
        panel = np.pi / (4 * float(np.max(self.quad.nodes)) * np.sqrt(self.profile.lower))
        grid = np.linspace(lo, hi, int(np.ceil((hi - lo) / panel)) + 1)
        edges = np.union1d(np.concatenate((x, [-R, R])), grid)
        # panel k ends at edges[k]; panel 0 has zero width, so the running sum
        # through panel k is the integral from lo to edges[k]
        left = np.concatenate(([lo], edges[:-1]))
        half = 0.5 * (edges - left)
        gx, gw = np.polynomial.legendre.leggauss(10)
        pts = 0.5 * (left + edges)[:, None] + half[:, None] * gx
        at = np.searchsorted(edges, x)
        out = np.empty((2, n, x.size), dtype=complex)
        carry = np.zeros((2, n))
        rows = max(1, 2**18 // (n * gx.size))
        for i in range(0, edges.size, rows):
            run = self.phi(pts[i:i + rows].ravel()).reshape(2, n, -1, gx.size) @ gw
            run *= half[i:i + rows]
            run[:, :, 0] += carry
            np.cumsum(run, axis=-1, out=run)
            mine = (at >= i) & (at < i + rows)
            out[:, :, mine], carry = run[:, :, at[mine] - i], run[:, :, -1]
        return out


# ---------------------------------------------------------------------------
# spatial averages


def kernel_tail_mass(kernel_fn, x, b, window, n=4001):
    """int over {|y - x| > b} within `window` of |k(x, y)|^2, composite Simpson."""
    from scipy.integrate import simpson

    a0, a1 = _unpack(window)
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

    Right of a Schrodinger potential's support, `diagonal_tail_average` is
    exact and cheaper.
    """
    from scipy.integrate import simpson

    a, b = _unpack(interval)
    if b <= a:
        raise KernelError("empty interval")
    ys = np.linspace(a, b, n)
    return float(simpson(np.asarray(model.diagonal(ys)), x=ys) / (b - a))
