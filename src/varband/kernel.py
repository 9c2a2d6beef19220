"""Reproducing kernels of the variable-bandwidth Paley-Wiener spaces.

Every model writes its pair of fundamental solutions as Phi = M(omega) U, a
per-node complex 2x2 matrix ``mix`` M applied to a real fundamental system
U = ``basis``, and carries a measure weight rho on the frequency nodes.  The
kernel

    k(x, y) = sum_l w_l sum_c rho[c, l] Phi_c(omega_l, x) conj(Phi_c(omega_l, y))
            = sum_l U(omega_l, x)^T Sigma_l U(omega_l, y)

is then one real product through the real symmetric 2x2 density
Sigma = Re(M^T diag(w rho) conj M) of each node.  The models below differ only
in how U, M and rho are produced: closed forms for the two-plateau step
profile (the classical Paley-Wiener space is its case p = 1), the real and
imaginary parts of the scattering solution for a compactly supported
Schrodinger potential, and the warped pullback of the latter for smooth
eventually constant profiles.  The step-profile tables
are plane waves in t = x / sqrt(p), taken from the quadrature's `waves`:
each rule records its nodes as sums omega = o + d of non-negative shifts
and offsets, and angle addition over that factorisation calls sin and cos
on O(sqrt n) rows instead of n, with every entry within 8u (1 + omega |t|)
of the exact wave, u = 2**-53.  Each model sizes its Gauss-Legendre rule
from the largest phase t_max its tables reach for |x| <= x_max:
x_max / sqrt(min p) for the step profile, x_max + 2a for a potential
supported on [-a, a] (its mix carries R2 ~ exp(-2i omega a)), and
x_max / sqrt(inf p) + 2a for the warped model.  The rule's ``error_bound``
holds for plane waves of frequency up to 2 t_max: exactly what the
step-profile kernels are made of, so only that model reports it as its own
``error_bound``.  The scattering tables of a potential have structure in
omega (resonances, internal reflections) that the phase 2a does not limit,
so their rule is sized by the same t_max but carries no guarantee; the
tests check it against finer rules instead.  ``kernel_pairs`` and
``kernel_matrix`` are the one pointwise evaluator of every model; the
closed-form kernels (step profile, half line, free sinc) are independent
references for cross-validation.

Every model uses one coefficient convention, F_c = int f conj(Phi_c), so
that f = sum w rho F Phi.  ``SpectralModel.synthesize`` and ``analyze`` apply
M and the weights w rho to (2, n_nodes) coefficients and leave the real
tables of U to ``_contract``, the one product of a complex vector with a
table.  Phi itself is never tabulated.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .profile import SmoothProfile
from .schrodinger import ScatteringSweep
from .spectral import SpectralQuadrature, SpectralSet, gauss_legendre_quadrature


class KernelError(RuntimeError):
    pass


def _as_matrix(stack):
    """A (2, n_nodes, ...) spectral stack as a (2 * n_nodes, m) matrix.

    Merging the component and node axes turns every sum over them, and every
    sum over the points of a table, into one BLAS product (GEMM, or GEMV
    against a vector). For a contiguous stack the result is a view: no table
    is copied.
    """
    return stack.reshape(stack.shape[0] * stack.shape[1], -1)


def _contract(vec, table):
    """vec @ table for a complex vector of length m and a real (m, k) table.

    The table is not upcast to complex: the vector's real and imaginary parts
    are read, without a copy, as one real (2, m) matrix, so a single real GEMM
    reads the table once and its (2, k) result holds the real and imaginary
    parts of the answer.
    """
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
    """Shared layout: quadrature, real basis, per-node mix, measure weights.

    Subclasses set ``rho`` with shape (2, n_nodes) (kernel measure factor)
    and ``mix`` with shape (2, 2, n_nodes), and define the real pair
    U = ``basis`` and its antiderivative, so that with
    Phi_c = sum_a mix[c, a] U_a at each node

        transform:  F_c(w_l) = int f conj(Phi_c) dx
        synthesis:  f(x) = sum_l w_l sum_c rho_c F_c Phi_c
        norm^2:     sum_l w_l sum_c rho_c |F_c|^2
    """

    quad: SpectralQuadrature
    rho: np.ndarray
    mix: np.ndarray

    @property
    def sset(self):
        return self.quad.sset

    @property
    def error_bound(self):
        """The rule's remainder where it bounds this model's kernel, else None.

        It holds for |x|, |y| up to the x_max the rule was sized for.
        """
        return None

    @property
    def omegas(self):
        return self.quad.nodes

    def basis(self, x):
        """The real pair U(omega_l, x), float64 of shape (2, n_nodes, n_x).

        Returned in a fresh array: ``kernel_pairs`` overwrites it in place.
        """
        raise NotImplementedError

    def basis_antiderivative(self, x):
        """int U(omega_l, y) dy up to x, float64 of shape (2, n_nodes, n_x).

        Anchored at a fixed point of the model's choosing, so the integral
        over a cell [lo, hi] is the entry at hi minus the entry at lo: one
        table and one ``np.diff`` give every cell between sorted edges.
        """
        raise NotImplementedError

    # -- coefficients against basis tables ----------------------------------

    def synthesize(self, F, table):
        """f = sum over (c, l) of w rho F Phi, at a table's points.

        ``table`` is U at m points as a (2 n_nodes, m) matrix; the mix and
        the weights act on the coefficients, mix^T (weights F) at each node.
        """
        G = np.einsum("cal,cl->al", self.mix, self.weights() * F)
        return _contract(G.ravel(), table)

    def analyze(self, values, table):
        """sum_i conj(Phi_i) v_i, shape (2, n_nodes).

        ``table`` holds U (or its cell integrals) at m points as a
        (2 n_nodes, m) matrix. Since conj(Phi) v = conj(mix U conj(v)), the
        table is never conjugated: only the vector and the coefficients are.
        """
        H = _contract(np.conj(np.asarray(values, dtype=complex)), table.T).reshape(2, -1)
        return np.conj(np.einsum("cal,al->cl", self.mix, H))

    # -- kernel evaluation ---------------------------------------------------

    def weights(self):
        """w rho, shape (2, n_nodes).

        f is the sum of these times F Phi, and ||f||^2 the sum of these times |F|^2.
        """
        return self.quad.weights[None, :] * self.rho

    @cached_property
    def sigma(self):
        """Re sum_c w rho_c mix[c, a] conj(mix[c, b]), shape (2, 2, n_nodes).

        The kernel is k(x, y) = sum_l U(x)^T sigma U(y). The sum before its
        real part is taken is Hermitian, and for a real kernel its imaginary
        part vanishes; for a scattering model what remains is the sweep's
        unitarity defect.
        """
        return np.einsum("cl,cal,cbl->abl", self.weights(), self.mix, self.mix.conj()).real

    def _factors(self, x, y):
        """U(x) and sigma U(y); U is evaluated once when y is x."""
        ux = self.basis(x)
        uy = ux if y is x else self.basis(y)
        s = self.sigma[:, :, :, None]
        return ux, s[:, 0] * uy[0] + s[:, 1] * uy[1]

    def kernel_pairs(self, x, y):
        """k(x_i, y_i) elementwise over two equal-length arrays."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        ux, sy = self._factors(x, y)
        ux *= sy
        return ux.sum(axis=(0, 1))

    def kernel_matrix(self, xs, ys):
        """k(x_i, y_j) on the grid xs by ys; pass one array twice to evaluate U once."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        ux, sy = self._factors(xs, ys)
        return _as_matrix(ux).T @ _as_matrix(sy)

    def kernel(self, x, y):
        if np.ndim(x) or np.ndim(y):
            xb, yb = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
            return self.kernel_pairs(xb.ravel(), yb.ravel()).reshape(xb.shape)
        return float(self.kernel_pairs([x], [y])[0])

    def diagonal(self, y):
        return self.kernel_pairs(y, y)


class ToyModel(SpectralModel):
    """Step-profile spectral representation from the closed-form solutions."""

    def __init__(self, p_minus, p_plus, sset, quad=None, x_max=25.0):
        if not isinstance(sset, SpectralSet):
            sset = SpectralSet(sset)
        self.p_minus, self.p_plus = float(p_minus), float(p_plus)
        # the tables reach the phase omega t at t = x / sqrt(p), |t| <= x_max / sqrt(min p)
        t_max = x_max / np.sqrt(min(self.p_minus, self.p_plus))
        self.quad = quad or gauss_legendre_quadrature(sset, t_max=t_max)
        sm, sp = np.sqrt(self.p_minus), np.sqrt(self.p_plus)
        c = 2.0 / (np.pi * (sm + sp) ** 2)
        n = len(self.quad)
        self.rho = np.vstack([np.full(n, sm * c), np.full(n, sp * c)])
        # Phi_0 = cos + i sqrt(p+) sin / sqrt(p), Phi_1 = cos - i sqrt(p-) sin / sqrt(p):
        # both keep u and p u' continuous across the jump; the same mix at every node
        mix = np.array([[1.0, 1j * sp], [1.0, -1j * sm]])
        self.mix = np.broadcast_to(mix[:, :, None], (2, 2, n))

    @property
    def error_bound(self):
        return self.quad.error_bound

    def _waves(self, x):
        """(cos theta, sin theta) for theta = omega t, t = x / sqrt(p), and sqrt(p).

        p is taken on x's side of the jump. The table is the quadrature's
        `waves` at t, built by angle addition over the nodes' factorisation,
        so each entry is within 8u (1 + omega |t|) of the wave at the float64
        t, u = 2**-53; the callers finish it in place.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        root = np.where(x > 0, np.sqrt(self.p_plus), np.sqrt(self.p_minus))
        return self.quad.waves(x / root), root

    def basis(self, x):
        """The real pair U = (cos theta, sin theta / sqrt(p))."""
        out, root = self._waves(x)
        out[1] /= root
        return out

    def basis_antiderivative(self, x):
        """int_0^x U = (sqrt(p) sin theta / omega, (1 - cos theta) / omega).

        Both entries vanish at 0 from either side, so the table is continuous
        across the jump.
        """
        out, root = self._waves(x)
        cos, sin = out
        sin *= root
        np.subtract(1.0, cos, out=cos)
        out /= self.quad.nodes[:, None]
        # the rows hold the two entries in reverse order: swap them in place,
        # one node at a time, so no second table is formed
        for first, second in zip(cos, sin):
            first[:], second[:] = second, first.copy()
        return out


class SchrodingerModel(SpectralModel):
    """Lebesgue spectral representation of -D^2 + q via scattering solutions."""

    def __init__(self, q, support_radius, sset, quad=None, x_max=25.0, breakpoints=(),
                 store_interior=True):
        if not isinstance(sset, SpectralSet):
            sset = SpectralSet(sset)
        # the mix carries R2 ~ exp(-2i omega a) on top of the tables' phase omega x
        self.quad = quad or gauss_legendre_quadrature(sset, t_max=x_max + 2 * support_radius)
        self.breakpoints = breakpoints
        self.sweep = ScatteringSweep(q, support_radius, self.quad.nodes,
                                     breakpoints=breakpoints, store_interior=store_interior)
        n = len(self.quad)
        self.rho = np.full((2, n), 1.0 / (2 * np.pi))
        self.mix = self.sweep.mix

    @property
    def support_radius(self):
        return self.sweep.a

    def basis(self, x):
        return self.sweep.basis(x)

    def basis_antiderivative(self, x):
        return self.sweep.basis_antiderivative(x)

    def diagonal_tail_average(self, lo, hi):
        """Mean of k(y, y) over [lo, hi] right of the support, exact in y.

        The reflection ripple integrates in closed form, leaving a single
        frequency integral of R2 (exp(2i omega hi) - exp(2i omega lo)) / (2i omega).
        Its phase reaches 2 omega hi, beyond what the model's own rule was
        sized for, so it runs on a Gauss-Legendre rule sized for phase
        hi + 2a, with R2 from a sweep at that rule's nodes (no interior
        solutions stored); use this on long windows where sampling the
        diagonal would be wasteful.
        """
        lo, hi = float(lo), float(hi)
        a = self.support_radius
        if lo < a or hi <= lo:
            raise KernelError("need a nonempty interval right of the support")
        quad = gauss_legendre_quadrature(self.sset, t_max=hi + 2 * a)
        w = quad.nodes
        R2 = ScatteringSweep(self.sweep.q, a, w, breakpoints=self.breakpoints,
                             store_interior=False).R2
        inner = (np.exp(2j * w * hi) - np.exp(2j * w * lo)) / (2j * w)
        ripple = float(np.sum(quad.weights * (R2 * inner).real))
        return (self.sset.sqrt_measure + ripple / (hi - lo)) / np.pi


def free_model(sset, quad=None, x_max=25.0):
    """The classical Paley-Wiener model: the step profile with p- = p+ = 1."""
    return ToyModel(1.0, 1.0, sset, quad=quad, x_max=x_max)


class LiouvilleModel(SpectralModel):
    """Warped pullback: kernel of -(p f')' through the scattering kernel of q."""

    def __init__(self, profile, sset, quad=None, x_max=25.0):
        if not isinstance(profile, SmoothProfile):
            raise KernelError("warped pullback needs a smooth eventually constant profile")
        if not isinstance(sset, SpectralSet):
            sset = SpectralSet(sset)
        self.profile = profile
        # |zeta(x)| <= |x| / sqrt(inf p), and the inner mix adds the phase 2a
        # of the warped support radius a
        t_max = x_max / np.sqrt(profile.lower) + 2 * profile.warped_support_radius
        self.quad = quad or gauss_legendre_quadrature(sset, t_max=t_max)
        self.inner = SchrodingerModel(
            profile.potential_q_warped,
            profile.warped_support_radius,
            sset,
            quad=self.quad,
            breakpoints=profile.zeta([-profile.R, profile.R]),
        )
        self.rho = self.inner.rho
        self.mix = self.inner.mix

    def basis(self, x):
        """p^(-1/4) times the scattering pair at zeta(x)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        pref = np.asarray(self.profile.eval_p(x), dtype=float) ** -0.25
        out = self.inner.basis(self.profile.zeta(x))
        out *= pref
        return out

    def basis_antiderivative(self, x):
        """int U up to x, anchored at the leftmost of x and -R.

        No plane-wave closed form exists in the original coordinate: one
        composite 10-point Gauss-Legendre pass runs over panels that break at
        every x and at the blend edges +-R, where U has a kink, and are no
        wider than pi / (4 max(omega) sqrt(inf p)); a cumulative sum chains
        them. U is evaluated in blocks of at most 2**18 node-point values
        (4 MB, plus the interior spline's temporaries), and only the entries
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
        out = np.empty((2, n, x.size))
        carry = np.zeros((2, n))
        rows = max(1, 2**18 // (n * gx.size))
        for i in range(0, edges.size, rows):
            run = self.basis(pts[i:i + rows].ravel()).reshape(2, n, -1, gx.size) @ gw
            run *= half[i:i + rows]
            run[:, :, 0] += carry
            np.cumsum(run, axis=-1, out=run)
            mine = (at >= i) & (at < i + rows)
            out[:, :, mine], carry = run[:, :, at[mine] - i], run[:, :, -1]
        return out

