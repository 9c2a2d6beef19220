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
profile (the classical Paley-Wiener space is its case p = 1), and the real
and imaginary parts of a scattering sweep's solution, for a compactly
supported Schrodinger potential or, solving -(p u')' = omega^2 u itself,
for a smooth eventually constant profile.  The step-profile tables
are plane waves in t = x / sqrt(p), taken from the quadrature's `waves`:
each rule records its nodes as sums omega = o + d of non-negative shifts
and offsets, and angle addition over that factorisation calls sin and cos
on O(sqrt n) rows instead of n, with every entry within 8u (1 + omega |t|)
of the exact wave, u = 2**-53.  Each model sizes its Gauss-Legendre rule
from the largest phase t_max its tables reach for |x| <= x_max:
x_max / sqrt(min p) for the step profile, x_max + 2a for a potential
supported on [-a, a] (its mix carries R2 ~ exp(-2i omega a)), and
x_max / sqrt(inf p) + 2a for the Liouville model, a the support radius of
the warped potential, whose scattering data it shares; ``points``, the
number of abscissae the caller will tabulate, lets the rule refuse tables
that would not fit in memory before it is built.  The rule's
``error_bound`` holds for plane waves of frequency up to 2 t_max: exactly
what the step-profile kernels are made of, so only that model reports it as
its own ``error_bound``.  The scattering tables of a potential have
structure in omega (resonances, internal reflections) that the phase 2a
does not limit, so their rule is sized by the same t_max but carries no
guarantee; the tests check it against finer rules instead.  ``kernel_pairs`` and
``kernel_matrix`` are the one pointwise evaluator of every model; the
closed-form kernels (step profile, half line, free sinc) are independent
references for cross-validation.

Every model uses one coefficient convention, F_c = int f conj(Phi_c), so
that f = sum w rho F Phi.  ``SpectralModel.synthesize`` and ``analyze`` apply
M and the weights w rho to (2, n_nodes) coefficients (``basis_coefficients``
and ``from_basis_sums``) and leave the real tables of U to ``_contract``,
the one product of a complex vector with a table.  ``lattice_plan`` is the
one place that decides whether a model needs no tables at all: for the
step profile on a lattice rule it returns a `_StepLattice`, which runs
both products as nonuniform FFTs with the coefficient steps folded in, for
the sampling operator and for `paleywiener.VarBandFunction.evaluate`.
Phi itself is never tabulated.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .profile import BlendProfile
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
    sweep: ScatteringSweep | None = None  # the RK4 sweep behind U, for a scattering model

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

    def lattice_plan(self, points, edges=None):
        """U at ``points``, and its sums over the cells between ``edges``, without tables.

        The one place that decides whether a model has such a plan: None here,
        so the caller tabulates U; the step profile on a lattice rule returns
        its `_StepLattice`.
        """
        return None

    # -- coefficients against basis tables ----------------------------------

    def synthesize(self, F, table):
        """f = sum over (c, l) of w rho F Phi, at a table's points.

        ``table`` is U at m points as a (2 n_nodes, m) matrix; the mix and
        the weights act on the coefficients (see `basis_coefficients`).
        """
        return _contract(self.basis_coefficients(F).ravel(), table)

    def basis_coefficients(self, F):
        """G = mix^T (weights F) at each node, shape (2, n_nodes): f = sum G U."""
        return np.einsum("cal,cl->al", self.mix, self.weights() * F)

    def analyze(self, values, table):
        """sum_i conj(Phi_i) v_i, shape (2, n_nodes).

        ``table`` holds U (or its cell integrals) at m points as a
        (2 n_nodes, m) matrix. Since conj(Phi) v = conj(mix U conj(v)), the
        table is never conjugated: only the vector and the coefficients are
        (see `from_basis_sums`).
        """
        H = _contract(np.conj(np.asarray(values, dtype=complex)), table.T).reshape(2, -1)
        return self.from_basis_sums(H)

    def from_basis_sums(self, H):
        """conj(mix H) at each node: the sums of conj(Phi) v from H = sum U conj(v)."""
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

    def __init__(self, p_minus, p_plus, sset, quad=None, x_max=25.0, points=1):
        if not isinstance(sset, SpectralSet):
            sset = SpectralSet(sset)
        self.p_minus, self.p_plus = float(p_minus), float(p_plus)
        # the tables reach the phase omega t at t = x / sqrt(p), |t| <= x_max / sqrt(min p)
        t_max = x_max / np.sqrt(min(self.p_minus, self.p_plus))
        self.quad = quad or gauss_legendre_quadrature(sset, t_max=t_max, points=points)
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

    def lattice_plan(self, points, edges=None):
        """A `_StepLattice` on a lattice rule; None on a Gauss rule, which has no lattice."""
        return None if self.quad.lattice is None else _StepLattice(self, points, edges)

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


class _StepLattice:
    """The step profile's U at fixed points, and its cell sums, as nonuniform FFTs.

    With t = x / sqrt(p) and theta = omega t, U = (cos theta, sin theta / sqrt(p))
    and its antiderivative is A = (sqrt(p) sin theta / omega,
    (1 - cos theta) / omega), with p on x's side of the jump. Each side gets
    its own FFT grid of a `spectral.LatticeTransform` in t, on which sqrt(p)
    is one number, so every point and every cell edge is read or written
    once per apply.

    - At the points, f = G_0 cos theta + G_1 sin theta / sqrt(p) summed over
      the nodes, with G = mix^T (w rho F) (`SpectralModel.basis_coefficients`),
      is a exp(i theta) + b exp(-i theta) with a, b = (G_0 -+ i G_1 / sqrt(p)) / 2:
      a type-2 transform.
    - Over the cells, summation by parts moves the difference of A onto the
      values: sum_i y_i (A(e_(i+1)) - A(e_i)) = sum_j d_j A(e_j) with
      d_j = y_(j-1) - y_j and y_(-1) = y_N = 0. Then sum_j d_j = 0, so the
      constant 1 / omega of A drops out, and what is left is the cosine and
      sine sums of d, the half sum and half difference of the type-1 sums
      E+- = sum_j d_j exp(+-i omega t_j). With y = conj(v), F = conj(mix H)
      of these sums H is what `SpectralModel.from_basis_sums` makes of them.

    Each step between F and the FFT grids is linear and acts node by node,
    so the plan folds them, once, into two tables of shape (sign, side,
    component, node): ``into`` holds the weights w rho, the mix, the 1/2 and
    the -+i / sqrt(p) of a and b, and the deconvolution 1 / psi_k of the
    transforms' exponential-of-semicircle kernel (`spectral._es_gridding`),
    from F to the grid modes; ``out_of`` the deconvolution, the 1 / omega,
    the -1/2 and the +-i sqrt(p) of the cosine and sine sums, and the mix,
    from the modes of E+- back to the sums H that are conjugated into F. An
    apply fills and reads each interval's grids by slices
    (`_Gridding.modes`).

    Bound: ``remainder`` is the transforms' (`spectral.LatticeTransform`), so
    in exact arithmetic the values at the points are within ``remainder``
    times the l1 norm of the coefficients a, b of the exact sums at the
    float64 points and the rule's lattice, and the cell sums within
    ``remainder`` times the l1 norm of d before ``out_of`` scales them;
    float64 rounding adds about u times the same norms. This holds at any
    point set: the sample points, the cell edges, or an output grid.
    ``taps`` and ``fft_lengths`` are the transforms' (the edges share the
    points' lattice, and so their gridding).
    """

    def __init__(self, model, points, edges=None):
        roots = np.sqrt([model.p_minus, model.p_plus])
        sign = np.array([-1.0, 1.0])[:, None, None, None]  # (sign, side, component, node)
        root = roots[:, None, None]
        self.points = self._transform(model.quad, roots, points)
        self.into = []
        for run, span in zip(self.points.runs, self.points.spans):
            mix, deconvolve = model.mix[..., span], run.deconvolve[:, None, None]
            self.into.append(0.5 * deconvolve * model.weights()[:, span]
                             * (mix[:, 0] + sign * 1j * mix[:, 1] / root))
        self.remainder = self.points.remainder
        self.taps, self.fft_lengths = self.points.taps, self.points.fft_lengths
        if edges is not None:
            self.edges = self._transform(model.quad, roots, edges)
            self.omegas, self.out_of = model.omegas, []
            for run, span in zip(self.edges.runs, self.edges.spans):
                mix, deconvolve = model.mix[..., span], run.deconvolve[:, None, None]
                self.out_of.append(-0.5 * deconvolve / self.omegas[span]
                                   * (mix[:, 1] - sign * 1j * root * mix[:, 0]))
            self.remainder = max(self.remainder, self.edges.remainder)

    @staticmethod
    def _transform(quad, roots, x):
        x = np.asarray(x, dtype=float)
        side = (x > 0).astype(np.intp)
        return quad.lattice_transform(x / roots[side], side, 2)

    def at_points(self, F):
        """f = sum over (c, l) of w rho F Phi at the points, for F of shape (2, n_nodes)."""
        out = 0
        for run, span, into in zip(self.points.runs, self.points.spans, self.into):
            pad = run.pad()
            for modes, table in zip(run.modes(pad), into):
                np.multiply(table[:, 0], F[0, span], out=modes)
                modes += table[:, 1] * F[1, span]
            out = out + run.values(pad)
        return out

    def over_cells(self, values):
        """sum_i v_i int_(cell i) conj(Phi), shape (2, n_nodes), for values v at the points."""
        v = np.asarray(values, dtype=complex)
        d = np.zeros(v.size + 1, dtype=complex)
        d[1:] = v
        d[:-1] -= v
        np.conj(d, out=d)
        F = np.empty((2, len(self.omegas)), dtype=complex)
        for run, span, (plus, minus) in zip(self.edges.runs, self.edges.spans, self.out_of):
            modes = run.modes(run.sums(d))
            F[:, span] = (np.einsum("gcl,gl->cl", plus, modes[0])
                          + np.einsum("gcl,gl->cl", minus, modes[1]))
        return np.conj(F, out=F)


class ScatteringModel(SpectralModel):
    """U, its antiderivative and the mix M of a scattering sweep, with rho = 1 / (2 pi)."""

    def __init__(self, quad, sweep):
        self.quad, self.sweep = quad, sweep
        self.rho = np.full((2, len(quad)), 1.0 / (2 * np.pi))
        self.mix = sweep.mix

    def basis(self, x):
        return self.sweep.basis(x)

    def basis_antiderivative(self, x):
        return self.sweep.basis_antiderivative(x)


class SchrodingerModel(ScatteringModel):
    """Lebesgue spectral representation of -D^2 + q via scattering solutions."""

    def __init__(self, q, support_radius, sset, quad=None, x_max=25.0, breakpoints=(),
                 points=1):
        if not isinstance(sset, SpectralSet):
            sset = SpectralSet(sset)
        # the mix carries R2 ~ exp(-2i omega a) on top of the tables' phase omega x
        quad = quad or gauss_legendre_quadrature(sset, t_max=x_max + 2 * support_radius,
                                                 points=points)
        self.breakpoints = breakpoints
        super().__init__(quad, ScatteringSweep(q, support_radius, quad.nodes,
                                               breakpoints=breakpoints))

    @property
    def support_radius(self):
        return self.sweep.a

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


def free_model(sset, quad=None, x_max=25.0, points=1):
    """The classical Paley-Wiener model: the step profile with p- = p+ = 1."""
    return ToyModel(1.0, 1.0, sset, quad=quad, x_max=x_max, points=points)


class LiouvilleModel(ScatteringModel):
    """Kernel of -(p f')' for a smooth eventually constant p, from the sweep of that equation.

    The sweep runs over the blend [-R, R] with p and q = 0, so the Liouville
    transform is never formed; its T, R1 and R2 are those of the warped
    potential, and the rule is sized as for it.
    """

    def __init__(self, profile, sset, quad=None, x_max=25.0, points=1):
        if not isinstance(profile, BlendProfile):
            raise KernelError("the Liouville model needs a smooth eventually constant profile")
        if not isinstance(sset, SpectralSet):
            sset = SpectralSet(sset)
        self.profile = profile
        # |zeta(x)| <= |x| / sqrt(inf p), and the mix adds the phase 2a of the
        # warped support radius a
        t_max = x_max / np.sqrt(profile.lower) + 2 * profile.warped_support_radius
        quad = quad or gauss_legendre_quadrature(sset, t_max=t_max, points=points)
        super().__init__(quad, ScatteringSweep(np.zeros_like, profile.R, quad.nodes,
                                               profile=profile))
