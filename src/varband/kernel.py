"""Reproducing kernels of the variable-bandwidth Paley-Wiener spaces.

Every model writes its pair of fundamental solutions as Phi = M(omega) U, a
per-node complex 2x2 matrix ``mix`` M applied to a real fundamental system
U = ``basis``, and carries a measure weight rho on the frequency nodes.  The
kernel

    k(x, y) = sum_l w_l sum_c rho[c, l] Phi_c(omega_l, x) conj(Phi_c(omega_l, y))
            = sum_l U(omega_l, x)^T Sigma_l U(omega_l, y)

is then one real product through the real symmetric 2x2 density
Sigma = Re(M^T diag(w rho) conj M) of each node.  U has one form, evaluated
in one place, `SpectralModel`: on each plateau of p a function of variable
bandwidth is bandlimited in the warp z = zeta(x), so on each side of a
model's interior [-a, a] U is a per-node real 2x2 map of the plane waves
(cos omega z, sin omega z), z affine in x.  A model states only that map,
dx/dz, its profile and where its antiderivative is anchored: the two-plateau
step profile (the classical Paley-Wiener space is its case p = 1), with
z = x / sqrt(p) and no interior, or a scattering sweep, for a compactly
supported Schrodinger potential or, solving -(p u')' = omega^2 u itself,
for a smooth eventually constant profile, with z = zeta(x), the map from T
and R1 and the sweep's interior spline inside the support.  The waves
are the quadrature's `waves(z)`, each within 8u (1 + omega |z|) of the
exact wave, u = 2**-53.

Every model holds its ``profile``, and its warp is that profile's zeta. One
helper sizes every Gauss-Legendre rule from it: the tables reach the phase
|zeta(x)| for |x| <= x_max, and a model with an interior [-a, a] adds the
phase 2 zeta(+-a) of a reflection across it (a potential's mix carries
R2 ~ exp(-2i omega a)), so t_max = max |zeta(+-x_max)| + 2 max |zeta(+-a)|,
a = 0 for the step profile; ``points``, the number of abscissae the caller
will tabulate, lets the rule refuse tables that would not fit in memory
before it is built.  The rule's ``error_bound`` holds for plane waves of
frequency up to 2 t_max: exactly what the step-profile kernels are made of,
so only that model reports it as its own ``error_bound``.  The scattering
tables of a potential have structure in omega (resonances, internal
reflections) that the phase 2a does not limit, so their rule carries no
guarantee; the tests check it against finer rules instead.
``kernel_pairs`` and ``kernel_matrix`` are the one pointwise evaluator of
every model; the closed-form kernels (step profile, half line, free sinc)
are independent references for cross-validation.

Every model uses one coefficient convention, F_c = int f conj(Phi_c), so
that f = sum w rho F Phi.  ``SpectralModel.synthesize`` and ``analyze`` apply
M and the weights w rho to (2, n_nodes) coefficients (``basis_coefficients``
and ``from_basis_sums``) and leave the real tables of U to ``_contract``,
the one product of a complex vector with a table.  ``plan`` is the one
sampling plan of every model, for the sampling operator and for
`paleywiener.VarBandFunction.evaluate`: a `_Plan`, which on a lattice rule
runs both products on the tails as nonuniform FFTs in z with the maps and
the coefficient steps folded in, and takes the rest, the interior [-a, a],
or every point on a Gauss rule, from real tables of U.  Phi itself is
never tabulated.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .profile import BandwidthProfile, BlendProfile, toy_profile
from .schrodinger import _UNIT, ScatteringSweep, liouville_sweep
from .spectral import SpectralQuadrature, SpectralSet, gauss_legendre_quadrature


# entries per temporary while a table is finished: a block of nodes, or of
# points, whose scratch stays in cache and beside the table stays small
_BLOCK_ENTRIES = 1 << 14


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


def _gauss_rule(profile, sset, x_max, a, points):
    """The Gauss-Legendre rule for the tables of a model on ``profile`` out to |x| <= x_max.

    Sized for t_max = max |zeta(+-x_max)| + 2 max |zeta(+-a)|, a the radius of
    the model's interior (0 for none); see the module docstring.
    """
    reach = [float(np.max(np.abs(profile.zeta(np.array([-r, r]))))) for r in (x_max, a)]
    sset = sset if isinstance(sset, SpectralSet) else SpectralSet(sset)
    return gauss_legendre_quadrature(sset, t_max=reach[0] + 2 * reach[1], points=points)


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
    and ``mix`` with shape (2, 2, n_nodes), so that with
    Phi_c = sum_a mix[c, a] U_a at each node

        transform:  F_c(w_l) = int f conj(Phi_c) dx
        synthesis:  f(x) = sum_l w_l sum_c rho_c F_c Phi_c
        norm^2:     sum_l w_l sum_c rho_c |F_c|^2

    and state the real pair U by its plane-wave tails: on side s of the
    interior [-a, a] (0 for x <= 0, 1 for x > 0; a = ``interior``, None for
    none), z = ``warp(x)``, the zeta of the model's ``profile``, is affine
    with dx/dz = sqrt(p_s), and

        U = L_s (cos omega z, sin omega z),
        int U = P_s (sin omega z, -cos omega z) / omega + C_s,

    with per-node real maps (L, P) = ``tails`` of shape (side, 2, 2, n_nodes),
    P_s = sqrt(p_s) L_s, and ``constants`` C_s from ``_anchors()``, a warped
    point z_s per side where int U is K_s. Inside, U and int U are the
    interior spline of the model's ``sweep``.
    """

    quad: SpectralQuadrature
    profile: BandwidthProfile
    rho: np.ndarray
    mix: np.ndarray
    interior = None  # the radius a of the interior [-a, a] where U is no tail, or None
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

    def warp(self, x):
        """z = zeta(x) of the model's profile."""
        return self.profile.zeta(x)

    @cached_property
    def _primitive_maps(self):
        """P J / omega, J = [[0, 1], [-1, 0]]: int U = this map of (cos, sin) plus C."""
        P = self.tails[1]
        return np.stack([-P[:, :, 1], P[:, :, 0]], axis=2) / self.quad.nodes

    @cached_property
    def constants(self):
        """C_s = K_s - P_s (sin omega z_s, -cos omega z_s) / omega, shape (side, 2, n_nodes)."""
        z, values = self._anchors()  # waves(z) is (cos/sin, node, side)
        return values - np.einsum("sakl,kls->sal", self._primitive_maps, self.quad.waves(z))

    def basis(self, x):
        """The real pair U(omega_l, x), float64 of shape (2, n_nodes, n_x).

        Returned in a fresh array: ``kernel_pairs`` overwrites it in place.
        """
        return self._table(x, False)

    def basis_antiderivative(self, x):
        """int U(omega_l, y) dy up to x, float64 of shape (2, n_nodes, n_x).

        Anchored at a fixed point of the model's choosing, so the integral
        over a cell [lo, hi] is the entry at hi minus the entry at lo: one
        table and one ``np.diff`` give every cell between sorted edges.
        """
        return self._table(x, True)

    def _table(self, x, integrated):
        """U or int U at x: `waves` at z = warp(x), each side's map and constant applied in place.

        Only the tails are warped: interior columns take z = 0 until
        `_fill_interior` overwrites them. The maps act one block of nodes at
        a time and `_fill_interior` one block of points, so no temporary
        beside the table holds more than `_BLOCK_ENTRIES` entries.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        maps = self._primitive_maps if integrated else self.tails[0]
        inside = (np.abs(x) <= self.interior if self.interior is not None
                  else np.zeros(x.shape, dtype=bool))
        z = np.zeros_like(x)
        z[~inside] = self.warp(x[~inside])
        out = self.quad.waves(z)
        right, n = x > 0, len(self.quad)
        rows = max(1, _BLOCK_ENTRIES // max(1, x.size))
        for lo in range(0, n, rows):
            span = slice(lo, lo + rows)
            block = out[:, span]
            mapped = np.where(right, maps[1, :, :, span, None], maps[0, :, :, span, None])
            mapped *= block
            np.add(mapped[:, 0], mapped[:, 1], out=block)
            if integrated:
                C = self.constants[:, :, span, None]
                block += np.where(right, C[1], C[0])
        return self._fill_interior(out, x, np.flatnonzero(inside), integrated)

    def _fill_interior(self, out, x, cols, integrated):
        """out[:, :, cols] = U, or int U, at x[cols] in the interior: the sweep's solution.

        One block of points at a time, so no temporary holds more than
        `_BLOCK_ENTRIES` entries; returns ``out``.
        """
        step = max(1, _BLOCK_ENTRIES // len(self.quad))
        for lo in range(0, cols.size, step):
            block = cols[lo:lo + step]
            out[:, :, block] = self.sweep.solution(x[block], integrated)
        return out

    def plan(self, points, edges=None):
        """U at ``points``, and its sums over the cells between sorted ``edges``: a `_Plan`."""
        return _Plan(self, points, edges)

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
        self.profile = toy_profile(p_minus, p_plus)
        self.p_minus, self.p_plus = self.profile.p_minus, self.profile.p_plus
        self.quad = quad or _gauss_rule(self.profile, sset, x_max, 0.0, points)
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

    @cached_property
    def tails(self):
        """L = diag(1, 1 / sqrt(p)), P = diag(sqrt(p), 1) on each side, at every node.

        So U = (cos theta, sin theta / sqrt(p)), theta = omega t, and int_0^x U
        = (sqrt(p) sin theta / omega, (1 - cos theta) / omega).
        """
        roots = np.sqrt([self.p_minus, self.p_plus])
        L = np.array([[[1.0, 0.0], [0.0, 1.0 / r]] for r in roots])[..., None]
        P = np.array([[[r, 0.0], [0.0, 1.0]] for r in roots])[..., None]
        shape = (2, 2, 2, len(self.quad))
        return np.broadcast_to(L, shape), np.broadcast_to(P, shape)

    def _anchors(self):
        """int U vanishes at t = 0 from either side, so it is continuous across the jump."""
        return np.zeros(2), 0.0


_ALL, _NONE = slice(None), slice(0)  # every point, and none, as views


class _Plan:
    """U at fixed points, and its cell sums: tails as nonuniform FFTs, the rest from tables.

    On a lattice rule, a point off the interior [-a, a] (every point, for a
    model without one) is a tail: on side s (0 for x <= 0, 1 for x > 0),
    with z = ``warp(x)`` and theta = omega z, U = L_s (cos theta, sin theta)
    and its antiderivative is A = P_s (sin theta, -cos theta) / omega + C_s
    (`SpectralModel.tails`, `SpectralModel.constants`). Each side gets its
    own FFT grid of a `spectral.LatticeTransform` in z, on which L_s and P_s
    are per-node maps, so every tail point and edge is read or written once
    per apply. The other points, |x| <= a, or every point on a Gauss rule,
    are columns of real tables of U and A (``table``, ``cells``). ``kind`` is
    "nufft" where the rule has a lattice, "dense" where it has none.

    - At the points, f = sum over the nodes of G^T U, with
      G = mix^T (w rho F) (`SpectralModel.basis_coefficients`), is on the
      tails g_c cos theta + g_s sin theta with (g_c, g_s) = L_s^T G, that is
      a exp(i theta) + b exp(-i theta) with a, b = (g_c -+ i g_s) / 2:
      a type-2 transform.
    - Over the cells, summation by parts moves the difference of A onto the
      values: sum_i y_i (A(e_(i+1)) - A(e_i)) = sum_j d_j A(e_j) with
      d_j = y_(j-1) - y_j and y_(-1) = y_N = 0, each edge's A from the part
      that holds it. On the tails, the cosine and sine sums of d on each side
      are the half sum and half difference of the type-1 sums
      E+- = sum_j d_j exp(+-i omega z_j), and the constants add
      C_0 D_0 + C_1 D_1, D_s the sum of d over side s: for sorted edges, k_0
      of them left of the interior and k_1 the first right of it, that is
      C_1 y_(k_1 - 1) - C_0 y_(k_0 - 1), or (C_1 - C_0) y_(k - 1) where
      k_0 = k_1 = k: 0 for the step profile. With y = conj(v),
      F = conj(mix H) of these sums H is what
      `SpectralModel.from_basis_sums` makes of them.

    Each step between F and the transforms' coefficients is linear and acts
    node by node, so the plan folds them, once, into two tables of shape
    (side, sign, component, node): ``into`` holds the weights w rho, the
    mix, L_s and the 1/2 and -+i of a and b, from F to the coefficients of
    `spectral.LatticeTransform.synthesize`; ``out_of`` P_s / omega, the 1/2
    and +-i of the cosine and sine sums, and the mix, from the sums E+- of
    its ``analyze`` back to the sums H that are conjugated into F. Where
    every point is a tail, an apply is the transforms alone.

    Bound: ``remainder`` is the transforms' (`spectral.LatticeTransform`), so
    in exact arithmetic the values at the tail points are within
    ``remainder`` times the l1 norm of the coefficients a, b of the exact
    sums at the float64 points and the rule's lattice, and the tails' cell
    sums within ``remainder`` times the l1 norm of d before ``out_of``
    scales them; float64 rounding adds about u times the same norms. This
    holds at any point set: the sample points, the cell edges, or an output
    grid. ``taps`` and ``fft_lengths`` are the transforms' (the edges share
    the points' lattice, and so their gridding); all three are None without
    a lattice.
    """

    def __init__(self, model, points, edges=None):
        self.model, self.lattice = model, model.quad.lattice is not None
        self.kind = "nufft" if self.lattice else "dense"
        self.remainder = self.taps = self.fft_lengths = None
        x = np.asarray(points, dtype=float)
        self.tail, self.inside = self._split(x)
        self.table = self._columns(x[self.inside], False)
        if self.lattice:
            sign = np.array([-1.0, 1.0])[:, None, None]  # (sign, component, node)

            def fold(maps, scale):  # (side, sign, component, node), the transforms' order
                mixed = np.einsum("cal,sakl->sckl", model.mix, maps)[:, None]
                return scale * (mixed[..., 0, :] + sign * 1j * mixed[..., 1, :])

            self.transform = self._transform(x[self.tail])
            self.into = fold(model.tails[0], 0.5 * model.weights())
            self.remainder = self.transform.remainder
            self.taps, self.fft_lengths = self.transform.taps, self.transform.fft_lengths
        if edges is not None:
            e = np.asarray(edges, dtype=float)
            self.edge_tail, self.edge_inside = self._split(e)
            self.cells = self._columns(e[self.edge_inside], True)
            if self.lattice:
                tail = e[self.edge_tail]
                self.edges = self._transform(tail)
                self.out_of = fold(model._primitive_maps, 0.5)
                C = np.einsum("cal,sal->scl", model.mix, model.constants)
                right = int(np.count_nonzero(tail > 0))
                k0, k1 = tail.size - right, e.size - right
                self.ends = ([(C[1] - C[0], k0 - 1)] if k0 == k1
                             else [(C[1], k1 - 1), (-C[0], k0 - 1)])
                self.remainder = max(self.remainder, self.edges.remainder)

    def _split(self, x):
        """(tails, rest): the indices of x for the transforms and the tables; views if all."""
        if not self.lattice:
            return _NONE, _ALL
        if self.model.interior is None:
            return _ALL, _NONE
        inside = np.abs(x) <= self.model.interior
        return np.flatnonzero(~inside), np.flatnonzero(inside)

    def _columns(self, x, integrated):
        """U, or int U, at x as a (2 n_nodes, x.size) matrix; None where the transforms hold all.

        On a lattice rule x is in the interior: the sweep's solution, and no waves.
        """
        if not self.lattice:
            return _as_matrix(self.model._table(x, integrated))
        if not x.size:
            return None
        out = np.empty((2, len(self.model.quad), x.size))
        return _as_matrix(self.model._fill_interior(out, x, np.arange(x.size), integrated))

    def _transform(self, x):
        return self.model.quad.lattice_transform(self.model.warp(x), (x > 0).astype(np.intp), 2)

    def at_points(self, F):
        """f = sum over (c, l) of w rho F Phi at the points, for F of shape (2, n_nodes)."""
        rest = None if self.table is None else self.model.synthesize(F, self.table)
        if not self.lattice:
            return rest
        tails = self.transform.synthesize(self.into[:, :, 0] * F[0] + self.into[:, :, 1] * F[1])
        if rest is None:
            return tails
        out = np.empty(tails.size + rest.size, dtype=complex)
        out[self.tail], out[self.inside] = tails, rest
        return out

    def over_cells(self, values):
        """sum_i v_i int_(cell i) conj(Phi), shape (2, n_nodes), for values v at the points."""
        v = np.asarray(values, dtype=complex)
        d = np.concatenate(([0], v)) - np.concatenate((v, [0]))  # d_j = v_(j-1) - v_j
        rest = None if self.cells is None else self.model.analyze(d[self.edge_inside], self.cells)
        if not self.lattice:
            return rest
        y = np.conj(d, out=d)[self.edge_tail]
        F = (self.out_of * self.edges.analyze(y)[:, :, None]).sum(axis=(0, 1))
        for C, j in self.ends:
            if 0 <= j < v.size:
                F += C * np.conj(v[j])
        F = np.conj(F, out=F)
        return F if rest is None else F + rest


class ScatteringModel(SpectralModel):
    """U = (Re u, Im u) of a sweep's solution u, its mix M, and rho = 1 / (2 pi)."""

    def __init__(self, quad, sweep):
        self.quad, self.sweep, self.profile = quad, sweep, sweep.profile
        self.rho = np.full((2, len(quad)), 1.0 / (2 * np.pi))
        self.mix = sweep.mix
        self.interior = sweep.a

    @cached_property
    def tails(self):
        """u off the support: p+^(1/4) u = e = exp(i omega zeta) right of it, so
        p+^(1/4) U = (cos, sin); left of it p-^(1/4) u = alpha e + beta conj(e),
        alpha = 1/T and beta = R1/T, that is (alpha + beta) cos + i (alpha -
        beta) sin, a real 2x2 map of (cos, sin). dx/dz = p+-^(1/2) there.
        """
        T, R1, prof = self.sweep.T, self.sweep.R1, self.profile
        plus, minus = (1 + R1) / T, (1 - R1) / T
        left = np.array([[plus.real, -minus.imag], [plus.imag, minus.real]])
        maps = np.stack([left, np.broadcast_to(np.eye(2)[:, :, None], left.shape)])
        roots = np.array([prof.p_minus, prof.p_plus])[:, None, None, None] ** 0.25
        return maps / roots, maps * roots

    def _anchors(self):
        """int U from -a: 0 at -a, the integral over the support at a."""
        a = self.sweep.a
        values = np.zeros((2, 2, len(self.quad)))
        values[1] = self.sweep.solution(np.array([a]), True)[:, :, 0]
        return self.warp(np.array([-a, a])), values


class SchrodingerModel(ScatteringModel):
    """Lebesgue spectral representation of -D^2 + q via scattering solutions."""

    def __init__(self, q, support_radius, sset, quad=None, x_max=25.0, breakpoints=(),
                 points=1):
        quad = quad or _gauss_rule(_UNIT, sset, x_max, support_radius, points)
        super().__init__(quad, ScatteringSweep(q, support_radius, quad.nodes,
                                               breakpoints=breakpoints))

    def diagonal_tail_average(self, lo, hi):
        """Mean of k(y, y) over [lo, hi] right of the support, exact in y.

        The reflection ripple integrates in closed form, leaving a single
        frequency integral of R2 (exp(2i omega hi) - exp(2i omega lo)) / (2i omega).
        Its phase reaches 2 omega hi, beyond what the model's own rule was
        sized for, so it runs on the Gauss-Legendre rule sized for |x| <= hi,
        with R2 from a sweep at that rule's nodes, whose interior is never
        asked for; use this on long windows where sampling the diagonal
        would be wasteful.
        """
        lo, hi = float(lo), float(hi)
        a = self.interior
        if lo < a or hi <= lo:
            raise KernelError("need a nonempty interval right of the support")
        quad = _gauss_rule(self.profile, self.sset, hi, a, 1)
        w = quad.nodes
        R2 = ScatteringSweep(self.sweep.q, a, w, breakpoints=self.sweep.breakpoints).R2
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
    potential, whose support radius is zeta(+-R).
    """

    def __init__(self, profile, sset, quad=None, x_max=25.0, points=1):
        if not isinstance(profile, BlendProfile):
            raise KernelError("the Liouville model needs a smooth eventually constant profile")
        quad = quad or _gauss_rule(profile, sset, x_max, profile.R, points)
        super().__init__(quad, liouville_sweep(profile, quad.nodes))
