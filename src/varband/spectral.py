"""Spectral sets on the positive half-axis and quadrature rules on their square roots.

All frequency-domain integrals in this package are performed after the
substitution lambda = omega**2, i.e. over the set
``Lambda^{1/2} = {omega >= 0 : omega**2 in Lambda}``.

`SpectralQuadrature.waves` tabulates the plane waves (cos omega t,
sin omega t) of a rule's nodes directly, from the float64 phases omega t.

The Gauss-Legendre rule takes no resolution setting: given the largest phase
its plane waves reach, it uses the widest panels whose classical remainder
meets u = 2**-53 per unit measure, and records that ``remainder`` and, with
the stated rounding of its float64 nodes and weights, its ``error_bound``.

The uniform (midpoint) rule also records its ``lattice``: each interval's
nodes are omega_l = first + l spacing, computed by that formula. On such a
rule the sums sum_l c_l exp(i omega_l t_j) at fixed points t_j, and their
adjoints, are nonuniform FFTs; `LatticeTransform` applies them by gridding
with the exponential-of-semicircle kernel exp(beta (sqrt(1 - z^2) - 1)),
half-width w = 9 grid steps and beta = 2.30 (2w), at oversampling at least
2, in O(n log n + m) per apply instead of the O(n m) of a `waves` table. Its
stated remainder, 2.0e-16 within 8u, is the largest aliasing error of one
mode, which Poisson summation gives and which is largest at the top mode
at oversampling 2 (see `_es_gridding`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np


class SpectralSetError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralSet:
    """Finite union of disjoint closed intervals ``[a, b]`` with ``a >= 0``."""

    intervals: tuple

    def __init__(self, intervals):
        ivs = [(float(a), float(b)) for a, b in intervals]
        ivs.sort()
        for a, b in ivs:
            if a < 0:
                raise SpectralSetError(f"interval [{a}, {b}] extends below 0")
            if b < a:
                raise SpectralSetError(f"interval [{a}, {b}] is reversed")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 <= b0:
                raise SpectralSetError("intervals overlap or touch")
        object.__setattr__(self, "intervals", tuple(ivs))

    @property
    def measure(self):
        return sum(b - a for a, b in self.intervals)

    @property
    def lambda_max(self):
        return self.intervals[-1][1]

    @property
    def sqrt_intervals(self):
        """Intervals of ``Lambda^{1/2}`` in the omega variable."""
        return tuple((np.sqrt(a), np.sqrt(b)) for a, b in self.intervals)

    @property
    def sqrt_measure(self):
        return sum(b - a for a, b in self.sqrt_intervals)


@dataclass(frozen=True, eq=False)
class SpectralQuadrature:
    """Nodes/weights discretizing ``int_{Lambda^{1/2}} . d omega``.

    Nodes lie strictly inside the omega intervals (omega = 0 is always
    excluded). ``covered_measure`` is the sum of the weights: ``|Lambda^{1/2}|``
    up to roundoff for Gauss rules, possibly slightly less for the
    window-matched uniform rule (see `uniform_quadrature`).

    ``error_bound`` bounds the float64 Gauss-Legendre rule's error for unit
    plane waves of the frequencies it was sized for: the exact rule's
    ``remainder`` plus the rounding of its nodes and weights (see
    `gauss_legendre_quadrature`); both are None for the midpoint rule.

    ``lattice`` is the midpoint rule's arithmetic progressions, one
    ``(first, spacing, count)`` triple per interval in node order: the
    interval's nodes are first + l spacing, l < count, bit for bit. It is
    None for a Gauss rule, which has no lattice. Two quadratures compare and
    hash by identity.
    """

    sset: SpectralSet
    nodes: np.ndarray
    weights: np.ndarray
    error_bound: float = None
    lattice: tuple = None
    remainder: float = None

    def __post_init__(self):
        if self.nodes.size == 0:
            raise SpectralSetError("empty spectral quadrature")
        if np.any(self.weights <= 0):
            raise SpectralSetError("quadrature weights must be positive")
        if self.lattice is not None and sum(n for _, _, n in self.lattice) != self.nodes.size:
            raise SpectralSetError("the lattice does not count the nodes")

    def __len__(self):
        return self.nodes.size

    @property
    def covered_measure(self):
        return float(self.weights.sum())

    def waves(self, t):
        """(cos omega t, sin omega t) at every node and point, float64 of shape (2, n, m).

        The phases omega t are formed in ``out[0]``, sin is taken from them
        into ``out[1]`` and cos in place, so no (n, m) temporary is made.

        Bound: every entry is within 8u (1 + omega |t|) of the exact value at
        the float64 node and t, u = 2**-53: the phase rounds by at most
        u omega |t|, and numpy's sin and cos add a few u.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((2, self.nodes.size, t.size))
        np.multiply.outer(self.nodes, t, out=out[0])
        np.sin(out[0], out=out[1])
        np.cos(out[0], out=out[0])
        return out

    def lattice_transform(self, t, grid, n_grids):
        """The rule's plane waves exp(+-i omega t) at fixed points, as a `LatticeTransform`.

        Point j belongs to grid ``grid[j]`` of ``n_grids``, so that
        coefficients may differ between groups of points. Raises
        `SpectralSetError` for a rule without a lattice.
        """
        if self.lattice is None:
            raise SpectralSetError("only a rule on a lattice has a nonuniform FFT")
        return LatticeTransform(self.lattice, np.asarray(t, dtype=float),
                                np.asarray(grid, dtype=np.intp), n_grids)


# the gridding's remainder must stay within 8u, the constant term of the
# per-entry bound of a `waves` table
_GRID_TOLERANCE = 8 * 2.0**-53
_ES_WIDTH = 9  # half-width w: each point reads or writes 2w = 18 grid points
_ES_BETA = 2.30 * 2 * _ES_WIDTH
_GRID_REMAINDER = 2.0e-16  # derived in `_es_gridding`
_ES_NODES = 64  # trapezoid nodes per period for the kernel's Fourier transform


def _five_smooth(n):
    """The smallest 2^a 3^b 5^c >= n: an FFT length of small prime factors only."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        factor = odd
        while factor < best:
            best = min(best, factor << (-(-n // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


@lru_cache(maxsize=64)  # a pure function of top, asked again by every plan on one rule
def _es_gridding(top):
    """(grid size M, read-only 1 / psi_k for k = 0 ... top) for modes |k| <= top.

    The grid has M points x_m = 2 pi m / M, spacing h = 2 pi / M, with M the
    smallest 5-smooth number (2^a 3^b 5^c, which FFTs fastest) at or above
    max(4 (top + 1), 2w): oversampling at least 2 over the band |k| <= top.
    Each point reads or writes the 2w grid points nearest to it, weighted by
    the exponential of semicircle (Barnett, Magland and af Klinteberg, SIAM
    J. Sci. Comput. 41, 2019)

        phi(z) = exp(beta (sqrt(1 - z^2) - 1)),   |z| <= 1,  z = gap / w,

    with the gap in grid steps, w = 9 and beta = 2.30 (2w); the gridding
    frame is Greengard and Lee's (SIAM Review 46, 2004). Mode k is then
    deconvolved by 1 / psi_k, with psi_k = (w h / 2 pi) int phi(z) cos(k w h z) dz
    (`_es_transform`).

    Remainder. phi vanishes past |z| = 1, so gridding mode k is exact but for
    the modes the grid aliases onto it: by Poisson summation over the grid,
    a point at offset delta (in grid steps) past a grid point gets
    exp(i k x) times 1 + E, with the single-mode error

        E = sum_{p != 0} psi(k + p M) exp(2 pi i p delta) / psi(k).

    Both transforms are sums of single modes (type 1 is the adjoint of type
    2), so each value is within sup |E| times the l1 norm of the input.
    psi(k) is (w / M) F(k / M) with F(nu) = int phi(z) cos(2 pi w nu z) dz, so
    E depends on k and M only through nu = k / M, and every mode of every
    plan has nu <= top / M < 1/4: one constant bounds them all. F falls on
    the passband [0, 1/4], while the images nu + p, |p| >= 1, lie at or past
    3/4, beyond the kernel's cutoff beta / (2 pi w) = 0.73, where |F| is
    below 1e-17 (F(0) = 0.39) and its envelope shrinks with distance. The
    nearest image, nu - 1, comes
    closest to the cutoff as nu grows, so E is largest at the top mode at
    oversampling 2, nu -> 1/4; a larger grid moves the top mode down the
    passband and makes it smaller. Computed in 30-digit arithmetic from the
    2w-tap sums themselves (which also cover the one end value e^-beta the
    taps leave out at delta = 0), sup E over 64 offsets is 1.1e-18 at nu = 0,
    3.8e-17 at 0.2, 1.4e-16 at 0.24 and 1.90e-16 at nu = 1/4. Sampling delta
    bounds the supremum: the image nu - 1 contributes a term of constant
    modulus, 1.82e-16 at nu = 1/4, and E varies with delta only through the
    others, whose sum stays below 1.2e-17 at 1024 offsets, so
    sup E <= 1.82e-16 + 1.2e-17 < 2.0e-16 = ``_GRID_REMAINDER``, within 8u.
    At w = 8 the same sum reaches 1.6e-14, past 8u. The constant is stated,
    not computed per plan: float64 stops near 1.5e-14 on this quantity, and
    long double is float64 on some platforms.
    """
    size = _five_smooth(max(4 * (top + 1), 2 * _ES_WIDTH))
    inverse = 1.0 / _es_transform(np.arange(top + 1), size)
    inverse.flags.writeable = False
    return size, inverse


def _es_transform(k, size):
    """psi_k = (w h / 2 pi) int_{-1}^{1} phi(z) cos(k w h z) dz, h = 2 pi / size, |k| <= size / 4.

    With z = sin s the integrand, exp(beta (cos s - 1)) cos(a sin s) cos s
    for a = k w h < beta, is analytic in s. Moving the path from the real
    s in [-pi/2, pi/2] up to Im s = eta, tanh eta = a / beta, turns the
    exponent into R cos s - beta, R = sqrt(beta^2 - a^2), and leaves

        int phi(z) cos(a z) dz = (beta / R) int_{-pi/2}^{pi/2} exp(R cos s - beta) cos s ds:

    a positive integrand instead of one that oscillates. The two end pieces
    of the path are below e^-beta (cosh eta - 1), and extending the integral
    to the full period adds below e^-beta 2 / R^2; both are under 1e-17 of
    the result. The periodic integrand is then summed by the trapezoid rule
    on 64 nodes centred on s = 0, whose error is below 1e-19 of it at
    R <= beta. R cos s - beta is formed as -2 R sin(s/2)^2 - a^2 / (R + beta),
    without cancellation, so psi_k inherits mainly the rounding of a, which
    the band edge amplifies (d log psi / d log a = -a^2 / R, about -5 at
    the top mode): it comes out within about 10u.
    """
    a = (2 * np.pi * _ES_WIDTH / size) * np.asarray(k, dtype=float)
    root = np.sqrt((_ES_BETA - a) * (_ES_BETA + a))
    shift = a * a / (root + _ES_BETA)
    total = np.zeros_like(a)
    for s in (2 * np.pi / _ES_NODES) * (np.arange(_ES_NODES) - _ES_NODES // 2):
        total += np.cos(s) * np.exp(-2 * np.sin(s / 2) ** 2 * root - shift)
    return (_ES_WIDTH / size) * (_ES_BETA / root) * total * (2 * np.pi / _ES_NODES)


class LatticeTransform:
    """The sums of exp(+-i omega_l t_j) over a lattice rule's nodes at fixed points t_j.

    ``synthesize`` (type 2) takes coefficients c of shape (n_grids, 2, n) and
    returns, at each point j on grid g,

        sum_l c[g, 0, l] exp(i omega_l t_j) + c[g, 1, l] exp(-i omega_l t_j);

    ``analyze`` (type 1) takes values y at the points and returns, of shape
    (n_grids, 2, n), the sums over each grid's points of y exp(i omega_l t)
    and of y exp(-i omega_l t).

    On an interval's lattice omega_l = first + l spacing, with theta = spacing t,

        exp(i omega_l t) = exp(i first t) exp(i l theta),
        exp(-i omega_l t) = exp(i (spacing - first) t) exp(-i (l + 1) theta):

    one pointwise pre-phase per sign, and the integer modes l and -(l + 1)
    in theta, which sit at the two ends of an FFT grid: mode l at position
    l, mode -(l + 1) at size - 1 - l. These are 2 pi-periodic in theta, so t
    may lie anywhere, on any window. Where the interval starts at 0
    (first = spacing / 2), the two pre-phases are one, and both signs share
    one FFT grid; otherwise each sign has its own. The modes are not
    centred: mode l's phase rounds by about u omega_l |t|, as a `waves`
    entry does, and the lowest nodes get the gridding's most accurate modes.
    The plan stores, for every point, its pre-phases and the grid indices and
    weights of its 2w = 18-point exponential-of-semicircle window (see
    `_es_gridding`); an apply is
    one FFT per grid and sign plus one gather (type 2) or one ``np.bincount``
    spread per real part (type 1). Each grid has its own FFT grid, and a
    point reads or writes only its own.

    Bound: ``remainder`` is eps = `_GRID_REMAINDER`, 2.0e-16 (its derivation
    is in `_es_gridding`), so every value of
    either transform is within eps sum |c| (type 2) or eps sum |y| (type 1)
    of the exact sum at the float64 points and lattice, in exact arithmetic.
    A rule of several intervals has one lattice, and one plan, per interval:
    ``runs``, whose nodes are ``spans``. ``taps`` is the number of grid
    points each point reads or writes, 2w = 18, and ``fft_lengths`` the FFT
    length of each run.
    """

    def __init__(self, lattice, t, grid, n_grids):
        self.runs = [_Gridding(first, spacing, count, t, grid, n_grids)
                     for first, spacing, count in lattice]
        bounds = np.cumsum([0] + [count for _, _, count in lattice])
        self.spans = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        self.remainder = max(run.remainder for run in self.runs)
        # what an apply reads or writes per point, and the FFT length per interval
        self.taps = max(run.index.shape[1] for run in self.runs)
        self.fft_lengths = [run.size for run in self.runs]

    def synthesize(self, c):
        out = 0
        for run, span in zip(self.runs, self.spans):
            pad = run.pad()
            for sign, modes in enumerate(run.modes(pad)):
                np.multiply(c[:, sign, span], run.deconvolve[sign], out=modes)
            out = out + run.values(pad)
        return out

    def analyze(self, y):
        y = np.asarray(y, dtype=complex)
        out = np.empty((self.runs[0].n_grids, 2, self.spans[-1].stop), dtype=complex)
        for run, span in zip(self.runs, self.spans):
            for sign, modes in enumerate(run.modes(run.sums(y))):
                np.multiply(modes, run.deconvolve[sign], out=out[:, sign, span])
        return out


class _Gridding:
    """One interval's gridding plan at fixed points (see `LatticeTransform`).

    Its FFT grids are arrays of shape (rows, n_grids, size), one row per
    pre-phase; `modes` gives the views of the modes l and -(l + 1) in them,
    both in node order, and ``deconvolve`` the factors 1 / psi_k of those
    modes. ``index`` and ``weights``, of shape (points, 2w), are each point's
    grid points and its exponential-of-semicircle weights there (see
    `_es_gridding`), and ``remainder`` is the stated `_GRID_REMAINDER`.
    """

    remainder = _GRID_REMAINDER

    def __init__(self, first, spacing, count, t, grid, n_grids):
        size, inverse = _es_gridding(count)
        self.count, self.size, self.n_grids = count, size, n_grids
        phase = np.exp(1j * first * t)
        if 2 * first == spacing:  # symmetric: one pre-phase, one FFT grid for both signs
            self.prephase = phase[None]
        else:
            self.prephase = np.stack((phase, np.exp(1j * (spacing - first) * t)))
        self.deconvolve = np.stack((inverse[:-1], inverse[1:]))  # |mode|: l and l + 1
        # theta in units of the grid step, split into the grid point below it
        # and the fraction past it; the window is that point's -w + 1 .. w
        steps = (spacing * size / (2 * np.pi)) * t
        below = np.floor(steps)
        taps = np.arange(1 - _ES_WIDTH, _ES_WIDTH + 1)
        self.index = grid[:, None] * size + (below.astype(np.intp)[:, None] + taps) % size
        z = ((steps - below)[:, None] - taps) / _ES_WIDTH  # in [-1, 1]
        # beta (sqrt(1 - z^2) - 1) without the cancellation of the difference,
        # which would cost each weight up to beta u = 41u
        square = z * z
        self.weights = np.exp(-_ES_BETA * square / (1 + np.sqrt(1 - square)))

    def pad(self):
        """Zeroed FFT grids, to be filled through `modes`."""
        return np.zeros((self.prephase.shape[0], self.n_grids, self.size), dtype=complex)

    def modes(self, grids):
        """The views (n_grids, count) of modes l and -(l + 1) in grids, l = 0 ... count - 1."""
        return grids[0, :, :self.count], grids[-1, :, :-self.count - 1:-1]

    def values(self, grids):
        """The type-2 sums at the points from deconvolved FFT grids.

        A point on grid g gets the sum over rows r and modes k of
        grids[r, g, k] exp(i k theta), times its pre-phase r.
        """
        rows = grids.shape[0]
        # one row of real and imaginary parts per grid point: the gather then
        # reads whole rows, and the weights act on them as one real product
        grids = np.fft.ifft(grids, axis=-1).transpose(1, 2, 0).reshape(-1, rows)
        grids = np.ascontiguousarray(grids).view(float)
        near = np.take(grids, self.index, axis=0)  # (m, 2w, 2 rows)
        values = np.matmul(self.weights[:, None, :], near)[:, 0].view(complex)
        out = values[:, 0] * self.prephase[0]
        if rows == 2:
            out += values[:, 1] * self.prephase[1]
        return out

    def sums(self, y):
        """The type-1 FFT grids of values y at the points, not yet deconvolved.

        Mode k of row r and grid g is the sum over the points j on grid g of
        y_j exp(i k theta_j) times their pre-phase r.
        """
        index = self.index.ravel()
        length = self.n_grids * self.size
        spread = np.empty((self.prephase.shape[0], length), dtype=complex)
        for phase, out in zip(self.prephase, spread):
            z = y * phase
            out.real = np.bincount(index, (self.weights * z.real[:, None]).ravel(), length)
            out.imag = np.bincount(index, (self.weights * z.imag[:, None]).ravel(), length)
        return np.fft.ifft(spread.reshape(-1, self.n_grids, self.size), axis=-1)


_GL_ORDER = 16  # points per Gauss-Legendre panel
_GL_TOLERANCE = 2.0**-53  # remainder allowed per unit measure of Lambda^{1/2}
_GL_CONSTANT = factorial(_GL_ORDER) ** 4 / ((2 * _GL_ORDER + 1) * factorial(2 * _GL_ORDER) ** 3)
# the widest panel phase H s whose remainder c_q (H s)^(2q) meets the tolerance
_GL_PANEL_PHASE = (_GL_TOLERANCE / _GL_CONSTANT) ** (1.0 / (2 * _GL_ORDER))
# numpy's 16-point weights are within 63.2u of long-double ones, relative; its nodes 0.32u
_GL_WEIGHT_ROUNDING = 64 * 2.0**-53


def gauss_legendre_quadrature(sset, t_max=10.0, points=1):
    """Composite 16-point Gauss-Legendre rule on Lambda^{1/2}, sized by its error bound.

    ``t_max`` is the largest phase |t| of the tables exp(i omega t) the rule
    integrates, so every kernel, a product of two tables, is a sum of plane
    waves of frequency at most s = 2 t_max; tables of larger phase are
    outside the bound, and the rule loses accuracy fast past it. On a panel of width H the
    q-point rule integrates f with error at most c_q H^(2q+1) max |f^(2q)|,
    c_q = (q!)^4 / ((2q + 1) ((2q)!)^3) (its Peano kernel has one sign, so
    this holds for complex f too), which is H c_q (H s)^(2q) for a unit plane
    wave. Each interval gets the fewest equal panels with
    c_q (H s)^(2q) <= u = 2**-53, i.e. H s <= (u / c_q)^(1/(2q)), about 16.0
    at q = 16; ``remainder`` is the resulting |Lambda^{1/2}| c_q (H s)^(2q),
    summed over the intervals. On [a, b] a float64 node is within 10 u b of
    the exact one (edges 3u b, offset 4.2u b, sum u b) and a weight within
    (66 + 6 b / H) u, relative (64u `_GL_WEIGHT_ROUNDING`, 2u products, 6u b / H
    from rounded edges), so ``error_bound`` = remainder + (b - a) (66 + 6 b / H
    + 10 s b) u per interval bounds what the rule computes: 1.1e-13 at Lambda
    = [0, 4], t_max = 10, where it misses by 1.2e-15 (remainder 6.3e-19).
    The nodes of an interval are its panels' left edges plus the sixteen
    offsets h (1 + x_j) (h the half panel width, x_j the Legendre roots).
    Before anything is allocated, a rule of more nodes than an array can
    index raises `SpectralSetError`, and so does one whose real basis table
    at ``points`` abscissae, two float64 per node and point, would not fit
    in physical memory.
    """
    gx, gw = np.polynomial.legendre.leggauss(_GL_ORDER)
    s = 2.0 * float(t_max)
    spans = [(a, b) for a, b in sset.sqrt_intervals if b > a]
    if not spans:
        raise SpectralSetError(f"spectral set {sset.intervals} has zero measure")
    panels = [float(np.ceil((b - a) * s / _GL_PANEL_PHASE)) for a, b in spans]
    # also refuses an infinite phase
    _refuse_past_memory(f"a Gauss-Legendre rule for phases up to {t_max:g}",
                        _GL_ORDER * sum(panels), points)
    nodes, weights, remainder, rounding = [], [], 0.0, 0.0
    for (a, b), n_panels in zip(spans, panels):
        n_panels = max(1, int(n_panels))
        h = 0.5 * (b - a) / n_panels
        edges = np.linspace(a, b, n_panels + 1)
        nodes.append(np.add.outer(edges[:-1], h * (1.0 + gx)).ravel())
        weights.append(((0.5 * np.diff(edges))[:, None] * gw).ravel())
        remainder += (b - a) * _GL_CONSTANT * (2.0 * h * s) ** (2 * _GL_ORDER)
        rounding += (b - a) * (_GL_WEIGHT_ROUNDING + 2.0**-53 * (2 + 3 * b / h + 10 * s * b))
    return SpectralQuadrature(sset, np.concatenate(nodes), np.concatenate(weights),
                              remainder + rounding, remainder=remainder)


def _physical_memory():
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refuse_past_memory(rule, n_nodes, points):
    """Raise `SpectralSetError` for a rule of n_nodes nodes that cannot be built.

    That is a rule of more nodes than an array can index (or of an infinite
    or undefined count), or one whose real basis tables at ``points``
    abscissae, two float64 per node and point, would not fit in physical
    memory. It is called before anything of the rule is allocated.
    """
    if not n_nodes <= np.iinfo(np.intp).max:
        raise SpectralSetError(f"{rule} needs {n_nodes:g} nodes, more than an array can index")
    table_bytes, memory = 16.0 * n_nodes * points, _physical_memory()
    if table_bytes > memory:
        raise SpectralSetError(f"{rule} needs {n_nodes:g} nodes, whose tables at {points:g} "
                               f"points take {table_bytes:.3g} bytes, more than the "
                               f"{memory:.3g} bytes of physical memory")


def uniform_quadrature(sset, spacing, points=1):
    """Midpoint rule with fixed node spacing, for window-matched discretizations.

    With ``spacing = pi / W`` the plane waves exp(+-i omega_l x) attached to the
    nodes are orthogonal over ``[-W, W]``, which makes the discretized sampling
    problem an honest finite model of the window.  A sliver of measure less
    than ``spacing`` may be dropped at the top of each interval. The n nodes
    of an interval [a, b] are (a + spacing / 2) + l spacing, l < n, the
    formula of the lattice (a + spacing / 2, spacing, n) that the rule
    records and its nonuniform FFT assumes. As for
    `gauss_legendre_quadrature`, a rule whose real basis tables at ``points``
    abscissae would not fit in physical memory raises `SpectralSetError`
    before anything is allocated.
    """
    if not spacing > 0:  # pi / W underflows to 0 for an infinite W
        raise SpectralSetError(f"a uniform rule needs a positive spacing, got {spacing:g}")
    counts = [np.floor(float(b - a) / spacing + 1e-12) for a, b in sset.sqrt_intervals]
    _refuse_past_memory(f"a uniform rule of spacing {spacing:g}", sum(counts), points)
    nodes, weights, lattice = [], [], []
    for (a, b), n in zip(sset.sqrt_intervals, map(int, counts)):
        if n == 0:
            continue
        first = a + 0.5 * spacing
        nodes.append(first + np.arange(n) * spacing)
        weights.append(np.full(n, spacing))
        lattice.append((first, spacing, n))
    if not nodes:
        raise SpectralSetError(
            f"spacing {spacing} too coarse for spectral set {sset.intervals}"
        )
    return SpectralQuadrature(sset, np.concatenate(nodes), np.concatenate(weights),
                              lattice=tuple(lattice))
