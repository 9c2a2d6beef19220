import tracemalloc
from math import factorial

import numpy as np
import pytest

from varband.spectral import (
    _ES_BETA,
    _ES_WIDTH,
    _GRID_REMAINDER,
    _GRID_TOLERANCE,
    SpectralQuadrature,
    SpectralSet,
    SpectralSetError,
    _es_gridding,
    _es_transform,
    gauss_legendre_quadrature,
    uniform_quadrature,
)

from gaussian_gridding import gaussian_sizing

U = 2.0**-53  # unit roundoff of float64


class TestSpectralSet:
    def test_measures(self):
        s = SpectralSet([(0.0, 4.0), (9.0, 16.0)])
        assert s.measure == pytest.approx(11.0)
        assert s.sqrt_measure == pytest.approx(2.0 + 1.0)
        assert s.lambda_max == 16.0

    def test_sorting(self):
        s = SpectralSet([(9.0, 16.0), (0.0, 4.0)])
        assert s.intervals[0] == (0.0, 4.0)

    def test_validation(self):
        with pytest.raises(SpectralSetError):
            SpectralSet([(-1.0, 2.0)])
        with pytest.raises(SpectralSetError):
            SpectralSet([(2.0, 1.0)])
        with pytest.raises(SpectralSetError):
            SpectralSet([(0.0, 2.0), (1.0, 3.0)])


class TestGaussLegendre:
    def test_weight_sum(self):
        s = SpectralSet([(0.0, 4.0), (9.0, 16.0)])
        q = gauss_legendre_quadrature(s, t_max=20.0)
        assert q.weights.sum() == pytest.approx(s.sqrt_measure, rel=1e-12)

    def test_oscillatory_exactness(self):
        # integral of exp(i omega x) over [0, u] for the largest resolved x
        s = SpectralSet([(0.0, 4.0)])
        x = 15.0
        q = gauss_legendre_quadrature(s, t_max=x)
        got = np.sum(q.weights * np.exp(1j * q.nodes * x))
        ref = (np.exp(2j * x) - 1.0) / (1j * x)
        assert abs(got - ref) < 1e-12

    def test_nodes_inside(self):
        s = SpectralSet([(0.0, 1.0)])
        q = gauss_legendre_quadrature(s, t_max=5.0)
        assert np.all(q.nodes > 0)
        assert np.all(q.nodes < 1)

    @pytest.mark.parametrize("intervals,t_max", [([(0.0, 2.0)], 25.0),
                                                  ([(0.0, 2.0), (3.0, 7.5)], 9.0)])
    def test_plane_waves_within_error_bound(self, intervals, t_max):
        # every plane wave exp(i omega s) with |s| <= 2 t_max, against its exact
        # integral over the float64 intervals of Lambda^{1/2} in long double
        assert np.finfo(np.longdouble).precision >= 18
        sset = SpectralSet(intervals)
        q = gauss_legendre_quadrature(sset, t_max=t_max)
        assert q.remainder <= U * sset.sqrt_measure
        s = np.linspace(-2 * t_max, 2 * t_max, 4001)
        got = np.exp(1j * np.multiply.outer(s, q.nodes)) @ q.weights
        sl = s.astype(np.longdouble)
        re, im = np.zeros_like(sl), np.zeros_like(sl)
        for a, b in sset.sqrt_intervals:
            a, b = np.longdouble(a), np.longdouble(b)
            # int_a^b exp(i omega s) = exp(i s (a + b) / 2) 2 sin(s (b - a) / 2) / s
            amp = np.where(sl == 0, b - a,
                           2 * np.sin(0.5 * (b - a) * sl) / np.where(sl == 0, 1, sl))
            re += amp * np.cos(0.5 * (a + b) * sl)
            im += amp * np.sin(0.5 * (a + b) * sl)
        err = np.hypot((got.real - re).astype(float), (got.imag - im).astype(float))
        # float64 phases omega s and the sum of n terms add this much rounding
        rounding = (len(q) + 2 * t_max * q.nodes.max()) * U * sset.sqrt_measure
        assert err.max() <= q.remainder + rounding

    def test_panels_are_the_widest_that_meet_the_bound(self):
        c16 = factorial(16) ** 4 / (33 * factorial(32) ** 3)
        sset = SpectralSet([(0.0, 2.0)])
        q = gauss_legendre_quadrature(sset, t_max=25.0)
        n_panels = len(q) // 16
        assert len(q) == 80
        # one panel fewer would break c_16 (H s)^32 <= u per unit measure, s = 2 t_max
        for n, meets in ((n_panels, True), (n_panels - 1, False)):
            assert (c16 * (np.sqrt(2.0) / n * 50.0) ** 32 <= U) == meets
        width = np.sqrt(2.0) / n_panels
        assert q.remainder == pytest.approx(np.sqrt(2.0) * c16 * (width * 50.0) ** 32, rel=1e-12)

    def test_error_bound_covers_the_float64_rule(self):
        # Lambda = [0, 4] at t_max = 10: three 16-point panels on [0, 2]. The
        # float64 nodes and weights, summed in long double, miss the integral
        # of exp(i omega s) by up to 1.2e-15, far past the exact rule's
        # remainder 6.3e-19; error_bound adds their stated rounding
        assert np.finfo(np.longdouble).precision >= 18
        q = gauss_legendre_quadrature(SpectralSet([(0.0, 4.0)]), t_max=10.0)
        assert len(q) == 48 and q.remainder < 1e-18
        x, w = legendre_long(16)
        h = L(2) / 6
        exact_nodes = (2 * h * np.arange(3, dtype=L)[:, None] + h * (1 + x)).ravel()
        s = np.linspace(-20.0, 20.0, 801).astype(L)

        def sums(nodes, weights):
            phase = np.multiply.outer(s, nodes)
            return np.cos(phase) @ weights, np.sin(phase) @ weights

        got = sums(q.nodes.astype(L), q.weights.astype(L))
        rule = sums(exact_nodes, np.tile(h * w, 3))
        amp = np.where(s == 0, L(2), 2 * np.sin(s) / np.where(s == 0, 1, s))
        exact = amp * np.cos(s), amp * np.sin(s)
        rounding = np.hypot(*(float_diff(g, r) for g, r in zip(got, rule)))
        err = np.hypot(*(float_diff(g, e) for g, e in zip(got, exact)))
        assert err.max() > 1000 * q.remainder
        assert rounding.max() <= q.error_bound - q.remainder
        assert err.max() <= q.error_bound


class TestIdentity:
    def test_quadratures_compare_and_hash_by_identity(self):
        # ndarray fields would make a generated __eq__ ambiguous and __hash__ fail
        q = uniform_quadrature(SpectralSet([(0.0, 1.0)]), 0.1)
        r = uniform_quadrature(SpectralSet([(0.0, 1.0)]), 0.1)
        assert q == q and q != r
        assert len({q, r, q}) == 2
        assert q.error_bound is None and q.remainder is None


class TestUniform:
    def test_matched_spacing(self):
        s = SpectralSet([(0.0, 4.0)])
        W = 10.0
        q = uniform_quadrature(s, np.pi / W)
        assert np.allclose(np.diff(q.nodes), np.pi / W)
        assert q.covered_measure <= s.sqrt_measure + 1e-12

    def test_orthogonality_over_window(self):
        # plane waves at the midpoint nodes are orthogonal over [-W, W]
        W = 7.0
        q = uniform_quadrature(SpectralSet([(0.0, 4.0)]), np.pi / W)
        xs = np.linspace(-W, W, 8001)
        e = np.exp(1j * np.outer(q.nodes[:4], xs))
        G = np.trapezoid(e[:, None, :] * e.conj()[None, :, :], xs, axis=2) / (2 * W)
        assert np.max(np.abs(G - np.eye(4))) < 1e-4

    def test_too_coarse(self):
        with pytest.raises(SpectralSetError):
            uniform_quadrature(SpectralSet([(0.0, 0.01)]), 1.0)

    @pytest.mark.parametrize("spacing, points", [(1e-17, 1), (1e-8, 10**6), (1e-320, 1)])
    def test_past_memory_refused_unallocated(self, spacing, points):
        # 1e17 nodes, or 1e8 nodes at 1e6 points: tables of 1.6e18 and 1.6e15 bytes;
        # at 1e-320 the count is infinite
        sset = SpectralSet([(0.0, 1.0)])
        tracemalloc.start()
        try:
            with pytest.raises(SpectralSetError, match="nodes"):
                uniform_quadrature(sset, spacing, points=points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("spacing", [0.0, -1.0, float("nan")])
    def test_spacing_must_be_positive(self, spacing):
        with pytest.raises(SpectralSetError, match="positive spacing"):
            uniform_quadrature(SpectralSet([(0.0, 1.0)]), spacing)

    def test_tables_that_fit_are_built(self):
        q = uniform_quadrature(SpectralSet([(0.0, 1.0)]), np.pi / 1000.0, points=10**4)
        assert len(q) == 318


def five_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


L = np.longdouble
PI = 4 * np.arctan(L(1))


def legendre_long(n):
    """Gauss-Legendre nodes and weights in long double: float64 nodes refined by Newton steps."""
    x = np.polynomial.legendre.leggauss(n)[0].astype(L)
    for _ in range(3):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / slope
    return x, 2 / ((1 - x * x) * slope * slope)


def float_diff(a, b):
    """a - b of two long-double arrays, as float64."""
    return (a - b).astype(float)


def psi_long(k, size, n=96):
    """psi_k = (w / size) int phi(z) cos(2 pi w k z / size) dz in long double.

    Gauss-Legendre in s after z = sin s, on the oscillating integrand itself:
    independent of the contour shift `_es_transform` makes.
    """
    x, weights = legendre_long(n)
    s = x * PI / 2
    a = 2 * PI * _ES_WIDTH * np.asarray(k, dtype=L) / size
    kernel = np.exp(-2 * L(_ES_BETA) * np.sin(s / 2) ** 2) * np.cos(s) * weights * PI / 2
    return _ES_WIDTH / L(size) * (np.cos(np.outer(a, np.sin(s))) @ kernel)


class TestGaussianGridding:
    """The Gaussian reference plan (tests/gaussian_gridding.py) meets 8u at the sizes it picks."""

    @pytest.mark.parametrize("top", [*range(1, 40), 100, 199, 675, 676, 1000, 4095, 10007])
    def test_five_smooth_size_within_tolerance(self, top):
        width, size, tau, remainder = gaussian_sizing(top)
        bound = max(4 * (top + 1), 2 * width)
        # the smallest 2^a 3^b 5^c at or above the bound, and the remainder there
        assert size >= bound and five_smooth(size)
        assert not any(five_smooth(m) for m in range(bound, size))
        assert tau == np.pi * width / (size * (size - top))
        assert remainder <= _GRID_TOLERANCE
        assert width > _ES_WIDTH + 2  # 24 to 34 taps against the 18 of the ES kernel


class TestESGridding:
    @pytest.mark.parametrize("top", [*range(1, 40), 100, 199, 675, 676, 1000, 4095, 10007])
    def test_five_smooth_size_within_tolerance(self, top):
        size, inverse = _es_gridding(top)
        bound = max(4 * (top + 1), 2 * _ES_WIDTH)
        # the smallest 2^a 3^b 5^c at or above the bound
        assert size >= bound and five_smooth(size)
        assert not any(five_smooth(m) for m in range(bound, size))
        assert 2 * _ES_WIDTH == 18 and _ES_BETA == 2.30 * 18
        assert _GRID_REMAINDER <= _GRID_TOLERANCE
        assert inverse.shape == (top + 1,) and not inverse.flags.writeable
        assert np.array_equal(inverse, 1 / _es_transform(np.arange(top + 1), size))

    def test_plan_tables(self):
        quad = uniform_quadrature(SpectralSet([(0.0, 2.0)]), np.pi / 20.0)
        t = np.random.default_rng(8).uniform(-30.0, 30.0, 400)
        T = quad.lattice_transform(t, np.zeros(t.size, np.intp), 1)
        (run,) = T.runs
        assert run.index.shape == run.weights.shape == (400, 18)
        assert run.deconvolve.shape == (2, len(quad))
        assert T.remainder == _GRID_REMAINDER
        # the kernel at the plan's own float64 gaps, in long double; forming
        # beta (sqrt(1 - z^2) - 1) as a difference would lose up to beta u = 41u
        ((_, spacing, _),) = quad.lattice
        steps = (spacing * run.size / (2 * np.pi)) * t
        gap = (steps - np.floor(steps))[:, None] - np.arange(1 - _ES_WIDTH, _ES_WIDTH + 1)
        z = gap.astype(L) / _ES_WIDTH
        phi = np.exp(L(_ES_BETA) * (np.sqrt(1 - z * z) - 1))
        assert np.max(np.abs(run.weights - phi)) <= 8 * U

    @pytest.mark.parametrize("top", [1, 5, 40, 675])
    def test_transform_against_long_double(self, top):
        # psi_k at every mode of the plan and the one past it; at the top mode
        # psi moves five times as fast as k w h, whose rounding it inherits
        size, _ = _es_gridding(top)
        k = np.arange(top + 2)
        assert np.max(np.abs(_es_transform(k, size) / psi_long(k, size) - 1)) <= 16 * U
        # the quadrature itself has converged
        assert np.max(np.abs(psi_long(k, size, 128) / psi_long(k, size) - 1)) <= 1e-17

    @pytest.mark.parametrize("top", [1, 5, 40, 675])
    def test_single_mode_error_within_remainder(self, top):
        """Gridding one mode, in long double, against exp(i k x), at 64 offsets per grid step.

        A point delta grid steps past a grid point reads the 2w taps from
        -w + 1 to w; mode k, deconvolved, gives exp(i k x) times
        sum_tap phi((delta - tap) / w) exp(-2 pi i k (delta - tap) / M) / (M psi_k).
        """
        assert np.finfo(L).precision >= 18
        size, _ = _es_gridding(top)
        k = np.arange(top + 2)
        taps = np.arange(1 - _ES_WIDTH, _ES_WIDTH + 1)
        gap = np.arange(64, dtype=L)[:, None] / 64 - taps  # (offset, tap)
        z = gap / _ES_WIDTH
        phi = np.exp(L(_ES_BETA) * (np.sqrt(1 - z * z) - 1))
        modes = (np.exp(-2j * PI * np.multiply.outer(k.astype(L) / size, gap)) * phi).sum(-1)
        error = np.abs(modes / (size * psi_long(k, size))[:, None] - 1)
        assert error.max() <= _GRID_REMAINDER
        if 4 * (top + 1) == size:  # the mode past the top sits at oversampling 2
            assert error.max() > 0.9 * _GRID_REMAINDER


QUADRATURES = {
    "gauss_one_interval": lambda: gauss_legendre_quadrature(SpectralSet([(0.0, 2.0)]), t_max=6.0),
    "gauss_two_intervals": lambda: gauss_legendre_quadrature(
        SpectralSet([(0.0, 2.0), (3.0, 7.5)]), t_max=9.0),
    "uniform_one_interval": lambda: uniform_quadrature(SpectralSet([(0.0, 4.0)]), np.pi / 70.3),
    "uniform_two_intervals": lambda: uniform_quadrature(
        SpectralSet([(0.5, 4.0), (6.0, 9.0)]), np.pi / 40.0),
}


class TestWaves:
    """(cos omega t, sin omega t) of every node at every point, from the phases omega t."""

    t = np.concatenate(([0.0, 1e-300, -1e-300], np.linspace(-8000.0, 8000.0, 1201),
                        np.random.default_rng(5).uniform(-8000.0, 8000.0, 400)))

    @pytest.fixture(params=sorted(QUADRATURES))
    def quad(self, request):
        return QUADRATURES[request.param]()

    def test_against_long_double(self, quad):
        assert np.finfo(np.longdouble).precision >= 18
        w = quad.waves(self.t)
        assert w.dtype == np.float64 and w.shape == (2, len(quad), self.t.size)
        phase = quad.nodes.astype(np.longdouble)[:, None] * self.t.astype(np.longdouble)
        bound = 8 * U * (1.0 + np.abs(quad.nodes[:, None] * self.t))
        assert np.all(np.abs(w[0] - np.cos(phase)) <= bound)
        assert np.all(np.abs(w[1] - np.sin(phase)) <= bound)

    def test_exact_at_zero(self, quad):
        w = quad.waves([0.0])
        assert np.all(w[0] == 1.0) and np.all(w[1] == 0.0)

    def test_direct_phases(self, quad):
        # the table is cos and sin of the float64 phases, bit for bit
        phase = np.multiply.outer(quad.nodes, self.t)
        w = quad.waves(self.t)
        assert np.array_equal(w[0], np.cos(phase)) and np.array_equal(w[1], np.sin(phase))

    def test_covered_measure_is_the_weight_sum(self):
        q = SpectralQuadrature(SpectralSet([(0.0, 9.0)]), np.array([0.3, 1.7, 2.9]), np.ones(3))
        assert q.covered_measure == 3.0


class TestLatticeTransform:
    """The nonuniform FFTs against the direct sums in extended precision.

    Each value may differ from the exact sum by the stated remainder plus the
    rounding a `waves` entry is allowed, 8u (1 + omega |t|), both times the
    l1 norm of the input.
    """

    # an interval at 0 (both signs on one FFT grid) and one off 0 (a grid per sign)
    @pytest.fixture(params=[[(0.0, 2.0)], [(0.3, 2.0)], [(0.5, 3.0), (4.0, 7.0)]],
                    ids=["at-0", "off-0", "two-intervals"])
    def setup(self, request):
        W = 20.0
        quad = uniform_quadrature(SpectralSet(request.param), np.pi / W)
        rng = np.random.default_rng(4)
        t = np.sort(rng.uniform(-1.7 * W, 1.2 * W, 90))  # theta beyond +-pi too
        grid = (t > 0.3 * W).astype(np.intp)
        L = np.longdouble
        waves = np.exp(1j * np.outer(t.astype(L), quad.nodes.astype(L)))  # (m, n)
        allowance = 8 * U * (1 + quad.nodes.max() * np.abs(t).max())
        return quad, t, grid, waves, allowance

    def test_records_its_lattice(self, setup):
        # the nodes are the formula the transforms assume, first + l spacing, bit for bit
        quad = setup[0]
        lattice = np.concatenate([first + np.arange(count) * spacing
                                  for first, spacing, count in quad.lattice])
        assert lattice.tobytes() == quad.nodes.tobytes()

    def test_synthesize(self, setup):
        quad, t, grid, waves, allowance = setup
        T = quad.lattice_transform(t, grid, 2)
        rng = np.random.default_rng(5)
        c = rng.standard_normal((2, 2, len(quad))) + 1j * rng.standard_normal((2, 2, len(quad)))
        ref = (np.einsum("jl,jl->j", waves, c[grid, 0])
               + np.einsum("jl,jl->j", waves.conj(), c[grid, 1])).astype(complex)
        assert T.remainder <= 8 * U
        assert np.max(np.abs(T.synthesize(c) - ref)) <= (T.remainder + allowance) * np.abs(c).sum()

    def test_analyze(self, setup):
        quad, t, grid, waves, allowance = setup
        T = quad.lattice_transform(t, grid, 2)
        rng = np.random.default_rng(6)
        y = rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size)
        ref = np.stack([np.stack([waves[grid == g].T @ y[grid == g],
                                  waves[grid == g].T.conj() @ y[grid == g]]) for g in (0, 1)])
        got = T.analyze(y)
        assert got.shape == (2, 2, len(quad))
        assert np.max(np.abs(got - ref.astype(complex))) <= (T.remainder + allowance) * np.abs(y).sum()

    def test_gauss_rule_has_no_lattice(self):
        quad = gauss_legendre_quadrature(SpectralSet([(0.0, 2.0)]), t_max=5.0)
        assert quad.lattice is None
        with pytest.raises(SpectralSetError):
            quad.lattice_transform([0.0, 1.0], [0, 0], 1)
