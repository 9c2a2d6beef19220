from math import factorial

import numpy as np
import pytest

from varband.spectral import (
    SpectralQuadrature,
    SpectralSet,
    SpectralSetError,
    gauss_legendre_quadrature,
    uniform_quadrature,
)

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
        assert q.error_bound <= U * sset.sqrt_measure
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
        assert err.max() <= q.error_bound + rounding

    def test_panels_are_the_widest_that_meet_the_bound(self):
        c16 = factorial(16) ** 4 / (33 * factorial(32) ** 3)
        sset = SpectralSet([(0.0, 2.0)])
        q = gauss_legendre_quadrature(sset, t_max=25.0)
        n_panels = len(q) // 16
        assert q.order == 16 and len(q) == 80
        # one panel fewer would break c_16 (H s)^32 <= u per unit measure, s = 2 t_max
        for n, meets in ((n_panels, True), (n_panels - 1, False)):
            assert (c16 * (np.sqrt(2.0) / n * 50.0) ** 32 <= U) == meets
        width = np.sqrt(2.0) / n_panels
        assert q.error_bound == pytest.approx(np.sqrt(2.0) * c16 * (width * 50.0) ** 32, rel=1e-12)


class TestIdentity:
    def test_quadratures_compare_and_hash_by_identity(self):
        # ndarray fields would make a generated __eq__ ambiguous and __hash__ fail
        q = uniform_quadrature(SpectralSet([(0.0, 1.0)]), 0.1)
        r = uniform_quadrature(SpectralSet([(0.0, 1.0)]), 0.1)
        assert q == q and q != r
        assert len({q, r, q}) == 2
        assert q.error_bound is None


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


QUADRATURES = {
    "gauss_one_interval": lambda: gauss_legendre_quadrature(SpectralSet([(0.0, 2.0)]), t_max=6.0),
    "gauss_two_intervals": lambda: gauss_legendre_quadrature(
        SpectralSet([(0.0, 2.0), (3.0, 7.5)]), t_max=9.0),
    # 44 nodes in blocks of 7: the last block holds 2
    "uniform_one_interval": lambda: uniform_quadrature(SpectralSet([(0.0, 4.0)]), np.pi / 70.3),
    "uniform_two_intervals": lambda: uniform_quadrature(
        SpectralSet([(0.5, 4.0), (6.0, 9.0)]), np.pi / 40.0),
}


class TestWaves:
    """(cos omega t, sin omega t) by angle addition over the nodes' factorisation."""

    t = np.concatenate(([0.0, 1e-300, -1e-300], np.linspace(-8000.0, 8000.0, 1201),
                        np.random.default_rng(5).uniform(-8000.0, 8000.0, 400)))

    @pytest.fixture(params=sorted(QUADRATURES))
    def quad(self, request):
        return QUADRATURES[request.param]()

    def test_nodes_are_block_sums(self, quad):
        sums = np.concatenate([(o[:, None] + d).ravel()[:count] for o, d, count in quad.blocks])
        assert sums.tobytes() == quad.nodes.tobytes()
        assert sum(count for _, _, count in quad.blocks) == len(quad)
        for o, d, count in quad.blocks:
            assert np.all(o >= 0) and np.all(d >= 0)
            assert (o.size - 1) * d.size < count <= o.size * d.size
            if quad.order == 1:  # blocks of ceil(sqrt(n)) lattice offsets
                assert d.size == int(np.ceil(np.sqrt(count)))
            else:  # one block of one offset per Gauss point per panel
                assert d.size == quad.order

    def test_uniform_block_size_need_not_divide_node_count(self):
        (_, d, count), = QUADRATURES["uniform_one_interval"]().blocks
        assert count % d.size

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

    def test_unfactored_nodes(self):
        # nodes given directly are their own offsets behind the one shift 0
        nodes = np.array([0.3, 1.7, 2.9])
        q = SpectralQuadrature(SpectralSet([(0.0, 9.0)]), nodes, np.ones(3), 1)
        assert q.covered_measure == 3.0  # the sum of the weights, on any rule
        w = q.waves(self.t)
        assert np.array_equal(w[0], np.cos(np.multiply.outer(nodes, self.t)))
        assert np.array_equal(w[1], np.sin(np.multiply.outer(nodes, self.t)))

    @pytest.mark.parametrize("blocks", [
        ((np.array([0.0, 1.0]), np.array([0.25, 0.75]), 4),),  # sums are not the nodes
        ((np.array([1.0]), np.array([-0.75, -0.5, 0.25, 0.5]), 4),),  # negative offsets
    ])
    def test_factorisation_checked(self, blocks):
        nodes = np.array([0.25, 0.5, 1.25, 1.5])
        with pytest.raises(SpectralSetError):
            SpectralQuadrature(SpectralSet([(0.0, 4.0)]), nodes, np.ones(4), 1, blocks)
