import numpy as np
import pytest

from varband.density import (
    DensityError,
    beurling_density,
    gap_density_bound,
    landau_sweep,
    matched_free_model_builder,
    quasi_uniform_set,
    separation,
    sliding_counts,
)
from varband.profile import PiecewiseConstantProfile, blend_profile, constant_profile, toy_profile
from varband.spectral import SpectralSet


class TestSlidingCounts:
    def test_lattice(self):
        z = np.arange(0, 101, dtype=float)
        cmin, cmax = sliding_counts(z, (0.0, 100.0), 10.0)
        # a half-open interval of length 10 always holds exactly 10 lattice points
        assert cmin == 10
        assert cmax == 10

    def test_empty_set(self):
        cmin, cmax = sliding_counts(np.array([200.0]), (0.0, 100.0), 10.0)
        assert cmin == 0 and cmax == 0

    def test_window_too_small(self):
        with pytest.raises(DensityError):
            sliding_counts(np.arange(5.0), (0.0, 1.0), 2.0)

    @pytest.mark.parametrize("seed", range(9))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        z = np.sort(rng.uniform(0.0, 40.0, rng.integers(20, 201)))
        r = (1.0, 2.5, 5.0)[seed % 3]
        # #(z in [t, t+r)) only changes where t crosses some z_j or z_j - r:
        # probe both sides of each such place and the ends of [0, 40 - r]
        c = np.concatenate((z, z - r))
        starts = np.concatenate(([0.0, 40.0 - r], c - 1e-9, c + 1e-9))
        starts = starts[(starts >= 0.0) & (starts <= 40.0 - r)]
        counts = [int(np.sum((t <= z) & (z < t + r))) for t in starts]
        assert sliding_counts(z, (0.0, 40.0), r) == (min(counts), max(counts))


class TestBeurlingDensity:
    def test_unit_lattice(self):
        prof = constant_profile(1.0)
        X = np.arange(-100, 101, dtype=float)
        rep = beurling_density(prof, X, [10.0, 25.0, 40.0], (-100.0, 100.0))
        assert rep.d_minus == pytest.approx(1.0, abs=0.05)
        assert rep.d_plus == pytest.approx(1.0, abs=0.05)

    def test_toy_halves(self):
        # euclidean unit lattice has mu_p-density sqrt(p) on each plateau,
        # so the adapted lower/upper densities split accordingly
        prof = toy_profile(1.0, 4.0)
        X = np.arange(-200, 201, dtype=float)
        rep = beurling_density(prof, X, [20.0, 40.0], (-200.0, 200.0))
        assert rep.d_minus == pytest.approx(1.0, abs=0.1)
        assert rep.d_plus == pytest.approx(2.0, abs=0.1)

    def test_r_guard(self):
        prof = constant_profile(1.0)
        with pytest.raises(DensityError):
            beurling_density(prof, np.arange(10.0), [20.0], (0.0, 10.0))


class TestSeparation:
    def test_lattice(self):
        prof = constant_profile(1.0)
        gap, n0 = separation(prof, np.arange(0.0, 20.0))
        assert gap == pytest.approx(1.0)
        assert n0 <= 2

    def test_warped_gap(self):
        prof = toy_profile(4.0, 4.0)
        gap, _ = separation(prof, np.array([0.0, 1.0, 2.0]))
        assert gap == pytest.approx(0.5)

    def test_needs_two(self):
        with pytest.raises(DensityError):
            separation(constant_profile(1.0), np.array([0.0]))

    def test_window_between_grid_positions(self):
        # [0.5013, 1.5013) holds three points; a grid of window starts can miss it
        _, n0 = separation(constant_profile(1.0), np.array([0.0, 0.5013, 1.0, 1.5012]))
        assert n0 == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        prof = [PiecewiseConstantProfile([], [1.0]), toy_profile(1.0, 4.0)][seed % 2]
        pts = np.unique(rng.uniform(-6.0, 6.0, rng.integers(2, 120)))
        z = np.sort(prof.zeta(pts))
        # #(z in [t, t+1)) only changes where t crosses some z_j or z_j - 1, and it
        # is constant on each (c_k, c_k+1] between those values: try them all
        starts = np.concatenate((z, z - 1.0))
        brute = max(int(np.sum((t <= z) & (z < t + 1.0))) for t in starts)
        assert separation(prof, pts)[1] == brute


class TestEquivariance:
    def test_exact_by_construction(self):
        # adapted density of X equals classical density of zeta(X)
        prof = blend_profile(1.0, 3.0, R=2.0)
        ident = constant_profile(1.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            X = np.sort(rng.uniform(-40, 40, 120))
            X = X[np.concatenate(([True], np.diff(X) > 1e-6))]
            rep1 = beurling_density(prof, X, [5.0], (-40.0, 40.0))
            Z = np.asarray(prof.zeta(X))
            wz = (float(prof.zeta(-40.0)), float(prof.zeta(40.0)))
            rep2 = beurling_density(ident, Z, [5.0], wz)
            assert rep1.d_minus == pytest.approx(rep2.d_minus, abs=1e-10)
            assert rep1.d_plus == pytest.approx(rep2.d_plus, abs=1e-10)


class TestGapBound:
    def test_lattice_holds(self):
        prof = constant_profile(1.0)
        X = np.arange(-200.0, 201.0)
        eta, inv_eta, d_minus, holds = gap_density_bound(prof, X)
        assert eta == pytest.approx(1.0)
        assert inv_eta == pytest.approx(1.0)
        assert holds

    def test_random_perturbed_sets(self):
        prof = toy_profile(1.0, 4.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            X = np.arange(-150.0, 151.0) + rng.uniform(-0.3, 0.3, 301)
            _, _, _, holds = gap_density_bound(prof, np.sort(X))
            assert holds


class TestQuasiUniform:
    def test_exact_density(self):
        prof = blend_profile(1.0, 2.0, R=1.0)
        X = quasi_uniform_set(prof, 2.0, (-30.0, 30.0))
        z = np.asarray(prof.zeta(X))
        assert np.max(np.abs(np.diff(z) - 0.5)) < 1e-9

    def test_too_small(self):
        with pytest.raises(DensityError):
            quasi_uniform_set(constant_profile(1.0), 0.01, (0.0, 10.0))


class TestLandauSweep:
    def test_free_brackets_critical(self):
        sset = SpectralSet([(0.0, 1.0)])
        prof = constant_profile(1.0)
        crit = sset.sqrt_measure / np.pi
        grid = crit * np.array([0.75, 0.85, 0.95, 1.05, 1.15])
        res = landau_sweep(matched_free_model_builder(sset), prof, sset,
                           grid, [40.0, 80.0, 160.0])
        assert res.critical == pytest.approx(crit)
        assert res.threshold_low <= crit <= res.threshold_high
        assert res.threshold_high / res.threshold_low <= 1.5
