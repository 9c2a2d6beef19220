import numpy as np
import pytest

from varband.kernel import SchrodingerModel
from varband.paleywiener import transform
from varband.profile import blend_profile
from varband.schrodinger import (
    MatchingError,
    ScatteringSweep,
    scattering_coeffs,
)
from varband.spectral import SpectralQuadrature, SpectralSet


def square_well_T(q0, a, omega):
    """Closed-form transmission through a rectangular barrier/well."""
    k = omega
    kap = np.lib.scimath.sqrt(omega**2 - q0)
    num = 2j * k * kap * np.exp(-2j * k * a)
    den = 2j * k * kap * np.cos(2 * kap * a) + (k**2 + kap**2) * np.sin(2 * kap * a)
    return num / den


class TestFreeCase:
    def test_trivial_coefficients(self):
        sweep = ScatteringSweep(None, 0.0, [0.5, 1.0, 2.0])
        assert np.all(sweep.T == 1.0)
        assert np.all(sweep.R1 == 0.0)
        assert np.all(sweep.R2 == 0.0)
        assert sweep.unitarity_defect() < 1e-15

    def test_plane_waves(self):
        sweep = ScatteringSweep(None, 0.0, [2.0])
        xs = np.linspace(-3, 3, 11)
        out = sweep.phi(xs)
        assert np.allclose(out[0, 0], np.exp(2j * xs))
        assert np.allclose(out[1, 0], np.exp(-2j * xs))


class TestSquareWell:
    @pytest.mark.parametrize("q0,a,omega", [(1.0, 1.0, 2.0), (-2.0, 0.7, 1.3),
                                            (3.0, 0.5, 2.5)])
    def test_transmission(self, q0, a, omega):
        d = scattering_coeffs(lambda x: q0 * np.ones_like(np.asarray(x, float)),
                              a, omega)
        assert abs(d.T - square_well_T(q0, a, omega)) < 1e-7

    def test_unitarity(self):
        d = scattering_coeffs(lambda x: 1.0 * np.ones_like(np.asarray(x, float)),
                              1.0, 1.7)
        assert d.unitarity_defect < 1e-10


@pytest.fixture(scope="module")
def sweep():
    q = lambda x: 2.0 * np.exp(-1.0 / np.clip(1 - np.asarray(x, float) ** 2,
                                              1e-300, None)) * (np.abs(x) < 1)
    return ScatteringSweep(q, 1.0, np.linspace(0.4, 4.0, 19))


class TestSmoothPotential:
    def test_unitarity_defect(self, sweep):
        assert sweep.unitarity_defect() < 1e-10

    def test_reflection_moduli_match(self, sweep):
        assert np.max(np.abs(np.abs(sweep.R1) - np.abs(sweep.R2))) < 1e-10

    def test_continuity_at_support_edge(self, sweep):
        eps = 1e-7
        for edge in (-1.0, 1.0):
            inner = sweep.phi(edge - np.sign(edge) * eps)
            outer = sweep.phi(edge + np.sign(edge) * eps)
            assert np.max(np.abs(inner - outer)) < 1e-5

    def test_high_frequency_transparency(self):
        q = lambda x: np.exp(-np.asarray(x, float) ** 2 * 8) * (np.abs(x) <= 1)
        lo = scattering_coeffs(q, 1.0, 1.0)
        hi = scattering_coeffs(q, 1.0, 30.0)
        assert abs(hi.R1) < abs(lo.R1)
        assert abs(abs(hi.T) - 1.0) < 1e-3

    def test_cell_integral_matches_quadrature(self, sweep):
        # cells on each tail, across each support edge and inside the support
        edges = np.array([-3.0, -2.0, -0.6, 0.4, 1.5, 2.5])
        cells = np.diff(sweep.antiderivative(edges), axis=-1)
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            xs = np.linspace(lo, hi, 4001)
            ref = np.trapezoid(sweep.phi(xs), xs, axis=2)
            assert np.max(np.abs(cells[:, :, i] - ref)) < 1e-5

    def test_antiderivative_free_plane_waves(self):
        sweep = ScatteringSweep(None, 0.0, [0.5, 2.0])
        lo, hi = -1.5, 2.5
        cells = np.diff(sweep.antiderivative([lo, hi]), axis=-1)[:, :, 0]
        w = sweep.omegas
        expected = (np.exp(1j * w * hi) - np.exp(1j * w * lo)) / (1j * w)
        assert np.max(np.abs(cells[0] - expected)) < 1e-14
        assert np.max(np.abs(cells[1] - expected.conj())) < 1e-14

    def test_store_interior_false(self):
        q = lambda x: np.cos(np.asarray(x, float)) ** 2 * (np.abs(x) <= 1)
        full = ScatteringSweep(q, 1.0, [1.5])
        lean = ScatteringSweep(q, 1.0, [1.5], store_interior=False)
        assert abs(full.T[0] - lean.T[0]) < 1e-13
        assert abs(full.R2[0] - lean.R2[0]) < 1e-13
        # tails still evaluate, interior raises
        assert np.allclose(lean.phi(2.0), full.phi(2.0))
        with pytest.raises(MatchingError):
            lean.phi(0.3)


class TestSweepCost:
    @pytest.mark.parametrize("store_interior", [True, False])
    def test_potential_tabulated_per_direction(self, store_interior):
        calls = []

        def q(x):
            calls.append(np.size(x))
            return np.exp(-4.0 * np.asarray(x, float) ** 2)

        sweep = ScatteringSweep(q, 1.0, np.linspace(0.1, 5.0, 50),
                                store_interior=store_interior)
        # at most two array calls per direction, never one per RK4 stage
        assert len(calls) <= 4
        assert sum(calls) >= 3 * sweep.n_steps


class TestLiouvilleConsistency:
    def test_profile_potential_scattering(self):
        # the warped potential of a smooth blend is an admissible q and the
        # resulting scattering data is unitary
        prof = blend_profile(1.0, 2.0, R=1.0, kind="quintic")
        a = prof.warped_support_radius
        sweep = ScatteringSweep(prof.potential_q_warped, a,
                                np.linspace(0.5, 3.0, 11))
        assert sweep.unitarity_defect() < 1e-7


class TestSpectralTransform:
    def test_free_gaussian(self):
        # for q = 0 the transform is the ordinary Fourier transform at +-omega
        sset = SpectralSet([(0.0, 4.0)])
        omegas = np.array([0.7, 1.4])
        quad = SpectralQuadrature(sset, omegas, np.ones(2), 1, 2.0)
        model = SchrodingerModel(None, 0.0, sset, quad=quad)
        f = lambda x: np.exp(-np.asarray(x, float) ** 2 / 2)
        F = transform(model, f, (-12.0, 12.0)).F
        expected = np.exp(-omegas**2 / 2)  # hat of the unit gaussian
        assert np.max(np.abs(F[0] - expected)) < 1e-10
        assert np.max(np.abs(F[1] - expected)) < 1e-10

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(MatchingError):
            ScatteringSweep(None, 0.0, [0.0, 1.0])

    def test_wronskian_relation(self):
        # 1/alpha and 1/gamma both equal T
        q = lambda x: np.sin(np.asarray(x, float)) ** 2 * (np.abs(x) <= 1)
        sweep = ScatteringSweep(q, 1.0, [2.2])
        assert abs(1.0 / sweep._gamma[0] - sweep.T[0]) < 1e-9

    def test_phi_at_scalar_point(self):
        v = ScatteringSweep(None, 0.0, [1.0]).phi(0.5)
        assert v.shape == (2, 1, 1)
        assert abs(v[0, 0, 0] - np.exp(0.5j)) < 1e-14
        assert abs(v[1, 0, 0] - np.exp(-0.5j)) < 1e-14

    def test_csv(self, tmp_path):
        sweep = ScatteringSweep(None, 0.0, [1.0, 2.0])
        p = tmp_path / "s.csv"
        sweep.to_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("omega,re_T")
        assert len(lines) == 3
