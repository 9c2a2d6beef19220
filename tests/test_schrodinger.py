import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from varband.cli import _model
from varband.kernel import LiouvilleModel, free_model
from varband.paleywiener import transform
from varband.profile import CubicHermite, blend_profile, profile_from_config
from varband.schrodinger import (
    MatchingError,
    ScatteringSweep,
    scattering_coeffs,
)
from varband.spectral import SpectralQuadrature, SpectralSet
from varband.sturm import rk4_linear

from closed_forms import phi


def square_well_T(q0, a, omega):
    """Closed-form transmission through a rectangular barrier/well."""
    k = omega
    kap = np.lib.scimath.sqrt(omega**2 - q0)
    num = 2j * k * kap * np.exp(-2j * k * a)
    den = 2j * k * kap * np.cos(2 * kap * a) + (k**2 + kap**2) * np.sin(2 * kap * a)
    return num / den


def reference_transmission(prof, omega):
    """T(omega) of a smooth blend, solved without the Liouville warp.

    DOP853 integrates -(p u')' = omega^2 u in x from the right plateau, where
    psi = p^(1/4) u is the pure transmitted wave e^(i omega s), to the left
    one, and reads off the incoming amplitude there; s = zeta(x) enters only
    through the warped length of [-R, R]. Shares no code with the warps, the
    Liouville potential or the RK4 sweep.
    """
    R, pm, pp = prof.R, prof.p_minus, prof.p_plus

    def p(x):
        return float(prof.p_func(x))

    length = quad(lambda x: p(x) ** -0.5, -R, R, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    y0 = np.array([pp**-0.25, 1j * omega * pp**0.25])  # (u, p u') at x = R
    sol = solve_ivp(lambda x, y: np.array([y[1] / p(x), -omega**2 * y[0]]), (R, -R), y0,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    u, v = sol.y[:, -1]
    psi, dpsi = pm**0.25 * u, pm**-0.25 * v
    alpha = 0.5 * (psi + dpsi / (1j * omega)) * np.exp(1j * omega * length)
    return 1.0 / alpha


class TwoPassSweep:
    """The two-pass sweep: one RK4 pass per direction, each normalised on its own.

    Phi1 = u / alpha from the wave e^{i omega x} right of the support, run
    leftward; Phi2 = z / gamma from e^{-i omega x} left of it, run rightward.
    Same step rule and breakpoints as `ScatteringSweep`.
    """

    def __init__(self, q, a, omegas, breakpoints):
        w = np.asarray(omegas, dtype=float)
        h = min(1e-3, 2 * np.pi / (50.0 * np.max(w)))
        qa = lambda x: q(np.clip(x, -a, a))
        e = np.exp(1j * w * a)
        g1, s1 = rk4_linear(np.ones_like, qa, w**2, a, -a, np.stack([e, 1j * w * e]), h,
                            breakpoints, path=True)
        g2, s2 = rk4_linear(np.ones_like, qa, w**2, -a, a, np.stack([e, -1j * w * e]), h,
                            breakpoints, path=True)
        (y, dy), (z, dz) = s1[-1], s2[-1]
        alpha = 0.5 * (y + dy / (1j * w)) * e
        beta = 0.5 * (y - dy / (1j * w)) * e.conj()
        gamma = 0.5 * (z - dz / (1j * w)) * e
        delta = 0.5 * (z + dz / (1j * w)) * e.conj()
        self.T, self.R1, self.R2 = 1.0 / alpha, beta / alpha, delta / gamma
        self.norm = np.stack([alpha, gamma])[:, :, None]
        self.splines = (CubicHermite(g1[::-1], s1[::-1, 0], s1[::-1, 1]),
                        CubicHermite(g2, s2[:, 0], s2[:, 1]))

    def phi(self, x):
        return np.stack([sp(x).T for sp in self.splines]) / self.norm

    def antiderivative(self, x):
        return np.stack([sp.antiderivative(x).T for sp in self.splines]) / self.norm


def rel_dev(got, want):
    """Largest deviation along the last axis relative to the largest entry there."""
    return np.max(np.max(np.abs(got - want), axis=-1) / np.max(np.abs(want), axis=-1))


def free_at(omegas):
    """The free model (the step profile at p = 1) on a rule with the given nodes."""
    sset, omegas = SpectralSet([(0.0, 25.0)]), np.asarray(omegas, dtype=float)
    return free_model(sset, quad=SpectralQuadrature(sset, omegas, np.ones(omegas.size), 1))


class TestFreeCase:
    def test_trivial_coefficients(self):
        # the scattering data of q = 0, T = 1 and R1 = R2 = 0, in the sweep's
        # mix [[T, i T], [1 + R2, i (R2 - 1)]] and measure 1 / (2 pi)
        model = free_at([0.5, 1.0, 2.0])
        assert np.all(model.mix == np.array([[1.0, 1j], [1.0, -1j]])[:, :, None])
        assert np.all(model.rho == 1.0 / (2 * np.pi))

    def test_plane_waves(self):
        model = free_at([2.0])
        xs = np.linspace(-3, 3, 11)
        out = phi(model, xs)
        assert np.allclose(out[0, 0], np.exp(2j * xs))
        assert np.allclose(out[1, 0], np.exp(-2j * xs))
        U = model.basis(xs)
        assert U.dtype == np.float64
        assert np.allclose(U[:, 0], [np.cos(2 * xs), np.sin(2 * xs)])


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
            inner = phi(sweep, edge - np.sign(edge) * eps)
            outer = phi(sweep, edge + np.sign(edge) * eps)
            assert np.max(np.abs(inner - outer)) < 1e-5

    def test_tails_are_the_scattering_waves(self, sweep):
        # U = (cos, sin) right of the support; through the mix, Phi1 is
        # e + R1 conj(e) left of it and T e right of it, Phi2 mirrored
        xs = np.array([-9.0, -2.5, -1.0001, 1.0001, 3.7, 12.0])
        left, right = xs < 0, xs > 0
        e = np.exp(1j * sweep.omegas[:, None] * xs)
        T, R1, R2 = (c[:, None] for c in (sweep.T, sweep.R1, sweep.R2))
        U = sweep.basis(xs)
        assert U.dtype == np.float64
        assert np.max(np.abs(U[0][:, right] - e[:, right].real)) < 1e-14
        assert np.max(np.abs(U[1][:, right] - e[:, right].imag)) < 1e-14
        Phi = phi(sweep, xs)
        want = np.where(left, [e + R1 * e.conj(), T * e.conj()], [T * e, e.conj() + R2 * e])
        assert np.max(np.abs(Phi - want)) < 1e-12

    def test_high_frequency_transparency(self):
        q = lambda x: np.exp(-np.asarray(x, float) ** 2 * 8) * (np.abs(x) <= 1)
        lo = scattering_coeffs(q, 1.0, 1.0)
        hi = scattering_coeffs(q, 1.0, 30.0)
        assert abs(hi.R1) < abs(lo.R1)
        assert abs(abs(hi.T) - 1.0) < 1e-3

    def test_cell_integral_matches_quadrature(self, sweep):
        # cells on each tail, across each support edge and inside the support
        edges = np.array([-3.0, -2.0, -0.6, 0.4, 1.5, 2.5])
        cells = np.diff(phi(sweep, edges, integrated=True), axis=-1)
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            xs = np.linspace(lo, hi, 4001)
            ref = np.trapezoid(phi(sweep, xs), xs, axis=2)
            assert np.max(np.abs(cells[:, :, i] - ref)) < 1e-5

    def test_antiderivative_free_plane_waves(self):
        model = free_at([0.5, 2.0])
        lo, hi = -1.5, 2.5
        cells = np.diff(phi(model, [lo, hi], integrated=True), axis=-1)[:, :, 0]
        w = model.omegas
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
        assert np.allclose(lean.basis(2.0), full.basis(2.0))
        with pytest.raises(MatchingError):
            lean.basis(0.3)


def quintic_blend_case():
    prof = blend_profile(1.0, 4.0, R=1.5, kind="quintic")
    return (prof.potential_q_warped, prof.warped_support_radius, np.linspace(0.05, 5.0, 7),
            prof.zeta([-prof.R, prof.R]))


def square_barrier_case():
    # min |T| is 3.8e-3 here, so Phi2 inside is a difference of two large solutions
    return lambda x: np.full(np.shape(x), 6.0), 1.0, np.array([0.3, 1.0, 3.0]), ()


class TestOnePass:
    """The one-pass sweep against the two-pass sweep, same step rule and breakpoints."""

    @pytest.mark.parametrize("case", [quintic_blend_case, square_barrier_case],
                             ids=["quintic_blend", "square_barrier"])
    def test_matches_two_passes(self, case):
        q, a, omegas, breakpoints = case()
        sweep = ScatteringSweep(q, a, omegas, breakpoints=breakpoints)
        ref = TwoPassSweep(q, a, omegas, breakpoints)
        for got, want in ((sweep.T, ref.T), (sweep.R1, ref.R1), (sweep.R2, ref.R2)):
            assert rel_dev(got, want) < 1e-12
        xs = np.linspace(-a, a, 401)
        assert rel_dev(phi(sweep, xs), ref.phi(xs)) < 1e-12
        assert rel_dev(phi(sweep, xs, integrated=True), ref.antiderivative(xs)) < 1e-12


BLENDS = [(1.0, 4.0, 1.5, "cubic"), (1.0, 2.0, 1.0, "cubic"), (2.0, 3.0, 0.8, "cubic"),
          (1.0, 4.0, 1.5, "quintic")]


class TestBlendTransmission:
    @pytest.mark.parametrize("blend", BLENDS, ids=lambda b: "{}-{}-{}-{}".format(*b))
    def test_matches_reference_solver(self, blend):
        # the support [zeta(-R), zeta(R)] is not symmetric: the sweep must
        # break its RK4 steps where q jumps (cubic) or kinks (quintic)
        pm, pp, R, kind = blend
        prof_cfg = {"kind": "smooth_blend", "p_minus": pm, "p_plus": pp, "R": R, "blend": kind}
        prof = profile_from_config(prof_cfg)
        omegas = np.array([0.05, 0.5, 2.0, 5.0])
        sset = SpectralSet([(0.0, 25.0)])
        quad = SpectralQuadrature(sset, omegas, np.ones(4), 1)
        T_ref = np.array([reference_transmission(prof, w) for w in omegas])
        cfg = {"model": "schrodinger", "profile": prof_cfg, "spectral_set": [[0.0, 25.0]]}
        for model in (LiouvilleModel(prof, sset, quad=quad).inner, _model(cfg, quad=quad)):
            assert np.max(np.abs(model.sweep.T - T_ref)) < 1e-8


class TestSweepCost:
    @pytest.mark.parametrize("store_interior", [True, False])
    def test_potential_tabulated_per_segment(self, store_interior):
        for breakpoints in [(), (0.3,)]:
            calls = []

            def q(x):
                calls.append(np.size(x))
                return np.exp(-4.0 * np.asarray(x, float) ** 2)

            sweep = ScatteringSweep(q, 1.0, np.linspace(0.1, 5.0, 50), breakpoints=breakpoints,
                                    store_interior=store_interior)
            # one array call per RK4 segment of the one pass, never one per stage
            assert len(calls) == len(breakpoints) + 1
            assert sum(calls) == 3 * sweep.n_steps


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
        # for q = 0, F_c = int f conj(Phi_c) is the Fourier integral at +-omega,
        # sqrt(2 pi) exp(-omega^2 / 2) for the unit gaussian
        omegas = np.array([0.7, 1.4])
        f = lambda x: np.exp(-np.asarray(x, float) ** 2 / 2)
        F = transform(free_at(omegas), f, (-12.0, 12.0)).F
        expected = np.sqrt(2 * np.pi) * np.exp(-omegas**2 / 2)
        assert np.max(np.abs(F[0] - expected)) < 1e-10
        assert np.max(np.abs(F[1] - expected)) < 1e-10

    def test_rejects_nonpositive_omega(self):
        q = lambda x: np.ones_like(np.asarray(x, float))
        with pytest.raises(MatchingError):
            ScatteringSweep(q, 1.0, [0.0, 1.0])

    def test_rejects_empty_support(self):
        q = lambda x: np.ones_like(np.asarray(x, float))
        with pytest.raises(MatchingError, match="support radius"):
            ScatteringSweep(q, 0.0, [1.0])

    def test_wronskian_relation(self):
        # Phi2 is continuous across -a, where its tail is T e^{-i omega x}
        q = lambda x: np.sin(np.asarray(x, float)) ** 2 * (np.abs(x) <= 1)
        sweep = ScatteringSweep(q, 1.0, [2.2])
        assert abs(phi(sweep, -1.0)[1, 0, 0] - sweep.T[0] * np.exp(2.2j)) < 1e-9

    def test_phi_at_scalar_point(self):
        # 0.5 is right of the support [-0.25, 0.25]: Phi = (T e, conj(e) + R2 e)
        q = lambda x: 2.0 * np.ones_like(np.asarray(x, float))
        sweep = ScatteringSweep(q, 0.25, [1.0])
        v = phi(sweep, 0.5)
        assert v.shape == (2, 1, 1)
        e = np.exp(0.5j)
        assert abs(v[0, 0, 0] - sweep.T[0] * e) < 1e-14
        assert abs(v[1, 0, 0] - (e.conj() + sweep.R2[0] * e)) < 1e-14
