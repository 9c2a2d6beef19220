import json
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from varband import cli, schrodinger, spectral
from varband.kernel import LiouvilleModel, SchrodingerModel, free_model
from varband.paleywiener import transform
from varband.profile import blend_profile, profile_from_config
from varband.schrodinger import (MatchingError, ScatteringSweep, liouville_sweep,
                                 scattering_coeffs)
from varband.spectral import SpectralQuadrature, SpectralSet, uniform_quadrature
from varband.sturm import _BLOCK, IntegrationError, rk4_linear

from closed_forms import PerNodeSweep, phi, sweep_model


def square_well_T(q0, a, omega):
    """Closed-form transmission through a rectangular barrier/well."""
    k = omega
    kap = np.lib.scimath.sqrt(omega**2 - q0)
    num = 2j * k * kap * np.exp(-2j * k * a)
    den = 2j * k * kap * np.cos(2 * kap * a) + (k**2 + kap**2) * np.sin(2 * kap * a)
    return num / den


def reference_transmission(prof, omega):
    """T(omega) of a smooth blend from an adaptive solver of the sweep's own equation.

    DOP853 integrates -(p u')' = omega^2 u in x from the right plateau, where
    psi = p^(1/4) u is the pure transmitted wave e^(i omega s), to the left
    one, and reads off the incoming amplitude there; s = zeta(x) enters only
    through the warped length of [-R, R], integrated by quadrature. The
    package's `ScatteringSweep` solves this same equation, so the reference
    is independent of it only by its solver (adaptive DOP853 against
    fixed-step RK4); it shares no code with the warps or the sweep.
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
        self.paths = (rk4_linear(np.ones_like, qa, w**2, a, -a, np.stack([e, 1j * w * e]), h,
                                 breakpoints, path=True),
                      rk4_linear(np.ones_like, qa, w**2, -a, a, np.stack([e, -1j * w * e]), h,
                                 breakpoints, path=True))
        # the first pass's state at -a, and so its integral from -a
        self.left = self.paths[0](np.array([-a]))[0]
        (y, dy, _), (z, dz, _) = self.left, self.paths[1](np.array([a]))[0]
        alpha = 0.5 * (y + dy / (1j * w)) * e
        beta = 0.5 * (y - dy / (1j * w)) * e.conj()
        gamma = 0.5 * (z - dz / (1j * w)) * e
        delta = 0.5 * (z + dz / (1j * w)) * e.conj()
        self.T, self.R1, self.R2 = 1.0 / alpha, beta / alpha, delta / gamma
        self.norm = np.stack([alpha, gamma])[:, :, None]

    def phi(self, x):
        return np.stack([path(x)[:, 0].T for path in self.paths]) / self.norm

    def antiderivative(self, x):
        first, second = (path(x)[:, 2] for path in self.paths)
        return np.stack([(first - self.left[2]).T, second.T]) / self.norm


def rel_dev(got, want):
    """Largest deviation along the last axis relative to the largest entry there."""
    return np.max(np.max(np.abs(got - want), axis=-1) / np.max(np.abs(want), axis=-1))


def free_at(omegas):
    """The free model (the step profile at p = 1) on a rule with the given nodes."""
    sset, omegas = SpectralSet([(0.0, 25.0)]), np.asarray(omegas, dtype=float)
    return free_model(sset, quad=SpectralQuadrature(sset, omegas, np.ones(omegas.size)))


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


@pytest.fixture(scope="module")
def model(sweep):
    return sweep_model(sweep)


class TestSmoothPotential:
    def test_unitarity_defect(self, sweep):
        assert sweep.unitarity_defect() < 1e-10

    def test_reflection_moduli_match(self, sweep):
        assert np.max(np.abs(np.abs(sweep.R1) - np.abs(sweep.R2))) < 1e-10

    def test_continuity_at_support_edge(self, model):
        eps = 1e-7
        for edge in (-1.0, 1.0):
            inner = phi(model, edge - np.sign(edge) * eps)
            outer = phi(model, edge + np.sign(edge) * eps)
            assert np.max(np.abs(inner - outer)) < 1e-5

    def test_tails_are_the_scattering_waves(self, sweep, model):
        # U = (cos, sin) right of the support; through the mix, Phi1 is
        # e + R1 conj(e) left of it and T e right of it, Phi2 mirrored
        xs = np.array([-9.0, -2.5, -1.0001, 1.0001, 3.7, 12.0])
        left, right = xs < 0, xs > 0
        e = np.exp(1j * sweep.omegas[:, None] * xs)
        T, R1, R2 = (c[:, None] for c in (sweep.T, sweep.R1, sweep.R2))
        U = model.basis(xs)
        assert U.dtype == np.float64
        assert np.max(np.abs(U[0][:, right] - e[:, right].real)) < 1e-14
        assert np.max(np.abs(U[1][:, right] - e[:, right].imag)) < 1e-14
        Phi = phi(model, xs)
        want = np.where(left, [e + R1 * e.conj(), T * e.conj()], [T * e, e.conj() + R2 * e])
        assert np.max(np.abs(Phi - want)) < 1e-12

    def test_high_frequency_transparency(self):
        q = lambda x: np.exp(-np.asarray(x, float) ** 2 * 8) * (np.abs(x) <= 1)
        lo = scattering_coeffs(q, 1.0, 1.0)
        hi = scattering_coeffs(q, 1.0, 30.0)
        assert abs(hi.R1) < abs(lo.R1)
        assert abs(abs(hi.T) - 1.0) < 1e-3

    def test_cell_integral_matches_quadrature(self, model):
        # cells on each tail, across each support edge and inside the support
        edges = np.array([-3.0, -2.0, -0.6, 0.4, 1.5, 2.5])
        cells = np.diff(phi(model, edges, integrated=True), axis=-1)
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            xs = np.linspace(lo, hi, 4001)
            ref = np.trapezoid(phi(model, xs), xs, axis=2)
            assert np.max(np.abs(cells[:, :, i] - ref)) < 1e-5

    def test_antiderivative_free_plane_waves(self):
        model = free_at([0.5, 2.0])
        lo, hi = -1.5, 2.5
        cells = np.diff(phi(model, [lo, hi], integrated=True), axis=-1)[:, :, 0]
        w = model.quad.nodes
        expected = (np.exp(1j * w * hi) - np.exp(1j * w * lo)) / (1j * w)
        assert np.max(np.abs(cells[0] - expected)) < 1e-14
        assert np.max(np.abs(cells[1] - expected.conj())) < 1e-14

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
        model = sweep_model(sweep)
        assert rel_dev(phi(model, xs), ref.phi(xs)) < 1e-12
        assert rel_dev(phi(model, xs, integrated=True), ref.antiderivative(xs)) < 1e-12


BLENDS = [(1.0, 4.0, 1.5, "cubic"), (1.0, 2.0, 1.0, "cubic"), (2.0, 3.0, 0.8, "cubic"),
          (1.0, 4.0, 1.5, "quintic")]


class TestBlendTransmission:
    @pytest.mark.parametrize("blend", BLENDS, ids=lambda b: "{}-{}-{}-{}".format(*b))
    def test_matches_reference_solver(self, blend):
        # the Liouville model's sweep of -(p u')' over [-R, R], and the sweep of
        # the warped potential: its support [zeta(-R), zeta(R)] is not
        # symmetric, so it must break its RK4 steps where q jumps (cubic) or
        # kinks (quintic)
        pm, pp, R, kind = blend
        prof_cfg = {"kind": "smooth_blend", "p_minus": pm, "p_plus": pp, "R": R, "blend": kind}
        prof = profile_from_config(prof_cfg)
        omegas = np.array([0.05, 0.5, 2.0, 5.0])
        sset = SpectralSet([(0.0, 25.0)])
        quad = SpectralQuadrature(sset, omegas, np.ones(4))
        T_ref = np.array([reference_transmission(prof, w) for w in omegas])
        warped = SchrodingerModel(prof.potential_q_warped, prof.warped_support_radius, sset,
                                  quad=quad, breakpoints=prof.zeta([-prof.R, prof.R]))
        for model in (LiouvilleModel(prof, sset, quad=quad), warped):
            assert np.max(np.abs(model.sweep.T - T_ref)) < 1e-8


class TestSteepWarpedPotential:
    def test_passes_the_unitarity_gate_yet_misses_the_liouville_sweep(self):
        # the cubic blend(1, 100, R = 0.1) on its 16-node rule for |x| <= 3: the
        # warped potential's 71-step sweep inverts the blend's zeta spline at
        # every stage; its defect, 1.8e-9, is far under the CLI's 1e-7 gate, but
        # its T misses the Liouville sweep's by 3.9e-4. This is why the CLI
        # builds only the Liouville model of a smooth blend.
        prof = blend_profile(1.0, 100.0, R=0.1, kind="cubic")
        model = SchrodingerModel(prof.potential_q_warped, prof.warped_support_radius,
                                 SpectralSet([(0.0, 4.0)]), x_max=3.0,
                                 breakpoints=prof.zeta([-prof.R, prof.R]))
        ref = liouville_sweep(prof, model.quad.nodes)
        assert (len(model.quad), model.sweep.n_steps) == (16, 71)
        assert model.sweep.unitarity_defect() < 2e-9 and ref.unitarity_defect() < 1e-14
        assert 3.8e-4 < np.max(np.abs(model.sweep.T - ref.T)) < 4e-4


class TestSweepCost:
    @pytest.mark.parametrize("breakpoints", [(), (0.3,)], ids=["one_segment", "two_segments"])
    def test_potential_tabulated_per_segment(self, breakpoints):
        calls = []

        def q(x):
            calls.append(np.size(x))
            return np.exp(-4.0 * np.asarray(x, float) ** 2)

        sweep = ScatteringSweep(q, 1.0, np.linspace(0.1, 5.0, 50), breakpoints=breakpoints)
        # one array call per RK4 segment of the one pass, never one per stage,
        # and no interior path until the interior is asked for
        passes = len(breakpoints) + 1
        assert len(calls) == passes
        assert sum(calls) == 3 * sweep.n_steps
        assert "_interior" not in vars(sweep)
        # the first interior call runs the path pass, once per segment; every
        # interior call takes one call at the stages of 32 steps per point
        model = sweep_model(sweep)
        model.basis(np.array([0.2]))
        assert calls[:passes] == calls[passes:2 * passes]
        assert calls[2 * passes:] == [3 * (_BLOCK // 2)]
        del calls[:]
        # the integral over the support, then the two points
        model.basis_antiderivative(np.array([-0.4, 0.5]))
        assert calls == [3 * (_BLOCK // 2), 2 * 3 * (_BLOCK // 2)]

    def test_potential_is_asked_only_inside_the_support(self):
        # every stage abscissa lies inside its RK4 segment, and every segment inside
        # [-a, a]: a warped potential that refuses |s| >= a is never asked there
        prof = blend_profile(1.0, 3.0, R=1.5, kind="cubic")
        a, seen = prof.warped_support_radius, []

        def q(s):
            s = np.asarray(s, dtype=float)
            if np.any(np.abs(s) >= a):
                raise AssertionError("q asked at |s| >= a")
            seen.append(np.abs(s).max())
            return prof.potential_q_warped(s)

        sweep = ScatteringSweep(q, a, np.linspace(0.05, 5.0, 50),
                                breakpoints=prof.zeta([-prof.R, prof.R]))
        sweep.solution(np.array([0.0]))  # the interior pass too
        assert a - 1e-9 < max(seen) < a
        assert sweep.unitarity_defect() < 1e-7

    def test_one_unique_per_sweep(self, monkeypatch):
        # the final pass finds the distinct omega^2 once; the interior pass reuses its map
        calls, unique = [], np.unique

        def counted(*args, **kwargs):
            calls.append(args[0].size)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        prof = blend_profile(1.0, 3.0, R=1.5, kind="cubic")
        sweep = liouville_sweep(prof, np.linspace(0.05, 5.0, 200))
        sweep.solution(np.array([-0.3, 0.4]))
        sweep.solution(np.array([1.0]), True)
        assert calls == [200] and sweep.rk4_points < len(sweep)

    def test_scatter_runs_no_path(self, tmp_path, monkeypatch):
        # the scatter subcommand reads T, R1 and R2 from the final map alone
        def refuse(*args, path=False, **kwargs):
            if path:
                raise AssertionError("the interior path was run")
            return rk4_linear(*args, **kwargs)

        monkeypatch.setattr(schrodinger, "rk4_linear", refuse)
        blend = {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 4.0, "R": 1.5}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": blend}))
        assert cli.main(["scatter", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        sweep = liouville_sweep(profile_from_config(blend), np.linspace(0.05, 5.0, 200))
        with pytest.raises(AssertionError, match="path was run"):
            sweep.solution(np.array([0.0]))

    @pytest.mark.parametrize("n_omegas", [64, 640])
    def test_interior_holds_its_block_ends(self, n_omegas):
        q = lambda x: np.exp(-4.0 * np.asarray(x, float) ** 2)
        sweep = ScatteringSweep(q, 1.0, np.linspace(0.2, 4.0, n_omegas))
        assert "_interior" not in vars(sweep)
        # the same Chebyshev points of omega^2 at either node count
        assert sweep.rk4_points == 18
        tracemalloc.start()
        try:
            path = sweep._interior[0]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # (u, p u', int u) from both starts at every 64th step of 2000 and
        # the last: nothing scales with the step count alone or the node count
        assert path.ends.shape == (3, sweep.n_steps // _BLOCK + 2, 2, sweep.rk4_points)
        assert path.ends.dtype == np.float64
        assert path.ends.nbytes <= held < 1.25 * path.ends.nbytes

    def test_long_phase_interior_stays_small(self):
        # the warped sweep of a steep quintic blend: 25433 steps at 200 distinct
        # omega^2, where a state per step took 155 MiB
        prof = blend_profile(1.0, 0.01, R=3.0, kind="quintic")
        sweep = ScatteringSweep(prof.potential_q_warped, prof.warped_support_radius,
                                np.linspace(0.05, 5.0, 200), breakpoints=prof.zeta([-3.0, 3.0]))
        assert (sweep.n_steps, sweep.rk4_points) == (25433, 200)
        tracemalloc.start()
        try:
            sweep.solution(np.array([-1.0, 0.0, 2.0]), True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_interior_past_memory_is_refused_unallocated(self, monkeypatch):
        prof = blend_profile(1.0, 3.0, R=1.5, kind="cubic")
        sweep = liouville_sweep(prof, np.linspace(0.05, 5.0, 200))
        # 128 KiB, once the sweep is built: the interior's stage tables alone,
        # 12 float64 for each of 3000 steps, take 288 KB
        monkeypatch.setattr(spectral, "_physical_memory", lambda: 2**17)
        tracemalloc.start()
        try:
            with pytest.raises(IntegrationError, match="physical memory"):
                sweep.solution(np.array([0.0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**15

    def test_liouville_model_shares_the_scatter_sweep(self):
        # a Liouville model's T is the scatter subcommand's, bit for bit, at the same omegas
        prof = blend_profile(1.0, 3.0, R=1.5, kind="cubic")
        sset = SpectralSet([(0.0, 1.0)])
        model = LiouvilleModel(prof, sset, quad=uniform_quadrature(sset, 0.05))
        sweep = liouville_sweep(prof, model.quad.nodes)
        for got, want in ((model.sweep.T, sweep.T), (model.sweep.R1, sweep.R1),
                          (model.sweep.R2, sweep.R2)):
            assert np.array_equal(got, want)
        assert model.sweep.rk4_points == sweep.rk4_points < len(model.quad)


class TestInterpolatedSweep:
    """A sweep's final map and interior interpolated in omega^2, against every node integrated."""

    @pytest.mark.parametrize("prof, omegas", [
        (blend_profile(1.0, 4.0, R=1.5, kind="quintic"), np.linspace(0.05, 5.0, 200)),
        (blend_profile(1.0, 100.0, R=0.1, kind="cubic"), np.linspace(1e-3, 3.0, 200)),
        (blend_profile(1.0, 100.0, R=0.1, kind="cubic"), np.geomspace(1e-3, 3.0, 200)),
    ], ids=["quintic_blend", "steep_blend_linear", "steep_blend_geometric"])
    def test_matches_per_node_path(self, prof, omegas):
        sweep = liouville_sweep(prof, omegas)
        ref = PerNodeSweep(np.zeros_like, prof.R, omegas, profile=prof)
        assert sweep.rk4_points < omegas.size and sweep.interpolation_tail > 0
        for got, want in ((sweep.T, ref.T), (sweep.R1, ref.R1), (sweep.R2, ref.R2)):
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("distinct", [np.array([0.5, 1.0, 3.0]), np.linspace(0.05, 5.0, 60)],
                             ids=["few", "many"])
    def test_duplicate_omegas(self, distinct):
        # each omega's row is that of the sweep without duplicates, bit for bit
        prof = blend_profile(1.0, 4.0, R=1.5, kind="quintic")
        omegas = np.repeat(distinct, 3)
        with np.errstate(divide="raise", invalid="raise"):
            sweep, alone = (liouville_sweep(prof, w) for w in (omegas, distinct))
            xs = np.linspace(-prof.R, prof.R, 7)
            inside, inside_alone = sweep.solution(xs), alone.solution(xs)
        assert sweep.rk4_points == alone.rk4_points
        for got, want in ((sweep.T, alone.T), (sweep.R1, alone.R1), (sweep.R2, alone.R2),
                          (sweep.defects, alone.defects)):
            assert np.array_equal(got, np.repeat(want, 3))
        assert np.array_equal(inside, np.repeat(inside_alone, 3, axis=1))


def blend_sweeps(name, p_minus, p_plus, R, kind, omegas, warped_omegas=None):
    """A blend's Liouville sweep and its warped potential's sweep, as (q, a, omegas, kw)."""
    prof = blend_profile(p_minus, p_plus, R=R, kind=kind)
    return {f"{name}-liouville": (np.zeros_like, prof.R, omegas, {"profile": prof}),
            f"{name}-warped": (prof.potential_q_warped, prof.warped_support_radius,
                               omegas if warped_omegas is None else warped_omegas,
                               {"breakpoints": prof.zeta([-R, R])})}


INTERIOR_CASES = {
    **blend_sweeps("quintic_blend", 1.0, 4.0, 1.5, "quintic", np.linspace(0.05, 5.0, 200)),
    **blend_sweeps("steep_blend_linear", 1.0, 100.0, 0.1, "cubic", np.linspace(1e-3, 3.0, 200)),
    **blend_sweeps("steep_blend_geometric", 1.0, 100.0, 0.1, "cubic",
                   np.geomspace(1e-3, 3.0, 200)),
    # the Liouville sweep doubles to 131 of 200 points; the warped one takes
    # 25433 steps and interpolates nothing at 200 frequencies, so 60 keep its
    # per-node path small
    **blend_sweeps("long_phase", 1.0, 0.01, 3.0, "quintic", np.linspace(0.05, 5.0, 200),
                   np.linspace(0.05, 5.0, 60)),
    # min |T| is 3.8e-3, so u inside is a difference of two large solutions
    "square_barrier": (lambda x: np.full(np.shape(x), 6.0), 1.0, np.linspace(0.3, 3.0, 200), {}),
}


class TestInterior:
    """U and int U inside the support against the path integrated at every node."""

    @pytest.mark.parametrize("case", list(INTERIOR_CASES))
    def test_matches_per_node_path(self, case):
        q, a, omegas, kw = INTERIOR_CASES[case]
        sweep = ScatteringSweep(q, a, omegas, **kw)
        ref = PerNodeSweep(q, a, omegas, **kw)
        xs = np.linspace(-a, a, 301)
        for integrated, want in zip((False, True), ref.solutions(xs)):
            dev = np.max(np.abs(sweep.solution(xs, integrated) - want)) / np.max(np.abs(want))
            assert dev < 1e-12


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
        assert abs(phi(sweep_model(sweep), -1.0)[1, 0, 0] - sweep.T[0] * np.exp(2.2j)) < 1e-9

    def test_phi_at_scalar_point(self):
        # 0.5 is right of the support [-0.25, 0.25]: Phi = (T e, conj(e) + R2 e)
        q = lambda x: 2.0 * np.ones_like(np.asarray(x, float))
        sweep = ScatteringSweep(q, 0.25, [1.0])
        v = phi(sweep_model(sweep), 0.5)
        assert v.shape == (2, 1, 1)
        e = np.exp(0.5j)
        assert abs(v[0, 0, 0] - sweep.T[0] * e) < 1e-14
        assert abs(v[1, 0, 0] - (e.conj() + sweep.R2[0] * e)) < 1e-14
