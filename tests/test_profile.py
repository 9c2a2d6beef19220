import re
import warnings

import numpy as np
import pytest

from varband.profile import (
    BlendProfile,
    PiecewiseConstantProfile,
    ProfileError,
    UnsupportedProfileError,
    blend_profile,
    constant_profile,
    profile_from_config,
    toy_profile,
)


@pytest.fixture
def step14():
    return toy_profile(1.0, 4.0)


@pytest.fixture
def smooth12():
    return blend_profile(1.0, 2.0, R=1.0, kind="cubic")


class TestEval:
    def test_constant(self):
        p = PiecewiseConstantProfile([], [1.0])
        assert p.eval_p(3.7) == 1.0

    def test_step_right_limit_convention(self, step14):
        assert step14.eval_p(-0.5) == 1.0
        assert step14.eval_p(0.5) == 4.0
        # at the breakpoint the right plateau applies
        assert step14.eval_p(0.0) == 4.0

    def test_smooth_plateau(self, smooth12):
        assert smooth12.eval_p(2.0) == pytest.approx(2.0)
        assert smooth12.eval_p(-5.0) == pytest.approx(1.0)

    def test_vectorized(self, step14):
        out = step14.eval_p(np.array([-1.0, 1.0]))
        assert np.allclose(out, [1.0, 4.0])

    def test_validation(self):
        with pytest.raises(ProfileError):
            PiecewiseConstantProfile([0.0], [1.0, -2.0])
        with pytest.raises(ProfileError):
            PiecewiseConstantProfile([1.0, 0.0], [1.0, 2.0, 3.0])


class TestMu:
    def test_identity(self):
        p = PiecewiseConstantProfile([], [1.0])
        assert p.mu((0.0, 2.0)) == pytest.approx(2.0)

    def test_step_closed_form(self, step14):
        assert p_mu(step14, -1.0, 1.0) == pytest.approx(1.5)

    def test_empty(self, step14, smooth12):
        assert p_mu(step14, 0.3, 0.3) == 0.0
        assert smooth12.mu((1.1, 1.1)) == 0.0

    def test_additive(self, smooth12):
        a, b, c = -0.7, 0.2, 1.9
        assert smooth12.mu((a, c)) == pytest.approx(
            smooth12.mu((a, b)) + smooth12.mu((b, c)), abs=1e-10
        )

    def test_sandwich(self, smooth12):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(-3, 2)
            b = a + rng.uniform(0.1, 3)
            mu = smooth12.mu((a, b))
            assert mu <= (b - a) / np.sqrt(smooth12.lower) + 1e-12
            assert mu >= (b - a) / np.sqrt(smooth12.upper) - 1e-12


    @pytest.mark.parametrize("p_minus, p_plus, R, kind", [
        (1.0, 2.0, 1.0, "quintic"), (1.0, 2.0, 1.0, "cubic"),
        (1.0, 4.0, 1.5, "quintic"), (1.0, 4.0, 1.5, "cubic"),
        (2.0, 3.0, 0.8, "quintic"), (2.0, 3.0, 0.8, "cubic"),
        (0.5, 50.0, 2.0, "cubic"),
    ])
    def test_smooth_matches_quadrature(self, p_minus, p_plus, R, kind):
        prof = blend_profile(p_minus, p_plus, R=R, kind=kind)
        rng = np.random.default_rng(0)
        for _ in range(40):
            a = rng.uniform(-3 * R, 2 * R)
            b = a + rng.uniform(0.05, 4 * R)
            ref = mu_reference(prof, a, b)
            assert abs(prof.mu((a, b)) - ref) <= 1e-10 * ref


def mu_reference(profile, a, b):
    """int_a^b p^{-1/2} by adaptive quadrature, split at the blend edges +-R."""
    from scipy import integrate

    cuts = [a] + [c for c in (-profile.R, profile.R) if a < c < b] + [b]
    total = 0.0
    with warnings.catch_warnings():
        # quad reports roundoff at this tolerance on the steep blend, where
        # its result still agrees with the warp to 1e-11
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in zip(cuts, cuts[1:]):
            total += integrate.quad(lambda u: profile.eval_p(u) ** -0.5, lo, hi,
                                    epsabs=1e-15, epsrel=1e-14, limit=200)[0]
    return total


def p_mu(profile, a, b):
    return profile.mu((a, b))


class TestWarp:
    def test_identity_warp(self):
        p = constant_profile(1.0)
        xs = np.linspace(-7, 7, 41)
        assert np.max(np.abs(p.zeta(xs) - xs)) < 1e-10

    def test_constant_scaling(self):
        p = PiecewiseConstantProfile([], [4.0])
        assert p.zeta(3.0) == pytest.approx(1.5)
        assert p.zeta_inv(1.5) == pytest.approx(3.0)

    def test_step_value(self, step14):
        assert step14.zeta(2.0) == pytest.approx(1.0)

    def test_zero_anchor(self, step14, smooth12):
        assert step14.zeta(0.0) == 0.0
        assert abs(smooth12.zeta(0.0)) < 1e-12

    def test_roundtrip(self, smooth12, step14):
        xs = np.linspace(-12, 12, 201)
        for prof in (smooth12, step14):
            back = prof.zeta_inv(prof.zeta(xs))
            assert np.max(np.abs(back - xs) / (1 + np.abs(xs))) < 1e-9

    def test_monotone(self, smooth12):
        xs = np.linspace(-4, 4, 301)
        assert np.all(np.diff(smooth12.zeta(xs)) > 0)

    def test_forward_inverse_consistency(self, smooth12):
        zs = np.linspace(smooth12.zeta(-10), smooth12.zeta(10), 101)
        assert np.max(np.abs(smooth12.zeta(smooth12.zeta_inv(zs)) - zs)) < 1e-11


class TestPotential:
    def test_constant_is_zero(self):
        p = constant_profile(3.0)
        xs = np.linspace(-3, 3, 31)
        assert np.max(np.abs(p.potential_q(xs))) == 0.0

    def test_outside_support(self, smooth12):
        assert smooth12.potential_q(1.5) == 0.0
        assert smooth12.potential_q(-7.0) == 0.0

    def test_matches_finite_differences(self, smooth12):
        h = 1e-4
        for x in [-0.6, -0.1, 0.4, 0.8]:
            pv = smooth12.p_func
            d2 = (pv(x + h) - 2 * pv(x) + pv(x - h)) / h**2
            d1 = (pv(x + h) - pv(x - h)) / (2 * h)
            expected = d2 / 4 - d1**2 / (16 * pv(x))
            assert smooth12.potential_q(x) == pytest.approx(expected, abs=1e-6)

    def test_step_profile_unsupported(self, step14):
        with pytest.raises(UnsupportedProfileError):
            step14.potential_q(0.5)

    def test_compact_support_in_warped_coordinate(self, smooth12):
        a = smooth12.warped_support_radius
        for s in [a + 0.1, -a - 0.1, 3 * a]:
            assert smooth12.potential_q_warped(s) == 0.0

class TestMaxGap:
    def test_unit_lattice(self):
        p = constant_profile(1.0)
        assert p.max_gap_delta(np.arange(-5, 6, dtype=float)) == pytest.approx(1.0)

    def test_step_uses_open_gap_infimum(self, step14):
        # the gap (0, 1) lies in the fast plateau, so it weighs half
        assert step14.max_gap_delta(np.array([-1.0, 0.0, 1.0])) == pytest.approx(1.0)
        assert step14.max_gap_delta(np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_pass_example(self):
        p = constant_profile(1.0)
        delta = p.max_gap_delta(np.array([0.0, np.pi / 2]))
        assert delta == pytest.approx(np.pi / 2)
        assert delta < np.pi

    def test_needs_two_points(self, step14):
        with pytest.raises(ProfileError):
            step14.max_gap_delta(np.array([1.0]))


def reference_warp(profile, x, power):
    """int_0^x p**power, summed piece by piece from 0 for one point."""
    bp, w = profile.breakpoints, profile.values**power
    lo, hi = (0.0, x) if x >= 0 else (x, 0.0)
    edges = np.concatenate(([lo], bp[(bp > lo) & (bp < hi)], [hi]))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += (b - a) * w[np.searchsorted(bp, 0.5 * (a + b), side="right")]
    return total if x >= 0 else -total


def reference_inf_p(profile, a, b):
    """Infimum of p over the open gap (a, b), one gap at a time."""
    if isinstance(profile, PiecewiseConstantProfile):
        i_lo = np.searchsorted(profile.breakpoints, a, side="right")
        i_hi = np.searchsorted(profile.breakpoints, b, side="left")
        return float(profile.values[i_lo : i_hi + 1].min())
    R = profile.R
    cands = [profile.eval_p(a), profile.eval_p(b)]
    lo, hi = max(a, -R), min(b, R)
    if hi > lo:
        cands.append(float(np.min(profile.eval_p(np.linspace(lo, hi, 129)))))
    if a < -R:
        cands.append(profile.p_minus)
    if b > R:
        cands.append(profile.p_plus)
    return float(min(cands))


def reference_max_gap_delta(profile, x):
    return max((hi - lo) / np.sqrt(reference_inf_p(profile, lo, hi)) for lo, hi in zip(x[:-1], x[1:]))


def seeded_profile(n_breakpoints, inner, seed):
    """n random breakpoints; the one nearest 0 moves to ``inner`` unless it is None."""
    rng = np.random.default_rng(seed)
    bp = np.sort(rng.uniform(-30.0, 30.0, n_breakpoints))
    if inner is not None:
        bp[np.argmin(np.abs(bp))] = inner
        bp = np.sort(bp)
    return PiecewiseConstantProfile(bp, rng.uniform(0.3, 6.0, bp.size + 1))


# a breakpoint at 0, or none; 1e-5 puts a knot next to the one at 0
KNOT_PROFILES = [(0, None), (1, None), (1, 0.0), (40, None), (40, 0.0), (40, 1e-5)]


def probe_points(profile):
    bp = profile.breakpoints
    outer = max(1.0, float(np.abs(bp).max())) if bp.size else 1.0
    near_zero = np.geomspace(1e-12, 1e-2, 6)
    return np.concatenate((bp, [0.0], near_zero, -near_zero, np.linspace(-2 * outer, 2 * outer, 397)))


def relative_error(got, want):
    want = np.asarray(want)
    return np.max(np.abs(got - want) / np.where(want == 0.0, 1.0, np.abs(want)))


class TestKnotTableWarps:
    @pytest.fixture(params=KNOT_PROFILES, ids=lambda c: f"{c[0]}bp-inner{c[1]}")
    def prof(self, request):
        n, inner = request.param
        return seeded_profile(n, inner, seed=100 + n)

    # the exponent of zeta = int p**power, a parameter so the test ids name it
    @pytest.mark.parametrize("power", [-0.5])
    def test_matches_per_piece_sum(self, prof, power):
        xs = probe_points(prof)
        want = np.array([reference_warp(prof, x, power) for x in xs])
        assert relative_error(prof.zeta(xs), want) < 1e-12

    @pytest.mark.parametrize("power", [-0.5])
    def test_inverse_maps_reference_back(self, prof, power):
        xs = probe_points(prof)
        ws = np.array([reference_warp(prof, x, power) for x in xs])
        assert relative_error(prof.zeta_inv(ws), xs) < 1e-12

    def test_zero_is_exact(self, prof):
        assert prof.zeta(0.0) == 0.0

    def test_scalar_returns_float(self, prof):
        for fn in (prof.zeta, prof.zeta_inv):
            assert type(fn(0.7)) is float
        assert type(prof.inf_p(-0.5, 0.5)) is float


class TestVectorGaps:
    def test_piecewise_matches_per_gap_loop(self):
        rng = np.random.default_rng(7)
        for n, inner in KNOT_PROFILES:
            prof = seeded_profile(n, inner, seed=200 + n)
            bp = prof.breakpoints
            # gaps that start or end exactly on a breakpoint, and gaps that straddle one
            x = np.unique(np.concatenate((bp[::2], bp[1::2] - 1e-3, bp[1::2] + 1e-3,
                                          rng.uniform(-70.0, 70.0, 60))))
            want = [reference_inf_p(prof, lo, hi) for lo, hi in zip(x[:-1], x[1:])]
            assert np.array_equal(prof.inf_p(x[:-1], x[1:]), want)
            assert prof.max_gap_delta(x) == reference_max_gap_delta(prof, x)

    def test_piecewise_open_gap_convention(self, step14):
        # (0, 1) sees only the right plateau, (-1, 0) only the left one
        got = step14.inf_p(np.array([-1.0, 0.0, -1.0]), np.array([0.0, 1.0, 1.0]))
        assert got.tolist() == [1.0, 4.0, 1.0]

    @pytest.mark.parametrize("kind", ["cubic", "quintic"])
    def test_smooth_matches_per_gap_loop(self, kind):
        prof = blend_profile(3.0, 1.5, R=1.5, kind=kind)
        rng = np.random.default_rng(11)
        x = np.unique(np.concatenate(([-1.5, 1.5, 0.0], rng.uniform(-4.0, 4.0, 40))))
        want = [reference_inf_p(prof, lo, hi) for lo, hi in zip(x[:-1], x[1:])]
        # p is evaluated on one (n_gaps, 129) table instead of row by row, and
        # numpy's vector loops may round a sample differently in the last bit
        rtol = 8 * np.finfo(float).eps
        np.testing.assert_allclose(prof.inf_p(x[:-1], x[1:]), want, rtol=rtol, atol=0)
        assert prof.max_gap_delta(x) == pytest.approx(reference_max_gap_delta(prof, x), rel=rtol)

    def test_empty_gap_rejected(self, step14, smooth12):
        for prof in (step14, smooth12):
            with pytest.raises(ProfileError):
                prof.inf_p(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


SMOOTHSTEPS = {"cubic": lambda t: 3 * t**2 - 2 * t**3,
               "quintic": lambda t: 10 * t**3 - 15 * t**4 + 6 * t**5}
BLENDS = [(kind, p_minus, p_plus, R) for kind in SMOOTHSTEPS
          for p_minus, p_plus, R in [(1.0, 4.0, 1.5), (3.0, 1.5, 0.8), (1.0, 100.0, 0.1),
                                     (0.01, 1.0, 3.0)]]


class TestBlendProfile:
    @pytest.mark.parametrize("kind, p_minus, p_plus, R", BLENDS)
    def test_p_is_the_smoothstep(self, kind, p_minus, p_plus, R):
        prof = BlendProfile(p_minus, p_plus, R, kind)
        x = np.linspace(-2 * R, 2 * R, 401)
        t = np.clip((x + R) / (2 * R), 0.0, 1.0)
        want = np.where(x < -R, p_minus, np.where(x > R, p_plus,
                                                  p_minus + (p_plus - p_minus) * SMOOTHSTEPS[kind](t)))
        # both sums cancel down to s(1) = 1 from coefficients whose moduli sum to
        # at most 31, so each is within about 31 eps |p+ - p-| of p
        eps = np.finfo(float).eps
        np.testing.assert_allclose(prof.eval_p(x), want, rtol=4 * eps,
                                   atol=64 * eps * abs(p_plus - p_minus))
        assert prof.p_func is not None and prof.p_func(0.3) == prof.eval_p(0.3)

    @pytest.mark.parametrize("kind, p_minus, p_plus, R", BLENDS)
    def test_bounds_are_exact(self, kind, p_minus, p_plus, R):
        prof = BlendProfile(p_minus, p_plus, R, kind)
        assert (prof.lower, prof.upper) == (min(p_minus, p_plus), max(p_minus, p_plus))
        # p is monotone, so a gap's infimum is p at one of its ends, and no
        # sample of p inside the gap is lower
        rng = np.random.default_rng(5)
        a = rng.uniform(-2 * R, 2 * R, 50)
        b = a + rng.uniform(1e-3, 2 * R, 50)
        inf = prof.inf_p(a, b)
        assert np.array_equal(inf, np.minimum(prof.eval_p(a), prof.eval_p(b)))
        inside = prof.eval_p(np.linspace(a, b, 257, axis=-1))
        assert np.all(inside.min(axis=-1) >= inf)

    @pytest.mark.parametrize("kind, p_minus, p_plus, R", BLENDS)
    def test_warp_ends_against_quadrature(self, kind, p_minus, p_plus, R):
        prof = BlendProfile(p_minus, p_plus, R, kind)
        ends = prof.zeta(np.array([-R, R]))
        want = np.array([-mu_reference(prof, -R, 0.0), mu_reference(prof, 0.0, R)])
        np.testing.assert_allclose(ends, want, rtol=4e-15, atol=0)
        assert prof.warped_support_radius == max(-ends[0], ends[1])

    @pytest.mark.parametrize("kind, p_minus, p_plus, R", BLENDS)
    def test_warp_inside_against_quadrature(self, kind, p_minus, p_plus, R):
        # inside the blend zeta is a cubic Hermite spline on knots H = R / 800
        # apart, within H^4 / 384 max |(p^(-1/2))'''| of the warp (the third
        # derivative estimated on a fine grid) plus rounding; its inverse
        # round-trips, and it meets 0 and the ends
        prof = BlendProfile(p_minus, p_plus, R, kind)
        x = R * np.array([-0.999, -0.7, -0.3, -1e-6, 0.2, 0.55, 0.9])
        want = [np.sign(v) * mu_reference(prof, *sorted((0.0, v))) for v in x]
        fine = np.linspace(-R, R, 20001)
        d3 = prof.eval_p(fine) ** -0.5
        for _ in range(3):
            d3 = np.gradient(d3, fine)
        bound = ((R / 800) ** 4 / 384 * np.max(np.abs(d3[3:-3]))
                 + 8 * np.finfo(float).eps * prof.warped_support_radius)
        assert np.max(np.abs(prof.zeta(x) - want)) <= bound
        assert prof.zeta(0.0) == 0.0 and prof.zeta_inv(0.0) == 0.0
        near = prof.zeta(np.nextafter([-R, R], 0.0))
        np.testing.assert_allclose(near, prof.zeta(np.array([-R, R])), rtol=1e-15, atol=0)
        assert np.max(np.abs(prof.zeta_inv(prof.zeta(x)) - x)) <= 8 * np.finfo(float).eps * R

    def test_spline_is_built_only_inside(self):
        prof = BlendProfile(1.0, 4.0, 1.5)
        prof.zeta_inv(prof.zeta(np.array([-1.5, 1.5, -4.0, 2.0])))
        assert "_zeta_spline" not in vars(prof)
        prof.zeta(0.5)
        assert "_zeta_spline" in vars(prof)

    @pytest.mark.parametrize("kind, p_minus, p_plus, R", BLENDS)
    def test_inverse_on_a_stage_sized_array(self, kind, p_minus, p_plus, R):
        # the warped potential inverts every RK4 stage abscissa of a sweep at
        # once: about 1e4 points across the blend
        prof = BlendProfile(p_minus, p_plus, R, kind)
        zlo, zhi = prof.zeta(np.array([-R, R]))
        z = np.linspace(zlo, zhi, 12001)
        x = prof.zeta_inv(z)
        assert np.all(np.diff(x) > 0) and x[0] == -R and x[-1] == R
        assert np.max(np.abs(prof.zeta(x) - z)) <= 4 * np.finfo(float).eps * max(-zlo, zhi)

    @pytest.mark.parametrize("args, message", [
        ((1.0, 2.0, 0.0), "plateau radius must be positive and finite, got 0"),
        ((1.0, 2.0, -1.0), "plateau radius must be positive and finite, got -1"),
        ((1.0, 2.0, np.inf), "plateau radius must be positive and finite, got inf"),
        ((0.0, 2.0, 1.0), "plateau values must be positive"),
        ((1.0, -2.0, 1.0), "plateau values must be positive"),
        ((1e-300, 1e300, 1.0), "the plateau ratio 1e+300 / 1e-300 overflows"),
        ((1.0, 1e12, 1.0, "cubic"), "the cubic blend from 1 to 1e+12 is too steep"),
        ((1.0, 2.0, 1.0, "linear"), "unknown blend kind 'linear'"),
    ])
    def test_refused(self, args, message):
        with pytest.raises(ProfileError, match=re.escape(message)):
            BlendProfile(*args)


class TestAdmissibility:
    def test_zero_plateau_fails(self):
        with pytest.raises(ProfileError):
            PiecewiseConstantProfile([0.0], [1.0, 0.0])


class TestConfig:
    def test_piecewise(self):
        p = profile_from_config({"kind": "piecewise", "breakpoints": [0.0],
                                 "values": [1.0, 4.0]})
        assert p.eval_p(-1.0) == 1.0

    def test_smooth(self):
        p = profile_from_config({"kind": "smooth_blend", "p_minus": 1.0,
                                 "p_plus": 2.0, "R": 1.0, "blend": "quintic"})
        assert p.eval_p(3.0) == pytest.approx(2.0)

    def test_unknown(self):
        with pytest.raises(ProfileError):
            profile_from_config({"kind": "mystery"})

    @pytest.mark.parametrize("cfg, message", [
        ({"kind": "piecewise", "breakpoints": [], "values": [1.0], "value": 2.0},
         "unknown field 'value' in profile"),
        ({"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0, "radius": 1.0},
         "unknown field 'radius' in profile"),
        ({"kind": "piecewise", "values": [1.0]}, "missing field 'breakpoints' in profile"),
        ({"kind": "smooth_blend", "p_plus": 2.0}, "missing field 'p_minus' in profile"),
        ({"kind": "smooth_blend", "p_minus": 1.0, "p_plus": True},
         "profile.p_plus must be a finite number, got True"),
        ({"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0, "blend": "linear"},
         "profile.blend must be one of 'cubic', 'quintic', got 'linear'"),
        ({"kind": "piecewise", "breakpoints": 0.0, "values": [1.0, 2.0]},
         "profile.breakpoints must be a list of finite numbers, got 0.0"),
        ({"kind": ["piecewise"]}, "unknown profile kind ['piecewise']"),
        ("flat", "profile must hold a JSON object, not a str"),
    ])
    def test_strict(self, cfg, message):
        with pytest.raises(ProfileError, match=re.escape(message)):
            profile_from_config(cfg)
