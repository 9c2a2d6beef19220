"""The in-package cubic Hermite interpolant against scipy's CubicHermiteSpline.

scipy is the reference here only: the package itself interpolates with
`varband.profile.CubicHermite`. The call-site tests rebuild each object with a
scipy-backed stand-in patched into the module that constructs it.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from varband import profile, schrodinger
from varband.profile import CubicHermite, blend_profile
from varband.schrodinger import ScatteringSweep

from closed_forms import sweep_model


class ScipyHermite:
    """The CubicHermite interface on top of scipy's spline."""

    def __init__(self, x, y, dydx):
        self._spline = CubicHermiteSpline(x, y, dydx)

    def __call__(self, t):
        return self._spline(t)

    def antiderivative(self, t):
        return self._spline.antiderivative()(t)


def rel_dev(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def uneven_data(rng, n, trailing=(), dtype=float):
    # knot gaps spanning three decades
    x = np.cumsum(10.0 ** rng.uniform(-3, 0, n)) - 2.0
    shape = (n,) + trailing

    def draw():
        v = rng.normal(size=shape)
        return v + 1j * rng.normal(size=shape) if dtype is complex else v

    return x, draw(), draw()


def probes(rng, x):
    # every knot, both ends, points inside and points beyond either end
    span = x[-1] - x[0]
    return np.concatenate((x, [x[0], x[-1]], rng.uniform(x[0], x[-1], 500),
                           [x[0] - 0.3 * span, x[-1] + 0.3 * span]))


CASES = [((), float), ((), complex), ((7,), float), ((7,), complex), ((3, 2), complex)]


class TestAgainstScipy:
    @pytest.mark.parametrize("trailing,dtype", CASES, ids=lambda c: str(c))
    def test_values(self, trailing, dtype):
        rng = np.random.default_rng(11)
        x, y, dydx = uneven_data(rng, 60, trailing, dtype)
        t = probes(rng, x)
        assert rel_dev(CubicHermite(x, y, dydx)(t), CubicHermiteSpline(x, y, dydx)(t)) < 1e-13

    @pytest.mark.parametrize("trailing,dtype", CASES, ids=lambda c: str(c))
    def test_antiderivative(self, trailing, dtype):
        rng = np.random.default_rng(15)
        x, y, dydx = uneven_data(rng, 60, trailing, dtype)
        t = probes(rng, x)
        want = CubicHermiteSpline(x, y, dydx).antiderivative()(t)
        assert rel_dev(CubicHermite(x, y, dydx).antiderivative(t), want) < 1e-13

    def test_interpolates_knot_data_exactly(self):
        rng = np.random.default_rng(13)
        x, y, dydx = uneven_data(rng, 40, (4,), complex)
        sp = CubicHermite(x, y, dydx)
        # each knot but the last starts its interval, where s = 0 leaves the constant term
        assert np.array_equal(sp(x[:-1]), y[:-1])
        assert rel_dev(sp(x), y) < 1e-13

    def test_point_shapes(self):
        rng = np.random.default_rng(14)
        x, y, dydx = uneven_data(rng, 20, (5,), complex)
        sp, ref = CubicHermite(x, y, dydx), CubicHermiteSpline(x, y, dydx)
        t = rng.uniform(x[0], x[-1], (3, 4))
        assert sp(t).shape == (3, 4, 5)
        assert sp(0.1).shape == ref(0.1).shape == (5,)
        assert rel_dev(sp(t), ref(t)) < 1e-13


class TestCallSites:
    """Each interpolating object against its scipy-backed twin."""

    def test_smooth_profile_warps(self, monkeypatch):
        def build():
            prof = blend_profile(1.0, 3.0, R=1.5, kind="quintic")
            prof.zeta(0.0)  # the warp splines are built lazily
            return prof

        with monkeypatch.context() as m:
            m.setattr(profile, "CubicHermite", ScipyHermite)
            ref = build()
        prof = build()
        xs = np.linspace(-2.0, 2.0, 801)
        ws = ref.zeta(xs)
        assert rel_dev(prof.zeta(xs), ws) < 1e-12
        assert rel_dev(prof.zeta_inv(ws), ref.zeta_inv(ws)) < 1e-12

    def test_scattering_interior(self, monkeypatch):
        prof = blend_profile(1.0, 2.0, R=1.0, kind="quintic")
        args = (prof.potential_q_warped, prof.warped_support_radius, np.linspace(0.2, 4.0, 9))
        a = prof.warped_support_radius
        xs = np.concatenate((np.linspace(-a, a, 301), [-1.5 * a, 1.5 * a]))
        # the interior spline is built on first use, so the reference is used inside the patch
        with monkeypatch.context() as m:
            m.setattr(schrodinger, "CubicHermite", ScipyHermite)
            ref = sweep_model(ScatteringSweep(*args))
            want = ref.basis(xs), ref.basis_antiderivative(xs)
        assert isinstance(ref.sweep._interior[0], ScipyHermite)
        model = sweep_model(ScatteringSweep(*args))
        assert isinstance(model.sweep._interior[0], CubicHermite)
        assert rel_dev(model.basis(xs), want[0]) < 1e-12
        assert rel_dev(model.basis_antiderivative(xs), want[1]) < 1e-12


class TestStoredTables:
    """A sweep's interior spline holds the RK4 states at the final map's points, not tables."""

    @pytest.mark.parametrize("n_omegas", [64, 640])
    def test_spline_holds_two_tables(self, n_omegas):
        q = lambda x: np.exp(-4.0 * np.asarray(x, float) ** 2)
        sweep = ScatteringSweep(q, 1.0, np.linspace(0.2, 4.0, n_omegas))
        assert "_interior" not in vars(sweep)
        # the same Chebyshev points of omega^2 at either node count
        assert sweep.rk4_points == 18
        tracemalloc.start()
        try:
            spline = sweep._interior[0]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # two real knots-by-starts-by-points tables, values and slopes, views of
        # one array of RK4 states; nothing scales with the node count
        shape = (sweep.n_steps + 1, 2, sweep.rk4_points)
        assert spline.y.shape == spline.dydx.shape == shape
        assert spline.y.dtype == spline.dydx.dtype == np.float64
        assert np.may_share_memory(spline.y, spline.dydx)
        table = np.prod(shape) * np.dtype(float).itemsize
        assert 2 * table <= held < 2.1 * table

    def test_knot_data_is_not_copied(self):
        rng = np.random.default_rng(16)
        x, y, dydx = uneven_data(rng, 30, (4,), complex)
        sp = CubicHermite(x, y, dydx)
        assert sp.y is y and sp.dydx is dydx
