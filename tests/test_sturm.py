import itertools

import numpy as np
import pytest

from varband import sturm
from varband.profile import blend_profile
from varband.sturm import (_BLOCK, _TAIL, IntegrationError, _barycentric, _block_steps,
                           _chebyshev_points, _interpolant_points, _step_table, rk4_linear,
                           rk4_segments)

from closed_forms import (SpectralDensityError, toy_fundamental, toy_spectral_density,
                          toy_wronskian_value)


def step_path(pm, pp, lam, x0, x1, y0):
    """(grid, states) of (phi, p phi') for the step profile, jump at 0, from x0 to x1.

    The system u0' = u1 / p, u1' = -lam u0 is rk4_linear's with a = 1/p, b = 0
    and c = lam; the jump is a breakpoint.
    """
    def inv_p(x):
        return np.where(np.asarray(x) < 0, 1.0 / pm, 1.0 / pp)

    return rk4_linear(inv_p, np.zeros_like, lam, x0, x1, np.asarray(y0, dtype=complex), 1e-3,
                      breakpoints=(0.0,), path=True)


def at(grid, states, xs):
    """States of a path at the grid points nearest xs, and those points."""
    i = np.abs(grid[None, :] - np.asarray(xs)[:, None]).argmin(axis=1)
    return grid[i], states[i]


class TestClosedForms:
    def test_equal_plateaus_give_plane_wave(self):
        xs = np.linspace(-5, 5, 41)
        fp, fmn = toy_fundamental(1.0, 1.0, 2.0, xs)
        assert np.max(np.abs(fp - np.exp(1j * np.sqrt(2.0) * xs))) < 1e-14
        assert np.max(np.abs(fmn - np.exp(-1j * np.sqrt(2.0) * xs))) < 1e-14

    def test_continuity_at_jump(self):
        for (pm, pp) in [(1, 4), (2, 3), (4, 1)]:
            lam = 1.7
            lp, lm = toy_fundamental(pm, pp, lam, -1e-13)
            rp, rm = toy_fundamental(pm, pp, lam, 1e-13)
            assert abs(lp - rp) < 1e-12
            assert abs(lm - rm) < 1e-12

    def test_lambda_validation(self):
        with pytest.raises(SpectralDensityError):
            toy_fundamental(1.0, 4.0, 0.0, 0.5)

    def test_matches_ode_integration(self):
        # integrate the pure transmitted branch from the right plateau back
        pm, pp, lam = 1.0, 4.0, 1.0
        x0 = 2.0
        phi0, _ = toy_fundamental(pm, pp, lam, x0)
        kp = np.sqrt(lam / pp)
        grid, states = step_path(pm, pp, lam, x0, -2.0, (phi0, pp * 1j * kp * phi0))
        xs, st = at(grid, states, np.linspace(-2, 2, 37))
        ref = toy_fundamental(pm, pp, lam, xs)[0]
        assert np.max(np.abs(st[:, 0] - ref)) < 1e-7


class TestWronskian:
    def test_constant_along_solutions(self):
        # the pure transmitted branches, each integrated across [-3, 3]
        pm, pp, lam = 2.0, 3.0, 1.3
        fp0, _ = toy_fundamental(pm, pp, lam, 3.0)
        kp = np.sqrt(lam / pp)
        _, fm0 = toy_fundamental(pm, pp, lam, -3.0)
        km = np.sqrt(lam / pm)
        # both grids step 1e-3 from an integer, so they share the points of xs
        xs = np.linspace(-2.5, 2.5, 11)
        x1, st1 = at(*step_path(pm, pp, lam, 3.0, -3.0, (fp0, pp * 1j * kp * fp0)), xs)
        x2, st2 = at(*step_path(pm, pp, lam, -3.0, 3.0, (fm0, pm * (-1j) * km * fm0)), xs)
        assert np.max(np.abs(x1 - xs)) < 1e-12 and np.max(np.abs(x2 - xs)) < 1e-12
        # W_p(phi1, phi2) = (p phi1') phi2 - phi1 (p phi2')
        w = st1[:, 1] * st2[:, 0] - st1[:, 0] * st2[:, 1]
        expected = toy_wronskian_value(pm, pp, lam)
        assert np.max(np.abs(w - expected)) / abs(expected) < 1e-6


class TestSpectralDensity:
    def test_equal_plateaus(self):
        d = toy_spectral_density(1.0, 1.0, 1.0)
        assert np.allclose(d, np.eye(2) / (4 * np.pi))

    def test_diagonal_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pm, pp, lam = rng.uniform(0.5, 5, 3)
            d = toy_spectral_density(pm, pp, lam)
            assert d[0, 1] == 0 and d[1, 0] == 0
            assert np.all(np.linalg.eigvalsh(d) >= 0)

    def test_integral_closed_form(self):
        from scipy.integrate import quad

        pm, pp, om = 2.0, 3.0, 1.7
        integral, _ = quad(lambda l: toy_spectral_density(pm, pp, l)[0, 0], 0, om)
        expected = np.sqrt(pm) * 2 * np.sqrt(om) / (np.pi * (np.sqrt(pm) + np.sqrt(pp)) ** 2)
        assert integral == pytest.approx(expected, rel=1e-8)

    def test_endpoint_error(self):
        with pytest.raises(SpectralDensityError):
            toy_spectral_density(1.0, 4.0, 0.0)


def rk4_reference(f, x0, x1, y0, n):
    """Textbook RK4 for y' = f(x, y), one call of f per stage; all n + 1 states."""
    h = (x1 - x0) / n
    y = np.asarray(y0, dtype=complex)
    states = [y]
    for i in range(n):
        x = x0 + i * h
        k1 = f(x, y)
        k2 = f(x + h / 2, y + (h / 2) * k1)
        k3 = f(x + h / 2, y + (h / 2) * k2)
        k4 = f(x + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(y)
    return np.stack(states)


# a and b on either side of a jump at x = 1
LEFT = (lambda x: 1.0 + 0.5 * np.sin(x), lambda x: np.exp(-np.asarray(x) ** 2))
RIGHT = (lambda x: 2.0 + 0.3 * np.cos(x), lambda x: 0.5 - 0.2 * np.asarray(x))


def jump_at_one(left, right):
    return lambda x: np.where(np.asarray(x) < 1.0, left(x), right(x))


def system(a, b, c):
    return lambda x, y: np.stack([a(x) * y[1], (b(x) - c) * y[0]])


class TestIntegratorCore:
    def test_matches_stagewise_reference(self):
        # tabulated coefficients must sit at the textbook stage abscissae
        a = lambda x: 1.0 + 0.5 * np.sin(x)
        b = lambda x: np.exp(-np.asarray(x) ** 2)
        cs = np.array([0.3, 2.0, 7.5])
        y0 = np.stack([np.ones(3), 1j * np.sqrt(cs)])
        got = rk4_linear(a, b, cs, 1.5, -1.5, y0, 0.01)
        ref = rk4_reference(system(a, b, cs), 1.5, -1.5, y0, 300)[-1]
        assert np.max(np.abs(got - ref)) < 1e-13

    @pytest.mark.parametrize("path", [False, True])
    @pytest.mark.parametrize("c, y0", [
        (np.array([0.3, 2.0, 7.5]), np.stack([np.ones(3), 1j * np.sqrt([0.3, 2.0, 7.5])])),
        (1.7, np.array([1.0, 0.4j])),
    ], ids=["array_c", "scalar_c"])
    def test_blocks_match_stagewise_reference(self, path, c, y0):
        # 100 steps up to the jump, then 150, so the last block of step
        # propagators is partial; each side's reference sees only its formulas
        a, b = jump_at_one(LEFT[0], RIGHT[0]), jump_at_one(LEFT[1], RIGHT[1])
        assert [n for *_, n in rk4_segments(0.0, 2.5, 0.01, (1.0,))] == [100, 150]
        run = rk4_linear(a, b, c, 0.0, 2.5, y0, 0.01, breakpoints=(1.0,), path=path)
        left = rk4_reference(system(*LEFT, c), 0.0, 1.0, y0, 100)
        right = rk4_reference(system(*RIGHT, c), 1.0, 2.5, left[-1], 150)
        ref = np.concatenate([left, right[1:]])
        if path:
            grid, got = run
            assert np.max(np.abs(grid - np.r_[np.linspace(0, 1, 101),
                                              np.linspace(1, 2.5, 151)[1:]])) < 1e-14
        else:
            got, ref = run, ref[-1]
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_path_and_final_agree(self):
        # u'' = -2 u as u0' = u1, u1' = (0 - 2) u0; the path applies the step
        # maps one by one, the final state multiplies each block's maps first
        y0 = np.array([1.0, 0.0], dtype=complex)
        _, path = rk4_linear(np.ones_like, np.zeros_like, 2.0, 0.0, 3.0, y0, 1e-3, path=True)
        final = rk4_linear(np.ones_like, np.zeros_like, 2.0, 0.0, 3.0, y0, 1e-3)
        assert np.max(np.abs(path[-1] - final)) < 1e-13 * np.max(np.abs(path))
        assert abs(final[0] - np.cos(np.sqrt(2.0) * 3.0)) < 1e-10

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("c, y0", [
        (np.array([0.3, 2.0, 7.5, 40.0]), np.array([[1.0, 0.5j, -0.2 + 1j, 2.0],
                                                    [0.3j, 1.0 - 1j, 0.7, -1j]])),
        (1.7, np.array([1.0 - 0.5j, 0.4j])),
    ], ids=["array_c", "scalar_c"])
    @pytest.mark.parametrize("n", [1, 2, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5])
    def test_composed_blocks_match_step_by_step(self, n, c, y0, backward):
        # a segment of n steps, then one of 2 * _BLOCK + 5 (full blocks and a
        # partial one); the path applies every step map in turn
        a, b = jump_at_one(LEFT[0], RIGHT[0]), jump_at_one(LEFT[1], RIGHT[1])
        h = 2.0**-7  # so the segment lengths are exact multiples of the step
        x0, x1 = 1.0 - h * n, 1.0 + h * (2 * _BLOCK + 5)
        if backward:
            x0, x1 = x1, x0
        assert sorted(k for *_, k in rk4_segments(x0, x1, h, (1.0,))) == sorted(
            [n, 2 * _BLOCK + 5])
        _, path = rk4_linear(a, b, c, x0, x1, y0, h, breakpoints=(1.0,), path=True)
        final = rk4_linear(a, b, c, x0, x1, y0, h, breakpoints=(1.0,))
        assert final.shape == path[-1].shape
        assert np.max(np.abs(final - path[-1])) < 1e-13 * np.max(np.abs(path[-1]))

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("c, y0", [
        (np.array([0.3, 2.0, 7.5, 40.0]), np.array([[1.0, 0.5j, -0.2 + 1j, 2.0],
                                                    [0.3j, 1.0 - 1j, 0.7, -1j]])),
        (1.7, np.array([1.0 - 0.5j, 0.4j])),
    ], ids=["array_c", "scalar_c"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_final_blocks_match_step_by_step(self, offset, c, y0, backward):
        # the final state's blocks are longer than the path's: a segment of
        # block + offset steps, then one of two full blocks and a partial one
        block = _block_steps(np.size(c))
        assert block > _BLOCK
        a, b = jump_at_one(LEFT[0], RIGHT[0]), jump_at_one(LEFT[1], RIGHT[1])
        h = 2.0**-7
        x0, x1 = 1.0 - h * (block + offset), 1.0 + h * (2 * block + 5)
        if backward:
            x0, x1 = x1, x0
        assert sorted(k for *_, k in rk4_segments(x0, x1, h, (1.0,))) == sorted(
            [block + offset, 2 * block + 5])
        _, path = rk4_linear(a, b, c, x0, x1, y0, h, breakpoints=(1.0,), path=True)
        final = rk4_linear(a, b, c, x0, x1, y0, h, breakpoints=(1.0,))
        assert final.shape == path[-1].shape
        assert np.max(np.abs(final - path[-1])) < 1e-13 * np.max(np.abs(path[-1]))

    def test_breakpoint_nodes_present(self):
        g, _ = rk4_linear(np.ones_like, np.zeros_like, 0.0, 0.0, 1.0, np.array([1.0, 0.0]),
                          0.3, breakpoints=(0.5,), path=True)
        assert np.min(np.abs(g - 0.5)) < 1e-14

    def test_coefficients_tabulated_once_per_segment(self):
        seen = []

        def a(x):
            seen.append(np.array(x))
            return np.ones_like(x)

        rk4_linear(a, np.zeros_like, 0.0, 1.0, -1.0, np.array([1.0, 0.0]), 0.1,
                   breakpoints=(0.0,))
        # one call per segment, at its nodes, half-steps and end-steps, all
        # strictly inside the open segment
        assert [x.shape for x in seen] == [(3, 10), (3, 10)]
        for x, (lo, hi) in zip(seen, [(0.0, 1.0), (-1.0, 0.0)]):
            assert lo < x.min() and x.max() < hi

    def test_state_continuous_across_jump(self):
        # from -1 to either side of the jump, one run crossing it and one not
        eps = 1e-6
        left, right = (step_path(1.0, 4.0, 2.0, -1.0, x, (1.0, 0.5))[1][-1] for x in (-eps, eps))
        assert abs(left[0] - right[0]) < 1e-5
        assert abs(left[1] - right[1]) < 1e-4

    def test_step_validation(self):
        with pytest.raises(IntegrationError):
            rk4_linear(np.ones_like, np.zeros_like, 0.0, 0.0, 1.0, np.array([1.0, 0.0]), -1.0)


# the one blend sweep of the family below whose check doubles: see its own test
LONG_PHASE = ("quintic", (1.0, 0.01), 3.0, (0.05, 5.0))


def predicted_points(a, b, c, x0, x1, step, breakpoints=()):
    """The Chebyshev point count `_interpolant_points` sets for a final-state run."""
    _, phases, ranges = zip(*(_step_table(a, b, *segment)
                              for segment in rk4_segments(x0, x1, step, breakpoints)))
    return int(_interpolant_points(sum(phases), np.min(c) - np.max(ranges),
                                   np.max(c) - np.min(ranges)))


class TestInterpolatedFinalState:
    """The final state at many c from the run's map interpolated in c, against the stored path."""

    @staticmethod
    def coefficients():
        # b = exp(-x^2) left of the jump at 1, so b != 0 and a breakpoint splits the run
        return jump_at_one(LEFT[0], RIGHT[0]), jump_at_one(LEFT[1], RIGHT[1])

    @classmethod
    def runs(cls, c, backward=False):
        a, b = cls.coefficients()
        x0, x1 = (2.5, -1.5) if backward else (-1.5, 2.5)
        y0 = np.stack([np.ones(np.shape(c)), 1j * np.sqrt(c) + 0.5])
        record = {}
        final = rk4_linear(a, b, c, x0, x1, y0, 0.01, breakpoints=(1.0,), record=record)
        _, path = rk4_linear(a, b, c, x0, x1, y0, 0.01, breakpoints=(1.0,), path=True)
        return final, path[-1], record

    @classmethod
    def predicted(cls, c):
        return predicted_points(*cls.coefficients(), c, -1.5, 2.5, 0.01, (1.0,))

    @pytest.mark.parametrize("spacing", [np.linspace, np.geomspace], ids=["linear", "geometric"])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_matches_path_columnwise(self, spacing, backward):
        c = spacing(1e-6, 1e2, 200)
        final, last, record = self.runs(c, backward)
        assert final.shape == last.shape == (2, 200)
        dev = np.max(np.abs(final - last), axis=0) / np.max(np.abs(last), axis=0)
        assert np.max(dev) < 1e-12
        # one pass at the predicted points, fewer than the c values, at an accepted tail
        assert record["points"] == self.predicted(c) < c.size
        assert 0 < record["tail"] <= _TAIL

    def test_few_values_are_integrated_directly(self):
        n = self.predicted(np.array([0.5, 30.0]))
        c = np.linspace(0.5, 30.0, n)
        final, last, record = self.runs(c)
        nodes, at_c = record.pop("interpolation")
        # 250 steps to the breakpoint at 1 and 150 past it, each 0.01 long
        assert record == {"step": 0.01, "n_steps": 400, "points": n, "tail": 0.0}
        # the map is tabulated at c's own values, and taken back to c by lookup
        assert np.array_equal(nodes, c) and np.array_equal(at_c(nodes[::-1]), c[::-1])
        assert np.max(np.abs(final - last)) < 1e-13 * np.max(np.abs(last))

    def test_undersized_interpolant_doubles(self, monkeypatch):
        # five points are far too few: the tail check fails and the points
        # double, 5, 9, 17, ..., until it holds; nested, so each is swept once
        monkeypatch.setattr(sturm, "_interpolant_points", lambda phase, lo, hi: 5.0)
        c = np.linspace(1e-6, 1e2, 200)
        final, last, record = self.runs(c)
        assert record["points"] in (9, 17, 33, 65, 129)
        assert 0 < record["tail"] <= _TAIL
        dev = np.max(np.abs(final - last), axis=0) / np.max(np.abs(last), axis=0)
        assert np.max(dev) < 1e-12

    @staticmethod
    def blend_sweep(kind, p_minus, p_plus, R, omegas):
        """Final state, stored-path state, record and predicted points of a blend's sweep.

        The sweep of -(p u')' = omega^2 u over [-R, R] at 200 omegas, as
        `ScatteringSweep` runs it.
        """
        prof = blend_profile(p_minus, p_plus, R=R, kind=kind)
        w = np.linspace(*omegas, 200)
        step = min(1e-3, 2 * np.pi * np.sqrt(prof.lower) / (50 * w[-1]))
        a = lambda x: 1.0 / prof.eval_p(x)
        y0 = np.stack([np.ones(w.size), 1j * w])
        record = {}
        final = rk4_linear(a, np.zeros_like, w**2, R, -R, y0, step, record=record)
        _, path = rk4_linear(a, np.zeros_like, w**2, R, -R, y0, step, path=True)
        return final, path[-1], record, predicted_points(a, np.zeros_like, w**2, R, -R, step)

    @pytest.mark.parametrize("case", [
        case for case in itertools.product(
            ["cubic", "quintic"], [(1.0, 100.0), (1.0, 0.01), (3.0, 1.5), (1.0, 4.0)],
            [0.1, 1.0, 3.0], [(0.05, 5.0), (1e-3, 3.0), (2.0, 3.0)])
        if case != LONG_PHASE], ids=lambda c: "{}-{}-{}-R{}-w{}-{}".format(c[0], *c[1], c[2], *c[3]))
    def test_predicted_points_need_no_doubling(self, case):
        # the predicted n leaves the truncated coefficients below 2^-45; where
        # the integrated map's own rounding (about 1e-14 of its size, and
        # dependent on summation order) lifts the last two to 2^-45, the check
        # may double once, which changes nothing, so one doubling is accepted
        kind, (p_minus, p_plus), R, omegas = case
        final, last, record, n = self.blend_sweep(kind, p_minus, p_plus, R, omegas)
        assert record["points"] in (min(n, 200), min(2 * n - 1, 200))
        assert record["tail"] <= _TAIL
        dev = np.max(np.abs(final - last), axis=0) / np.max(np.abs(last), axis=0)
        assert np.max(dev) < 1e-12

    def test_long_phase_doubles_at_the_rounding_floor(self):
        # phase 16 and 6000 steps: the coefficients of the predicted 66-point
        # interpolant reach 1e-15 by index 64, but the rounding of the
        # integrated map leaves the last two of one entry near 2^-45 of its
        # largest, so the check may double once, to 131 points, depending on
        # which side of 2^-45 the rounding lands
        kind, (p_minus, p_plus), R, omegas = LONG_PHASE
        final, last, record, n = self.blend_sweep(kind, p_minus, p_plus, R, omegas)
        assert n == 66 and record["points"] in (66, 131)
        assert record["tail"] <= _TAIL
        dev = np.max(np.abs(final - last), axis=0) / np.max(np.abs(last), axis=0)
        assert np.max(dev) < 1e-12

    @pytest.mark.parametrize("c", [
        np.repeat(np.linspace(0.5, 30.0, 12), [1, 2, 3] * 4),
        np.repeat(np.linspace(0.5, 30.0, 100), 2),
        np.full(200, 7.5),
    ], ids=["few_distinct", "many_distinct", "constant"])
    def test_duplicate_values_share_their_state(self, c):
        # each distinct value is integrated or interpolated once, and its
        # state is the one a run at the distinct values alone returns
        values = np.unique(c)
        with np.errstate(divide="raise", invalid="raise"):
            final, last, record = self.runs(c)
            alone, _, record_alone = self.runs(values)
        nodes, alone_nodes = (r.pop("interpolation")[0] for r in (record, record_alone))
        assert record == record_alone and np.array_equal(nodes, alone_nodes)
        assert np.max(np.abs(final - last)) < 1e-12 * np.max(np.abs(last))
        assert np.array_equal(final, alone[:, np.searchsorted(values, c)])

    def test_value_at_a_chebyshev_point(self):
        # the ends and inner Chebyshev points of every nested point set
        # among the c values: the interpolant returns the integrated maps there
        c = np.linspace(1e-6, 1e2, 200)
        nodes = _chebyshev_points(c[0], c[-1], self.predicted(c))
        assert nodes[0] == c[-1] and nodes[-1] == c[0]
        c[[40, 90, 150]] = nodes[[12, 8, 3]]
        with np.errstate(divide="raise", invalid="raise"):
            final, last, record = self.runs(c)
        assert record["points"] < c.size
        dev = np.max(np.abs(final - last), axis=0) / np.max(np.abs(last), axis=0)
        assert np.max(dev) < 1e-12

    def test_barycentric_is_exact_at_the_points(self):
        nodes = _chebyshev_points(0.25, 9.0, 9)
        table = np.random.default_rng(3).normal(size=(2, 2, 9))
        with np.errstate(divide="raise", invalid="raise"):
            assert np.array_equal(_barycentric(nodes, table, nodes), table)
            x = np.array([0.25, 1.0, 9.0])
            inside = _barycentric(nodes, table, x)
        assert inside.shape == (2, 2, 3)
        assert np.array_equal(inside[..., [0, 2]], table[..., [-1, 0]])
        # a polynomial of degree below the point count is reproduced
        cubic = (x**3 - 2 * x)[None, None, :]
        through = _barycentric(nodes, (nodes**3 - 2 * nodes)[None, None, :], x)
        assert np.max(np.abs(through - cubic)) < 1e-13 * np.max(np.abs(cubic))
