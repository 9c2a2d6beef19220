import csv
import io
import json
import tracemalloc
import warnings
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from varband import cli, spectral
from varband.cli import COMMANDS, main
from varband.density import (beurling_density, landau_sweep, matched_free_model_builder,
                             quasi_uniform_set)
from varband.kernel import LiouvilleModel, ToyModel, free_model, toy_kernel
from varband.paleywiener import random_smooth_function
from varband.profile import constant_profile, profile_from_config
from varband.sampling import (ReconstructionOperator, SampleSet, reconstruct_iterative,
                              samples_from_csv, samples_to_csv, shannon_gram)
from varband.schrodinger import liouville_sweep
from varband.spectral import (_GL_PANEL_PHASE, SpectralQuadrature, SpectralSet,
                              uniform_quadrature)
from varband.sturm import _TAIL, rk4_segments

from closed_forms import PerNodeSweep
from test_schrodinger import reference_transmission


def run(args):
    return main([str(a) for a in args])


def strict_json(path):
    """The JSON file at path, refusing the NaN and Infinity tokens strict parsers refuse."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token} in {path}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestSelftest:
    def test_exit_zero(self, tmp_path, capsys):
        assert run(["selftest", "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 6
        assert (tmp_path / "report.json").exists()


class TestKernel:
    def test_grid_output(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "free", "spectral_set": [[0.0, 1.0]],
            "grid": {"lo": -5.0, "hi": 5.0, "n": 21},
        })
        out = tmp_path / "out"
        assert run(["kernel", "--config", cfg, "--out", out]) == 0
        grid = (out / "kernel_grid.csv").read_text().splitlines()
        assert len(grid) == 22
        rep = json.loads((out / "report.json").read_text())
        assert rep["subcommand"] == "kernel"
        assert rep["diagonal_max"] == pytest.approx(1.0 / np.pi, rel=1e-6)

    def test_report_records_quadrature(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 2.0]],
            "profile": {"kind": "piecewise", "breakpoints": [0.0], "values": [1.0, 4.0]},
            "grid": {"lo": -4.0, "hi": 3.0, "n": 7},
        })
        out = tmp_path / "out"
        assert run(["kernel", "--config", cfg, "--out", out]) == 0
        rep = json.loads((out / "report.json").read_text())
        # 16-point Gauss-Legendre panels of width H on [0, sqrt 2] with
        # c_16 (H s)^32 <= 2**-53, s = 2 max(|lo|, |hi|) / sqrt(min p) = 8
        c16 = factorial(16) ** 4 / (33 * factorial(32) ** 3)
        widest = (2.0**-53 / c16) ** (1 / 32) / 8.0
        assert rep["n_nodes"] == 16 * int(np.ceil(np.sqrt(2.0) / widest))
        assert rep["covered_measure"] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_report_records_error_bound(self, tmp_path):
        # the rule is sized for the grid's reach, 25
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 2.0]],
            "profile": {"kind": "piecewise", "breakpoints": [0.0], "values": [1.0, 4.0]},
            "grid": {"lo": -3.0, "hi": 25.0, "n": 7},
        })
        out = tmp_path / "out"
        assert run(["kernel", "--config", cfg, "--out", out]) == 0
        rep = strict_json(out / "report.json")
        quad = ToyModel(1.0, 4.0, SpectralSet([(0.0, 2.0)]), x_max=25.0).quad
        assert rep["n_nodes"] == len(quad) == 80
        assert rep["quad_error_bound"] == quad.error_bound > quad.remainder
        assert 0.0 < quad.remainder <= 2.0**-53 * np.sqrt(2.0)

    def test_grid_wider_than_x_max_sizes_the_rule(self, tmp_path):
        # the grid reaches 60, past the models' default x_max of 25: the rule
        # is sized for the grid's reach
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 2.0]], "profile": STEP_14,
            "grid": {"lo": -60.0, "hi": 45.0, "n": 36},
        })
        out = tmp_path / "out"
        assert run(["kernel", "--config", cfg, "--out", out]) == 0
        table = np.loadtxt(out / "kernel_grid.csv", delimiter=",", skiprows=1)
        xs, K = table[:, 0], table[:, 1:]
        ref = toy_kernel(1.0, 4.0, 2.0, xs[:, None], xs[None, :])
        # the CSV's 12 significant digits round values below 1 by at most 5e-13
        assert np.max(np.abs(K - ref)) <= 1e-12
        rep = strict_json(out / "report.json")
        quad = ToyModel(1.0, 4.0, SpectralSet([(0.0, 2.0)]), x_max=60.0).quad
        assert rep["n_nodes"] == len(quad)
        assert rep["quad_error_bound"] == quad.error_bound

    @pytest.mark.parametrize("model", ["schrodinger", "liouville"])
    def test_report_records_no_bound_for_a_potential(self, tmp_path, model):
        # the bound covers plane waves; scattering tables have their own structure
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": model, "spectral_set": [[0.0, 2.0]],
            "profile": {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 4.0, "R": 1.0},
            "grid": {"lo": -3.0, "hi": 3.0, "n": 7},
        })
        out = tmp_path / "out"
        assert run(["kernel", "--config", cfg, "--out", out]) == 0
        rep = strict_json(out / "report.json")
        assert rep["n_nodes"] > 0
        assert "quad_error_bound" in rep and rep["quad_error_bound"] is None

    def test_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "free", "spectral_set": [[0.0, 2.0]],
            "grid": {"lo": -3.0, "hi": 3.0, "n": 11},
        })
        o1, o2 = tmp_path / "a", tmp_path / "b"
        run(["kernel", "--config", cfg, "--out", o1, "--seed", 7])
        run(["kernel", "--config", cfg, "--out", o2, "--seed", 7])
        for name in ("kernel_grid.csv", "kernel_pairs.csv"):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()
        reports = [json.loads((o / "report.json").read_text()) for o in (o1, o2)]
        for rep in reports:
            assert set(rep.pop("timings")) == {"elapsed_seconds", "kernel_seconds",
                                               "write_seconds"}
        # with the timings removed, the reports render to the same bytes
        assert json.dumps(reports[0], indent=2, sort_keys=True) == json.dumps(
            reports[1], indent=2, sort_keys=True)

    def test_pairs_are_the_grid_values(self, tmp_path):
        # every 7th point of 141: a kernel matrix of the coarse points alone
        # differs from these in the last bits
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 2.0]], "profile": STEP_14,
            "grid": {"lo": -8.0, "hi": 8.0, "n": 141},
        })
        out = tmp_path / "out"
        assert run(["kernel", "--config", cfg, "--out", out]) == 0
        xs = np.linspace(-8.0, 8.0, 141)
        model = ToyModel(1.0, 4.0, SpectralSet([[0.0, 2.0]]), x_max=8.0, points=141)
        K = model.kernel_matrix(xs, xs)
        pairs = np.loadtxt(out / "kernel_pairs.csv", delimiter=",", skiprows=1)
        assert pairs[:, 2].tobytes() == K[::7, ::7].ravel().tobytes()
        assert np.all(pairs[:, 3] == 0.0)

    def test_grid_matches_csv_writer_rendering(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 2.0]],
            "profile": {"kind": "piecewise", "breakpoints": [0.0], "values": [1.0, 4.0]},
            "grid": {"lo": -5.0, "hi": 5.0, "n": 41},
        })
        out = tmp_path / "out"
        assert run(["kernel", "--config", cfg, "--out", out]) == 0
        xs = np.linspace(-5.0, 5.0, 41)
        K = ToyModel(1.0, 4.0, SpectralSet([[0.0, 2.0]]), x_max=5.0).kernel_matrix(xs, xs)
        ref = io.StringIO(newline="")
        w = csv.writer(ref)
        w.writerow(["x\\y"] + [f"{y:.12g}" for y in xs])
        for i, x in enumerate(xs):
            w.writerow([f"{x:.12g}"] + [f"{K[i, j]:.12g}" for j in range(xs.size)])
        assert (out / "kernel_grid.csv").read_bytes() == ref.getvalue().encode()

    @pytest.mark.parametrize("model, cls", [("free", "ToyModel"), ("toy", "ToyModel"),
                                            ("liouville", "LiouvilleModel"),
                                            ("schrodinger", "SchrodingerModel")])
    def test_report_names_the_model_class(self, tmp_path, model, cls):
        profile = {"free": UNIT, "toy": STEP_14}.get(model, BLEND_12)
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": model, "profile": profile, "spectral_set": [[0.0, 1.0]],
            "grid": {"lo": -3.0, "hi": 3.0, "n": 7}})
        assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 0
        assert strict_json(tmp_path / "o" / "report.json")["model_class"] == cls


def csv_writer_bytes(header, rows):
    """What csv.writer renders for a header and rows: the dialect of every table."""
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(header)
    w.writerows(rows)
    return ref.getvalue().encode()


class TestTableRendering:
    """Each CSV table against a csv.writer rendering of the same numbers, byte for byte."""

    def test_kernel_pairs(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 2.0]],
            "profile": STEP_14, "grid": {"lo": -5.0, "hi": 5.0, "n": 41},
        })
        out = tmp_path / "out"
        assert run(["kernel", "--config", cfg, "--out", out]) == 0
        xs = np.linspace(-5.0, 5.0, 41)
        coarse = xs[::2]
        model = ToyModel(1.0, 4.0, SpectralSet([[0.0, 2.0]]), x_max=5.0)
        K = model.kernel_matrix(xs, xs)[::2, ::2]
        rows = [[x, y, K[i, j], 0.0] for i, x in enumerate(coarse) for j, y in enumerate(coarse)]
        assert len(rows) == 21 * 21
        want = csv_writer_bytes(["x", "y", "re_k", "im_k"], rows)
        assert (out / "kernel_pairs.csv").read_bytes() == want

    def test_scattering(self, tmp_path):
        prof_cfg = {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0, "R": 1.0}
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": prof_cfg, "omega_grid": {"lo": 0.1, "hi": 3.0, "n": 40},
        })
        out = tmp_path / "out"
        assert run(["scatter", "--config", cfg, "--out", out]) == 0
        prof = profile_from_config(prof_cfg)
        sweep = liouville_sweep(prof, np.linspace(0.1, 3.0, 40))
        rows = [[d.omega, d.T.real, d.T.imag, d.R1.real, d.R1.imag, d.R2.real, d.R2.imag,
                 d.unitarity_defect] for d in map(sweep.data, range(len(sweep)))]
        want = csv_writer_bytes(["omega", "re_T", "im_T", "re_R1", "im_R1", "re_R2", "im_R2",
                                 "unitarity_defect"], rows)
        assert (out / "scattering.csv").read_bytes() == want

    def test_reconstruction(self, tmp_path):
        window, sset = (-10.0, 10.0), SpectralSet([(0.0, 1.0)])
        X = np.linspace(-9.5, 9.5, 39)
        samples = tmp_path / "samples.csv"
        samples_to_csv(samples, X, np.cos(X) + 0.5j * np.sin(2 * X))
        cfg = write_cfg(tmp_path, "cfg.json", dict(RECONSTRUCT, n_max=5, output_points=61))
        out = tmp_path / "out"
        assert run(["reconstruct", "--config", cfg, "--out", out, "--samples", samples]) == 0
        prof = profile_from_config(UNIT)
        wz = 0.5 * (prof.zeta(window[1]) - prof.zeta(window[0]))
        model = free_model(sset, quad=uniform_quadrature(sset, np.pi / wz))
        pts, vals = samples_from_csv(samples)
        f, _ = reconstruct_iterative(model, prof, pts, vals, 1.0, window, n_max=5)
        xs = np.linspace(*window, 61)
        rows = [[x, v.real, v.imag] for x, v in zip(xs, f.evaluate(xs))]
        want = csv_writer_bytes(["x", "re_f", "im_f"], rows)
        assert (out / "reconstruction.csv").read_bytes() == want

    def test_gram(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": STEP_14, "spectral_set": [[0.0, 2.0]], "j_max": 5,
        })
        out = tmp_path / "out"
        assert run(["shannon", "--config", cfg, "--out", out]) == 0
        G = shannon_gram(1.0, 4.0, 2.0, 5)
        dev = np.abs(G - np.eye(11))
        rows = [[i - 5, j - 5, f"{G[i, j]:.15g}", f"{dev[i, j]:.3g}"]
                for i in range(11) for j in range(11)]
        want = csv_writer_bytes(["i", "j", "gram", "deviation"], rows)
        assert (out / "gram.csv").read_bytes() == want

    def test_density(self, tmp_path):
        window = (-40.0, 40.0)
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": STEP_14, "window": list(window), "target_density": 0.7,
            "r_values": [8, 2.5, 5.0],
        })
        out = tmp_path / "out"
        assert run(["density", "--config", cfg, "--out", out]) in (0, 1)
        prof = profile_from_config(STEP_14)
        rep = beurling_density(prof, quasi_uniform_set(prof, 0.7, window), [8, 2.5, 5.0], window)
        rows = list(zip(rep.r_values, rep.lower, rep.upper))
        assert len(rows) == 3
        want = csv_writer_bytes(["r", "inf_count_over_r", "sup_count_over_r"], rows)
        assert (out / "density.csv").read_bytes() == want

    def test_landau_sweep(self, tmp_path):
        sset = SpectralSet([(0.0, 1.0)])
        grid, windows = [1.2 / np.pi, 0.8 / np.pi], [60.0, 30.0]
        cfg = write_cfg(tmp_path, "cfg.json", {
            "spectral_set": [[0.0, 1.0]], "density_grid": grid, "window_halfwidths": windows,
        })
        out = tmp_path / "out"
        assert run(["landau", "--config", cfg, "--out", out]) == 0
        res = landau_sweep(matched_free_model_builder(sset), constant_profile(1.0), sset,
                           grid, windows)
        rows = [[d, w, res.a_table[i, j], res.b_table[i, j], res.gram_min_table[i, j]]
                for i, d in enumerate(res.densities) for j, w in enumerate(res.windows)]
        assert len(rows) == 4
        want = csv_writer_bytes(["density", "window_halfwidth", "A_est", "B_est", "gram_min"],
                                rows)
        assert (out / "landau_sweep.csv").read_bytes() == want

    @pytest.mark.parametrize("points", [
        [-1e22, -0.0, 1e-7, 0.1, 2.5, 3e300],
        np.array([-3.0, -1.0 / 3, 0.0, 5e-324, 7.25, 1e16]),
    ], ids=["list", "array"])
    def test_samples(self, tmp_path, points):
        values = np.array([1 + 2j, -0.5, 0.25j, np.nan, 1e-300 - 1e300j, -0.0 + 0j])
        p = tmp_path / "samples.csv"
        samples_to_csv(p, points, values)
        rows = [[x, v.real, v.imag] for x, v in zip(points, values)]
        assert p.read_bytes() == csv_writer_bytes(["x", "re_value", "im_value"], rows)


class TestScatter:
    def test_smooth_blend(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0,
                        "R": 1.0},
            "omega_grid": {"lo": 0.1, "hi": 3.0, "n": 40},
        })
        out = tmp_path / "out"
        assert run(["scatter", "--config", cfg, "--out", out]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["max_unitarity_defect"] < 1e-7
        lines = (out / "scattering.csv").read_text().splitlines()
        assert len(lines) == 41

    def test_report_records_rk4_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 4.0,
                        "R": 0.5},
            "omega_grid": {"lo": 0.5, "hi": 2.0, "n": 4},
        })
        out = tmp_path / "out"
        assert run(["scatter", "--config", cfg, "--out", out]) == 0
        rep = json.loads((out / "report.json").read_text())
        a, h, n = rep["support_radius"], rep["rk4_step"], rep["rk4_steps"]
        # one pass over the blend [-R, R], in one segment: p is smooth inside
        # it and constant outside, and the step resolves the shortest local
        # wavelength 2 pi sqrt(p) / omega
        prof = profile_from_config(json.loads(cfg.read_text())["profile"])
        assert a == prof.R == 0.5
        h_max = min(1e-3, 2 * np.pi * np.sqrt(prof.lower) / (50.0 * 2.0))
        segments = rk4_segments(a, -a, h_max)
        assert len(segments) == 1
        assert n == sum(k for _, _, k in segments)
        assert h == max((start - end) / k for start, end, k in segments)
        assert 0 < h <= h_max
        # four frequencies are fewer than an interpolant in omega^2 needs
        assert rep["rk4_points"] == 4 and rep["rk4_interpolation_tail"] == 0

    def test_report_records_interpolation(self, tmp_path):
        prof_cfg = {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 4.0, "R": 1.5}
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": prof_cfg, "omega_grid": {"lo": 0.05, "hi": 5.0, "n": 200},
        })
        out = tmp_path / "out"
        assert run(["scatter", "--config", cfg, "--out", out]) == 0
        rep = strict_json(out / "report.json")
        sweep = liouville_sweep(profile_from_config(prof_cfg), np.linspace(0.05, 5.0, 200))
        # one pass at the 20 Chebyshev points of omega^2 that the bound sets for
        # the warped length 2.08 of the blend and omega^2 in [0.0025, 25]
        assert rep["rk4_points"] == sweep.rk4_points == 20
        assert rep["rk4_interpolation_tail"] == sweep.interpolation_tail
        assert 0 < rep["rk4_interpolation_tail"] <= _TAIL

    BLEND = {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 4.0, "R": 1.5}

    def rows(self, tmp_path, name, lo, hi, n):
        """The data lines of scattering.csv for the grid (lo, hi, n); no division by zero."""
        cfg = write_cfg(tmp_path, f"{name}.json", {
            "profile": self.BLEND, "omega_grid": {"lo": lo, "hi": hi, "n": n},
        })
        with np.errstate(divide="raise", invalid="raise"):
            assert run(["scatter", "--config", cfg, "--out", tmp_path / name]) == 0
        return (tmp_path / name / "scattering.csv").read_text().splitlines()[1:]

    @pytest.mark.parametrize("lo, hi, n", [(0.7, 0.7, 200), (0.7, 0.7, 1), (0.7, 4.0, 2)],
                             ids=["equal_ends", "one_omega", "two_omegas"])
    def test_degenerate_grids(self, tmp_path, lo, hi, n):
        # every row is the row of a grid of that omega alone (the RK4 step is
        # 1e-3 for both), and agrees with the sweep's path integrated at every node
        rows = self.rows(tmp_path, "grid", lo, hi, n)
        omegas = np.linspace(lo, hi, n)
        assert len(rows) == n
        alone = {w: self.rows(tmp_path, f"alone{i}", w, w, 1)[0]
                 for i, w in enumerate(np.unique(omegas))}
        assert rows == [alone[w] for w in omegas]
        full = PerNodeSweep(np.zeros_like, self.BLEND["R"], omegas,
                            profile=profile_from_config(self.BLEND))
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        for k, coef in ((1, full.T), (3, full.R1), (5, full.R2)):
            assert np.max(np.abs(table[:, k] + 1j * table[:, k + 1] - coef)) < 1e-12

    def test_cubic_blend_transmission(self, tmp_path):
        prof_cfg = {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 4.0, "R": 1.5,
                    "blend": "cubic"}
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": prof_cfg, "omega_grid": {"lo": 0.05, "hi": 5.0, "n": 4},
        })
        out = tmp_path / "out"
        assert run(["scatter", "--config", cfg, "--out", out]) == 0
        rows = np.loadtxt(out / "scattering.csv", delimiter=",", skiprows=1)
        prof = profile_from_config(prof_cfg)
        T_ref = np.array([reference_transmission(prof, w) for w in rows[:, 0]])
        assert np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - T_ref)) < 1e-8

    def test_steep_blend_transmission(self, tmp_path):
        # a 100-fold C^1 blend over R = 0.1: the sweep solves -(p u')' = omega^2 u
        # in x and never forms the large, jumping Liouville potential, so T
        # holds down to omega = 1e-3, where the 1/omega of the matching
        # magnifies every error of the pass
        prof_cfg = {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 100.0, "R": 0.1,
                    "blend": "cubic"}
        prof = profile_from_config(prof_cfg)
        omegas = np.array([1e-3, 1e-2, 0.1, 1.0, 3.0])
        T_ref = np.array([reference_transmission(prof, w) for w in omegas])
        scattered = []
        for i, w in enumerate(omegas):
            cfg = write_cfg(tmp_path, f"cfg{i}.json", {
                "profile": prof_cfg, "omega_grid": {"lo": w, "hi": w, "n": 1}})
            out = tmp_path / f"out{i}"
            assert run(["scatter", "--config", cfg, "--out", out]) == 0
            row = np.loadtxt(out / "scattering.csv", delimiter=",", skiprows=1, ndmin=2)[0]
            scattered.append(row[1] + 1j * row[2])
        sset = SpectralSet([(0.0, 25.0)])
        model = LiouvilleModel(prof, sset, quad=SpectralQuadrature(sset, omegas, np.ones(5)))
        assert np.max(np.abs(np.array(scattered) - T_ref)) < 1e-8
        assert np.max(np.abs(model.sweep.T - T_ref)) < 1e-8
        # one pass of the same equation: the step is 1e-3 at each of these omegas
        assert np.max(np.abs(np.array(scattered) - model.sweep.T)) < 1e-13

    def test_unitarity_defect_column(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 4.0, "R": 1.5,
                        "blend": "cubic"},
            "omega_grid": {"lo": 0.05, "hi": 5.0, "n": 200},
        })
        out = tmp_path / "out"
        assert run(["scatter", "--config", cfg, "--out", out]) == 0
        rows = np.loadtxt(out / "scattering.csv", delimiter=",", skiprows=1)
        T, R1, R2 = (rows[:, k] + 1j * rows[:, k + 1] for k in (1, 3, 5))
        ref = [np.max(np.abs(S.conj().T @ S - np.eye(2)))
               for S in (np.array([[t, r1], [r2, t]]) for t, r1, r2 in zip(T, R1, R2))]
        assert np.max(np.abs(rows[:, 7] - ref)) <= 2 * np.finfo(float).eps
        # the report's max is the column's max, not a second evaluation of it
        rep = json.loads((out / "report.json").read_text())
        assert rep["max_unitarity_defect"] == np.max(rows[:, 7])

    def test_piecewise_profile_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "piecewise", "breakpoints": [0.0], "values": [1.0, 4.0]},
            "omega_grid": {"lo": 0.1, "hi": 3.0, "n": 5},
        })
        assert run(["scatter", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "error: scatter needs a smooth profile" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [{"lo": 0.0}, {"lo": -0.5}, {"lo": 2.0, "hi": 1.0},
                                      {"n": 0}, {"n": True}])
    def test_bad_omega_grid_rejected(self, tmp_path, capsys, grid):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0, "R": 1.0},
            "omega_grid": {"lo": 0.1, "hi": 3.0, "n": 5, **grid},
        })
        assert run(["scatter", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "error: omega_grid needs 0 < lo <= hi" in capsys.readouterr().err


    @pytest.mark.parametrize("blend, message", [
        ({"R": 0.0}, "plateau radius must be positive and finite, got 0"),
        ({"R": -1.5}, "plateau radius must be positive and finite, got -1.5"),
        ({"p_minus": 0.0}, "plateau values must be positive"),
        ({"p_plus": -4.0}, "plateau values must be positive"),
        ({"p_minus": 1e-300, "p_plus": 1e300}, "the plateau ratio 1e+300 / 1e-300 overflows"),
        ({"p_plus": 1e12, "blend": "cubic"}, "the cubic blend from 1 to 1e+12 is too steep"),
    ], ids=["zero-radius", "negative-radius", "zero-plateau", "negative-plateau",
            "ratio-overflow", "too-steep"])
    def test_bad_blend_refused(self, tmp_path, capsys, blend, message):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0, "R": 1.0, **blend},
            "omega_grid": {"lo": 0.1, "hi": 3.0, "n": 5},
        })
        assert run(["scatter", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()


class TestShannon:
    def test_gram_report(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "piecewise", "breakpoints": [0.0],
                        "values": [1.0, 4.0]},
            "spectral_set": [[0.0, 2.0]], "j_max": 10,
        })
        out = tmp_path / "out"
        assert run(["shannon", "--config", cfg, "--out", out]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["max_gram_deviation"] < 1e-8


class TestReconstruct:
    def test_roundtrip(self, tmp_path):
        om = 4.0
        gamma, n = 0.5, 30
        d = gamma * np.pi / np.sqrt(om)
        X = (np.arange(n) - (n - 1) / 2) * d
        W = n * d / 2
        sset = SpectralSet([(0.0, om)])
        model = free_model(sset, quad=uniform_quadrature(sset, np.pi / W))
        f = random_smooth_function(model, rng=3)
        R = ReconstructionOperator(model, SampleSet(X), (-W, W))
        samples_file = tmp_path / "samples.csv"
        samples_to_csv(samples_file, X, R.sample(f))
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "free", "spectral_set": [[0.0, om]],
            "profile": {"kind": "piecewise", "breakpoints": [], "values": [1.0]},
            "window": [-W, W], "n_max": 20,
        })
        out = tmp_path / "out"
        assert run(["reconstruct", "--config", cfg, "--out", out,
                    "--samples", samples_file]) == 0
        rep = json.loads((out / "reconstruction_report.json").read_text())
        assert rep["gap_condition_passes"]
        assert rep["residuals"][-1] < rep["residuals"][0]
        assert (out / "reconstruction.csv").exists()

    def test_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 2.0]], "profile": STEP_14,
            "window": [-10.0, 10.0], "n_max": 5, "output_points": 21,
        })
        samples = tmp_path / "samples.csv"
        X = np.linspace(-9.5, 9.5, 60)
        samples_to_csv(samples, X, np.cos(X) + 0.5j * np.sin(X))
        o1, o2 = tmp_path / "a", tmp_path / "b"
        for o in (o1, o2):
            assert run(["reconstruct", "--config", cfg, "--out", o, "--samples", samples,
                        "--seed", 7]) == 0
        for name in ("reconstruction.csv", "reconstruction_report.json"):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()
        reports = [json.loads((o / "report.json").read_text()) for o in (o1, o2)]
        for rep in reports:
            timings = rep.pop("timings")
            assert set(timings) == {"elapsed_seconds", "build_seconds", "iterate_seconds",
                                    "write_seconds"}
            assert all(t >= 0 for t in timings.values())
        assert json.dumps(reports[0], indent=2, sort_keys=True) == json.dumps(
            reports[1], indent=2, sort_keys=True)

    def test_report_records_quadrature(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 2.0]], "profile": STEP_14,
            "window": [-10.0, 10.0], "n_max": 3, "output_points": 11,
        })
        samples = tmp_path / "samples.csv"
        samples_to_csv(samples, np.linspace(-9.5, 9.5, 60), np.zeros(60))
        out = tmp_path / "out"
        run(["reconstruct", "--config", cfg, "--out", out, "--samples", samples])
        rep = strict_json(out / "report.json")
        # midpoint rule matched to the warped window: spacing pi / half its length
        spacing = np.pi / (0.5 * (10.0 + 10.0 / 2.0))
        n = int(np.floor(np.sqrt(2.0) / spacing + 1e-12))
        assert rep["n_nodes"] == n
        assert rep["covered_measure"] == pytest.approx(n * spacing, rel=1e-12)

    def test_report_records_no_error_bound(self, tmp_path):
        # the window-matched midpoint rule carries no Gauss-Legendre bound: null
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 2.0]], "profile": STEP_14,
            "window": [-10.0, 10.0], "n_max": 3, "output_points": 11,
        })
        samples = tmp_path / "samples.csv"
        samples_to_csv(samples, np.linspace(-9.5, 9.5, 60), np.zeros(60))
        out = tmp_path / "out"
        run(["reconstruct", "--config", cfg, "--out", out, "--samples", samples])
        rep = strict_json(out / "report.json")
        assert "quad_error_bound" in rep and rep["quad_error_bound"] is None

    def test_report_records_gridding(self, tmp_path):
        # two intervals: one lattice, and one FFT grid length, per interval
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 2.0], [3.0, 9.0]], "profile": STEP_14,
            "window": [-10.0, 10.0], "n_max": 3, "output_points": 11,
        })
        samples = tmp_path / "samples.csv"
        samples_to_csv(samples, np.linspace(-9.5, 9.5, 60), np.zeros(60))
        out = tmp_path / "out"
        run(["reconstruct", "--config", cfg, "--out", out, "--samples", samples])
        rep = strict_json(out / "report.json")
        quad = uniform_quadrature(SpectralSet([(0.0, 2.0), (3.0, 9.0)]), np.pi / 7.5)
        assert rep["sampling_operator"] == "nufft"
        assert rep["sampling_operator_taps"] == 18
        assert rep["sampling_operator_remainder"] == spectral._GRID_REMAINDER
        assert rep["sampling_operator_fft_lengths"] == [
            spectral._es_gridding(count)[0] for _, _, count in quad.lattice]
        assert len(quad.lattice) == 2 and rep["n_nodes"] == len(quad)

    def test_failed_gap_condition_writes_strict_json(self, tmp_path):
        # three samples 5 apart on [-10, 10]: gamma = 5 / pi > 1, so no certificate exists
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "free", "spectral_set": [[0.0, 1.0]],
            "profile": {"kind": "piecewise", "breakpoints": [], "values": [1.0]},
            "window": [-10.0, 10.0],
        })
        samples = tmp_path / "samples.csv"
        samples_to_csv(samples, [-5.0, 0.0, 5.0], [1.0, 0.5, -1.0])
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["reconstruct", "--config", cfg, "--out", out, "--samples", samples]) == 1
        rep = strict_json(out / "reconstruction_report.json")
        assert rep["gamma"] > 1 and not rep["gap_condition_passes"]
        assert rep["norm_surrogate"] is None
        assert rep["certified_bounds"] == [None] * rep["n_iterations"]
        assert strict_json(out / "report.json")["gap_condition_passes"] is False

    def test_missing_samples(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "free", "spectral_set": [[0.0, 1.0]],
            "profile": {"kind": "piecewise", "breakpoints": [], "values": [1.0]},
            "window": [-10.0, 10.0],
        })

        def no_model(*args, **kwargs):
            raise AssertionError("a model was built before --samples was checked")

        monkeypatch.setattr(cli, "_model", no_model)
        assert run(["reconstruct", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "requires --samples" in capsys.readouterr().err

    def test_liouville_model(self, tmp_path):
        prof_cfg = {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0, "R": 1.0}
        window = [-30.0, 30.0]
        X = np.linspace(-29.75, 29.75, 120)
        prof = profile_from_config(prof_cfg)
        sset = SpectralSet([(0.0, 1.0)])
        wz = 0.5 * (prof.zeta(window[1]) - prof.zeta(window[0]))
        model = LiouvilleModel(prof, sset, quad=uniform_quadrature(sset, np.pi / wz))
        f = random_smooth_function(model, rng=7)
        samples = tmp_path / "samples.csv"
        samples_to_csv(samples, X, f(X))
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "liouville", "spectral_set": [[0.0, 1.0]], "profile": prof_cfg,
            "window": window, "n_max": 20, "output_points": 81,
        })
        out = tmp_path / "out"
        assert run(["reconstruct", "--config", cfg, "--out", out, "--samples", samples]) == 0
        rep = json.loads((out / "reconstruction_report.json").read_text())
        assert rep["gap_condition_passes"]
        assert rep["residuals"][-1] < 1e-6 * rep["residuals"][0]
        report = strict_json(out / "report.json")
        # the tails run on the rule's lattice, the support [-1, 1] from tables
        assert report["sampling_operator"] == "nufft"
        assert report["sampling_operator_taps"] == 18
        assert report["sampling_operator_remainder"] == spectral._GRID_REMAINDER
        assert report["sampling_operator_fft_lengths"] == [
            spectral._es_gridding(count)[0] for _, _, count in model.quad.lattice]
        xs, re, im = np.loadtxt(out / "reconstruction.csv", delimiter=",", skiprows=1).T
        assert np.max(np.abs(re + 1j * im - f(xs))) < 1e-8 * np.max(np.abs(f(xs)))

    @pytest.mark.parametrize("kind", ["schrodinger"])
    def test_unsupported_model_rejected(self, tmp_path, capsys, kind):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": kind, "spectral_set": [[0.0, 1.0]],
            "profile": {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0, "R": 1.0},
            "window": [-10.0, 10.0],
        })
        samples = tmp_path / "samples.csv"
        samples_to_csv(samples, np.linspace(-9.0, 9.0, 40), np.zeros(40))
        assert run(["reconstruct", "--config", cfg, "--out", tmp_path / "o",
                    "--samples", samples]) == 2
        err = capsys.readouterr().err
        assert "'toy'" in err and "'free'" in err and repr(kind) in err


class TestSweepReport:
    """kernel and reconstruct report the RK4 sweep behind a scattering model, as scatter does."""

    SWEEP_FIELDS = ("max_unitarity_defect", "rk4_step", "rk4_steps", "rk4_points",
                    "rk4_interpolation_tail")

    @pytest.mark.parametrize("subcommand, model", [
        ("kernel", "schrodinger"), ("kernel", "liouville"), ("reconstruct", "liouville"),
        ("kernel", "toy"), ("reconstruct", "free"),
    ])
    def test_report_records_the_sweep(self, tmp_path, subcommand, model):
        profile = {"toy": STEP_14, "free": UNIT}.get(model, BLEND_12)
        sset, window = SpectralSet([(0.0, 1.0)]), [-10.0, 10.0]
        cfg = {"model": model, "spectral_set": [[0.0, 1.0]], "profile": profile}
        args = [subcommand, "--out", tmp_path / "out"]
        prof = profile_from_config(profile)
        if subcommand == "kernel":
            cfg["grid"] = {"lo": -3.0, "hi": 3.0, "n": 7}
            built = cli._model(model, prof, sset, x_max=3.0)
        else:
            cfg.update(window=window, n_max=2, output_points=11)
            samples = tmp_path / "samples.csv"
            samples_to_csv(samples, np.linspace(-9.5, 9.5, 40), np.zeros(40))
            args += ["--samples", samples]
            wz = 0.5 * (prof.zeta(window[1]) - prof.zeta(window[0]))
            built = cli._model(model, prof, sset, half_width=wz)
        run(args + ["--config", write_cfg(tmp_path, "cfg.json", cfg)])
        rep = strict_json(tmp_path / "out" / "report.json")
        if built.sweep is None:
            assert not set(self.SWEEP_FIELDS) & set(rep)
            return
        sweep = built.sweep
        assert rep["n_nodes"] == len(sweep) > 0
        assert rep["rk4_step"] == sweep.step and rep["rk4_steps"] == sweep.n_steps > 0
        # the final map's omega^2 values, which the interior pass uses too
        assert rep["rk4_points"] == sweep.rk4_points
        assert rep["rk4_interpolation_tail"] == sweep.interpolation_tail
        if subcommand == "kernel":  # 16 nodes, more than the interpolant in omega^2 needs
            assert sweep.rk4_points < len(sweep) and 0 < sweep.interpolation_tail <= _TAIL
        else:  # 2 nodes, each integrated
            assert sweep.rk4_points == len(sweep) and sweep.interpolation_tail == 0
        assert rep["max_unitarity_defect"] == sweep.unitarity_defect() < 1e-7

    @pytest.mark.parametrize("model", ["schrodinger", "liouville"])
    def test_kernel_exits_1_on_a_defective_sweep(self, tmp_path, model):
        # at omega ~ 100 the step rule leaves about 63 RK4 steps per wavelength:
        # defects of 2.6e-5 and 1.2e-5, which scatter would refuse too
        cfg = {"model": model, "profile": BLEND_12, "spectral_set": [[1e4, 10001.0]]}
        out = tmp_path / "out"
        assert run(["kernel", "--config", write_cfg(tmp_path, "cfg.json", cfg), "--out", out]) == 1
        assert strict_json(out / "report.json")["max_unitarity_defect"] > cli._UNITARITY_LIMIT

    @pytest.mark.parametrize("subcommand", ["kernel", "reconstruct", "landau", "scatter"])
    def test_every_sweep_report_is_gated(self, tmp_path, monkeypatch, subcommand):
        # the one limit: a run that passes exits 1 once its sweep's defect reaches it
        cfg = {"model": "liouville", "spectral_set": [[0.0, 1.0]], "profile": BLEND_12}
        args = [subcommand, "--out", tmp_path / "out"]
        if subcommand == "kernel":
            cfg["grid"] = {"lo": -3.0, "hi": 3.0, "n": 7}
        elif subcommand == "reconstruct":
            cfg.update(window=[-10.0, 10.0], n_max=2, output_points=11)
            samples = tmp_path / "samples.csv"
            samples_to_csv(samples, np.linspace(-9.5, 9.5, 40), np.zeros(40))
            args += ["--samples", samples]
        elif subcommand == "landau":
            cfg.update(density_grid=[0.2, 0.5], window_halfwidths=[10.0, 20.0])
        else:
            cfg = {"profile": BLEND_12}
        args += ["--config", write_cfg(tmp_path, "cfg.json", cfg)]
        assert run(args) == 0
        report = strict_json(tmp_path / "out" / "report.json")
        sweeps = report["models"].values() if subcommand == "landau" else [report]
        defect = max(r["max_unitarity_defect"] for r in sweeps)
        monkeypatch.setattr(cli, "_UNITARITY_LIMIT", defect)
        assert run(args) == 1
    def test_quasi_uniform(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0,
                        "R": 1.0},
            "window": [-60.0, 60.0], "target_density": 1.0,
            "r_values": [5.0, 10.0, 20.0],
        })
        out = tmp_path / "out"
        assert run(["density", "--config", cfg, "--out", out]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["finite_window_estimates"] is True
        assert rep["d_minus"] == pytest.approx(1.0, abs=0.15)
        assert rep["gap_bound_holds"]

    def test_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": STEP_14, "window": [-30.0, 30.0], "target_density": 1.0,
            "r_values": [2.0, 4.0],
        })
        o1, o2 = tmp_path / "a", tmp_path / "b"
        for o in (o1, o2):
            assert run(["density", "--config", cfg, "--out", o, "--seed", 7]) == 0
        assert (o1 / "density.csv").read_bytes() == (o2 / "density.csv").read_bytes()
        reports = [json.loads((o / "report.json").read_text()) for o in (o1, o2)]
        for rep in reports:
            timings = rep.pop("timings")
            assert set(timings) == {"elapsed_seconds", "build_seconds", "assemble_seconds",
                                    "write_seconds"}
            assert all(t >= 0 for t in timings.values())
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)


class TestLandau:
    def test_free_bracket(self, tmp_path):
        crit = 1.0 / np.pi
        cfg = write_cfg(tmp_path, "cfg.json", {
            "spectral_set": [[0.0, 1.0]],
            "density_grid": [0.8 * crit, 0.9 * crit, 1.0 * crit, 1.1 * crit],
            "window_halfwidths": [30.0, 60.0, 120.0],
        })
        out = tmp_path / "out"
        assert run(["landau", "--config", cfg, "--out", out]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["brackets_critical"]
        assert rep["last_degenerating"] <= rep["critical_density"] <= rep["first_stabilizing"]

    def test_unreached_bracket_end_is_null(self, tmp_path):
        # every density above the critical one: none degenerates
        cfg = write_cfg(tmp_path, "cfg.json", {
            "spectral_set": [[0.0, 1.0]],
            "density_grid": [1.2 / np.pi, 1.3 / np.pi],
            "window_halfwidths": [30.0, 60.0],
        })
        out = tmp_path / "out"
        assert run(["landau", "--config", cfg, "--out", out]) == 1
        rep = strict_json(out / "report.json")
        assert rep["last_degenerating"] is None
        assert rep["first_stabilizing"] == pytest.approx(1.2 / np.pi)
        assert rep["brackets_critical"] is False

    def test_constant_piecewise_profile_accepted(self, tmp_path):
        # the default profile, written out
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "piecewise", "breakpoints": [], "values": [1.0]},
            "spectral_set": [[0.0, 1.0]],
            "density_grid": [0.8 / np.pi, 1.2 / np.pi],
            "window_halfwidths": [30.0, 60.0],
        })
        assert run(["landau", "--config", cfg, "--out", tmp_path / "out"]) == 0

    @pytest.mark.parametrize("model, profile", [
        ("toy", None),
        ("liouville", None),
        ("free", {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0, "R": 1.0}),
    ])
    def test_other_model_rejected(self, tmp_path, capsys, model, profile):
        cfg = {"model": model, "spectral_set": [[0.0, 1.0]],
               "density_grid": [0.25, 0.35], "window_halfwidths": [30.0, 60.0]}
        if profile is not None:
            cfg["profile"] = profile
        path = write_cfg(tmp_path, "cfg.json", cfg)
        assert run(["landau", "--config", path, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith("error: landau runs model")
        assert not (tmp_path / "out" / "landau_sweep.csv").exists()

    @pytest.mark.parametrize("profile", [
        {"kind": "piecewise", "breakpoints": [0.0], "values": [1.0, 4.0]},
        {"kind": "piecewise", "breakpoints": [], "values": [2.0]},
    ])
    def test_other_profiles_rejected(self, tmp_path, capsys, profile):
        cfg = write_cfg(tmp_path, "cfg.json", {"profile": profile, "spectral_set": [[0.0, 1.0]]})
        assert run(["landau", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "smooth_blend" in err
        assert not (tmp_path / "out" / "landau_sweep.csv").exists()


THREE_PLATEAUS = {"kind": "piecewise", "breakpoints": [-1.0, 2.0], "values": [1.0, 3.0, 4.0]}


class TestToyProfile:
    """The toy model is the two-plateau step at 0; other profiles are refused."""

    def test_kernel_rejects_three_plateaus(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 1.0]], "profile": THREE_PLATEAUS,
        })
        assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "exactly one breakpoint, at 0" in capsys.readouterr().err

    def test_kernel_rejects_jump_off_origin(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 1.0]],
            "profile": {"kind": "piecewise", "breakpoints": [0.5], "values": [1.0, 4.0]},
        })
        assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "exactly one breakpoint, at 0" in capsys.readouterr().err

    def test_shannon_rejects_three_plateaus(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "spectral_set": [[0.0, 2.0]], "j_max": 5, "profile": THREE_PLATEAUS,
        })
        assert run(["shannon", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "exactly one breakpoint, at 0" in capsys.readouterr().err

    def test_reconstruct_rejects_three_plateaus(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 1.0]], "profile": THREE_PLATEAUS,
            "window": [-10.0, 10.0],
        })
        samples = tmp_path / "samples.csv"
        samples_to_csv(samples, np.linspace(-9.0, 9.0, 40), np.zeros(40))
        assert run(["reconstruct", "--config", cfg, "--out", tmp_path / "o",
                    "--samples", samples]) == 2
        assert "exactly one breakpoint, at 0" in capsys.readouterr().err


STEP_14 = {"kind": "piecewise", "breakpoints": [0.0], "values": [1.0, 4.0]}


class TestFreeModelProfile:
    """The free model is the space of p = 1; any other profile is refused."""

    def test_kernel_rejects_step_profile(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "free", "spectral_set": [[0.0, 1.0]], "profile": STEP_14,
        })
        assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.startswith("error: model 'free'")
        assert not (tmp_path / "o" / "kernel_grid.csv").exists()

    def test_reconstruct_rejects_step_profile(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "free", "spectral_set": [[0.0, 1.0]], "profile": STEP_14,
            "window": [-10.0, 10.0],
        })
        samples = tmp_path / "samples.csv"
        samples_to_csv(samples, np.linspace(-9.0, 9.0, 40), np.zeros(40))
        assert run(["reconstruct", "--config", cfg, "--out", tmp_path / "o",
                    "--samples", samples]) == 2
        assert capsys.readouterr().err.startswith("error: model 'free'")
        assert not (tmp_path / "o" / "reconstruction.csv").exists()


UNIT = {"kind": "piecewise", "breakpoints": [], "values": [1.0]}
BLEND_12 = {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0, "R": 1.0}
BLEND_14 = {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 4.0, "R": 1.0}
RECONSTRUCT = {"model": "free", "spectral_set": [[0.0, 1.0]], "profile": UNIT,
               "window": [-10.0, 10.0]}
SAMPLES_HEADER = "x,re_value,im_value\n"

# subcommand, config, samples CSV text (or None) and a fragment of the error line
BAD_INPUTS = {
    "density_r_above_quarter_window": (
        "density", {"profile": STEP_14, "window": [-20.0, 20.0]}, None,
        "largest r exceeds a quarter of the warped window"),
    "density_zero_target": (
        "density", {"profile": STEP_14, "window": [-20.0, 20.0], "target_density": 0,
                    "r_values": [1.0]}, None,
        "window too small for the requested density"),
    "reconstruct_sample_outside_window": (
        "reconstruct", RECONSTRUCT, SAMPLES_HEADER + "-11.0,0,0\n0.0,1,0\n5.0,0,1\n",
        "sample points escape the window"),
    "reconstruct_samples_not_increasing": (
        "reconstruct", RECONSTRUCT, SAMPLES_HEADER + "0.0,0,0\n-1.0,1,0\n5.0,0,1\n",
        "sample points must be strictly increasing"),
    "reconstruct_non_numeric_sample": (
        "reconstruct", RECONSTRUCT, SAMPLES_HEADER + "0.0,0,0\n1.0,one,0\n",
        "samples.csv, line 3"),
    "reconstruct_nan_sample_point": (
        "reconstruct", RECONSTRUCT, SAMPLES_HEADER + "0.0,0,0\nnan,1,0\n5.0,0,1\n",
        "samples.csv, line 3: a value is not finite"),
    "reconstruct_infinite_sample_value": (
        "reconstruct", RECONSTRUCT, SAMPLES_HEADER + "0.0,0,0\n1.0,0,-inf\n",
        "samples.csv, line 3: a value is not finite"),
    "reconstruct_short_sample_row": (
        "reconstruct", RECONSTRUCT, SAMPLES_HEADER + "0.0,0,0\n1.0,1\n",
        "samples.csv, line 3"),
    "kernel_zero_grid": (
        "kernel", {"model": "free", "spectral_set": [[0.0, 1.0]], "grid": {"n": 0}}, None,
        "grid.n must be an integer >= 1"),
    "kernel_empty_spectral_set": (
        "kernel", {"model": "free", "spectral_set": [[0.0, 0.0]]}, None, "zero measure"),
    "density_zero_r": (
        "density", {"profile": STEP_14, "window": [-20.0, 20.0], "r_values": [0]}, None,
        "r_values must be a non-empty list of positive numbers"),
    "density_negative_r": (
        "density", {"profile": STEP_14, "window": [-20.0, 20.0], "r_values": [-1]}, None,
        "r_values must be a non-empty list of positive numbers"),
    "density_reversed_window": (
        "density", {"profile": STEP_14, "window": [20.0, -20.0], "r_values": [1.0]}, None,
        "window needs lo < hi"),
    # the warped half-width overflows to inf, so the matched spacing pi / W is 0
    "reconstruct_window_overflows": (
        "reconstruct", dict(RECONSTRUCT, window=[-1.7e308, 1.7e308]),
        SAMPLES_HEADER + "-5.0,0,0\n0.0,1,0\n5.0,0,1\n", "a uniform rule needs a positive spacing"),
    "reconstruct_reversed_window": (
        "reconstruct", dict(RECONSTRUCT, window=[10, -10]),
        SAMPLES_HEADER + "-5.0,0,0\n0.0,1,0\n5.0,0,1\n", "window needs lo < hi"),
    "reconstruct_string_tol": (
        "reconstruct", dict(RECONSTRUCT, tol="1e-3"),
        SAMPLES_HEADER + "-5.0,0,0\n0.0,1,0\n5.0,0,1\n", "tol must be a finite number"),
    "kernel_string_grid_lo": (
        "kernel", {"model": "free", "spectral_set": [[0.0, 1.0]], "grid": {"lo": "-1"}}, None,
        "grid.lo must be a finite number"),
    "scatter_string_omega_lo": (
        "scatter", {"profile": {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0, "R": 1.0},
                    "omega_grid": {"lo": "0.5"}}, None,
        "omega_grid.lo must be a finite number"),
    "shannon_negative_j_max": (
        "shannon", {"profile": STEP_14, "spectral_set": [[0.0, 2.0]], "j_max": -1}, None,
        "j_max must be an integer >= 0"),
    "kernel_bool_grid_n": (
        "kernel", {"model": "free", "spectral_set": [[0.0, 1.0]], "grid": {"n": True}}, None,
        "grid.n must be an integer >= 1, got True"),
    "reconstruct_string_n_max": (
        "reconstruct", dict(RECONSTRUCT, n_max="5"),
        SAMPLES_HEADER + "-5.0,0,0\n0.0,1,0\n5.0,0,1\n", "n_max must be an integer >= 1"),
    "reconstruct_string_output_points": (
        "reconstruct", dict(RECONSTRUCT, output_points="801"),
        SAMPLES_HEADER + "-5.0,0,0\n0.0,1,0\n5.0,0,1\n",
        "output_points must be an integer >= 1"),
    "density_string_target": (
        "density", {"profile": STEP_14, "window": [-20.0, 20.0], "target_density": "1",
                    "r_values": [1.0]}, None,
        "target_density must be a finite number"),
    "density_negative_target": (
        "density", {"profile": STEP_14, "window": [-20.0, 20.0], "target_density": -1.0,
                    "r_values": [1.0]}, None,
        "window too small for the requested density"),
    "density_non_numeric_points": (
        "density", {"profile": STEP_14, "window": [-20.0, 20.0], "points": ["a"],
                    "r_values": [1.0]}, None,
        "each entry of points must be a finite number"),
    "density_empty_points": (
        "density", {"profile": STEP_14, "window": [-20.0, 20.0], "points": [],
                    "r_values": [1.0]}, None,
        "points must be a non-empty list of finite numbers"),
    "landau_negative_density_grid": (
        "landau", {"spectral_set": [[0.0, 1.0]], "density_grid": [0.25, -0.35]}, None,
        "density_grid must be a non-empty list of positive numbers"),
    "landau_string_density_grid": (
        "landau", {"spectral_set": [[0.0, 1.0]], "density_grid": ["0.25"]}, None,
        "each entry of density_grid must be a finite number"),
    "landau_empty_density_grid": (
        "landau", {"spectral_set": [[0.0, 1.0]], "density_grid": []}, None,
        "density_grid must be a non-empty list of positive numbers"),
    "landau_zero_window_halfwidth": (
        "landau", {"spectral_set": [[0.0, 1.0]], "window_halfwidths": [30.0, 0]}, None,
        "window_halfwidths must be a non-empty list of positive numbers"),
    "kernel_string_spectral_set": (
        "kernel", {"spectral_set": "ab"}, None,
        "spectral_set must be a non-empty list of [lo, hi] pairs, got 'ab'"),
    "kernel_non_numeric_spectral_end": (
        "kernel", {"spectral_set": [[0, "x"]]}, None,
        "each end of spectral_set must be a finite number, got 'x'"),
    # 1e309 is what a JSON 1e309 reads as: infinity
    "kernel_infinite_spectral_end": (
        "kernel", {"spectral_set": [[0, 1e309]]}, None,
        "each end of spectral_set must be a finite number, got inf"),
    "kernel_grid_not_object": (
        "kernel", {"spectral_set": [[0.0, 1.0]], "grid": [1, 2]}, None,
        "grid must hold a JSON object, not a list"),
    "density_profile_not_object": (
        "density", {"profile": "flat", "window": [-20.0, 20.0]}, None,
        "profile must hold a JSON object, not a str"),
    "density_non_numeric_plateau": (
        "density", {"profile": dict(STEP_14, values=["a", 1]), "window": [-20.0, 20.0]}, None,
        "each entry of profile.values must be a finite number, got 'a'"),
    "scatter_string_p_plus": (
        "scatter", {"profile": dict(BLEND_12, p_plus="2")}, None,
        "profile.p_plus must be a finite number, got '2'"),
    "scatter_null_R": (
        "scatter", {"profile": dict(BLEND_12, R=None)}, None,
        "profile.R must be a finite number, got None"),
    # a Gauss-Legendre rule for these reaches has more nodes than an array can index
    "kernel_grid_1e300": (
        "kernel", {"spectral_set": [[0.0, 1.0]], "grid": {"lo": -1e300, "hi": 1e300, "n": 3}},
        None, "more than an array can index"),
    "kernel_grid_1e308": (
        "kernel", {"spectral_set": [[0.0, 1.0]], "grid": {"lo": -1e308, "hi": 1e308, "n": 3}},
        None, "more than an array can index"),
    "density_points_and_target": (
        "density", {"profile": STEP_14, "window": [-20.0, 20.0], "points": [-1.0, 1.0],
                    "target_density": 0.5, "r_values": [1.0]}, None,
        "density takes points or target_density, not both"),
}

# subcommand, config, samples CSV text (or None), the unknown key and its block
UNKNOWN_KEYS = {
    # a misspelt grid and the retired x_max: the default grid must not run
    "kernel_misspelt_grid": (
        "kernel", {"model": "free", "spectral_set": [[0.0, 1.0]],
                   "grd": {"lo": -3, "hi": 3, "n": 5}, "x_max": -1}, None, "grd", "config"),
    "kernel_grid": (
        "kernel", {"spectral_set": [[0.0, 1.0]], "grid": {"lo": -3.0, "step": 0.5}}, None,
        "step", "grid"),
    "scatter_omega_grid": (
        "scatter", {"profile": BLEND_12, "omega_grid": {"lo": 0.1, "num": 5}}, None,
        "num", "omega_grid"),
    "density_profile": (
        "density", {"profile": dict(BLEND_12, r=2.0), "window": [-20.0, 20.0]}, None,
        "r", "profile"),
    "shannon_model": (
        "shannon", {"model": "toy", "profile": STEP_14, "spectral_set": [[0.0, 2.0]]}, None,
        "model", "config"),
    "density_spectral_set": (
        "density", {"profile": STEP_14, "window": [-20.0, 20.0], "spectral_set": [[0.0, 1.0]]},
        None, "spectral_set", "config"),
    "reconstruct_x_max": (
        "reconstruct", dict(RECONSTRUCT, x_max=6.0),
        SAMPLES_HEADER + "-5.0,0,0\n0.0,1,0\n5.0,0,1\n", "x_max", "config"),
    "landau_window": (
        "landau", {"spectral_set": [[0.0, 1.0]], "window_halfwidth": [30.0]}, None,
        "window_halfwidth", "config"),
    "selftest_any_key": ("selftest", {"seed": 3}, None, "seed", "config"),
}

# a valid config of each subcommand but reconstruct
VALID = {
    "kernel": {"spectral_set": [[0.0, 1.0]], "grid": {"n": 3}},
    "scatter": {"profile": BLEND_12, "omega_grid": {"n": 2}},
    "shannon": {"profile": STEP_14, "spectral_set": [[0.0, 2.0]], "j_max": 1},
    "density": {"profile": STEP_14, "window": [-20.0, 20.0], "r_values": [1.0]},
    "landau": {"spectral_set": [[0.0, 1.0]], "density_grid": [0.3], "window_halfwidths": [20.0]},
    "selftest": {},
}


# configs that pass their table but are refused inside the subcommand
REFUSED_IN_COMMAND = {
    # the default r_values reach 20, above a quarter of the window's warped length
    "density_long_r": ("density", {"profile": STEP_14, "window": [-20.0, 20.0]}),
    "kernel_toy_on_blend": ("kernel", {"model": "toy", "spectral_set": [[0.0, 1.0]],
                                       "profile": BLEND_12}),
    "reconstruct_liouville_on_step": ("reconstruct", {
        "model": "liouville", "spectral_set": [[0.0, 1.0]], "profile": STEP_14,
        "window": [-10.0, 10.0]}),
}


def refused_in_command(tmp_path, case):
    """The argument vector of a REFUSED_IN_COMMAND case, without --out."""
    subcommand, cfg = REFUSED_IN_COMMAND[case]
    args = [subcommand, "--config", write_cfg(tmp_path, "cfg.json", cfg)]
    if subcommand == "reconstruct":
        samples = tmp_path / "samples.csv"
        samples_to_csv(samples, np.linspace(-9.0, 9.0, 40), np.zeros(40))
        args += ["--samples", samples]
    return args


class TestErrors:
    def test_bad_config_field(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {"model": "free"})
        assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert run(["kernel", "--config", missing, "--out", tmp_path / "o"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--samples"])
    @pytest.mark.parametrize("fault", ["directory", "not-utf8"])
    def test_unreadable_input_file_exits_2(self, tmp_path, capsys, flag, fault):
        bad = tmp_path / "bad.in"
        if fault == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe{}")
        samples = tmp_path / "samples.csv"
        samples_to_csv(samples, [0.0, 1.0], [1.0, 0.0])
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "piecewise", "breakpoints": [], "values": [1.0]},
            "spectral_set": [[0.0, 1.0]], "window": [-2.0, 2.0]})
        files = {"--config": cfg, "--samples": samples, flag: bad}
        args = ["reconstruct", *(a for kv in files.items() for a in kv), "--out", tmp_path / "o"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(bad) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_that_is_not_a_directory_exits_2(self, tmp_path, capsys, out):
        cfg = write_cfg(tmp_path, "cfg.json", VALID["kernel"])
        (tmp_path / "afile").write_text("kept")
        assert run(["kernel", "--config", cfg, "--out", tmp_path / out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(tmp_path / out) in err
        assert (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize("case", sorted(REFUSED_IN_COMMAND))
    def test_refused_run_removes_the_out_it_made(self, tmp_path, capsys, case):
        # refused inside the subcommand, after --out was made: exit 2, and the
        # empty directory this run made is gone again
        args = refused_in_command(tmp_path, case)
        assert run(args + ["--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", sorted(REFUSED_IN_COMMAND))
    def test_refused_run_keeps_an_out_made_before(self, tmp_path, case):
        (tmp_path / "o").mkdir()
        args = refused_in_command(tmp_path, case)
        assert run(args + ["--out", tmp_path / "o"]) == 2
        assert (tmp_path / "o").is_dir() and not any((tmp_path / "o").iterdir())

    # rules under the np.intp limit whose tables on the grid do not fit in memory
    @pytest.mark.parametrize("reach, n", [(1e17, 3), (1e7, 100_000)])
    def test_kernel_tables_past_memory_exit_2_unallocated(self, tmp_path, capsys, reach, n):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "spectral_set": [[0.0, 1.0]], "grid": {"lo": -reach, "hi": reach, "n": n}})
        tracemalloc.start()
        try:
            code = run(["kernel", "--config", cfg, "--out", tmp_path / "o"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        # 16-point panels of phase width _GL_PANEL_PHASE over [0, 1] at s = 2 reach,
        # and U's two float64 per node at each grid point
        nodes = 16 * np.ceil(2 * reach / _GL_PANEL_PHASE)
        assert f"{16.0 * nodes * n:.3g} bytes" in err and "physical memory" in err

    # the window-matched uniform rules: about 3.2e16 nodes on [0, 1], or 31 nodes whose
    # tables at the densest set, 2e308 points, overflow to inf bytes
    @pytest.mark.parametrize("subcommand, cfg", [
        ("reconstruct", dict(RECONSTRUCT, window=[-1e17, 1e17])),
        ("landau", {"spectral_set": [[0.0, 1.0]], "window_halfwidths": [1e17]}),
        ("landau", {"spectral_set": [[0.0, 1.0]], "window_halfwidths": [100.0],
                    "density_grid": [1e306]}),
    ], ids=["reconstruct", "landau", "landau-dense"])
    def test_uniform_rule_past_memory_exits_2_unallocated(self, tmp_path, capsys, subcommand,
                                                          cfg):
        args = [subcommand, "--config", write_cfg(tmp_path, "cfg.json", cfg),
                "--out", tmp_path / "o"]
        if subcommand == "reconstruct":
            samples = tmp_path / "samples.csv"
            samples_to_csv(samples, [-1.0, 0.0, 1.0], [1.0, 0.5, -1.0])
            args += ["--samples", samples]
        tracemalloc.start()
        try:
            code = run(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "a uniform rule" in err and "physical memory" in err
        assert not (tmp_path / "o").exists()

    # RK4 sweeps and density sets whose first array alone would take over 100 TiB:
    # the largest omega, 1e15 or 1e12, asks for 1.6e16 or 1.6e13 RK4 steps across
    # [-1, 1], and 1e15 points per unit of mu_p on 120 units for 1.2e17 points
    @pytest.mark.parametrize("subcommand, cfg, what", [
        ("scatter", {"profile": BLEND_14, "omega_grid": {"lo": 0.05, "hi": 1e15, "n": 3}},
         "an RK4 run"),
        ("kernel", {"model": "liouville", "profile": BLEND_14,
                    "spectral_set": [[1e24, 1.000000000001e24]],
                    "grid": {"lo": -0.5, "hi": 0.5, "n": 1}}, "an RK4 run"),
        ("density", {"profile": UNIT, "window": [-60.0, 60.0], "target_density": 1e15},
         "a set of density 1e+15"),
    ], ids=["scatter", "kernel-liouville", "density"])
    def test_tables_past_memory_exit_2_unallocated(self, tmp_path, capsys, subcommand, cfg,
                                                   what):
        args = [subcommand, "--config", write_cfg(tmp_path, "cfg.json", cfg),
                "--out", tmp_path / "o"]
        tracemalloc.start()
        try:
            code = run(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert what in err and "physical memory" in err

    @pytest.mark.parametrize("model", ["free", "toy", "liouville", "schrodinger"])
    def test_every_model_sizes_its_rule_for_the_grid(self, tmp_path, capsys, monkeypatch,
                                                     model):
        # in 64 KB the rule alone fits, but not its tables at 401 grid points
        monkeypatch.setattr(spectral, "_physical_memory", lambda: 2**16)
        profile = {"free": UNIT, "toy": STEP_14}.get(model, BLEND_12)
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": model, "profile": profile, "spectral_set": [[0.0, 1.0]],
            "grid": {"lo": -5.0, "hi": 5.0, "n": 401}})
        assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "at 401 points take" in capsys.readouterr().err

    def test_schrodinger_model_needs_smooth_profile(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "schrodinger", "spectral_set": [[0.0, 1.0]],
            "profile": {"kind": "piecewise", "breakpoints": [0.0], "values": [1.0, 4.0]},
        })
        assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "smooth profile" in capsys.readouterr().err

    def test_unknown_model(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "mystery", "spectral_set": [[0.0, 1.0]],
        })
        assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_unknown_profile_kind(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "bogus"}, "window": [-10.0, 10.0],
        })
        assert run(["density", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "error: unknown profile kind 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_2(self, tmp_path, capsys, case):
        subcommand, cfg, samples, message = BAD_INPUTS[case]
        args = [subcommand, "--config", write_cfg(tmp_path, "cfg.json", cfg),
                "--out", tmp_path / "o"]
        if samples is not None:
            (tmp_path / "samples.csv").write_text(samples)
            args += ["--samples", tmp_path / "samples.csv"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err
        if subcommand == "reconstruct":
            # config and samples are both refused before --out is made
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
    def test_unknown_key_exits_2(self, tmp_path, capsys, case):
        subcommand, cfg, samples, key, block = UNKNOWN_KEYS[case]
        out = tmp_path / "o"
        args = [subcommand, "--config", write_cfg(tmp_path, "cfg.json", cfg), "--out", out]
        if samples is not None:
            (tmp_path / "samples.csv").write_text(samples)
            args += ["--samples", tmp_path / "samples.csv"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown field {key!r} in {block}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", sorted(VALID))
    def test_samples_outside_reconstruct_exits_2(self, tmp_path, capsys, subcommand):
        cfg = write_cfg(tmp_path, "cfg.json", VALID[subcommand])
        samples = tmp_path / "samples.csv"
        samples_to_csv(samples, [0.0, 1.0], [1.0, 0.0])
        out = tmp_path / "o"
        assert run([subcommand, "--config", cfg, "--out", out, "--samples", samples]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {subcommand} reads no --samples; only reconstruct does\n"
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", sorted(COMMANDS))
    def test_config_must_be_object(self, tmp_path, capsys, subcommand):
        cfg = write_cfg(tmp_path, "cfg.json", [{"model": "free"}])
        assert run([subcommand, "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "must hold a JSON object, not a list" in capsys.readouterr().err

    def test_reversed_spectral_interval(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "free", "spectral_set": [[2.0, 1.0]],
        })
        assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "error: interval [2.0, 1.0] is reversed" in capsys.readouterr().err

