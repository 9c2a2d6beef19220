import csv
import io
import json
import subprocess
import sys
import warnings
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from varband import cli
from varband.cli import COMMANDS, main
from varband.density import (beurling_density, landau_sweep, matched_free_model_builder,
                             quasi_uniform_set)
from varband.kernel import LiouvilleModel, ToyModel, free_model, toy_kernel
from varband.paleywiener import random_smooth_function
from varband.profile import constant_profile, profile_from_config
from varband.sampling import (ReconstructionOperator, SampleSet, reconstruct_iterative,
                              samples_from_csv, samples_to_csv, shannon_gram)
from varband.schrodinger import ScatteringSweep
from varband.spectral import SpectralSet, uniform_quadrature
from varband.sturm import rk4_segments

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
        assert rep["quad_error_bound"] == quad.error_bound
        assert 0.0 < rep["quad_error_bound"] <= 2.0**-53 * np.sqrt(2.0)

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
            assert set(rep.pop("timings")) == {"elapsed_seconds"}
        # with the timings removed, the reports render to the same bytes
        assert json.dumps(reports[0], indent=2, sort_keys=True) == json.dumps(
            reports[1], indent=2, sort_keys=True)

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
        coarse = np.linspace(-5.0, 5.0, 41)[::2]
        K = ToyModel(1.0, 4.0, SpectralSet([[0.0, 2.0]]), x_max=5.0).kernel_matrix(coarse, coarse)
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
        sweep = ScatteringSweep(prof.potential_q_warped, prof.warped_support_radius,
                                np.linspace(0.1, 3.0, 40), breakpoints=prof.zeta([-1.0, 1.0]),
                                store_interior=False)
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
        # one pass from a to -a, its steps broken at the inner edge of the
        # blend's warped support
        prof = profile_from_config(json.loads(cfg.read_text())["profile"])
        h_max = min(1e-3, 2 * np.pi / (50.0 * 2.0))
        segments = rk4_segments(a, -a, h_max, prof.zeta([-0.5, 0.5]))
        assert len(segments) == 2
        assert n == sum(k for _, _, k in segments)
        assert h == max((start - end) / k for start, end, k in segments)
        assert 0 < h <= h_max

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


class TestDensity:
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
}


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


SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY_SCIPY = ("scipy.interpolate", "scipy.integrate", "scipy.special", "scipy.optimize",
               "scipy.linalg", "scipy.sparse")


def heavy_scipy_loaded(code):
    """The modules of HEAVY_SCIPY that a fresh interpreter holds after running code."""
    prog = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
            f"print(' '.join(m for m in {HEAVY_SCIPY!r} if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", prog], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


class TestImportFootprint:
    def test_cli_import_loads_no_heavy_scipy(self):
        assert heavy_scipy_loaded("import varband.cli") == []

    def test_scatter_run_needs_no_interpolate(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0, "R": 1.0},
            "omega_grid": {"lo": 0.5, "hi": 2.0, "n": 4},
        })
        args = ["scatter", "--config", str(cfg), "--out", str(tmp_path / "out")]
        loaded = heavy_scipy_loaded(f"import varband.cli\nassert varband.cli.main({args!r}) == 0")
        assert "scipy.interpolate" not in loaded
