import csv
import io
import json

import numpy as np
import pytest

from varband.cli import main
from varband.kernel import ToyModel, free_model
from varband.paleywiener import random_smooth_function
from varband.sampling import ReconstructionOperator, SampleSet, samples_to_csv
from varband.spectral import SpectralSet, uniform_quadrature


def run(args):
    return main([str(a) for a in args])


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
            "model": "toy", "spectral_set": [[0.0, 2.0]], "x_max": 4.0,
            "profile": {"kind": "piecewise", "breakpoints": [0.0], "values": [1.0, 4.0]},
            "grid": {"lo": -3.0, "hi": 3.0, "n": 7},
        })
        out = tmp_path / "out"
        assert run(["kernel", "--config", cfg, "--out", out]) == 0
        rep = json.loads((out / "report.json").read_text())
        # 8-point Gauss-Legendre panels of width at most pi / (8 x_max) on [0, sqrt 2]
        assert rep["n_nodes"] == 8 * int(np.ceil(np.sqrt(2.0) / (np.pi / 32.0)))
        assert rep["covered_measure"] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "free", "spectral_set": [[0.0, 2.0]],
            "grid": {"lo": -3.0, "hi": 3.0, "n": 11},
        })
        o1, o2 = tmp_path / "a", tmp_path / "b"
        run(["kernel", "--config", cfg, "--out", o1, "--seed", 7])
        run(["kernel", "--config", cfg, "--out", o2, "--seed", 7])
        assert (o1 / "kernel_grid.csv").read_bytes() == (o2 / "kernel_grid.csv").read_bytes()

    def test_grid_matches_csv_writer_rendering(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "toy", "spectral_set": [[0.0, 2.0]], "x_max": 6.0,
            "profile": {"kind": "piecewise", "breakpoints": [0.0], "values": [1.0, 4.0]},
            "grid": {"lo": -5.0, "hi": 5.0, "n": 41},
        })
        out = tmp_path / "out"
        assert run(["kernel", "--config", cfg, "--out", out]) == 0
        xs = np.linspace(-5.0, 5.0, 41)
        K = ToyModel(1.0, 4.0, SpectralSet([[0.0, 2.0]]), x_max=6.0).kernel_matrix(
            xs, xs, keep_complex=True)
        ref = io.StringIO(newline="")
        w = csv.writer(ref)
        w.writerow(["x\\y"] + [f"{y:.12g}" for y in xs])
        for i, x in enumerate(xs):
            w.writerow([f"{x:.12g}"] + [f"{K[i, j].real:.12g}" for j in range(xs.size)])
        assert (out / "kernel_grid.csv").read_bytes() == ref.getvalue().encode()


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
        assert a > 0 and h > 0 and n % 2 == 0
        # n / 2 steps of h cross [-a, a] in each direction, none of them overshooting
        assert h * (n // 2) == pytest.approx(2 * a, rel=1e-12)
        assert h <= 2 * np.pi / (50.0 * 2.0)

    def test_piecewise_profile_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "piecewise", "breakpoints": [0.0], "values": [1.0, 4.0]},
            "omega_grid": {"lo": 0.1, "hi": 3.0, "n": 5},
        })
        assert run(["scatter", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "error: scatter needs a smooth profile" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [{"lo": 0.0}, {"lo": -0.5}, {"lo": 2.0, "hi": 1.0},
                                      {"n": 0}])
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

    def test_missing_samples(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "free", "spectral_set": [[0.0, 1.0]],
            "profile": {"kind": "piecewise", "breakpoints": [], "values": [1.0]},
            "window": [-10.0, 10.0],
        })
        assert run(["reconstruct", "--config", cfg, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("kind", ["liouville", "schrodinger"])
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

    def test_constant_piecewise_profile_accepted(self, tmp_path):
        # the default profile, written out
        cfg = write_cfg(tmp_path, "cfg.json", {
            "profile": {"kind": "piecewise", "breakpoints": [], "values": [1.0]},
            "spectral_set": [[0.0, 1.0]],
            "density_grid": [0.8 / np.pi, 1.2 / np.pi],
            "window_halfwidths": [30.0, 60.0],
        })
        assert run(["landau", "--config", cfg, "--out", tmp_path / "out"]) == 0

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

    def test_reversed_spectral_interval(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "model": "free", "spectral_set": [[2.0, 1.0]],
        })
        assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "error: interval [2.0, 1.0] is reversed" in capsys.readouterr().err
