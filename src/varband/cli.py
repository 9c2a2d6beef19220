"""Experiment runner: config-driven subcommands emitting CSV tables and JSON reports.

    varband <subcommand> --config cfg.json --out DIR [--seed N]

Subcommands: kernel, scatter, reconstruct, shannon, density, landau, selftest.
Every run writes ``report.json`` with the config hash, package versions and
timings next to its CSV artifacts; identical config and seed give identical
output, apart from the ``timings`` entry of ``report.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import (REQUIRED, ConfigError, Table, choice, count, number, numbers, read_text,
                     window)
from .density import (DensityError, beurling_density, gap_density_bound, landau_sweep,
                      quasi_uniform_set, separation)
from .kernel import (LiouvilleModel, SchrodingerModel, ToyModel, free_model,
                     toy_kernel)
from .profile import (PiecewiseConstantProfile, ProfileError, blend_profile,
                      constant_profile, profile_from_config, toy_profile)
from .sampling import (SampleSet, SamplingError, _write_csv, frame_bounds_estimate,
                       midpoint_partition, reconstruct_iterative, samples_from_csv,
                       shannon_gram)
from .schrodinger import liouville_sweep
from .spectral import SpectralSet, SpectralSetError, uniform_quadrature
from .sturm import IntegrationError


def _spectral_set(x, name, error):
    """Config kind of a spectral set: a non-empty list of [lo, hi] pairs of finite numbers."""
    if not (isinstance(x, list) and x and all(isinstance(iv, list) and len(iv) == 2 for iv in x)):
        raise error(f"{name} must be a non-empty list of [lo, hi] pairs, got {x!r}")
    return SpectralSet([[number(v, f"each end of {name}", error) for v in iv] for iv in x])


def _profile_block(x, name, error):
    """Config kind of a profile block; `profile_from_config` owns its format."""
    return profile_from_config(x)


def _is_unit(prof):
    """Whether p is identically 1."""
    return prof.lower == prof.upper == 1.0


def _is_step(prof):
    """Whether p is the toy model's step: two plateaus, one jump, at 0."""
    return isinstance(prof, PiecewiseConstantProfile) and prof.breakpoints.tolist() == [0.0]


def _needs(ok, who, what):
    if not ok:
        raise ConfigError(f"{who} needs {what}")


_SMOOTH = "a smooth profile (kind 'smooth_blend')"
_STEP = "a piecewise profile with exactly one breakpoint, at 0, and two values"


def _model(kind, prof, sset, x_max=25.0, half_width=None, points=1):
    """The spectral model of kind ``kind`` (one of ``_MODELS``) on (prof, sset).

    The one place where a config becomes a model. Its rule is the midpoint
    rule matched to a window of warped ``half_width`` W, of spacing pi / W;
    without W, a Gauss rule sized for |x| <= x_max, so that the kernel out to
    ``x_max`` has the rule's accuracy. Either is refused if its tables at
    ``points`` abscissae would not fit in memory.
    """
    quad = None if half_width is None else uniform_quadrature(sset, np.pi / half_width, points)
    if kind == "free":
        if not _is_unit(prof):
            raise ConfigError("model 'free' is the space of p = 1, but the profile is "
                              "not identically 1")
        return free_model(sset, quad=quad, x_max=x_max, points=points)
    if kind == "toy":
        _needs(_is_step(prof), "model 'toy'", _STEP)
        return ToyModel(prof.p_minus, prof.p_plus, sset, quad=quad, x_max=x_max, points=points)
    _needs(prof.is_smooth, f"model {kind!r}", _SMOOTH)
    if kind == "liouville":
        return LiouvilleModel(prof, sset, quad=quad, x_max=x_max, points=points)
    return SchrodingerModel(prof.potential_q_warped, prof.warped_support_radius,
                            sset, quad=quad, x_max=x_max,
                            breakpoints=prof.zeta([-prof.R, prof.R]), points=points)


def _landau_model(c, block):
    """landau runs the model its profile implies: liouville for a smooth blend, free for p = 1."""
    if c.profile.is_smooth:
        kind = "liouville"
    elif _is_unit(c.profile):
        c.profile, kind = constant_profile(1.0), "free"
    else:
        raise ConfigError("landau needs a 'smooth_blend' profile or the constant "
                          "piecewise profile with value 1.0")
    if c.model not in (None, kind):
        raise ConfigError(f"landau runs model {kind!r} for this profile, not {c.model!r}")
    c.model = kind


def _omega_order(c, block):
    if not 0 < c.lo <= c.hi:
        raise ConfigError(f"{_OMEGA_GRID}, got lo={c.lo}, hi={c.hi}")


def _one_point_source(c, block):
    if "points" in block and "target_density" in block:
        raise ConfigError("density takes points or target_density, not both")


# -- config tables ---------------------------------------------------------

_MODELS = ("free", "toy", "liouville", "schrodinger")
_OMEGA_GRID = "omega_grid needs 0 < lo <= hi and an integer n >= 1"
_UNIT = {"kind": "piecewise", "breakpoints": [], "values": [1.0]}  # p = 1

KERNEL = Table({
    "model": (choice(*_MODELS), "free"),
    "profile": (_profile_block, _UNIT),
    "spectral_set": (_spectral_set, REQUIRED),
    "grid": (Table({"lo": (number, -10.0), "hi": (number, 10.0), "n": (count(1), 101)}), {}),
})
SCATTER = Table({
    "profile": (_profile_block, REQUIRED),
    "omega_grid": (Table({"lo": (number, 0.05), "hi": (number, 5.0),
                          "n": (count(1), 200, _OMEGA_GRID)}, check=_omega_order), {}),
}, check=lambda c, block: _needs(c.profile.is_smooth, "scatter", _SMOOTH))
RECONSTRUCT = Table({
    # schrodinger's Phi lives in the warped coordinate, not in the samples' x
    "model": (choice("free", "toy", "liouville"), "free"),
    "profile": (_profile_block, REQUIRED),
    "spectral_set": (_spectral_set, REQUIRED),
    "window": (window, REQUIRED),
    "n_max": (count(1), 40),
    "tol": (number, 0.0),
    "output_points": (count(1), 801),
})
SHANNON = Table({
    "profile": (_profile_block, REQUIRED),
    "spectral_set": (_spectral_set, REQUIRED),
    "j_max": (count(0), 20),
}, check=lambda c, block: _needs(_is_step(c.profile), "shannon", _STEP))
DENSITY = Table({
    "profile": (_profile_block, REQUIRED),
    "window": (window, REQUIRED),
    "r_values": (numbers(positive=True), [5.0, 10.0, 20.0]),
    "points": (numbers(), None),
    # a density <= 0 leaves fewer than two points: quasi_uniform_set refuses it
    "target_density": (number, 0.5),
}, check=_one_point_source)
LANDAU = Table({
    "model": (choice(*_MODELS), None),  # the model the profile implies
    "profile": (_profile_block, _UNIT),
    "spectral_set": (_spectral_set, REQUIRED),
    "density_grid": (numbers(positive=True), None),  # critical density x 0.65, 0.75, ..., 1.35
    "window_halfwidths": (numbers(positive=True), [40.0, 80.0, 160.0]),
}, check=_landau_model)


def _write_report(out_dir, cfg, extra, t0):
    payload = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "versions": {"varband": __version__, "numpy": np.__version__},
        # the only entry that differs between runs of the same config and seed; a
        # subcommand adds its stage timings to it
        "timings": {"elapsed_seconds": round(time.time() - t0, 3), **extra.pop("timings", {})},
    }
    payload.update(extra)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)


_UNITARITY_LIMIT = 1e-7  # a sweep's max_unitarity_defect at or above this fails its run


def _exit_code(ok, *reports):
    """0 if ok and no report's sweep, where it has one, reaches the unitarity limit; else 1."""
    return 0 if ok and all(r.get("max_unitarity_defect", 0.0) < _UNITARITY_LIMIT
                           for r in reports) else 1


def _sweep_report(sweep):
    """A scattering sweep's largest unitarity defect and its RK4 pass.

    The pass's largest step and step count, the number of omega^2 values it
    integrated and the accepted tail of its interpolant in omega^2 (0 when
    none was interpolated).
    """
    return {"max_unitarity_defect": sweep.unitarity_defect(), "rk4_step": sweep.step,
            "rk4_steps": sweep.n_steps, "rk4_points": sweep.rk4_points,
            "rk4_interpolation_tail": sweep.interpolation_tail}


def _model_report(model):
    """Model class, node count, covered measure, kernel error bound if any, and sweep figures."""
    report = {"model_class": type(model).__name__, "n_nodes": len(model.quad),
              "covered_measure": model.quad.covered_measure,
              "quad_error_bound": model.error_bound}
    if model.sweep is not None:
        report.update(_sweep_report(model.sweep))
    return report


def _read_samples(path, window):
    """The samples of ``--samples`` as (SampleSet, values), refused unless inside ``window``."""
    pts, vals = samples_from_csv(path)
    X = SampleSet(pts)
    midpoint_partition(X.points, window)  # raises for a point outside the window
    return X, vals


# -- subcommands -----------------------------------------------------------


def cmd_kernel(c, args):
    lo, hi, n = c.grid.lo, c.grid.hi, c.grid.n
    start = time.perf_counter()
    model = _model(c.model, c.profile, c.spectral_set, x_max=max(abs(lo), abs(hi)), points=n)
    xs = np.linspace(lo, hi, n)
    K = model.kernel_matrix(xs, xs)
    # one row per pair of the coarse grid, read off K; the kernel is real, so im_k is 0
    s = max(1, n // 20)
    coarse, Kc = xs[::s], K[::s, ::s]
    computed = time.perf_counter()
    _write_csv(args.out / "kernel_grid.csv", ["x\\y"] + [f"{y:.12g}" for y in xs],
               np.column_stack([xs, K]), fmt="%.12g")
    _write_csv(args.out / "kernel_pairs.csv", ["x", "y", "re_k", "im_k"],
               np.column_stack([np.repeat(coarse, coarse.size), np.tile(coarse, coarse.size),
                                Kc.ravel(), np.zeros(Kc.size)]))
    timings = {"kernel_seconds": round(computed - start, 6),
               "write_seconds": round(time.perf_counter() - computed, 6)}
    report = _model_report(model)
    return _exit_code(True, report), {"diagonal_max": float(np.max(np.diag(K))), **report,
                                      "timings": timings}


def cmd_scatter(c, args):
    prof, om = c.profile, c.omega_grid
    start = time.perf_counter()
    prof.zeta(np.array([-prof.R, prof.R]))  # the warp's ends: kept by the profile for the sweep
    warped = time.perf_counter()
    sweep = liouville_sweep(prof, np.linspace(om.lo, om.hi, om.n))
    swept = time.perf_counter()
    _write_csv(args.out / "scattering.csv",
               ["omega", "re_T", "im_T", "re_R1", "im_R1", "re_R2", "im_R2", "unitarity_defect"],
               np.column_stack([sweep.omegas, sweep.T.real, sweep.T.imag, sweep.R1.real,
                                sweep.R1.imag, sweep.R2.real, sweep.R2.imag, sweep.defects]))
    report = _sweep_report(sweep)
    timings = {"profile_seconds": round(warped - start, 6),
               "sweep_seconds": round(swept - warped, 6),
               "write_seconds": round(time.perf_counter() - swept, 6)}
    return _exit_code(True, report), {"support_radius": sweep.a, **report, "timings": timings}


def cmd_reconstruct(c, args):
    X, vals = args.samples  # read by `main` before --out is made
    prof, sset, window = c.profile, c.spectral_set, c.window
    start = time.perf_counter()
    wz = 0.5 * (prof.zeta(window[1]) - prof.zeta(window[0]))
    # U is taken at the cell edges, one more than the samples, and at the output grid
    model = _model(c.model, prof, sset, half_width=wz, points=max(len(X) + 1, c.output_points))
    built = time.perf_counter()
    f_rec, report = reconstruct_iterative(model, prof, X, vals, sset.lambda_max, window,
                                          n_max=c.n_max, tol=c.tol)
    iterated = time.perf_counter()
    xs = np.linspace(window[0], window[1], c.output_points)
    fx = f_rec.evaluate(xs)
    _write_csv(args.out / "reconstruction.csv", ["x", "re_f", "im_f"],
               np.column_stack([xs, fx.real, fx.imag]))
    with open(args.out / "reconstruction_report.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, allow_nan=False)
    # the operator is built inside reconstruct_iterative: its time moves to the build
    timings = {"build_seconds": round(built - start + report.operator_seconds, 6),
               "iterate_seconds": round(iterated - built - report.operator_seconds, 6),
               "write_seconds": round(time.perf_counter() - iterated, 6)}
    model_report = _model_report(model)
    return _exit_code(report.passes, model_report), {
        "delta": report.delta, "gap_condition_passes": report.passes, **model_report,
        **report.operator, "timings": timings}


def cmd_shannon(c, args):
    j_max = c.j_max
    start = time.perf_counter()
    G = shannon_gram(c.profile.p_minus, c.profile.p_plus, c.spectral_set.lambda_max, j_max)
    dev = np.abs(G - np.eye(G.shape[0]))
    computed = time.perf_counter()
    ij = np.arange(-j_max, j_max + 1)
    _write_csv(args.out / "gram.csv", ["i", "j", "gram", "deviation"],
               np.column_stack([np.repeat(ij, ij.size), np.tile(ij, ij.size),
                                G.ravel(), dev.ravel()]),
               fmt=["%d", "%d", "%.15g", "%.3g"])
    max_offdiag = float(np.max(dev))
    timings = {"gram_seconds": round(computed - start, 6),
               "write_seconds": round(time.perf_counter() - computed, 6)}
    return (0 if max_offdiag < 1e-8 else 1), {"max_gram_deviation": max_offdiag,
                                              "timings": timings}


def cmd_density(c, args):
    prof, window = c.profile, c.window
    start = time.perf_counter()
    if c.points is not None:
        pts = np.asarray(c.points, dtype=float)
    else:
        pts = quasi_uniform_set(prof, c.target_density, window)
    built = time.perf_counter()
    rep = beurling_density(prof, pts, c.r_values, window)
    eta, bound, d_minus, holds = gap_density_bound(prof, pts, window=window)
    gap, n0 = separation(prof, pts)
    assembled = time.perf_counter()
    _write_csv(args.out / "density.csv", ["r", "inf_count_over_r", "sup_count_over_r"],
               np.column_stack([rep.r_values, rep.lower, rep.upper]))
    timings = {"build_seconds": round(built - start, 6),
               "assemble_seconds": round(assembled - built, 6),
               "write_seconds": round(time.perf_counter() - assembled, 6)}
    return (0 if holds else 1), {
        "finite_window_estimates": True,
        "d_minus": rep.d_minus, "d_plus": rep.d_plus,
        "eta": eta, "gap_bound": bound, "gap_bound_holds": holds,
        "min_mu_gap": gap, "relative_separation": n0, "timings": timings,
    }


def cmd_landau(c, args):
    sset = c.spectral_set
    crit = sset.sqrt_measure / np.pi
    grid = c.density_grid or list(crit * np.arange(0.65, 1.4, 0.1))
    models = {}  # each window's model report, keyed by its warped half-width

    def builder(wz):
        # quadrature matched to the warped window, as `landau_sweep` requires; U is
        # tabulated at the densest set, about 2 wz max density points (a float: it may
        # overflow to inf, which the rule refuses)
        model = _model(c.model, c.profile, sset, half_width=wz, points=2 * wz * max(grid))
        models[str(wz)] = _model_report(model)
        return model

    start = time.perf_counter()
    res = landau_sweep(builder, c.profile, sset, grid, c.window_halfwidths)
    swept = time.perf_counter()
    nd, nw = len(res.densities), len(res.windows)
    _write_csv(args.out / "landau_sweep.csv",
               ["density", "window_halfwidth", "A_est", "B_est", "gram_min"],
               np.column_stack([np.repeat(res.densities, nw), np.tile(res.windows, nd),
                                res.a_table.ravel(), res.b_table.ravel(),
                                res.gram_min_table.ravel()]))
    # a bracket end that no density reached is NaN: null in the report
    low, high = (t if np.isfinite(t) else None for t in (res.threshold_low, res.threshold_high))
    bracketed = bool(low is not None and high is not None and low <= res.critical <= high)
    return _exit_code(bracketed, *models.values()), {
        "finite_window_estimates": True,
        "critical_density": res.critical,
        "last_degenerating": low,
        "first_stabilizing": high,
        "brackets_critical": bracketed,
        "models": models,
        "timings": {"sweep_seconds": round(swept - start, 6),
                    "write_seconds": round(time.perf_counter() - swept, 6)},
    }


def cmd_selftest(c, args):
    rng = np.random.default_rng(args.seed)
    failures = []

    def check(name, ok, detail=""):
        print(("PASS" if ok else "FAIL"), name, detail)
        if not ok:
            failures.append(name)

    # free-case reduction across representations
    sset = SpectralSet([(0.0, 2.0)])
    xs = rng.uniform(-15, 15, 100)
    ys = rng.uniform(-15, 15, 100)
    unit = constant_profile(1.0)
    fm = _model("free", unit, sset, x_max=16)
    ref = toy_kernel(1.0, 1.0, 2.0, xs, ys)
    check("free_reduction_quadrature",
          float(np.max(np.abs(fm.kernel_pairs(xs, ys) - ref))) < 1e-7)
    lm = _model("liouville", unit, sset, x_max=16)
    check("free_reduction_warped",
          float(np.max(np.abs(lm.kernel_pairs(xs, ys) - ref))) < 1e-7)

    # step-profile closed form vs quadrature
    tm = _model("toy", toy_profile(1.0, 4.0), sset, x_max=16)
    dev = float(np.max(np.abs(tm.kernel_pairs(xs, ys) - toy_kernel(1.0, 4.0, 2.0, xs, ys))))
    check("step_kernel_cross_validation", dev < 1e-6, f"dev={dev:.2e}")

    # orthonormal basis
    G = shannon_gram(1.0, 4.0, 1.0, 20)
    check("orthonormal_basis_gram",
          float(np.max(np.abs(G - np.eye(G.shape[0])))) < 1e-8)

    # scattering unitarity
    sweep = liouville_sweep(blend_profile(1.0, 4.0, R=1.0), np.linspace(0.05, 5.0, 50))
    check("scattering_unitarity", sweep.unitarity_defect() < 1e-7)

    # density gap bound on a perturbed lattice
    pts = np.sort(np.arange(-60, 61) * 1.0 + rng.uniform(-0.2, 0.2, 121))
    _, _, _, holds = gap_density_bound(unit, pts)
    check("gap_density_bound", holds)

    # frame bounds on the critical lattice
    wz = 40 * np.pi
    fm2 = _model("free", unit, SpectralSet([(0.0, 1.0)]), half_width=wz)
    X = np.arange(-wz + np.pi / 2, wz, np.pi)
    a_est, b_est = frame_bounds_estimate(fm2, X, window=(-wz, wz))
    check("tight_frame_on_shannon_grid", abs(a_est / b_est - 1) < 0.05,
          f"A={a_est:.4f} B={b_est:.4f}")
    return (0 if not failures else 1), {"failures": failures}


class Command(NamedTuple):
    run: Callable  # (parsed config, argv namespace) -> (exit code, report entries)
    table: Table
    reads_samples: bool = False


COMMANDS = {
    "kernel": Command(cmd_kernel, KERNEL),
    "scatter": Command(cmd_scatter, SCATTER),
    "reconstruct": Command(cmd_reconstruct, RECONSTRUCT, reads_samples=True),
    "shannon": Command(cmd_shannon, SHANNON),
    "density": Command(cmd_density, DENSITY),
    "landau": Command(cmd_landau, LANDAU),
    "selftest": Command(cmd_selftest, Table({})),
}


def main(argv=None):
    ap = argparse.ArgumentParser(prog="varband",
                                 description="variable-bandwidth sampling experiments")
    ap.add_argument("subcommand", choices=sorted(COMMANDS))
    ap.add_argument("--config", type=Path, default=None)
    ap.add_argument("--out", type=Path, default=Path("."))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=Path, default=None,
                    help="sample CSV for the reconstruct subcommand")
    args = ap.parse_args(argv)
    command = COMMANDS[args.subcommand]
    made = False  # whether this run made --out
    try:
        cfg = {}
        if args.config is not None:
            cfg = json.loads(read_text(args.config, "config", ConfigError))
        c = command.table(cfg)
        if command.reads_samples and args.samples is None:
            raise ConfigError("reconstruct requires --samples CSV (x, re, im)")
        if args.samples is not None and not command.reads_samples:
            raise ConfigError(f"{args.subcommand} reads no --samples; only reconstruct does")
        if command.reads_samples:
            # a refused samples file leaves no output directory behind
            args.samples = _read_samples(args.samples, c.window)
        made = not args.out.exists()
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the output directory {args.out}: "
                              f"{exc.strerror}") from None
        t0 = time.time()
        code, report = command.run(c, args)
        _write_report(args.out, cfg, {"subcommand": args.subcommand, **report}, t0)
        return code
    except (ConfigError, ProfileError, SpectralSetError, IntegrationError, SamplingError,
            DensityError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a refused run leaves no empty output directory of its own behind
        if made and args.out.is_dir() and not any(args.out.iterdir()):
            args.out.rmdir()
        return 2


if __name__ == "__main__":
    sys.exit(main())
