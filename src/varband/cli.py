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

import numpy as np

from . import __version__
from .density import (DensityError, beurling_density, gap_density_bound, landau_sweep,
                      quasi_uniform_set, separation)
from .kernel import (LiouvilleModel, SchrodingerModel, ToyModel, free_model,
                     toy_kernel)
from .profile import (PiecewiseConstantProfile, ProfileError, blend_profile,
                      constant_profile, profile_from_config)
from .sampling import (SamplingError, _write_csv, frame_bounds_estimate,
                       reconstruct_iterative, samples_from_csv, shannon_gram)
from .schrodinger import ScatteringSweep
from .spectral import SpectralSet, SpectralSetError, uniform_quadrature


class ConfigError(ValueError):
    pass


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"missing field {key!r} in config")
    return cfg[key]


def _count(block, key, default, least, what):
    """An integer field of a config block, at least ``least``; bools are refused."""
    n = block.get(key, default)
    if isinstance(n, bool) or not (isinstance(n, int) and n >= least):
        raise ConfigError(f"{what} must be an integer >= {least}, got {n!r}")
    return n


def _number(x, what):
    """A finite int or float config value; bools and strings are refused."""
    if isinstance(x, bool) or not (isinstance(x, (int, float)) and abs(x) <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {x!r}")
    return x


def _numbers(cfg, key, default, positive=False):
    """A non-empty list of finite numbers, all positive if ``positive``."""
    xs = cfg.get(key, default)
    if not (isinstance(xs, list) and xs
            and all(_number(x, f"each entry of {key}") > 0 or not positive for x in xs)):
        kind = "positive" if positive else "finite"
        raise ConfigError(f"{key} must be a non-empty list of {kind} numbers, got {xs!r}")
    return xs


def _window(cfg):
    """The config's window (lo, hi): two finite numbers with lo < hi."""
    window = _require(cfg, "window")
    if not (isinstance(window, list) and len(window) == 2):
        raise ConfigError(f"window must be a list [lo, hi] of two numbers, got {window!r}")
    lo, hi = (_number(w, "each end of window") for w in window)
    if not lo < hi:
        raise ConfigError(f"window needs lo < hi, got {window!r}")
    return lo, hi


def _sset(cfg):
    return SpectralSet(_require(cfg, "spectral_set"))


def _profile(cfg):
    return profile_from_config(_require(cfg, "profile"))


def _smooth_profile(cfg, what):
    prof = _profile(cfg)
    if not prof.is_smooth:
        raise ConfigError(f"{what} needs a smooth profile (kind 'smooth_blend'), "
                          f"not {cfg['profile'].get('kind')!r}")
    return prof


def _step_values(cfg, what):
    """(p_minus, p_plus) of a piecewise profile with its one jump at 0."""
    prof = _profile(cfg)
    if (not isinstance(prof, PiecewiseConstantProfile)
            or prof.breakpoints.tolist() != [0.0]):
        raise ConfigError(f"{what} needs a piecewise profile with exactly one "
                          f"breakpoint, at 0, and two values")
    return prof.p_minus, prof.p_plus


def _is_unit(prof):
    """Whether p is identically 1."""
    return prof.lower == prof.upper == 1.0


def _model(cfg, quad=None, x_max=25.0):
    """The spectral model the config names; ``quad`` replaces its Gauss rule.

    Otherwise the Gauss rule is sized for |x| <= x_max, so a caller that
    evaluates the kernel out to ``x_max`` gets it at the rule's accuracy.
    """
    kind = cfg.get("model", "free")
    sset = _sset(cfg)
    if kind == "free":
        if "profile" in cfg and not _is_unit(_profile(cfg)):
            raise ConfigError("model 'free' is the space of p = 1, but the profile is "
                              "not identically 1")
        return free_model(sset, quad=quad, x_max=x_max)
    if kind == "toy":
        return ToyModel(*_step_values(cfg, "model 'toy'"), sset, quad=quad, x_max=x_max)
    if kind == "liouville":
        return LiouvilleModel(_smooth_profile(cfg, "model 'liouville'"), sset, quad=quad,
                              x_max=x_max)
    if kind == "schrodinger":
        prof = _smooth_profile(cfg, "model 'schrodinger'")
        return SchrodingerModel(prof.potential_q_warped, prof.warped_support_radius,
                                sset, quad=quad, x_max=x_max,
                                breakpoints=prof.zeta([-prof.R, prof.R]))
    raise ConfigError(f"unknown model kind {kind!r}")


def _write_report(out_dir, cfg, extra, t0):
    import scipy  # for its version only; nothing else in the package loads it

    payload = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "versions": {"varband": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        # the only entry that differs between runs of the same config and seed
        "timings": {"elapsed_seconds": round(time.time() - t0, 3)},
    }
    payload.update(extra)
    with open(Path(out_dir) / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)


def _quadrature_report(model):
    """Node count, covered measure and the error bound of the model's kernel, if it has one."""
    return {"n_nodes": len(model.quad), "covered_measure": model.quad.covered_measure,
            "quad_error_bound": model.error_bound}


# -- subcommands -----------------------------------------------------------


def cmd_kernel(cfg, out_dir, rng):
    t0 = time.time()
    g = cfg.get("grid", {})
    lo, hi = _number(g.get("lo", -10.0), "grid.lo"), _number(g.get("hi", 10.0), "grid.hi")
    n = _count(g, "n", 101, 1, "grid.n")
    model = _model(cfg, x_max=max(abs(lo), abs(hi)))
    xs = np.linspace(lo, hi, n)
    K = model.kernel_matrix(xs, xs)
    _write_csv(Path(out_dir) / "kernel_grid.csv", ["x\\y"] + [f"{y:.12g}" for y in xs],
               np.column_stack([xs, K]), fmt="%.12g")
    # one row per pair of the coarse grid; the kernel is real, so im_k is 0
    coarse = xs[:: max(1, n // 20)]
    Kc = model.kernel_matrix(coarse, coarse)
    _write_csv(Path(out_dir) / "kernel_pairs.csv", ["x", "y", "re_k", "im_k"],
               np.column_stack([np.repeat(coarse, coarse.size), np.tile(coarse, coarse.size),
                                Kc.ravel(), np.zeros(Kc.size)]))
    _write_report(out_dir, cfg, {"subcommand": "kernel",
                                 "diagonal_max": float(np.max(np.diag(K))),
                                 **_quadrature_report(model)}, t0)
    return 0


def cmd_scatter(cfg, out_dir, rng):
    t0 = time.time()
    prof = _smooth_profile(cfg, "scatter")
    om = cfg.get("omega_grid", {})
    lo = _number(om.get("lo", 0.05), "omega_grid.lo")
    hi = _number(om.get("hi", 5.0), "omega_grid.hi")
    n = om.get("n", 200)
    if not (lo > 0 and hi >= lo and isinstance(n, int) and not isinstance(n, bool) and n >= 1):
        raise ConfigError(f"omega_grid needs 0 < lo <= hi and an integer n >= 1, "
                          f"got lo={lo}, hi={hi}, n={n}")
    omegas = np.linspace(lo, hi, n)
    sweep = ScatteringSweep(prof.potential_q_warped, prof.warped_support_radius,
                            omegas, breakpoints=prof.zeta([-prof.R, prof.R]),
                            store_interior=False)
    _write_csv(Path(out_dir) / "scattering.csv",
               ["omega", "re_T", "im_T", "re_R1", "im_R1", "re_R2", "im_R2", "unitarity_defect"],
               np.column_stack([sweep.omegas, sweep.T.real, sweep.T.imag, sweep.R1.real,
                                sweep.R1.imag, sweep.R2.real, sweep.R2.imag, sweep.defects]))
    defect = sweep.unitarity_defect()
    _write_report(out_dir, cfg, {"subcommand": "scatter",
                                 "max_unitarity_defect": defect,
                                 "support_radius": sweep.a,
                                 "rk4_step": sweep.step,
                                 "rk4_steps": sweep.n_steps}, t0)
    return 0 if defect < 1e-7 else 1


def cmd_reconstruct(cfg, out_dir, rng, samples_path=None):
    t0 = time.time()
    if cfg.get("model") == "schrodinger":
        # its Phi lives in the warped coordinate, not in the samples' x
        raise ConfigError("reconstruct supports model kinds 'toy', 'free' and 'liouville', "
                          "not 'schrodinger'")
    if not samples_path:
        raise ConfigError("reconstruct requires --samples CSV (x, re, im)")
    pts, vals = samples_from_csv(samples_path)
    prof = _profile(cfg)
    sset = _sset(cfg)
    omega_max = sset.lambda_max
    window = _window(cfg)
    wz = 0.5 * (prof.zeta(window[1]) - prof.zeta(window[0]))
    model = _model(cfg, quad=uniform_quadrature(sset, np.pi / wz))
    n_max = _count(cfg, "n_max", 40, 1, "n_max")
    tol = _number(cfg.get("tol", 0.0), "tol")
    xs = np.linspace(window[0], window[1], _count(cfg, "output_points", 801, 1, "output_points"))
    f_rec, report = reconstruct_iterative(model, prof, pts, vals, omega_max, window,
                                          n_max=n_max, tol=tol)
    fx = f_rec.evaluate(xs)
    _write_csv(Path(out_dir) / "reconstruction.csv", ["x", "re_f", "im_f"],
               np.column_stack([xs, fx.real, fx.imag]))
    with open(Path(out_dir) / "reconstruction_report.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, allow_nan=False)
    _write_report(out_dir, cfg, {"subcommand": "reconstruct",
                                 "delta": report.delta,
                                 "gap_condition_passes": report.passes,
                                 **_quadrature_report(model)}, t0)
    return 0 if report.passes else 1


def cmd_shannon(cfg, out_dir, rng):
    t0 = time.time()
    pm, pp = _step_values(cfg, "shannon")
    omega_max = _sset(cfg).lambda_max
    j_max = _count(cfg, "j_max", 20, 0, "j_max")
    G = shannon_gram(pm, pp, omega_max, j_max)
    dev = np.abs(G - np.eye(G.shape[0]))
    ij = np.arange(-j_max, j_max + 1)
    _write_csv(Path(out_dir) / "gram.csv", ["i", "j", "gram", "deviation"],
               np.column_stack([np.repeat(ij, ij.size), np.tile(ij, ij.size),
                                G.ravel(), dev.ravel()]),
               fmt=["%d", "%d", "%.15g", "%.3g"])
    max_offdiag = float(np.max(dev))
    _write_report(out_dir, cfg, {"subcommand": "shannon",
                                 "max_gram_deviation": max_offdiag}, t0)
    return 0 if max_offdiag < 1e-8 else 1


def cmd_density(cfg, out_dir, rng):
    t0 = time.time()
    prof = _profile(cfg)
    window = _window(cfg)
    r_list = _numbers(cfg, "r_values", [5.0, 10.0, 20.0], positive=True)
    if "points" in cfg:
        pts = np.asarray(_numbers(cfg, "points", None), dtype=float)
    else:
        # a density <= 0 leaves fewer than two points: quasi_uniform_set refuses it
        density = _number(cfg.get("target_density", 0.5), "target_density")
        pts = quasi_uniform_set(prof, density, window)
    rep = beurling_density(prof, pts, r_list, window)
    _write_csv(Path(out_dir) / "density.csv", ["r", "inf_count_over_r", "sup_count_over_r"],
               np.column_stack([rep.r_values, rep.lower, rep.upper]))
    eta, bound, d_minus, holds = gap_density_bound(prof, pts, window=window)
    gap, n0 = separation(prof, pts)
    _write_report(out_dir, cfg, {
        "subcommand": "density",
        "finite_window_estimates": True,
        "d_minus": rep.d_minus, "d_plus": rep.d_plus,
        "eta": eta, "gap_bound": bound, "gap_bound_holds": holds,
        "min_mu_gap": gap, "relative_separation": n0,
    }, t0)
    return 0 if holds else 1


def cmd_landau(cfg, out_dir, rng):
    t0 = time.time()
    prof = profile_from_config(cfg.get("profile", {"kind": "piecewise", "breakpoints": [],
                                                   "values": [1.0]}))
    sset = _sset(cfg)
    crit = sset.sqrt_measure / np.pi
    grid = _numbers(cfg, "density_grid", list(crit * np.arange(0.65, 1.4, 0.1)), positive=True)
    windows = _numbers(cfg, "window_halfwidths", [40.0, 80.0, 160.0], positive=True)
    if prof.is_smooth:
        kind = "liouville"
    elif _is_unit(prof):
        prof, kind = constant_profile(1.0), "free"
    else:
        raise ConfigError("landau needs a 'smooth_blend' profile or the constant "
                          "piecewise profile with value 1.0")
    if cfg.get("model", kind) != kind:
        raise ConfigError(f"landau runs model {kind!r} for this profile, not "
                          f"{cfg['model']!r}")

    def builder(wz):
        # quadrature matched to the warped window, as `landau_sweep` requires
        return _model(dict(cfg, model=kind), quad=uniform_quadrature(sset, np.pi / wz))

    res = landau_sweep(builder, prof, sset, grid, windows)
    nd, nw = len(res.densities), len(res.windows)
    _write_csv(Path(out_dir) / "landau_sweep.csv",
               ["density", "window_halfwidth", "A_est", "B_est", "gram_min"],
               np.column_stack([np.repeat(res.densities, nw), np.tile(res.windows, nd),
                                res.a_table.ravel(), res.b_table.ravel(),
                                res.gram_min_table.ravel()]))
    # a bracket end that no density reached is NaN: null in the report
    low, high = (t if np.isfinite(t) else None for t in (res.threshold_low, res.threshold_high))
    bracketed = bool(low is not None and high is not None and low <= res.critical <= high)
    _write_report(out_dir, cfg, {
        "subcommand": "landau", "finite_window_estimates": True,
        "critical_density": res.critical,
        "last_degenerating": low,
        "first_stabilizing": high,
        "brackets_critical": bracketed,
    }, t0)
    return 0 if bracketed else 1


def cmd_selftest(cfg, out_dir, rng):
    t0 = time.time()
    failures = []

    def check(name, ok, detail=""):
        print(("PASS" if ok else "FAIL"), name, detail)
        if not ok:
            failures.append(name)

    # free-case reduction across representations
    sset = SpectralSet([(0.0, 2.0)])
    xs = rng.uniform(-15, 15, 100)
    ys = rng.uniform(-15, 15, 100)
    fm = free_model(sset, x_max=16)
    ref = toy_kernel(1.0, 1.0, 2.0, xs, ys)
    check("free_reduction_quadrature",
          float(np.max(np.abs(fm.kernel_pairs(xs, ys) - ref))) < 1e-7)
    lm = LiouvilleModel(constant_profile(1.0), sset, x_max=16)
    check("free_reduction_warped",
          float(np.max(np.abs(lm.kernel_pairs(xs, ys) - ref))) < 1e-7)

    # step-profile closed form vs quadrature
    tm = ToyModel(1.0, 4.0, sset, x_max=16)
    dev = float(np.max(np.abs(tm.kernel_pairs(xs, ys) - toy_kernel(1.0, 4.0, 2.0, xs, ys))))
    check("step_kernel_cross_validation", dev < 1e-6, f"dev={dev:.2e}")

    # orthonormal basis
    G = shannon_gram(1.0, 4.0, 1.0, 20)
    check("orthonormal_basis_gram",
          float(np.max(np.abs(G - np.eye(G.shape[0])))) < 1e-8)

    # scattering unitarity
    prof = blend_profile(1.0, 4.0, R=1.0)
    sweep = ScatteringSweep(prof.potential_q_warped, prof.warped_support_radius,
                            np.linspace(0.05, 5.0, 50), breakpoints=prof.zeta([-prof.R, prof.R]),
                            store_interior=False)
    check("scattering_unitarity", sweep.unitarity_defect() < 1e-7)

    # density gap bound on a perturbed lattice
    pts = np.sort(np.arange(-60, 61) * 1.0 + rng.uniform(-0.2, 0.2, 121))
    prof1 = constant_profile(1.0)
    _, _, _, holds = gap_density_bound(prof1, pts)
    check("gap_density_bound", holds)

    # frame bounds on the critical lattice
    wz = 40 * np.pi
    fm2 = free_model(SpectralSet([(0.0, 1.0)]),
                     quad=uniform_quadrature(SpectralSet([(0.0, 1.0)]), np.pi / wz))
    X = np.arange(-wz + np.pi / 2, wz, np.pi)
    a_est, b_est = frame_bounds_estimate(fm2, X, window=(-wz, wz))
    check("tight_frame_on_shannon_grid", abs(a_est / b_est - 1) < 0.05,
          f"A={a_est:.4f} B={b_est:.4f}")

    _write_report(out_dir, cfg, {"subcommand": "selftest",
                                 "failures": failures}, t0)
    return 0 if not failures else 1


COMMANDS = {
    "kernel": cmd_kernel,
    "scatter": cmd_scatter,
    "reconstruct": cmd_reconstruct,
    "shannon": cmd_shannon,
    "density": cmd_density,
    "landau": cmd_landau,
    "selftest": cmd_selftest,
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
    rng = np.random.default_rng(args.seed)
    try:
        cfg = {}
        if args.config is not None:
            with open(args.config) as fh:
                cfg = json.load(fh)
            if not isinstance(cfg, dict):
                raise ConfigError(f"config {args.config} must hold a JSON object, "
                                  f"not a {type(cfg).__name__}")
        args.out.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "reconstruct":
            return cmd_reconstruct(cfg, args.out, rng, samples_path=args.samples)
        return COMMANDS[args.subcommand](cfg, args.out, rng)
    except (ConfigError, ProfileError, SpectralSetError, SamplingError, DensityError,
            FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
