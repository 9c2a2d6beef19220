"""Seeded inputs and output checks for the three benchmark workloads.

Every job is a list of ``varband`` CLI argument vectors plus a check. The
inputs of job *i* come from ``numpy.random.default_rng(seed + i)`` and are
written as config JSON (and sample CSV) into the job's own directory before
its timer starts; the program receives only those files. The seed changes
input values, never sizes: step counts, node counts, point counts and
iteration counts are pinned, so job times are comparable across seeds.

Checks read the files the CLI wrote and hold them to the acceptance suite's
pinned tolerances. A check returns the accuracy figures it measured, or
raises `CheckFailed`.

Only configurations the CLI computes as configured are generated: the toy
model always gets a single breakpoint at 0, and ``reconstruct`` only runs
the toy model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import quad, solve_ivp

from varband.kernel import ToyModel, toy_kernel
from varband.paleywiener import random_smooth_function
from varband.profile import PiecewiseConstantProfile, blend_profile
from varband.sampling import samples_to_csv
from varband.spectral import SpectralSet, uniform_quadrature

UNITARITY_TOL = 1e-7  # criterion 05
# |T - T_ref| of the full-size sweep at its default RK4 step reaches about
# 2e-6, at the lowest omega; a 0.1% stretch of the warped coordinate in
# potential_q_warped gives 3e-5 to 4e-4
TRANSMISSION_TOL = 1e-5
REFERENCE_OMEGAS = 3  # seeded grid points checked against the independent solver
KERNEL_TOL = 1e-6  # criterion 02
EVAL_CHUNK = 256  # sample points per synthesis call while generating inputs


class CheckFailed(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    calls: list  # argument vectors for varband.cli.main, run in order
    out_dirs: list  # directories the calls write to
    check: Callable[[list], dict]  # exit codes -> accuracy figures


def _write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def _expect_exit_codes(codes, n):
    _require(codes == [0] * n, f"exit codes {codes}, expected {[0] * n}")


def _read_json(path):
    return json.loads(Path(path).read_text())


def _synthesize(f, xs):
    return np.concatenate([f.evaluate(xs[i:i + EVAL_CHUNK])
                           for i in range(0, xs.size, EVAL_CHUNK)])


# -- smooth-scatter -----------------------------------------------------------


def reference_transmission(prof, omega):
    """T(omega) of a smooth profile, solved without the Liouville warp.

    Integrates -(p u')' = omega^2 u in x from the right plateau, where
    psi = p^(1/4) u is the pure transmitted wave e^(i omega s), to the left
    one, and reads off the incoming amplitude there; s = zeta(x) enters only
    through the warped length of [-R, R]. Shares no code with the warps,
    `potential_q_warped` or the RK4 sweep of the program under test.
    """
    R, pm, pp = prof.R, prof.p_minus, prof.p_plus

    def p(x):
        return float(prof.p_func(x))

    length = quad(lambda x: p(x) ** -0.5, -R, R, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    y0 = np.array([pp**-0.25, 1j * omega * pp**0.25])  # (u, p u') at x = R
    sol = solve_ivp(lambda x, y: np.array([y[1] / p(x), -omega**2 * y[0]]), (R, -R), y0,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    _require(sol.success, f"reference solver failed at omega {omega}: {sol.message}")
    u, v = sol.y[:, -1]
    psi, dpsi = pm**0.25 * u, pm**-0.25 * v
    alpha = 0.5 * (psi + dpsi / (1j * omega)) * np.exp(1j * omega * length)
    return 1.0 / alpha


@dataclass(frozen=True)
class ScatterSize:
    support_radius: float  # warped radius of supp q; fixes the RK4 step count
    n_omega: int


class SmoothScatter:
    """``varband scatter`` on a seeded smooth blend near blend(1, 4, R=1.5).

    Chosen because `profile`, `sturm` and `schrodinger` do nearly all of the
    work (about 20.5k scalar potential evaluations per sweep, each inverting
    the warp) while `kernel`, `paleywiener`, `sampling` and `density` do none.
    R is solved from the seeded plateaus so that the warped support radius,
    and with it the RK4 step count, is the same for every seed.

    Unitarity holds for any real potential, so the check also compares T at
    a few seeded grid points with `reference_transmission`: a wrong q(s)
    fails there.
    """

    name = "smooth-scatter"
    # tiny keeps the full radius: on a shorter support the blend is steeper and
    # the program's error at its default RK4 step exceeds TRANSMISSION_TOL
    sizes = {"full": ScatterSize(1.28025, 200), "tiny": ScatterSize(1.28025, 20)}

    def make(self, job_dir, job_seed, size):
        rng = np.random.default_rng(job_seed)
        p_minus = float(rng.uniform(0.9, 1.1))
        p_plus = float(rng.uniform(3.6, 4.4))
        # the warped support radius of a blend is linear in R
        radius = size.support_radius / blend_profile(p_minus, p_plus, R=1.0).warped_support_radius
        cfg = {
            "profile": {"kind": "smooth_blend", "p_minus": p_minus, "p_plus": p_plus,
                        "R": radius, "blend": "quintic"},
            "omega_grid": {"lo": 0.05, "hi": 5.0, "n": size.n_omega},
        }
        out = job_dir / "out"
        argv = ["scatter", "--config", _write_config(job_dir / "scatter.json", cfg),
                "--out", str(out), "--seed", str(job_seed)]
        omegas = np.linspace(0.05, 5.0, size.n_omega)
        picked = np.sort(rng.choice(size.n_omega, REFERENCE_OMEGAS, replace=False))
        prof = blend_profile(p_minus, p_plus, R=radius)
        T_ref = np.array([reference_transmission(prof, omegas[i]) for i in picked])

        def check(codes):
            _expect_exit_codes(codes, 1)
            rows = np.loadtxt(out / "scattering.csv", delimiter=",", skiprows=1, ndmin=2)
            _require(rows.shape == (omegas.size, 8), f"scattering.csv has shape {rows.shape}")
            _require(np.allclose(rows[:, 0], omegas, rtol=1e-12, atol=0.0),
                     "scattering.csv omega column differs from the configured grid")
            T, R1, R2 = (rows[:, k] + 1j * rows[:, k + 1] for k in (1, 3, 5))
            S = np.empty((omegas.size, 2, 2), dtype=complex)
            S[:, 0, 0] = S[:, 1, 1] = T
            S[:, 0, 1], S[:, 1, 0] = R1, R2
            G = np.einsum("nji,njk->nik", S.conj(), S)
            defect = float(np.max(np.abs(G - np.eye(2))))
            _require(defect < UNITARITY_TOL, f"unitarity defect {defect:.3e}")
            dev = float(np.max(np.abs(T[picked] - T_ref)))
            _require(dev <= TRANSMISSION_TOL, f"T deviates {dev:.3e} from the reference solver")
            return {"schrodinger.unitarity_defect": defect, "schrodinger.transmission_dev": dev}

        return Job([argv], [out], check)


# -- step-kernel --------------------------------------------------------------


@dataclass(frozen=True)
class KernelSize:
    grid_points: int


class StepKernel:
    """``varband kernel``, toy model, step profile with its jump at 0.

    Chosen because the kernel-matrix contraction over the default
    Gauss-Legendre rule (720 nodes on Lambda = [0, 2]) takes most of the job
    and the CSV table written by `cli` most of the rest; `sturm` and
    `schrodinger` are not used. Node count and contraction changes show here.
    """

    name = "step-kernel"
    sizes = {"full": KernelSize(401), "tiny": KernelSize(41)}
    omega_max = 2.0

    def make(self, job_dir, job_seed, size):
        rng = np.random.default_rng(job_seed)
        p_minus = float(rng.uniform(1.0, 2.0))
        p_plus = float(rng.uniform(3.0, 5.0))
        cfg = {
            "model": "toy",
            "profile": {"kind": "piecewise", "breakpoints": [0.0], "values": [p_minus, p_plus]},
            "spectral_set": [[0.0, self.omega_max]],
            "grid": {"lo": -10.0, "hi": 10.0, "n": size.grid_points},
        }
        out = job_dir / "out"
        argv = ["kernel", "--config", _write_config(job_dir / "kernel.json", cfg),
                "--out", str(out), "--seed", str(job_seed)]

        def check(codes):
            _expect_exit_codes(codes, 1)
            path = out / "kernel_grid.csv"
            with open(path) as fh:
                ys = np.array([float(v) for v in fh.readline().strip().split(",")[1:]])
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            n = size.grid_points
            _require(table.shape == (n, n + 1), f"kernel_grid.csv has shape {table.shape}")
            xs = table[:, 0]
            ref = toy_kernel(p_minus, p_plus, self.omega_max, xs[:, None], ys[None, :])
            dev = float(np.max(np.abs(table[:, 1:] - ref)))
            _require(dev <= KERNEL_TOL, f"kernel deviation {dev:.3e} from the closed form")
            return {"kernel.closed_form_dev": dev}

        return Job([argv], [out], check)


# -- sampling-study -----------------------------------------------------------


@dataclass(frozen=True)
class StudySize:
    plateaus: int  # density profile
    density_points: int
    nodes: int  # reconstruct quadrature nodes
    samples: int  # odd: the middle sample sits on the jump at 0
    iterations: int


class SamplingStudy:
    """``varband density`` on a many-plateau profile, then ``varband reconstruct``.

    Chosen because it reaches `kernel` through cell integrals and `phi` at the
    samples rather than kernel tables, and `profile` through piecewise warps
    of whole point arrays rather than smooth scalar calls. Its window-matched
    uniform quadrature does not depend on the Gauss-Legendre sizing.
    """

    name = "sampling-study"
    sizes = {"full": StudySize(41, 5600, 675, 2251, 40),
             "tiny": StudySize(5, 400, 40, 135, 10)}
    omega_max = 1.0
    jitter = 0.15  # of the mean warped spacing; keeps the max-gap gamma near 0.78
    output_points = 801

    def make(self, job_dir, job_seed, size):
        rng = np.random.default_rng(job_seed)
        out_density, out_rec = job_dir / "density", job_dir / "reconstruct"
        density_cfg = self._density_config(rng, size)
        rec_cfg, samples, truth_at, kdiag = self._reconstruct_inputs(rng, size)
        samples_path = job_dir / "samples.csv"
        samples_to_csv(samples_path, *samples)
        calls = [
            ["density", "--config", _write_config(job_dir / "density.json", density_cfg),
             "--out", str(out_density), "--seed", str(job_seed)],
            ["reconstruct", "--config", _write_config(job_dir / "reconstruct.json", rec_cfg),
             "--samples", str(samples_path), "--out", str(out_rec), "--seed", str(job_seed)],
        ]
        xs_out = np.linspace(*rec_cfg["window"], self.output_points)

        def check(codes):
            _expect_exit_codes(codes, 2)
            _require(_read_json(out_density / "report.json")["gap_bound_holds"] is True,
                     "density gap bound does not hold")
            rep = _read_json(out_rec / "reconstruction_report.json")
            _require(rep["gap_condition_passes"] is True, "reconstruct gap condition fails")
            _require(rep["n_iterations"] == size.iterations,
                     f"{rep['n_iterations']} iterations, expected {size.iterations}")
            rows = np.loadtxt(out_rec / "reconstruction.csv", delimiter=",", skiprows=1, ndmin=2)
            _require(rows.shape == (xs_out.size, 3), f"reconstruction.csv has shape {rows.shape}")
            _require(np.allclose(rows[:, 0], xs_out, rtol=1e-12, atol=1e-9),
                     "reconstruction.csv abscissae differ from the configured window")
            err = np.abs(rows[:, 1] + 1j * rows[:, 2] - truth_at)
            # |e(x)| <= ||e|| sqrt(k(x, x)), so this lower-bounds the norm error
            err_norm_lb = float(np.max(err / np.sqrt(kdiag)))
            margin = err_norm_lb - float(rep["certified_bounds"][-1])
            _require(margin <= 0.0, f"reconstruction error exceeds its certificate by {margin:.3e}")
            return {"sampling.iterations": rep["n_iterations"], "sampling.cert_margin": margin}

        return Job(calls, [out_density, out_rec], check)

    def _density_config(self, rng, size):
        values = rng.uniform(0.5, 4.0, size.plateaus)
        # 2 * half_z * density = points + 1/2 pins the quasi-uniform point count
        half_z = 0.5 * (size.density_points + 0.5)
        span = 0.6 * half_z  # inside the window even where every plateau is 0.5
        bps = np.linspace(-span, span, size.plateaus - 1)
        bps += rng.uniform(-0.2, 0.2, bps.size) * (bps[1] - bps[0])
        prof = PiecewiseConstantProfile(bps, values)
        window = [float(prof.zeta_inv(-half_z)), float(prof.zeta_inv(half_z))]
        return {
            "profile": {"kind": "piecewise", "breakpoints": bps.tolist(), "values": values.tolist()},
            "window": window,
            "target_density": 1.0,
            "r_values": [5.0, 10.0, 20.0],
        }

    def _reconstruct_inputs(self, rng, size):
        p_minus = float(rng.uniform(0.8, 1.25))
        p_plus = float(rng.uniform(2.5, 4.0))
        sm, sp = np.sqrt(p_minus), np.sqrt(p_plus)
        u = np.sqrt(self.omega_max)
        # warped half-width with sqrt(Omega) W / pi = nodes + 1/2
        half_z = (size.nodes + 0.5) * np.pi / u
        window = [-half_z * sm, half_z * sp]
        sset = SpectralSet([(0.0, self.omega_max)])
        model = ToyModel(p_minus, p_plus, sset, quad=uniform_quadrature(sset, np.pi / half_z))
        truth = random_smooth_function(model, rng=rng)
        spacing = 2 * half_z / (size.samples + 1)
        k = np.arange(size.samples) - (size.samples - 1) // 2
        z = (k + rng.uniform(-self.jitter, self.jitter, size.samples)) * spacing
        z[k == 0] = 0.0
        x = np.where(z < 0, z * sm, z * sp)
        xs_out = np.linspace(*window, self.output_points)
        cfg = {
            "model": "toy",
            "profile": {"kind": "piecewise", "breakpoints": [0.0], "values": [p_minus, p_plus]},
            "spectral_set": [[0.0, self.omega_max]],
            "window": window,
            "n_max": size.iterations,
            "output_points": self.output_points,
        }
        kdiag = np.asarray(model.kernel_pairs(xs_out, xs_out)).real
        return cfg, (x, _synthesize(truth, x)), _synthesize(truth, xs_out), kdiag


WORKLOADS = {w.name: w for w in (SmoothScatter(), StepKernel(), SamplingStudy())}
