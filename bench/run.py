"""varband benchmark: seeded closed-loop CLI jobs, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. A run
measures for ``S`` seconds: the set-up samples first, then jobs. One client
in one process calls ``varband.cli.main(argv)`` in-process and waits for
each job before starting the next, as long as another round (inputs, job,
calibration), at the median round time so far, still fits. Inputs are generated from the seed before each
job's timer starts (see ``workloads.py``) and every job's output is checked
against the acceptance suite's pinned tolerance; a job that raises, exits
nonzero or misses its tolerance counts as failed.

``--trace 0`` reports the end-to-end metrics:

- ``job_ref_s``: median job time at reference speed. Each job's CPU seconds
  (user + system; BLAS is pinned to one thread and the client is
  single-threaded, so on an idle machine this is its wall time) are scaled
  by ``CAL_REF_S`` over the CPU seconds of `calibrate`, a fixed computation
  that does not use varband, run just before and just after the job;
- ``setup_s``: median set-up time at reference speed: the CPU seconds of a
  fresh interpreter running ``import varband.cli``, scaled the same way,
  over several processes after one discarded cold one;
- ``peak_rss_mb``: peak resident memory of this process.

On a shared virtual machine the speed of the host drifts by up to 1.7x
over seconds to minutes: ten-run medians of wall time moved by up to 40%
between consecutive sets of runs of the same code, and CPU time, which
leaves out steal time, spread across runs as widely as wall time. Scaling
by the calibration cancels most of that drift, so a change shows as a
change of the program and not of the host.

Three more figures are printed with them but are not JSON metrics: the
two wall times because the host's drift passes into them unscaled, and
``fail_frac`` because the JSON object carries it as counts:

- ``job_s``: median wall seconds per job;
- ``job_s.tail``: the highest order statistic of wall time with at least
  ten jobs beyond it, but never below the 90th percentile (runs of fewer
  than 100 jobs have fewer than ten beyond it; the line says how many);
- ``fail_frac``: failed over attempted jobs, ``failed`` out of
  ``attempted`` in the JSON object. It reads zero at a correct commit.

``--trace 1`` alternates untraced and traced jobs and reports per-layer
metrics from the traced ones (see ``tracer.py``), with the tracing overhead
as traced minus untraced median job time at reference speed.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # must precede the first numpy import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # warm fresh interpreters timed per run
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail
CAL_REF_S = 0.45  # CPU seconds of calibrate() at reference speed
END_TO_END_UNITS = {"job_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "profile.calls": "count", "profile.points": "count", "sturm.calls": "count",
    "spectral.nodes": "count", "kernel.matrix_macs": "count", "kernel.phi_values": "count",
    "sampling.iterations": "count", "cli.csv_bytes": "B",
    "schrodinger.unitarity_defect": "1", "schrodinger.transmission_dev": "1",
    "kernel.closed_form_dev": "1", "sampling.cert_margin": "1", "trace.overhead_s": "s",
}
ACCURACY = ("schrodinger.unitarity_defect", "schrodinger.transmission_dev",
            "kernel.closed_form_dev", "sampling.cert_margin")


def import_varband():
    """Import varband from this checkout's ``src/``, or exit with an error."""
    if not (SRC / "varband" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'varband'} not found; run from a varband checkout")
    sys.path.insert(0, str(SRC))
    import varband.cli

    if Path(varband.__file__).resolve().parent != (SRC / "varband").resolve():
        sys.exit(f"error: imported varband from {varband.__file__}, not {SRC}")
    return varband.cli


_CAL_A = np.random.default_rng(0).standard_normal((300, 300)) * (1 + 1j)
_CAL_B = _CAL_A.T.copy()


def calibrate():
    """CPU seconds of a fixed computation that does not use varband.

    A loop of scalar numpy calls (interpreter-bound, like the scalar
    potential evaluations of smooth-scatter) and unoptimised complex einsum
    contractions (like the kernel and sampling contractions), weighted 1:2 in
    time: among the mixes tried for 150 s per workload, the one whose ratio
    to job time drifted least over all three workloads together. It took
    0.40-0.46 s on a quiet 2-vCPU 2.1 GHz Xeon virtual machine, about
    CAL_REF_S.
    """
    start, half = time.process_time(), np.float64(0.5)
    acc = 0.0
    for i in range(300_000):
        acc += float(np.sqrt(half + i))
    for _ in range(4):
        np.einsum("ij,jk->ik", _CAL_A, _CAL_B)
    return time.process_time() - start


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(n):
    """(cold, warm samples): (wall, CPU, reference-speed) seconds of fresh
    interpreters importing varband.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import varband.cli"
    samples, cal = [], calibrate()
    for _ in range(n + 1):
        start, cpu = time.perf_counter(), _children_cpu()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        wall, cpu = time.perf_counter() - start, _children_cpu() - cpu
        cal_after = calibrate()
        samples.append((wall, cpu, cpu * 2 * CAL_REF_S / (cal + cal_after)))
        cal = cal_after
    return samples[0], samples[1:]


def tail(samples):
    """(value, samples beyond it) of the highest order statistic with
    TAIL_BEYOND samples beyond it, but never below the 90th percentile."""
    xs = sorted(samples)
    rank = max(len(xs) - TAIL_BEYOND, math.ceil(0.9 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def _cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def run_header(args, setup):
    import numpy
    import scipy
    import varband

    lines = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "varband": varband.__version__, "git": _git_sha(),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "processes": 1, **_cache_sizes(),
    }
    if setup is not None:
        cold, warm = setup
        lines["setup_cold_discarded_wall_cpu_ref_s"] = [round(t, 4) for t in cold]
        for k, kind in enumerate(("wall", "cpu", "ref")):
            lines[f"setup_warm_{kind}_s"] = [round(sample[k], 4) for sample in warm]
    for key, value in lines.items():
        print(f"# {key}: {value}")


@dataclass
class JobRecord:
    seconds: float  # wall
    cpu_seconds: float
    traced: bool
    error: str | None  # traceback of a raise or a failed check
    figures: dict  # accuracy figures returned by the check
    layers: dict | None  # per-layer metrics of a traced job
    csv_bytes: int
    ref_seconds: float | None = None  # CPU seconds at reference speed, set by run_workload


def run_job(cli, job, tracer=None):
    codes, error = [], None
    if tracer is not None:
        tracer.reset()
    gc.collect()
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        start, cpu = time.perf_counter(), time.process_time()
        try:
            for argv in job.calls:
                codes.append(cli.main(argv))
        except Exception:  # a raising job is a failed job; keep measuring
            error = traceback.format_exc(limit=4)
        seconds, cpu_seconds = time.perf_counter() - start, time.process_time() - cpu
    figures = {}
    if error is None:
        try:
            figures = job.check(codes)
        except Exception:  # missing or malformed output fails the job
            error = traceback.format_exc(limit=2)
    csv_bytes = sum(p.stat().st_size for d in job.out_dirs if d.is_dir() for p in d.rglob("*.csv"))
    layers = None
    if tracer is not None:
        layers = {f"{layer}.self_s": t for layer, t in tracer.self_s.items()}
        layers.update(tracer.counts)
        layers["profile.calls"] = tracer.calls["profile"]
        layers["sturm.calls"] = tracer.calls["sturm"]
    return JobRecord(seconds, cpu_seconds, tracer is not None, error, figures, layers,
                     csv_bytes)


def run_workload(cli, workload, seed, budget, trace, size, tmp, tracer=None):
    """Closed loop: jobs one after another while the next one, taking the
    median round (inputs, job, calibration) so far, still fits into
    `budget` seconds.

    With `trace`, odd-numbered jobs run under the tracer.
    """
    records, rounds = [], []
    min_jobs = 2 if trace else 1
    start, cal = time.perf_counter(), calibrate()
    while len(records) < min_jobs or (time.perf_counter() - start
                                      + statistics.median(rounds) <= budget):
        i, round_start = len(records), time.perf_counter()
        job_dir = tmp / f"job{i}"
        job_dir.mkdir()
        job = workload.make(job_dir, seed + i, size)
        rec = run_job(cli, job, tracer if trace and i % 2 == 1 else None)
        if rec.error:
            print(f"# job {i} (seed {seed + i}) failed:\n{rec.error}", file=sys.stderr)
        shutil.rmtree(job_dir)
        cal_after = calibrate()
        rec.ref_seconds = rec.cpu_seconds * 2 * CAL_REF_S / (cal + cal_after)
        records.append(rec)
        rounds.append(time.perf_counter() - round_start)
        cal = cal_after
    return records


def end_to_end_metrics(records, setup_warm):
    return {
        "job_ref_s": statistics.median(r.ref_seconds for r in records),
        "setup_s": statistics.median(ref for _, _, ref in setup_warm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(records):
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    out = {key: statistics.median(r.layers[key] for r in traced) for key in traced[0].layers}
    out["cli.csv_bytes"] = statistics.median(r.csv_bytes for r in records)
    out["sampling.iterations"] = statistics.median(
        r.figures.get("sampling.iterations", 0) for r in records)
    for key in ACCURACY:  # worst job of the run; zero where the workload has no such output
        out[key] = max((r.figures[key] for r in records if key in r.figures), default=0.0)
    out["trace.overhead_s"] = (statistics.median(r.ref_seconds for r in traced)
                               - statistics.median(r.ref_seconds for r in untraced))
    return out


def print_summary(records, metrics, units):
    times = [r.seconds for r in records]
    untraced = [r.seconds for r in records if not r.traced]
    failed = sum(1 for r in records if r.error)
    tail_value, beyond = tail(untraced)
    level = 100.0 * (len(untraced) - beyond) / len(untraced)
    notes = {"job_ref_s": f"median of {len(times)} jobs"}
    for name, value in metrics.items():
        print(f"{name:30s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    print(f"{'job_s':30s} {statistics.median(untraced):14.6g} {'s':6s} wall, median of "
          f"{len(untraced)} untraced jobs")
    print(f"{'job_s.tail':30s} {tail_value:14.6g} {'s':6s} p{level:.1f} of {len(untraced)} "
          f"untraced jobs, {beyond} beyond it")
    print(f"{'fail_frac':30s} {failed / len(records):14.6g} {'1':6s} {failed} of {len(records)} jobs")
    print("# job wall/cpu/reference-speed seconds:", " ".join(
        f"{r.seconds:.4f}/{r.cpu_seconds:.4f}/{r.ref_seconds:.4f}{'T' if r.traced else ''}"
        for r in records))
    return failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli = import_varband()
    from workloads import WORKLOADS  # imports varband, so only after import_varband

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    # the run measures for --seconds: set-up samples first, then jobs
    start = time.perf_counter()
    setup = None if args.trace else measure_setup(SETUP_SAMPLES)
    budget = args.seconds - (time.perf_counter() - start)
    run_header(args, setup)
    tracer = Tracer() if args.trace else None
    scratch = BENCH_DIR / ".tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        # lazy imports and first-call costs are paid before the timed jobs
        warm_dir = tmp / "warmup"
        warm_dir.mkdir()
        warm = run_job(cli, workload.make(warm_dir, args.seed, workload.sizes["tiny"]))
        if warm.error:
            print(f"# warm-up job failed:\n{warm.error}", file=sys.stderr)
        shutil.rmtree(warm_dir)
        records = run_workload(cli, workload, args.seed, budget, args.trace,
                               workload.sizes["full"], tmp, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.trace:
        metrics, units = layer_metrics(records), LAYER_UNITS
    else:
        metrics, units = end_to_end_metrics(records, setup[1]), END_TO_END_UNITS
    failed = print_summary(records, metrics, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
