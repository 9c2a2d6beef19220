"""Smoke test of the benchmark itself: every workload at its tiny size.

    python3 bench/selftest.py

For each workload, runs the traced loop twice with the same seed (one
untraced and one traced job each time) and checks that every job passes its
output check, that the per-layer metrics reported are the ones BENCHMARK.json
names, that the work counts of the two traced jobs are exactly equal, and
that `sturm` and `schrodinger` read zero where the workload does not use
them. `sampling.iterations` is not among the repeated counts: the workload
check already fails any job that stops short of its configured count.
Exits 1 on any failure.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

SEED = 7
EXACT_COUNTS = ("profile.calls", "spectral.nodes", "kernel.matrix_macs", "cli.csv_bytes")
UNUSED_LAYER_METRICS = ("sturm.calls", "sturm.self_s", "schrodinger.self_s",
                        "schrodinger.unitarity_defect", "schrodinger.transmission_dev")


def traced_pass(cli, workload, tracer, tmp):
    records = run.run_workload(cli, workload, SEED, 0.0, True, workload.sizes["tiny"],
                               tmp, tracer)
    return records, run.layer_metrics(records)


def main():
    cli = run.import_varband()
    from workloads import WORKLOADS  # imports varband, so only after import_varband

    tracer = run.Tracer()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(name, ok, detail=""):
        print("PASS" if ok else "FAIL", name, "" if ok else detail)
        if not ok:
            failures.append(name)

    check("end-to-end metrics as BENCHMARK.json names them",
          run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in spec["end_to_end"]},
          str(run.END_TO_END_UNITS))
    scratch = run.BENCH_DIR / ".tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        for name, workload in WORKLOADS.items():
            (records_a, metrics_a), (records_b, metrics_b) = (
                traced_pass(cli, workload, tracer, tmp) for _ in range(2))
            errors = [r.error for r in records_a + records_b if r.error]
            check(f"{name}: outputs within tolerance", not errors, "".join(errors))
            check(f"{name}: per-layer metrics as BENCHMARK.json names them",
                  {k: run.LAYER_UNITS[k] for k in metrics_a}
                  == {m["name"]: m["unit"] for m in spec["per_layer"]}, sorted(metrics_a))
            differing = {k: (metrics_a[k], metrics_b[k]) for k in EXACT_COUNTS
                         if metrics_a[k] != metrics_b[k]}
            check(f"{name}: counts repeat exactly", not differing, str(differing))
            if name != "smooth-scatter":
                nonzero = {k: metrics_a[k] for k in UNUSED_LAYER_METRICS if metrics_a[k] != 0}
                check(f"{name}: sturm and schrodinger read zero", not nonzero, str(nonzero))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
