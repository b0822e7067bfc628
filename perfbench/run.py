"""esdlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --workload W --single-thread     (informational)
    python3 perfbench/run.py --workload W --ambient-blas      (informational)
    python3 perfbench/run.py --workload W --record-reference  (maintenance)

Run from anywhere; the checkout is the directory above this file.  Each
metric is printed with its unit and sample count; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced run.  Workloads and metrics are
described in README.md.

All work happens in child processes (worker.py).  They run with BLAS
pinned to one thread (PINNED_BLAS_ENV), so that no workload runs more
threads than its trial threads: on a small shared host, multithreaded
BLAS made whole invocations run fast or slow together and the gated
metrics too noisy for their bounds.  The ambient thread settings are
recorded in the result's environment fingerprint.  A change that sets
the BLAS thread count at run time still measures its own effect, since
that overrides the environment.  --single-thread also runs trials on one
thread; --ambient-blas leaves the BLAS environment as found.  Both are
ungated references.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEADLINE_S = 170.0
SETUP_PROBES = 16  # half before the timed runs, half after
PINNED_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORK_DIR = os.path.join(HERE, ".work")
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = {
    "run_s": "s",
    "work_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "rng.words": "count",
    "rng.busy_s": "s",
    "ensembles.draw_s": "s",
    "ensembles.assemble_s": "s",
    "numerics.eig_calls": "count",
    "numerics.eig_s": "s",
    "numerics.svd_calls": "count",
    "numerics.svd_complex_calls": "count",
    "numerics.svd_s": "s",
    "numerics.gflop": "Gflop",
    "numerics.gflop_per_s": "Gflop/s",
    "measures.self_s": "s",
    "hermitization.shifts": "count",
    "hermitization.svd_per_shift": "ratio",
    "hermitization.self_s": "s",
    "limits.solves": "count",
    "limits.iterations": "count",
    "limits.iters_per_solve": "ratio",
    "limits.solve_s": "s",
    "harness.emit_s": "s",
    "harness.emit_bytes": "bytes",
    "harness.other_s": "s",
    "harness.cpu_per_wall": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def _child(args, timeout, env):
    """Run a child python on ``args`` and wait for it; its chatter goes to stderr."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                          timeout=max(timeout, 1.0), text=True, check=False)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return proc.stdout


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("benchmark ran out of time")
    return left


def setup_times(workload, seed, deadline, env, count, warm):
    """Import-and-parse times of ``count`` fresh processes; with ``warm``,
    one unrecorded probe first (it may compile bytecode)."""
    times = []
    for i in range(count + warm):
        out = _child(["setup", ROOT, workload, str(seed)], _remaining(deadline), env)
        if i >= warm:
            times.append(float(out.strip().splitlines()[-1]))
    return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(workload, seed, seconds, trace, tiny=False, single_thread=False,
            ambient_blas=False):
    """Run one benchmark measurement; returns the printed report as a dict.
    Set-up is probed before and after the timed runs, so that its median
    spans the same stretch of time as theirs."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    work_dir = os.path.join(WORK_DIR, tag)
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ)
    if not ambient_blas:
        env.update(PINNED_BLAS_ENV)
    probes = 0 if trace else SETUP_PROBES
    try:
        setup = setup_times(workload, seed, deadline, env, probes // 2, int(probes > 0))
        req = {"root": ROOT, "workload": workload, "seed": seed, "seconds": seconds,
               "trace": bool(trace), "tiny": tiny, "work_dir": work_dir,
               "threads": 1 if single_thread else None,
               "ambient_env": {k: os.environ.get(k) for k in PINNED_BLAS_ENV},
               "spans_path": os.path.join(OUT_DIR, f"spans_{workload}_seed{seed}.json")
               if trace else None}
        req_path = os.path.join(work_dir, "request.json")
        res_path = os.path.join(work_dir, "result.json")
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump(req, fh)
        _child(["measure", req_path, res_path], _remaining(deadline), env)
        with open(res_path, encoding="utf-8") as fh:
            res = json.load(fh)
        setup += setup_times(workload, seed, deadline, env, probes - probes // 2, 0)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return summarize(res, setup, trace)


def summarize(res, setup, trace):
    reps = res["reps"]
    attempted = len(reps)
    failed = sum(1 for r in reps if not r["ok"])
    untraced = [r for r in reps if r["phase"] == "timed" and "wall_s" in r]
    traced = [r for r in reps if r["phase"] == "traced" and "layers" in r]
    if not untraced or (trace and not traced):
        raise BenchError("no run of the workload completed: " + "; ".join(res["problems"]))
    walls = [r["wall_s"] for r in untraced]
    if trace:
        samples = {name: [r["layers"][name] for r in traced]
                   for name in PER_LAYER if name in traced[0]["layers"]}
        samples["harness.cpu_per_wall"] = [r["cpu_s"] / r["wall_s"] for r in untraced]
        samples["trace.overhead_s"] = [statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(walls)]
    else:
        samples = {"run_s": walls,
                   "work_per_s": [res["work_units"] / w for w in walls],
                   "cpu_s": [r["cpu_s"] for r in untraced],
                   "peak_rss_mb": [res["peak_rss_mb"]],
                   "setup_s": setup}
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(statistics.median(samples[name])), "unit": units[name]}
               for name in units}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "samples": samples, "env": res["env"],
            "problems": res["problems"],
            "reference_bytes_changed": res["reference_bytes_changed"],
            "work_units": res["work_units"]}


def print_report(workload, seed, trace, report):
    print(f"# esdlab benchmark: workload {workload}, seed {seed}, trace {trace}")
    print("# env " + json.dumps(report["env"], sort_keys=True))
    print(f"# work per run: {report['work_units']} {workloads.WORK_UNITS[workload]}")
    for name, m in report["metrics"].items():
        values = report["samples"][name]
        q1, q3 = quartiles(values)
        print(f"{name:28s} {m['value']:.6g} {m['unit']:8s} median of {len(values)} "
              f"(q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"{'fail_frac':28s} {report['failed'] / report['attempted']:.6g} ratio    "
          f"{report['failed']} of {report['attempted']} runs failed")
    for problem in report["problems"]:
        print(f"# FAILED {problem}")
    if report["reference_bytes_changed"]:
        print("# artifact bytes differ from the reference: "
              + ", ".join(report["reference_bytes_changed"]))
    detail = {k: report[k] for k in ("env", "samples", "problems",
                                     "reference_bytes_changed", "work_units")}
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))


def self_check():
    """Tiny runs of every workload, untraced and traced: every metric in
    BENCHMARK.json is reported with its unit, and tracing leaves every
    artifact byte unchanged (a traced run that differs is a failed run)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in workloads.CONFIGS:
        for trace in (0, 1):
            report = measure(workload, workloads.DEFAULT_SEED, 1, trace, tiny=True)
            got = {k: m["unit"] for k, m in report["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{workload} trace {trace}: metrics {got} != {declared[trace]}")
            bad = [k for k, m in report["metrics"].items() if not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{workload} trace {trace}: non-finite {bad}")
            if report["failed"]:
                problems.append(f"{workload} trace {trace}: {report['problems']}")
            print(f"self-check {workload} trace {trace}: {len(got)} metrics, "
                  f"{report['failed']} of {report['attempted']} runs failed")
    for p in problems:
        print(f"self-check FAILED {p}")
    return 1 if problems else 0


def record_reference(workload):
    work_dir = os.path.join(WORK_DIR, f"record-{workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        req_path = os.path.join(work_dir, "request.json")
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump({"root": ROOT, "workload": workload, "seed": workloads.REFERENCE_SEED,
                       "tiny": False, "work_dir": work_dir, "record_reference": True}, fh)
        _child(["measure", req_path, ""], DEADLINE_S, {**os.environ, **PINNED_BLAS_ENV})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="master_seed of the measured runs")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-check", action="store_true")
    mode.add_argument("--single-thread", action="store_true")
    mode.add_argument("--ambient-blas", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "esdlab", "__init__.py")):
        print(f"no esdlab source under {ROOT}/src", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        if args.record_reference:
            record_reference(args.workload)
            return 0
        report = measure(args.workload, args.seed, args.seconds, args.trace,
                         single_thread=args.single_thread, ambient_blas=args.ambient_blas)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_report(args.workload, args.seed, args.trace, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
