"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workloads circular_t2,ds_mp --seeds 1-10 \
        [--seconds 30] [--trace 0|1] [--single-thread | --ambient-blas] [--out FILE] \
        [--label TEXT]

Runs go seed by seed, every workload in turn, so a slow spell on the
machine spreads over all workloads.  For each workload and metric it
prints the median of the per-run values, their quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median, flagged when it exceeds a third of the metric's
bound in BENCHMARK.json.  --out writes every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload, seed, seconds, trace, mode):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if mode:
        cmd.append(mode)
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False, timeout=600)
    wall = time.monotonic() - started
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "exit": proc.returncode, "wall_s": wall}
    detail = next(json.loads(line[len("# detail "):]) for line in lines
                  if line.startswith("# detail "))
    return {"workload": workload, "seed": seed, "exit": proc.returncode, "wall_s": wall,
            "result": json.loads(lines[-1]), "env": detail["env"],
            "samples": detail["samples"], "problems": detail["problems"],
            "reference_bytes_changed": detail["reference_bytes_changed"]}


def summarize(runs, bounds):
    summary = {}
    for run in runs:
        if "result" not in run:
            continue
        per = summary.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            per.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for per in summary.values():
        for name, s in per.items():
            values = s["values"]
            s["median"] = statistics.median(values)
            s["q1"], _, s["q3"] = statistics.quantiles(values, n=4) if len(values) > 1 \
                else (values[0],) * 3
            s["spread"] = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            if name in bounds:
                s["bound"] = bounds[name]
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--single-thread", action="store_true")
    mode.add_argument("--ambient-blas", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    workloads = args.workloads.split(",")
    mode = "--single-thread" if args.single_thread else \
        "--ambient-blas" if args.ambient_blas else None
    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            run = one_run(workload, seed, args.seconds, args.trace, mode)
            runs.append(run)
            result = run.get("result", {})
            print(f"{workload} seed {seed}: exit {run['exit']}, "
                  f"{result.get('failed', '?')} of {result.get('attempted', '?')} failed, "
                  f"{run['wall_s']:.1f} s", flush=True)
    summary = summarize(runs, bounds)
    for workload, per in summary.items():
        for name, s in per.items():
            flag = " OVER bound/3" if "bound" in s and s["spread"] > s["bound"] / 3 else ""
            print(f"{workload:13s} {name:28s} median {s['median']:.6g} {s['unit']} "
                  f"spread {s['spread']:.4f}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"label": args.label, "seconds": args.seconds, "trace": args.trace,
                       "mode": mode,
                       "env": next((r["env"] for r in runs if "env" in r), None),
                       "runs": [{k: v for k, v in r.items() if k != "env"} for r in runs],
                       "summary": summary}, fh, indent=1)
            fh.write("\n")
    return 0 if all(r.get("result", {}).get("correct") for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
