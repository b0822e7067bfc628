"""Child process of the benchmark.  run.py starts it; it is not a CLI.

    worker.py setup   ROOT WORKLOAD SEED   time importing esdlab and parsing
                                           the config; prints the seconds
    worker.py measure REQUEST RESULT       run the workload repeatedly as the
                                           JSON request says; write RESULT

esdlab is imported from ROOT/src, the checkout under test, never from an
installed copy.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback

import workloads

# Reference tables are compared cell by cell: integers and labels exactly,
# other numbers to |a - b| <= ATOL + RTOL |reference|.
RTOL = 1e-6
ATOL = 1e-9
CHECKED_TABLES = ("trials.csv", "field.csv", "ds.csv")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def use_checkout(root):
    """Put ROOT/src first on the path and refuse any other esdlab."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import esdlab

    if os.path.dirname(os.path.dirname(os.path.abspath(esdlab.__file__))) != src:
        raise RuntimeError(f"esdlab imported from {esdlab.__file__}, not from {src}")


def setup_probe(root, workload, seed):
    started = time.perf_counter()
    use_checkout(root)
    from esdlab.harness import config_from_dict

    config_from_dict(workloads.config(workload, seed))
    print(time.perf_counter() - started)


def _openblas_threads():
    """Threads the loaded OpenBLAS will use (read only), or None."""
    import ctypes

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def fingerprint(ambient_env):
    """What environment made these numbers and bytes.  ``ambient_env`` is
    the thread settings the benchmark was started with; the child's own
    settings and the threads OpenBLAS actually uses are recorded beside them."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": ambient_env.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": ambient_env.get("OMP_NUM_THREADS"),
        "child_OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "child_OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _cells_match(got, want):
    if got == want:
        return True
    if want.lstrip("-").isdigit():
        return False
    try:
        x, y = float(got), float(want)
    except ValueError:
        return False
    return abs(x - y) <= ATOL + RTOL * abs(y)


def compare_reference(out_dir, reference):
    """(problems, changed_artifacts) of a reference-seed run against the
    committed reference: values out of tolerance are problems; artifacts
    whose bytes differ are only reported."""
    problems = []
    for name, want_lines in reference["tables"].items():
        path = os.path.join(out_dir, name)
        got_lines = _read_lines(path) if os.path.exists(path) else []
        if len(got_lines) != len(want_lines):
            problems.append(f"{name}: {len(got_lines)} lines, reference has {len(want_lines)}")
            continue
        for lineno, (got, want) in enumerate(zip(got_lines, want_lines), 1):
            g, w = got.split(","), want.split(",")
            if len(g) != len(w) or not all(map(_cells_match, g, w)):
                problems.append(f"{name}:{lineno}: {got!r} outside tolerance of {want!r}")
                break
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        hashes = json.load(fh)["artifacts"]
    changed = sorted(k for k in set(hashes) | set(reference["hashes"])
                     if hashes.get(k) != reference["hashes"].get(k))
    return problems, changed


def _reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


class Session:
    """Repeated runs of one workload in this process, with their checks."""

    def __init__(self, req):
        from esdlab.harness import config_from_dict, run_experiment

        self.req = req
        self.parse = config_from_dict
        self.run_experiment = run_experiment
        self.expected = None if req["tiny"] else workloads.expected_gates(req["workload"])
        self.reps = []
        self.problems = []
        self.changed = []
        self.manifests = {}  # master seed -> manifest bytes of its first run

    def raw(self, seed):
        raw = workloads.config(self.req["workload"], seed, tiny=self.req["tiny"])
        if self.req.get("threads") is not None:
            raw["threads"] = self.req["threads"]
        return raw

    def rep(self, phase, seed, tracer=None):
        """One checked run of the workload, appended to ``self.reps``."""
        raw = self.raw(seed)
        out_dir = os.path.join(self.req["work_dir"], f"seed{seed}")
        record = {"phase": phase, "seed": seed, "ok": False}
        self.reps.append(record)
        try:
            cfg = self.parse(raw)
            cpu0, wall0 = _cpu_seconds(), time.perf_counter()
            with contextlib.redirect_stdout(sys.stderr):
                if tracer is None:
                    result = self.run_experiment(cfg, out_dir)
                else:
                    result, spans, rhs_calls = tracer.run(self.run_experiment, cfg, out_dir)
            record["wall_s"] = time.perf_counter() - wall0
            record["cpu_s"] = _cpu_seconds() - cpu0
            if tracer is not None:
                from tracing import layer_metrics

                record["layers"] = layer_metrics(spans, rhs_calls)
                record["spans"] = spans
        except Exception:  # a failed run is counted, and the run goes on
            traceback.print_exc()
            self.problems.append(f"{phase} run at seed {seed} raised")
            return
        problems = self._check(raw, out_dir, {g.name: bool(g.passed) for g in result.gates})
        self.problems.extend(f"{phase} run at seed {seed}: {p}" for p in problems)
        record["ok"] = not problems

    def _check(self, raw, out_dir, gates):
        problems = []
        if self.expected is not None and gates != self.expected:
            wrong = sorted(set(gates.items()) ^ set(self.expected.items()))
            problems.append(f"gate pattern differs: {wrong}")
        with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
            manifest = fh.read()
        first = self.manifests.setdefault(raw["master_seed"], manifest)
        if manifest != first:
            problems.append("artifacts differ from the first run of the same config")
        if raw["master_seed"] == workloads.REFERENCE_SEED and not self.req["tiny"]:
            with open(_reference_path(self.req["workload"]), encoding="utf-8") as fh:
                reference = json.load(fh)
            value_problems, changed = compare_reference(out_dir, reference)
            problems.extend(value_problems)
            self.changed = changed
        return problems

    def timed(self, phase, until, min_reps, tracer=None):
        """Repeat runs at the request's seed until ``until`` (perf_counter)."""
        done = 0
        while done < min_reps or time.perf_counter() < until:
            self.rep(phase, self.req["seed"], tracer)
            done += 1


def record_reference(req):
    """Run the workload at the reference seed and write its reference file."""
    session = Session(req)
    raw = session.raw(workloads.REFERENCE_SEED)
    out_dir = os.path.join(req["work_dir"], "reference")
    result = session.run_experiment(session.parse(raw), out_dir)
    gates = {g.name: bool(g.passed) for g in result.gates}
    if gates != session.expected:
        raise RuntimeError(f"gate pattern at the reference seed is {gates}")
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        hashes = json.load(fh)["artifacts"]
    tables = {name: _read_lines(os.path.join(out_dir, name))
              for name in CHECKED_TABLES if os.path.exists(os.path.join(out_dir, name))}
    reference = {"workload": req["workload"], "master_seed": workloads.REFERENCE_SEED,
                 "config": raw, "rtol": RTOL, "atol": ATOL, "hashes": hashes,
                 "tables": tables}
    with open(_reference_path(req["workload"]), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


def measure(req):
    """Warm-up run at the reference seed, then timed runs at the request's
    seed; with tracing, the second half of the time is traced runs."""
    session = Session(req)
    warmup_seed = req["seed"] if req["tiny"] else workloads.REFERENCE_SEED
    session.rep("reference", warmup_seed)
    begin = time.perf_counter()
    if req["trace"]:
        from tracing import Tracer

        session.timed("timed", begin + req["seconds"] / 2.0, 1)
        tracer = Tracer()
        tracer.install()
        try:
            session.timed("traced", begin + req["seconds"], 1, tracer)
        finally:
            tracer.uninstall()
    else:
        session.timed("timed", begin + req["seconds"], 3)
    if req.get("spans_path"):
        from tracing import spans_to_json

        traced = [spans_to_json(r.pop("spans")) for r in session.reps if "spans" in r]
        with open(req["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"workload": req["workload"], "seed": req["seed"], "runs": traced}, fh)
    for r in session.reps:
        r.pop("spans", None)
    return {
        "env": fingerprint(req["ambient_env"]),
        "reps": session.reps,
        "problems": session.problems,
        "reference_bytes_changed": session.changed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_units": workloads.work_units(session.raw(req["seed"])),
    }


def main(argv):
    if argv[0] == "setup":
        setup_probe(argv[1], argv[2], int(argv[3]))
        return 0
    with open(argv[1], encoding="utf-8") as fh:
        req = json.load(fh)
    use_checkout(req["root"])
    if req.get("record_reference"):
        record_reference(req)
        return 0
    result = measure(req)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
