"""Span tracing of esdlab's layers from outside the program.

``Tracer.install`` rebinds the public names that the harness, measures
and hermitization modules import (``eigenvalues``, ``singular_values``,
``log_det_at``, ``solve_ds``, ...) plus ``RngStream.raw`` to wrappers
that record one span per call: id, name, layer, start, end, parent span
and thread.  ``esdlab.limits.ds_rhs`` is called about 130 times per
``solve_ds`` call, so it is only counted.  Spans stay in memory until
the benchmark writes them out at the end.

A span's self time is its duration minus that of its child spans.
Children run on the parent's thread; a span opened on a trial worker
thread has the run span as its parent.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "id name layer start end parent thread info")

# Operation counts from Golub & Van Loan, "Matrix Computations", table of
# dense decompositions: eigenvalues only of a real nonsymmetric n x n
# matrix ~10 n^3; singular values only of an m x n (m >= n) matrix
# ~4 m n^2 - 4 n^3 / 3.  Complex arithmetic costs about 4 real flops.
def _eig_flops(shape, is_complex):
    n = shape[0]
    return 10.0 * n ** 3 * (4.0 if is_complex else 1.0)


def _svd_flops(shape, is_complex):
    m, n = max(shape), min(shape)
    return (4.0 * m * n * n - 4.0 * n ** 3 / 3.0) * (4.0 if is_complex else 1.0)


def _matrix_info(args, result):
    a = args[0]
    return (tuple(a.shape), a.dtype.kind == "c")


def _words_info(args, result):
    return int(args[1])


def _path_bytes(args, result):
    return os.path.getsize(args[0])


def _result_bytes(args, result):
    return os.path.getsize(result)


def _targets():
    """(owner, attribute, layer, span name, info) for every traced boundary."""
    from esdlab import ensembles, hermitization, limits, measures
    from esdlab.harness import experiments as ex
    from esdlab.rng import RngStream

    out = [(RngStream, "raw", "rng", "rng.raw", _words_info),
           (ensembles, "sample_array", "ensembles", "ensembles.draw", None),
           (ex, "build_iid_matrix", "ensembles", "ensembles.draw", None),
           (ex, "build_base_matrix", "ensembles", "ensembles.assemble", None),
           (ex, "assemble", "ensembles", "ensembles.assemble", None)]
    for owner in (ex, measures):
        out.append((owner, "eigenvalues", "numerics", "numerics.eig", _matrix_info))
    for owner in (ex, measures, hermitization):
        out.append((owner, "singular_values", "numerics", "numerics.svd", _matrix_info))
    for name in ("esd_eigen", "radial_angular_ks", "second_moment", "bl_distance",
                 "dilation_esd", "ks_two_sample"):
        out.append((ex, name, "measures", f"measures.{name}", None))
    out.append((ex, "log_det_at", "hermitization", "hermitization.log_det_at", None))
    out.append((ex, "regularized_log_det", "hermitization",
                "hermitization.regularized_log_det", None))
    out.append((ex, "solve_ds", "limits", "limits.solve_ds", None))
    for name in ("invert_stieltjes", "mp_reference", "mp_density",
                 "circular_log_potential", "circular_radial_cdf"):
        out.append((ex, name, "limits", f"limits.{name}", None))
    out.append((ex, "scatter_svg", "harness", "harness.emit", None))
    for name in ("write_svg", "write_field_csv", "write_ds_csv", "write_trials_csv"):
        out.append((ex, name, "harness", "harness.emit", _path_bytes))
    out.append((ex, "write_manifest", "harness", "harness.emit", _result_bytes))
    return out


class Tracer:
    """Records spans of one or more traced runs of ``run_experiment``."""

    def __init__(self):
        self.spans = []
        self.rhs_calls = 0
        self.root = None  # id of the open run span, the parent of worker-thread spans
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer, name, info=None):
        """``fn`` with a span recorded around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            sid = next(self._ids)
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, layer, start, end, parent,
                                       threading.get_ident(),
                                       info(args, result) if ok and info else None))
        return traced

    def install(self):
        """Rebind every traced name; ``uninstall`` restores them."""
        from esdlab import limits

        for owner, attr, layer, name, info in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, name, info))
        original_rhs = limits.ds_rhs
        self._saved.append((limits, "ds_rhs", original_rhs))

        def counted_rhs(*args, **kwargs):
            # solve_ds runs on one thread, so the unlocked increment is exact
            self.rhs_calls += 1
            return original_rhs(*args, **kwargs)

        limits.ds_rhs = counted_rhs

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run(self, fn, *args):
        """Call ``fn(*args)`` inside a root span; return (result, spans, ds_rhs calls)."""
        self.spans = []
        self.rhs_calls = 0
        stack = self._stack()
        self.root = next(self._ids)
        stack.append(self.root)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(self.root, "harness.run", "harness", start, end, None,
                                   threading.get_ident(), None))
            self.root = None
        return result, self.spans, self.rhs_calls


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, rhs_calls):
    """Per-layer metrics of one traced run (see README.md for each)."""
    by_id = {s.id: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None and by_id[s.parent].thread == s.thread:
            child_time[s.parent] += s.end - s.start
    self_time = defaultdict(float)
    count = defaultdict(int)
    for s in spans:
        self_time[s.name] += s.end - s.start - child_time[s.id]
        count[s.name] += 1

    def layer_self(layer):
        return sum(s.end - s.start - child_time[s.id] for s in spans if s.layer == layer)

    def under_hermitization(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.layer == "hermitization":
                return True
        return False

    svd = [s for s in spans if s.name == "numerics.svd"]
    eig = [s for s in spans if s.name == "numerics.eig"]
    flops = sum(_eig_flops(*s.info) for s in eig) + sum(_svd_flops(*s.info) for s in svd)
    decompose_s = self_time["numerics.eig"] + self_time["numerics.svd"]
    shifts = count["hermitization.log_det_at"]
    solves = count["limits.solve_ds"]
    (root,) = [s for s in spans if s.name == "harness.run"]
    covered = _union_length([(s.start, s.end) for s in spans if s is not root])
    return {
        "rng.words": sum(s.info for s in spans if s.name == "rng.raw"),
        "rng.busy_s": self_time["rng.raw"],
        "ensembles.draw_s": self_time["ensembles.draw"],
        "ensembles.assemble_s": self_time["ensembles.assemble"],
        "numerics.eig_calls": len(eig),
        "numerics.eig_s": self_time["numerics.eig"],
        "numerics.svd_calls": len(svd),
        "numerics.svd_complex_calls": sum(1 for s in svd if s.info[1]),
        "numerics.svd_s": self_time["numerics.svd"],
        "numerics.gflop": flops / 1e9,
        "numerics.gflop_per_s": flops / 1e9 / decompose_s if decompose_s > 0 else 0.0,
        "measures.self_s": layer_self("measures"),
        "hermitization.shifts": shifts,
        "hermitization.svd_per_shift":
            sum(1 for s in svd if under_hermitization(s)) / shifts if shifts else 0.0,
        "hermitization.self_s": layer_self("hermitization"),
        "limits.solves": solves,
        "limits.iterations": rhs_calls,
        "limits.iters_per_solve": rhs_calls / solves if solves else 0.0,
        "limits.solve_s": layer_self("limits"),
        "harness.emit_s": self_time["harness.emit"],
        "harness.emit_bytes": sum(s.info for s in spans
                                  if s.name == "harness.emit" and s.info is not None),
        "harness.other_s": root.end - root.start - covered,
        "trace.spans": len(spans),
    }


def spans_to_json(spans):
    """Compact, JSON-ready form of a span list (times relative to the run)."""
    if not spans:
        return {"fields": list(Span._fields), "rows": []}
    t0 = min(s.start for s in spans)
    threads = {}
    rows = []
    for s in sorted(spans, key=lambda s: s.start):
        tid = threads.setdefault(s.thread, len(threads))
        info = list(s.info) if isinstance(s.info, tuple) else s.info
        rows.append([s.id, s.name, s.layer, s.start - t0, s.end - t0, s.parent, tid, info])
    return {"fields": list(Span._fields), "rows": rows}
