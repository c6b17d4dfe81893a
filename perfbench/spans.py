"""Span recorder for the traced run.

The recorder wraps photonmol's public functions in the module namespaces
where callers look them up (for example ``photonmol.sweep.evaluate_point``,
which the sweep's worker threads call), so no program file changes. Each
call becomes a span with its parent on a thread-local stack, which keeps
spans correct under the sweep's thread pool. Spans stay in memory; the
benchmark computes the per-layer metrics from them and writes them out at
the end.
"""

import importlib
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    thread: int
    name: str
    start: float
    end: float = math.nan
    failed: bool = False
    note: float | None = None  # one count taken at the boundary, see NOTES


def _d2_of_result(args, kwargs, result):
    return result.shape[0]


def _d2_of_argument(args, kwargs, result):
    return args[0].shape[0]


def _g2_finite(args, kwargs, result):
    g2 = result[0]
    return float(g2 is not None and math.isfinite(g2))


def _threads(args, kwargs, result):
    return kwargs.get("threads", args[1] if len(args) > 1 else 1)


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


# (module, attribute where callers look it up, span name = defining layer).
# Names reached through several modules are wrapped at each of them.
WRAP_POINTS = (
    ("photonmol", "evaluate_point", "solvers.evaluate_point"),
    ("photonmol", "numeric_optimum", "optimal.numeric_optimum"),
    ("photonmol", "dual_drive_optimum_exact_phi0",
     "optimal.dual_drive_optimum_exact_phi0"),
    ("photonmol.optimal", "evaluate_point", "solvers.evaluate_point"),
    ("photonmol.sweep", "evaluate_point", "solvers.evaluate_point"),
    ("photonmol.sweep", "apply_constraints", "sweep.apply_constraints"),
    ("photonmol.sweep", "run_sweep", "sweep.run_sweep"),
    ("photonmol.sweep", "write_rows_csv", "sweep.write_rows_csv"),
    ("photonmol.solvers", "liouvillian", "model.liouvillian"),
    ("photonmol.solvers", "steady_state", "lindblad.steady_state"),
    ("photonmol.solvers", "observables", "lindblad.observables"),
    ("photonmol.solvers", "hierarchy_steady", "amplitude.hierarchy_steady"),
    ("photonmol.solvers", "full_truncated_steady",
     "amplitude.full_truncated_steady"),
    ("photonmol.model", "hamiltonian", "model.hamiltonian"),
    ("photonmol.model", "mode_annihilators", "fock.mode_annihilators"),
    ("photonmol.lindblad", "mode_annihilators", "fock.mode_annihilators"),
)

# Count recorded on a span when its call returns, by span name.
NOTES = {
    "model.liouvillian": _d2_of_result,
    "lindblad.steady_state": _d2_of_argument,
    "solvers.evaluate_point": _g2_finite,
    "sweep.run_sweep": _threads,
    "sweep.write_rows_csv": _csv_bytes,
}


class Recorder:
    """Collects spans from every thread that calls a wrapped function while
    `active` is set, so that calls the benchmark makes between ops (its
    checks) stay out of the trace."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span_id = next(self._ids)
            span = Span(span_id, stack[-1].id if stack else None,
                        threading.get_ident(), name, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.note = note(args, kwargs, result)
                return result
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)

        return traced


@contextmanager
def installed(recorder):
    """Wrap every function in WRAP_POINTS for the duration of the block."""
    saved = []
    try:
        for module_name, attribute, span_name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, recorder.wrap(span_name, original))
        yield recorder
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


def self_times(spans):
    """Self time of each span id: its duration minus its direct children's.

    Children run on their parent's thread, nested and one after another, so
    their summed durations are exactly the part of the parent they cover.
    """
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {span.id: span.end - span.start - covered[span.id] for span in spans}


# Layers whose calls and self time are reported.
LAYERS = (
    "fock.mode_annihilators", "model.hamiltonian", "model.liouvillian",
    "lindblad.steady_state", "lindblad.observables",
    "amplitude.hierarchy_steady", "amplitude.full_truncated_steady",
    "solvers.evaluate_point", "optimal.numeric_optimum",
    "optimal.dual_drive_optimum_exact_phi0", "sweep.apply_constraints",
)

# Layers whose raised calls are counted.
FAILURE_LAYERS = (
    "lindblad.steady_state", "amplitude.hierarchy_steady",
    "amplitude.full_truncated_steady", "solvers.evaluate_point",
)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, ops, main_thread, wall_s):
    """Per-layer figures from the spans of a run that completed `ops` ops
    in `wall_s` seconds of op time on the main thread.

    Calls, times and bytes written are per op, so runs that fit a different
    number of ops in their time stay comparable. The "computed" counts are
    per call and derived only from the sizes passed in; they repeat exactly
    for a given workload.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out = {}
    for layer in LAYERS:
        group = by_name[layer]
        out[f"{layer}.calls"] = len(group) / ops
        out[f"{layer}.self_s"] = sum(selfs[s.id] for s in group) / ops
    for layer in FAILURE_LAYERS:
        out[f"{layer}.failed"] = sum(s.failed for s in by_name[layer])

    sizes = [s.note for s in by_name["model.liouvillian"]]
    out["model.liouvillian.d2_computed"] = _mean(sizes)
    out["model.liouvillian.bytes_computed"] = _mean([16.0 * n * n for n in sizes])
    # Dense complex LU of the order-n trace-constrained system: 8n^3/3 flops.
    out["lindblad.steady_state.flops_computed"] = _mean(
        [8.0 * s.note**3 / 3.0 for s in by_name["lindblad.steady_state"]])

    optimizers = {s.id for s in by_name["optimal.numeric_optimum"]}
    evals = [s for s in by_name["solvers.evaluate_point"] if s.parent in optimizers]
    out["optimal.numeric_optimum.evals_per_call"] = (
        len(evals) / len(optimizers) if optimizers else 0.0)
    out["optimal.numeric_optimum.finite_frac"] = (
        sum(s.note == 1.0 for s in evals) / len(evals) if evals else 0.0)

    # Pool capacity is threads x wall of each sweep; busy is the time worker
    # threads spent inside top-level spans (one grid point's calls).
    capacity = sum(s.note * (s.end - s.start) for s in by_name["sweep.run_sweep"])
    busy = sum(s.end - s.start for s in spans
               if s.parent is None and s.thread != main_thread)
    out["sweep.run_sweep.total_s"] = sum(
        s.end - s.start for s in by_name["sweep.run_sweep"]) / ops
    out["sweep.pool.busy_frac"] = busy / capacity if capacity else 0.0
    out["sweep.pool.wait_s"] = (capacity - busy) / ops if capacity else 0.0
    out["sweep.write_rows_csv.self_s"] = sum(
        selfs[s.id] for s in by_name["sweep.write_rows_csv"]) / ops
    out["sweep.write_rows_csv.bytes"] = sum(
        s.note for s in by_name["sweep.write_rows_csv"]) / ops
    # On the main thread the self times of all spans plus the time outside
    # any span add up to the wall time; worker threads run concurrently.
    main_self = sum(selfs[s.id] for s in spans if s.thread == main_thread)
    out["trace.wall_s"] = wall_s / ops
    out["trace.untraced_s"] = (wall_s - main_self) / ops
    return out
