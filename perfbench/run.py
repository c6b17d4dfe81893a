"""Layered benchmark for photonmol.

    python3 perfbench/run.py --workload me_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; photonmol is imported from ./src.
With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; lines before it
hold a readable summary and the environment. A full record goes to
.perfbench_out/<workload>-trace<0|1>.json and the spans of a traced run to
.perfbench_out/<workload>-spans.jsonl. The exit code is 0 when
every check passed, 1 when a check failed and 2 when the sources are
missing.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_RUNS = 3

# BLAS thread variables are recorded as found and never set here: setting
# them would hide the oversubscription the me_sweep workload measures.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "success_rate": "ratio", "error_rate": "ratio",
    "peak_rss_mb": "MB", "g2_max_rel_err": "ratio",
    # Per-layer metrics, by the last part of their name.
    "calls": "count/op", "self_s": "s/op", "total_s": "s/op",
    "serial_s": "s/op", "wait_s": "s/op", "wall_s": "s/op",
    "untraced_s": "s/op", "bytes": "B/op", "failed": "count",
    "d2_computed": "count", "bytes_computed": "B/call",
    "flops_computed": "flop/call", "evals_per_call": "count",
    "finite_frac": "ratio", "busy_frac": "ratio", "overhead_frac": "ratio",
    "roundoff_excluded": "count",
}


def unit_of(name):
    return UNITS.get(name) or UNITS[name.rsplit(".", 1)[-1]]

# Child process timing `import photonmol` plus the workload's warm-up call.
_SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import photonmol
import workloads
workloads.WORKLOADS[sys.argv[1]](photonmol, sys.argv[2]).warmup()
print(time.perf_counter() - start)
"""


@dataclass
class Run:
    """What a stretch of whole batches did, as seen from outside photonmol."""

    batches: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # seconds per op
    op_s: float = 0.0  # time inside photonmol calls
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record_failures(self, results):
        for failed, message in results:
            self.failed += failed
            if failed and len(self.errors) < 20:
                self.errors.append(message)


def measure(workload, batches, seconds=float("inf"), recorder=None):
    """Run whole batches until `seconds` of op time have passed or the
    batches run out. Checks run between ops, outside the timed calls and
    outside the recorder's trace."""
    run = Run()
    for batch in batches:
        outputs, raised = [], None
        for op in batch:
            if recorder:
                recorder.active = True
            start = time.perf_counter()
            try:
                outputs.append(workload.run(op))
            except Exception as err:  # an op that raised is a failed op
                outputs.append(None)
                raised = f"{type(err).__name__}: {err}"
            elapsed = time.perf_counter() - start
            if recorder:
                recorder.active = False
            run.op_s += elapsed
            run.latencies.append(elapsed / workload.points(op))
        points = [workload.points(op) for op in batch]
        run.attempted += sum(points)
        # A batch is checked as a whole; when one op raised, none of its
        # ops can be checked and all of them count as failed.
        if raised:
            run.record_failures([(sum(points), raised)])
        else:
            run.record_failures(workload.check(batch, outputs))
        run.batches.append(batch)
        if run.op_s >= seconds:
            break
    return run


def setup_seconds(name):
    """Median time of `import photonmol` plus one warm-up call, each in a
    fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(BENCH_DIR),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", _SETUP_CODE, name, str(OUT_DIR)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }


def end_to_end(workload, seed, seconds):
    done = measure(workload, workload.batches(seed), seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return done, {
        "ops_per_s": (done.attempted - done.failed) / done.op_s,
        "latency_p50_ms": 1e3 * statistics.median(done.latencies),
        "latency_p90_ms": 1e3 * statistics.quantiles(done.latencies, n=10)[8],
        "peak_rss_mb": rss_mb,
    }


def traced(workload, seed, seconds):
    """A third of the time untraced, then the same batches traced; the
    difference is the tracing overhead. me_sweep then reruns the batches
    through run_sweep on one thread, untraced, for the serial baseline."""
    plain = measure(workload, workload.batches(seed), seconds / 3)
    recorder = spans.Recorder()
    with spans.installed(recorder):
        done = measure(workload, iter(plain.batches), recorder=recorder)
    ops = done.attempted
    metrics = spans.layer_metrics(recorder.spans, ops,
                                  threading.main_thread().ident, done.op_s)
    metrics["trace.overhead_frac"] = done.op_s / plain.op_s - 1.0
    serial = 0.0
    if isinstance(workload, workloads.MeSweep):
        for (op,) in done.batches:
            start = time.perf_counter()
            workload.run_serial(op)
            serial += time.perf_counter() - start
    metrics["sweep.run_sweep.serial_s"] = serial / ops
    plain.attempted += done.attempted
    plain.failed += done.failed
    plain.errors += done.errors
    return plain, metrics, recorder.spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "photonmol" / "__init__.py").is_file():
        print(f"perfbench: photonmol sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    warnings.simplefilter("ignore")
    OUT_DIR.mkdir(exist_ok=True)
    # Set-up is timed before this process makes any BLAS call: idle BLAS
    # threads spin for a while after a call and would slow the children.
    setup = None if args.trace else setup_seconds(args.workload)
    import photonmol

    workload = workloads.WORKLOADS[args.workload](photonmol, str(OUT_DIR))
    workload.warmup()
    recorded = []
    if args.trace:
        done, metrics, recorded = traced(workload, args.seed, args.seconds)
    else:
        done, metrics = end_to_end(workload, args.seed, args.seconds)
        metrics["setup_s"] = setup

    # Correctness checks outside the timed region.
    done.record_failures(workload.final_checks())
    sample = workload.sample()
    worst, excluded, failures = workloads.check_sample(photonmol, sample)
    done.attempted += len(sample)
    done.record_failures([(1, message) for message in failures])
    if args.trace:
        metrics["g2.roundoff_excluded"] = excluded
    else:
        metrics["g2_max_rel_err"] = worst
        metrics["success_rate"] = (done.attempted - done.failed) / done.attempted

    env = environment()
    summary = dict(metrics)
    if not args.trace:
        summary["error_rate"] = done.failed / done.attempted
    for key, value in sorted(summary.items()):
        print(f"# {key} = {value:.6g} {unit_of(key)}")
    for message in done.errors:
        print(f"# FAILED {message}")
    print("# env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": done.failed == 0,
        "attempted": done.attempted,
        "failed": done.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  errors=done.errors, error_rate=done.failed / done.attempted)
    out = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    if recorded:
        # One span per line: id, parent, thread, name, start, end, failed, note.
        with open(OUT_DIR / f"{args.workload}-spans.jsonl", "w") as handle:
            for s in recorded:
                handle.write(json.dumps([s.id, s.parent, s.thread, s.name, s.start,
                                         s.end, s.failed, s.note]) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
