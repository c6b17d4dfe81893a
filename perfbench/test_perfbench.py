"""Tests of the benchmark's own parts: the reference solver, the span
arithmetic and the seeded workload generators.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import photonmol as pm  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from reference import reference_statistics  # noqa: E402


@pytest.mark.parametrize("params", [
    workloads.fig4b_point(0.4, 0.12),
    pm.SystemParams(delta_a=0.3, delta_b=-0.4, coupling_j=5.0, u_a=0.02,
                    u_b=0.05, eps_a=0.02, eps_b=0.01, phi_a=0.7, phi_b=0.1,
                    kappa_a=1.0, kappa_b=1.3).to_dict(),
])
def test_reference_agrees_with_steady_state_at_default_cutoff(params):
    spec = pm.HilbertSpec(pm.DEFAULT_N_MAX, pm.DEFAULT_N_MAX)
    rho = pm.steady_state(pm.liouvillian(pm.SystemParams(**params), spec))
    obs = pm.observables(rho, spec)
    g2_ref, mean_ref = reference_statistics(params)
    assert mean_ref == pytest.approx(obs.mean_n_a, rel=1e-9)
    assert g2_ref == pytest.approx(obs.g2_a, rel=1e-5)


def _span(span_id, parent, start, end, name="x", thread=1):
    return spans.Span(span_id, parent, thread, name, start, end)


def test_self_time_of_a_nested_tree():
    # root 0..10 holds a 1..4 (which holds 2..3) and b 5..9.
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0),
            _span(2, 1, 2.0, 3.0), _span(3, 0, 5.0, 9.0)]
    selfs = spans.self_times(tree)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(selfs.values()) == 10.0


def test_main_thread_self_times_and_remainder_add_up_to_wall():
    tree = [_span(0, None, 1.0, 7.0, "solvers.evaluate_point"),
            _span(1, 0, 2.0, 5.0, "lindblad.steady_state"),
            _span(2, None, 3.0, 9.0, "solvers.evaluate_point", thread=2)]
    tree[1].note = 4
    metrics = spans.layer_metrics(tree, ops=2, main_thread=1, wall_s=8.0)
    main_self = 3.0 + 3.0  # evaluate_point outside steady_state, steady_state
    assert metrics["trace.untraced_s"] * 2 == pytest.approx(8.0 - main_self)
    assert metrics["trace.wall_s"] * 2 == pytest.approx(8.0)
    assert metrics["solvers.evaluate_point.calls"] == 1.0
    assert metrics["lindblad.steady_state.flops_computed"] == pytest.approx(8 * 64 / 3)


def test_spans_keep_their_parents_per_thread():
    recorder = spans.Recorder()
    recorder.active = True
    inner = recorder.wrap("inner", lambda: None)

    def outer():
        inner()
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    recorder.wrap("outer", outer)()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    (top,) = by_name["outer"]
    parents = sorted(s.parent is None for s in by_name["inner"])
    assert parents == [False, True]  # one nested on the main thread, one a root
    assert all(s.parent in (None, top.id) for s in by_name["inner"])


def test_inactive_recorder_records_nothing():
    recorder = spans.Recorder()
    assert recorder.wrap("f", lambda x: x + 1)(1) == 2
    assert recorder.spans == []


@pytest.mark.parametrize("generator", [
    workloads.me_sweep_batches, workloads.optimize_batches,
    workloads.point_stream_batches,
])
def test_generators_are_deterministic_per_seed(generator):
    def first(seed):
        return list(itertools.islice(generator(seed), 3))

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_point_stream_batches_hold_the_fixed_mix():
    batch = next(workloads.point_stream_batches(3))
    kinds = sorted((p["solver"], p["n_max"] or 0) for p in batch)
    assert kinds == sorted((s, n or 0) for s, n in workloads.POINT_MIX)
    for point in batch:
        p = point["params"]
        assert math.isfinite(p["eps_a"]) and p["eps_a"] > p["eps_b"] > 0.0
        if point["solver"] == "Hierarchy":
            assert p["delta_a"] == p["delta_b"] and p["kappa_a"] == p["kappa_b"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
