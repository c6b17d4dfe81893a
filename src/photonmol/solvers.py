"""Uniform point and grid evaluation across the three solvers.

Solver ids (as used in JSON configs and on the command line):

* "MasterEquation"  exact steady state of the dissipative dynamics in a
                    truncated Fock space: by default n_a + n_b <= 3,
                    escalating per point to 4; an integer cutoff k is the
                    box n_a, n_b <= k,
* "Hierarchy"       closed-form one-photon amplitudes plus the 3x3
                    two-photon system,
* "FullTruncated"   the full 5x5 steady amplitude system.

Each solver has one kernel, which answers a batch of points (_kernel).
evaluate_point is a batch of one. evaluate_grid is the one grid evaluator
(sweeps, figure recipes and the optimizer's coarse grid all call it) and
the package's one thread pool: it cuts a grid in chunks of GRID_CHUNK
points, and threads share the chunks of a grid larger than one chunk.
"""

import math
import os
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np

# Not called here, but perfbench's tracer looks these up here: the *_steady
# functions, liouvillian, observables and steady_state.
from .amplitude import (  # noqa: F401
    full_truncated_grid, full_truncated_steady, hierarchy_grid, hierarchy_steady)
from .errors import SolverError, check_fields, check_int, check_numbers
from .fock import HilbertSpec, TotalSpec
from .lindblad import master_equation_grid, observables, steady_state  # noqa: F401
from .model import PARAM_FIELDS, SystemParams, liouvillian  # noqa: F401

SOLVER_MASTER_EQUATION = "MasterEquation"
SOLVER_HIERARCHY = "Hierarchy"
SOLVER_FULL_TRUNCATED = "FullTruncated"

SOLVERS = (SOLVER_MASTER_EQUATION, SOLVER_HIERARCHY, SOLVER_FULL_TRUNCATED)

_CANONICAL = {name.lower(): name for name in SOLVERS}

# Base total cutoff N of the default master-equation space n_a + n_b <= N:
# one level above the two-photon manifold, where the weak-drive physics
# lives. A point whose top shell carries more than lindblad.TOP_SHELL_LIMIT
# of the g2 numerator is solved again at N + 1 (the antibunching zeros).
DEFAULT_N_MAX = 3

_DEFAULT_SPACES = (TotalSpec(DEFAULT_N_MAX), TotalSpec(DEFAULT_N_MAX + 1))

# Points per stacked solve in evaluate_grid, and per task of its thread
# pool. Bounds its temporary arrays under 1 MB however large the grid; a
# 64x64 grid solves as fast in four chunks as in one stack of 4096, which
# needs 3.3 MB. A grid is never cut finer for more threads: LAPACK's getrf
# and getrs hold the interpreter lock, so a second thread gains nothing on a
# master-equation grid, and on a 4x4 grid starting the pool made it slower.
GRID_CHUNK = 1024


def normalize_solver(name: str) -> str:
    """The solver id that name spells in any case; ValueError for anything else."""
    canonical = _CANONICAL.get(name.lower()) if isinstance(name, str) else None
    if canonical is None:
        raise ValueError(f"unknown solver {name!r}; expected one of {', '.join(SOLVERS)}")
    return canonical


def _kernel(solver: str, n_max: int | None):
    """solver's kernel: a function of a SystemParams, or of a chunk's field
    columns, returning (g2_a, mean_n_a, error) arrays. The one place the
    cutoff becomes a space, so every solver refuses a bad cutoff. None is
    the default space: total N = DEFAULT_N_MAX, escalating per point to
    N + 1; an integer k is the box HilbertSpec(k, k)."""
    solver = normalize_solver(solver)
    spaces = _DEFAULT_SPACES if n_max is None else (HilbertSpec(n_max, n_max),)
    if solver == SOLVER_MASTER_EQUATION:
        return lambda params: master_equation_grid(params, *spaces)
    return hierarchy_grid if solver == SOLVER_HIERARCHY else full_truncated_grid


def evaluate_point(
    params: SystemParams, solver: str, n_max: int | None = None
) -> tuple[float | None, float]:
    """(g2_a, mean_n_a) at one parameter point under the chosen solver.

    A batch of one through the solver's kernel, so a point and a grid agree
    bit for bit. n_max None is the master equation's default space, total
    N = DEFAULT_N_MAX escalating to N + 1; an integer k is the box
    n_a, n_b <= k. The weak-drive solvers have no cutoff but refuse a bad
    one. g2_a is None where the correlation is undefined (zero mean photon
    number); a failed point raises SolverError, as does a default-space
    point whose truncation has not converged at N + 1.
    """
    g2, mean_n, error = _kernel(solver, n_max)(params)
    if error[0]:
        raise SolverError(error[0])
    return None if math.isnan(g2[0]) else float(g2[0]), float(mean_n[0])


def evaluate_grid(points: Mapping[str, object], solver: str, n_max: int | None = None,
                  threads: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g2_a, mean_n_a, error) arrays over a grid of parameter points.

    points maps SystemParams field names to integer or float scalars or
    arrays that broadcast together; omitted fields take SystemParams'
    defaults. A bool, string, complex or object value is refused, naming
    its field, and every point is checked as SystemParams checks it. error
    holds the message of what evaluate_point would raise at a point, ""
    elsewhere; g2 is NaN there and where evaluate_point returns None, mean
    n there.

    n_max is read as by evaluate_point. The grid is cut in chunks of
    GRID_CHUNK points, whatever threads is; the solver's kernel answers a
    chunk in one call, as it answers evaluate_point's batch of one. A grid
    of one chunk runs on the calling thread; a larger one is shared by
    min(threads, chunks, CPUs) workers. The values do not depend on threads.
    """
    kernel = _kernel(solver, n_max)  # a bad cutoff fails the call, not each point
    check_int(threads, 1, "threads")
    check_fields(points, "parameter", PARAM_FIELDS)
    defaults = SystemParams()
    fields = np.broadcast_arrays(*(check_numbers(points.get(name, getattr(defaults, name)), name)
                                   for name in PARAM_FIELDS))
    shape, size = fields[0].shape, fields[0].size
    g2, mean_n = np.full(size, np.nan), np.full(size, np.nan)
    error = np.full(size, "", dtype=object)
    if size == 0:
        return g2.reshape(shape), mean_n.reshape(shape), error.reshape(shape)
    # SystemParams bounds each field on its own, so a grid is valid when
    # every field's smallest and largest values are.
    for extreme in (np.min, np.max):
        SystemParams(**{name: extreme(values) for name, values in zip(PARAM_FIELDS, fields)})
    columns = [values.ravel() for values in fields]

    def evaluate(chunk: slice) -> None:
        g2[chunk], mean_n[chunk], error[chunk] = kernel(SimpleNamespace(**{
            name: column[chunk] for name, column in zip(PARAM_FIELDS, columns)}))

    chunks = [slice(start, start + GRID_CHUNK) for start in range(0, size, GRID_CHUNK)]
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(evaluate, chunks))
    else:
        list(map(evaluate, chunks))
    return g2.reshape(shape), mean_n.reshape(shape), error.reshape(shape)
