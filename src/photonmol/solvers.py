"""Uniform point and grid evaluation across the three solvers.

Solver ids (as used in JSON configs and on the command line):

* "MasterEquation"  exact steady state of the dissipative dynamics in a
                    truncated Fock space,
* "Hierarchy"       closed-form one-photon amplitudes plus the 3x3
                    two-photon system,
* "FullTruncated"   the full 5x5 steady amplitude system.

evaluate_point answers one point. evaluate_grid is the one grid evaluator
(sweeps, figure recipes and the optimizer's coarse grid all call it) and
the package's one thread pool: threads split a grid in chunks.
"""

import math
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np

from .amplitude import (
    full_truncated_grid,
    full_truncated_steady,
    g2_approx,
    hierarchy_grid,
    hierarchy_steady,
    mean_photon_approx,
)
from .errors import SolverError, check_int
from .fock import HilbertSpec
# liouvillian and steady_state are not called here. They stay importable from
# this module because perfbench's tracer looks them up here.
from .lindblad import hermitian_steady_state, observables, steady_state  # noqa: F401
from .model import PARAM_FIELDS, SystemParams, hermitian_liouvillian, liouvillian  # noqa: F401

SOLVER_MASTER_EQUATION = "MasterEquation"
SOLVER_HIERARCHY = "Hierarchy"
SOLVER_FULL_TRUNCATED = "FullTruncated"

SOLVERS = (SOLVER_MASTER_EQUATION, SOLVER_HIERARCHY, SOLVER_FULL_TRUNCATED)

_CANONICAL = {name.lower(): name for name in SOLVERS}

# Fock cutoff per mode for master-equation runs; one level above the
# two-photon manifold keeps the truncation error negligible at weak drive.
DEFAULT_N_MAX = 3

# Points per stacked solve in evaluate_grid. Bounds its temporary arrays
# under 1 MB however large the grid; a 64x64 grid solves as fast in four
# chunks as in one stack of 4096, which needs 3.3 MB.
GRID_CHUNK = 1024


def normalize_solver(name: str) -> str:
    try:
        return _CANONICAL[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown solver {name!r}; expected one of {', '.join(SOLVERS)}"
        ) from None


def evaluate_point(
    params: SystemParams, solver: str, n_max: int = DEFAULT_N_MAX
) -> tuple[float | None, float]:
    """(g2_a, mean_n_a) at one parameter point under the chosen solver.

    g2_a is None where the correlation is undefined (zero mean photon
    number). A weak-drive g2 or mean n that overflows raises SolverError.
    """
    solver = normalize_solver(solver)
    if solver == SOLVER_MASTER_EQUATION:
        spec = HilbertSpec(n_max, n_max)
        rho = hermitian_steady_state(*hermitian_liouvillian(params, spec))
        obs = observables(rho, spec)
        return obs.g2_a, obs.mean_n_a
    with np.errstate(all="ignore"):  # overflow yields inf or NaN, flagged below
        amps = hierarchy_steady(params) if solver == SOLVER_HIERARCHY \
            else full_truncated_steady(params)
        g2, mean_n = g2_approx(amps), mean_photon_approx(amps)
    if not math.isfinite(mean_n) or not (g2 is None or math.isfinite(g2)):
        raise SolverError("weak-drive g2 overflowed: |c10|^4 or |c20|^2 is not finite")
    return g2, mean_n


def evaluate_grid(points: Mapping[str, object], solver: str, n_max: int = DEFAULT_N_MAX,
                  threads: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g2_a, mean_n_a, error) arrays over a grid of parameter points.

    points maps SystemParams field names to scalars or arrays that
    broadcast together; omitted fields take SystemParams' defaults, and
    every point is checked as SystemParams checks it. error holds the
    message of what evaluate_point would raise at a point, "" elsewhere;
    g2 is NaN there and where evaluate_point returns None, mean n there.

    threads workers share chunks of at most GRID_CHUNK points. The
    weak-drive solvers solve a chunk as a stack; MasterEquation points,
    non-finite stacked results and exactly singular chunks go through
    evaluate_point one by one. The values do not depend on threads.
    """
    solver = normalize_solver(solver)
    check_int(threads, 1, "threads")
    HilbertSpec(n_max, n_max)  # a bad cutoff fails the call, not each point
    unknown = set(points) - set(PARAM_FIELDS)
    if unknown:
        raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
    defaults = SystemParams()
    fields = np.broadcast_arrays(*(
        np.asarray(points.get(name, getattr(defaults, name)), dtype=float)
        for name in PARAM_FIELDS
    ))
    shape, size = fields[0].shape, fields[0].size
    g2, mean_n = np.full(size, np.nan), np.full(size, np.nan)
    error = np.full(size, "", dtype=object)
    if size == 0:
        return g2.reshape(shape), mean_n.reshape(shape), error.reshape(shape)
    # SystemParams bounds each field on its own, so a grid is valid when
    # every field's smallest and largest values are.
    for extreme in (np.min, np.max):
        SystemParams(**{name: float(extreme(values))
                        for name, values in zip(PARAM_FIELDS, fields)})
    columns = [values.ravel() for values in fields]
    stacked = {SOLVER_HIERARCHY: hierarchy_grid,
               SOLVER_FULL_TRUNCATED: full_truncated_grid}.get(solver)

    def evaluate(chunk: slice) -> None:
        pending = range(size)[chunk]
        if stacked is not None:
            try:
                with np.errstate(all="ignore"):  # non-finite points are redone below
                    g2[chunk], mean_n[chunk] = stacked(SimpleNamespace(**{
                        name: column[chunk] for name, column in zip(PARAM_FIELDS, columns)}))
            except np.linalg.LinAlgError:
                pass  # an exactly singular matrix
            else:
                pending = pending.start + np.flatnonzero(~np.isfinite(g2[chunk] + mean_n[chunk]))
        for i in pending:
            # Python floats, so the point computes as a hand-built SystemParams.
            params = SystemParams(**{name: column[i].item()
                                     for name, column in zip(PARAM_FIELDS, columns)})
            try:
                g2_i, mean_n[i] = evaluate_point(params, solver, n_max)
            except (SolverError, np.linalg.LinAlgError, ValueError) as err:
                g2_i, mean_n[i], error[i] = None, math.nan, str(err)
            g2[i] = math.nan if g2_i is None else g2_i

    step = min(GRID_CHUNK, math.ceil(size / threads))
    chunks = [slice(start, start + step) for start in range(0, size, step)]
    if len(chunks) > 1 and threads > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
            list(pool.map(evaluate, chunks))
    else:
        list(map(evaluate, chunks))
    return g2.reshape(shape), mean_n.reshape(shape), error.reshape(shape)
