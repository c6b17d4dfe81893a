"""Uniform point and grid evaluation across the three solvers.

Solver ids (as used in JSON configs and on the command line):

* "MasterEquation"  exact steady state of the dissipative dynamics in a
                    truncated Fock space,
* "Hierarchy"       closed-form one-photon amplitudes plus the 3x3
                    two-photon system,
* "FullTruncated"   the full 5x5 steady amplitude system.
"""

from collections.abc import Mapping
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
from .errors import SolverError
from .fock import HilbertSpec
from .lindblad import observables, steady_state
from .model import PARAM_FIELDS, SystemParams, liouvillian

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
    number).
    """
    solver = normalize_solver(solver)
    if solver == SOLVER_MASTER_EQUATION:
        spec = HilbertSpec(n_max, n_max)
        rho = steady_state(liouvillian(params, spec))
        obs = observables(rho, spec)
        return obs.g2_a, obs.mean_n_a
    amps = hierarchy_steady(params) if solver == SOLVER_HIERARCHY \
        else full_truncated_steady(params)
    return g2_approx(amps), mean_photon_approx(amps)


def evaluate_grid(
    points: Mapping[str, object], solver: str, n_max: int = DEFAULT_N_MAX
) -> tuple[np.ndarray, np.ndarray]:
    """(g2_a, mean_n_a) arrays over a grid of parameter points.

    points maps SystemParams field names to scalars or arrays that
    broadcast together; omitted fields take SystemParams' defaults, and
    every point is checked as SystemParams checks it. The weak-drive
    solvers build and solve their linear systems as stacks of at most
    GRID_CHUNK points; MasterEquation evaluates point by point. Both
    results are NaN where evaluate_point would raise SolverError, and g2
    also where evaluate_point returns None.
    """
    solver = normalize_solver(solver)
    unknown = set(points) - set(PARAM_FIELDS)
    if unknown:
        raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
    defaults = SystemParams()
    fields = np.broadcast_arrays(*(
        np.asarray(points.get(name, getattr(defaults, name)), dtype=float)
        for name in PARAM_FIELDS
    ))
    g2, mean_n = np.empty(fields[0].shape), np.empty(fields[0].shape)
    if g2.size == 0:
        return g2, mean_n
    # SystemParams bounds each field on its own, so a grid is valid when
    # every field's smallest and largest values are.
    for extreme in (np.min, np.max):
        SystemParams(**{name: float(extreme(values))
                        for name, values in zip(PARAM_FIELDS, fields)})
    evaluate_chunk = {
        SOLVER_MASTER_EQUATION: lambda chunk: _master_equation_chunk(chunk, n_max),
        SOLVER_HIERARCHY: hierarchy_grid,
        SOLVER_FULL_TRUNCATED: full_truncated_grid,
    }[solver]
    for start in range(0, g2.size, GRID_CHUNK):
        stop = min(start + GRID_CHUNK, g2.size)
        chunk = SimpleNamespace(**{name: values.flat[start:stop]
                               for name, values in zip(PARAM_FIELDS, fields)})
        g2.flat[start:stop], mean_n.flat[start:stop] = evaluate_chunk(chunk)
    return g2, mean_n


def _master_equation_chunk(chunk: SimpleNamespace, n_max: int):
    """evaluate_grid's MasterEquation path: one steady-state solve per point."""
    g2 = np.full(chunk.delta_a.size, np.nan)
    mean_n = np.full(chunk.delta_a.size, np.nan)
    columns = [getattr(chunk, name).tolist() for name in PARAM_FIELDS]
    for i, values in enumerate(zip(*columns)):
        params = SystemParams(**dict(zip(PARAM_FIELDS, values)))
        try:
            g2_i, mean_n[i] = evaluate_point(params, SOLVER_MASTER_EQUATION, n_max)
        except (SolverError, np.linalg.LinAlgError):
            continue
        if g2_i is not None:
            g2[i] = g2_i
    return g2, mean_n
