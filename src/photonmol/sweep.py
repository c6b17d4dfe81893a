"""Parameter sweeps over a 2-D grid with CSV output.

A sweep config names two axes (any parameter field or one of the derived
quantities eta, eta_inv, phi, u, delta), a solver, and optional constraint
rules that recompute dependent parameters at every grid point, e.g.
"u := dual_drive_u" pins the Kerr strength to the dual-drive optimum for
the point's current drive ratio.

sweep_rows is the one row builder: model.apply_axis sets both axis values
and each rule's target, the rules run per point, and the points are one
evaluate_grid call. run_sweep and the fig5 recipe go through it. write_csv
is the package's one CSV writer; write_rows_csv feeds it sweep rows.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .errors import SolverError, check_int
from .fock import HilbertSpec
from .model import DERIVED_AXES, PARAM_FIELDS, SystemParams, apply_axis, drive_ratios
from .optimal import OptimalPoint, dual_drive_optimum_asymptotic, single_drive_optimum
from .solvers import DEFAULT_N_MAX, evaluate_grid, evaluate_point, normalize_solver

CONSTRAINT_TARGETS = ("u", "u_a", "u_b", "delta", "delta_a", "delta_b")


def _single_drive(params: SystemParams) -> OptimalPoint:
    return single_drive_optimum(params.kappa_a, params.coupling_j)


def _dual_drive(params: SystemParams) -> OptimalPoint:
    return dual_drive_optimum_asymptotic(params.kappa_a, params.coupling_j,
                                         drive_ratios(params).eta)


# Rule name -> (the optimum at a point, the OptimalPoint field it pins).
CONSTRAINT_RULES = {
    "single_drive_delta": (_single_drive, "delta_opt"),
    "single_drive_u": (_single_drive, "u_opt"),
    "dual_drive_delta": (_dual_drive, "delta_opt"),
    "dual_drive_u": (_dual_drive, "u_opt"),
}


_AXIS_REQUIRED = ("parameter", "min", "max", "count")
_AXIS_FIELDS = _AXIS_REQUIRED + ("scale",)

_CONFIG_REQUIRED = ("axis1", "axis2", "solver")
_CONFIG_FIELDS = _CONFIG_REQUIRED + ("base", "constraints")


@dataclass(frozen=True)
class Axis:
    parameter: str
    min: float
    max: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        check_int(self.count, 2, "axis count")
        # json.dumps writes a Python int, not a numpy one.
        object.__setattr__(self, "count", int(self.count))
        if self.scale not in ("linear", "log"):
            raise ValueError(f"axis scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and min(self.min, self.max) <= 0:
            raise ValueError("log-scaled axis requires min > 0 and max > 0")
        valid = DERIVED_AXES + PARAM_FIELDS
        if self.parameter not in valid:
            raise ValueError(f"unknown axis parameter {self.parameter!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "Axis":
        if not isinstance(data, dict):
            raise ValueError(f"axis must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(_AXIS_FIELDS)
        if unknown:
            raise ValueError(f"unknown axis fields: {sorted(unknown)}")
        missing = [name for name in _AXIS_REQUIRED if name not in data]
        if missing:
            raise ValueError(f"axis is missing fields: {missing}")
        try:
            bounds = float(data["min"]), float(data["max"])
        except (TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"axis min and max must be numbers: {err}") from None
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"axis min and max must be finite, got {bounds}")
        return cls(parameter=data["parameter"], min=bounds[0], max=bounds[1],
                   count=data["count"], scale=data.get("scale", "linear"))

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(math.log10(self.min), math.log10(self.max), self.count)
        return np.linspace(self.min, self.max, self.count)

    def to_dict(self) -> dict:
        return {"parameter": self.parameter, "min": self.min, "max": self.max,
                "count": self.count, "scale": self.scale}


@dataclass(frozen=True)
class SweepConfig:
    base: SystemParams
    axis1: Axis
    axis2: Axis
    solver: str
    constraints: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "solver", normalize_solver(self.solver))
        for rule in self.constraints:
            parse_constraint(rule)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """Build a config from parsed JSON; malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"sweep config must be a JSON object, got "
                             f"{type(data).__name__}")
        unknown = set(data) - set(_CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown sweep config fields: {sorted(unknown)}")
        missing = [name for name in _CONFIG_REQUIRED if name not in data]
        if missing:
            raise ValueError(f"sweep config is missing fields: {missing}")
        constraints = data.get("constraints", [])
        if not isinstance(constraints, (list, tuple)) or not all(
                isinstance(rule, str) for rule in constraints):
            raise ValueError("constraints must be a list of strings")
        if not isinstance(data["solver"], str):
            raise ValueError(f"solver must be a string, got {data['solver']!r}")
        return cls(
            base=SystemParams.from_dict(data.get("base", {})),
            axis1=Axis.from_dict(data["axis1"]),
            axis2=Axis.from_dict(data["axis2"]),
            solver=data["solver"],
            constraints=tuple(constraints),
        )

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "axis1": self.axis1.to_dict(),
            "axis2": self.axis2.to_dict(),
            "solver": self.solver,
            "constraints": list(self.constraints),
        }


@dataclass(frozen=True)
class ResultRow:
    """One grid point: axis values, mode A's detuning and Kerr strength as
    actually used, and the mode-A statistics (g2_a None when undefined;
    error non-empty when the solver failed at this point)."""

    axis1: float
    axis2: float
    delta: float
    u: float
    g2_a: float | None
    mean_n_a: float | None
    solver: str
    error: str = ""


def parse_constraint(rule: str) -> tuple[str, str]:
    """Split a constraint rule of the form 'target := rule_name'."""
    parts = [p.strip() for p in rule.split(":=")]
    if len(parts) != 2:
        raise ValueError(f"constraint must look like 'u := dual_drive_u', got {rule!r}")
    target, name = parts
    if target not in CONSTRAINT_TARGETS:
        raise ValueError(f"unknown constraint target {target!r}; "
                         f"expected one of {CONSTRAINT_TARGETS}")
    if name not in CONSTRAINT_RULES:
        raise ValueError(f"unknown constraint rule {name!r}; "
                         f"expected one of {tuple(CONSTRAINT_RULES)}")
    return target, name


def apply_constraints(params: SystemParams, constraints) -> SystemParams:
    """Apply the rules in order, each to the parameters the previous left."""
    for rule in constraints:
        target, name = parse_constraint(rule)
        optimum, pinned = CONSTRAINT_RULES[name]
        params = apply_axis(params, target, getattr(optimum(params), pinned))
    return params


def run_point(
    params: SystemParams, solver: str, n_max: int = DEFAULT_N_MAX
) -> ResultRow:
    """Evaluate one parameter point; solver errors carry the point context."""
    solver = normalize_solver(solver)
    HilbertSpec(n_max, n_max)  # a bad cutoff is a usage error, not a solver error
    try:
        g2, mean_n = evaluate_point(params, solver, n_max=n_max)
    except (SolverError, np.linalg.LinAlgError, ValueError) as err:
        raise SolverError(f"{err} [at params {params.to_dict()}]") from err
    return ResultRow(
        axis1=math.nan, axis2=math.nan,
        delta=params.delta_a, u=params.u_a,
        g2_a=g2, mean_n_a=mean_n, solver=solver,
    )


def _failed_row(v1: float, v2: float, solver: str, message: str) -> ResultRow:
    return ResultRow(axis1=v1, axis2=v2, delta=math.nan, u=math.nan, g2_a=None,
                     mean_n_a=None, solver=solver, error=message)


def sweep_rows(base: SystemParams, axis1, axis2, constraints, solver: str,
               threads: int = 1) -> list[ResultRow]:
    """Rows of a 2-D grid, axis1 outer, axis2 inner.

    Each axis is a (parameter, values) pair. apply_axis sets the two values
    on base, the constraint rules then set their targets, and the points
    are one evaluate_grid call, so the rows do not depend on threads. Where
    the axes or rules raise ValueError or the solver fails, the row keeps
    the message in error and the sweep continues.
    """
    (name1, values1), (name2, values2) = axis1, axis2
    values2 = np.asarray(values2, dtype=float).tolist()
    rows, solved = [], []
    for v1 in np.asarray(values1, dtype=float).tolist():
        for v2 in values2:
            try:
                params = apply_axis(apply_axis(base, name1, v1), name2, v2)
                params = apply_constraints(params, constraints)
            except ValueError as err:
                rows.append(_failed_row(v1, v2, solver, str(err)))
            else:
                rows.append(None)  # solved below
                solved.append((v1, v2, params))
    g2, mean_n, error = evaluate_grid(
        {name: np.array([getattr(params, name) for _, _, params in solved], dtype=float)
         for name in PARAM_FIELDS}, solver, threads=threads)
    results = iter(
        _failed_row(v1, v2, solver, err) if err else
        ResultRow(axis1=v1, axis2=v2, delta=params.delta_a, u=params.u_a,
                  g2_a=None if math.isnan(g2_i) else g2_i, mean_n_a=mean_n_i,
                  solver=solver)
        for (v1, v2, params), g2_i, mean_n_i, err in zip(
            solved, g2.tolist(), mean_n.tolist(), error.tolist()))
    return [row or next(results) for row in rows]


def run_sweep(config: SweepConfig, threads: int = 1) -> list[ResultRow]:
    """Evaluate a config's grid through sweep_rows."""
    return sweep_rows(config.base, (config.axis1.parameter, config.axis1.values()),
                      (config.axis2.parameter, config.axis2.values()),
                      config.constraints, config.solver, threads=threads)


def _format_value(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.17g}"
    return "" if value is None else str(value)


def write_csv(path, header, records) -> None:
    """RFC-4180 style CSV: floats with 17 significant digits, None and NaN
    as empty cells. The package's one CSV writer."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([_format_value(v) for v in record] for record in records)


def write_rows_csv(rows, path, axis1_name: str, axis2_name: str) -> None:
    """Sweep rows as CSV; undefined g2 becomes an empty cell plus a flag."""
    write_csv(path, [axis1_name, axis2_name, "delta_used", "u_used", "g2_a",
                     "g2_a_undefined", "mean_n_a", "solver", "error"],
              ([row.axis1, row.axis2, row.delta, row.u, row.g2_a,
                "true" if row.g2_a is None and not row.error else "false",
                row.mean_n_a, row.solver, row.error] for row in rows))


def write_sidecar(path, payload: dict) -> None:
    """JSON metadata sidecar: configuration, code version, and timestamp."""
    from datetime import datetime, timezone

    meta = dict(payload)
    meta["version"] = __version__
    meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    with open(path, "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def sweep_to_files(config: SweepConfig, csv_path, threads: int = 1) -> list[ResultRow]:
    """Run a sweep and write the CSV plus its metadata sidecar."""
    rows = run_sweep(config, threads=threads)
    write_rows_csv(rows, csv_path, config.axis1.parameter, config.axis2.parameter)
    write_sidecar(str(csv_path) + ".meta.json", {"config": config.to_dict()})
    return rows
