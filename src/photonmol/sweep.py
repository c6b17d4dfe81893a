"""Parameter sweeps over a 2-D grid with CSV output.

A sweep config names two axes (any parameter field or one of the derived
quantities eta, eta_inv, phi, u, delta), a solver, and optional constraint
rules that recompute dependent parameters at every grid point, e.g.
"u := dual_drive_u" pins the Kerr strength to the dual-drive optimum for
the point's current drive ratio.
"""

import csv
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .errors import SolverError
from .fock import HilbertSpec
from .model import SystemParams, drive_ratios
from .optimal import dual_drive_optimum_asymptotic, single_drive_optimum
from .solvers import DEFAULT_N_MAX, evaluate_point, normalize_solver

DERIVED_AXES = ("eta", "eta_inv", "phi", "u", "delta")

CONSTRAINT_TARGETS = ("u", "u_a", "u_b", "delta", "delta_a", "delta_b")


def _rule_single_drive_delta(params: SystemParams) -> float:
    return single_drive_optimum(params.kappa_a, params.coupling_j).delta_opt


def _rule_single_drive_u(params: SystemParams) -> float:
    return single_drive_optimum(params.kappa_a, params.coupling_j).u_opt


def _rule_dual_drive_delta(params: SystemParams) -> float:
    eta = drive_ratios(params).eta
    return dual_drive_optimum_asymptotic(params.kappa_a, params.coupling_j, eta).delta_opt


def _rule_dual_drive_u(params: SystemParams) -> float:
    eta = drive_ratios(params).eta
    return dual_drive_optimum_asymptotic(params.kappa_a, params.coupling_j, eta).u_opt


CONSTRAINT_RULES = {
    "single_drive_delta": _rule_single_drive_delta,
    "single_drive_u": _rule_single_drive_u,
    "dual_drive_delta": _rule_dual_drive_delta,
    "dual_drive_u": _rule_dual_drive_u,
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
        if self.count < 2:
            raise ValueError("axis count must be at least 2")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"axis scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and min(self.min, self.max) <= 0:
            raise ValueError("log-scaled axis requires min > 0 and max > 0")
        valid = DERIVED_AXES + tuple(SystemParams.__dataclass_fields__)
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
        count = data["count"]
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise ValueError(f"axis count must be an integer, got {count!r}")
        try:
            bounds = float(data["min"]), float(data["max"])
        except (TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"axis min and max must be numbers: {err}") from None
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"axis min and max must be finite, got {bounds}")
        return cls(parameter=data["parameter"], min=bounds[0], max=bounds[1],
                   count=int(count), scale=data.get("scale", "linear"))

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


def apply_axis(params: SystemParams, name: str, value: float) -> SystemParams:
    """Set one swept quantity on a parameter set."""
    if name == "eta":
        if value <= 0:
            raise ValueError("eta axis values must be positive")
        return params.replace(eps_b=params.eps_a / value)
    if name == "eta_inv":
        if value < 0:
            raise ValueError("eta_inv axis values must be non-negative")
        return params.replace(eps_b=params.eps_a * value)
    if name == "phi":
        return params.replace(phi_a=params.phi_b + value)
    if name == "u":
        return params.replace(u_a=value, u_b=value)
    if name == "delta":
        return params.replace(delta_a=value, delta_b=value)
    return params.replace(**{name: value})


def apply_constraints(params: SystemParams, constraints) -> SystemParams:
    for rule in constraints:
        target, name = parse_constraint(rule)
        value = CONSTRAINT_RULES[name](params)
        if target == "u":
            params = params.replace(u_a=value, u_b=value)
        elif target == "delta":
            params = params.replace(delta_a=value, delta_b=value)
        else:
            params = params.replace(**{target: value})
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


def _grid_point(config: SweepConfig, v1: float, v2: float) -> ResultRow:
    try:
        params = apply_axis(config.base, config.axis1.parameter, v1)
        params = apply_axis(params, config.axis2.parameter, v2)
        params = apply_constraints(params, config.constraints)
        g2, mean_n = evaluate_point(params, config.solver)
        return ResultRow(axis1=v1, axis2=v2, delta=params.delta_a,
                         u=params.u_a, g2_a=g2, mean_n_a=mean_n,
                         solver=config.solver)
    except (SolverError, np.linalg.LinAlgError, ValueError) as err:
        return ResultRow(axis1=v1, axis2=v2, delta=math.nan, u=math.nan,
                         g2_a=None, mean_n_a=None, solver=config.solver,
                         error=str(err))


def run_sweep(config: SweepConfig, threads: int = 1) -> list[ResultRow]:
    """Evaluate the full grid, axis1 outer, axis2 inner.

    Grid points are independent; with threads > 1 they are distributed over
    a worker pool and re-ordered by grid index, so the result is identical
    to the sequential run. Per-point errors are recorded in the row and the
    sweep continues.
    """
    points = [(v1, v2) for v1 in config.axis1.values()
              for v2 in config.axis2.values()]
    if threads <= 1:
        return [_grid_point(config, v1, v2) for v1, v2 in points]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda p: _grid_point(config, *p), points))


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_rows_csv(rows, path, axis1_name: str, axis2_name: str) -> None:
    """RFC-4180 style CSV; undefined g2 becomes an empty cell plus a flag."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([axis1_name, axis2_name, "delta_used", "u_used",
                         "g2_a", "g2_a_undefined", "mean_n_a", "solver",
                         "error"])
        for row in rows:
            undefined = row.g2_a is None and not row.error
            writer.writerow([
                _format_value(row.axis1), _format_value(row.axis2),
                _format_value(row.delta), _format_value(row.u),
                _format_value(row.g2_a), "true" if undefined else "false",
                _format_value(row.mean_n_a), row.solver, row.error,
            ])


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
