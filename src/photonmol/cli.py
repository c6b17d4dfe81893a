"""Command-line front end: single-point runs, sweeps, optimization, and the
figure dataset pipeline.

Exit codes: 0 success, 1 usage error, 2 solver error.
"""

import argparse
import json
import sys

from ._version import __version__
from .errors import SolverError
from .figures import FIGURE_NAMES, figure
from .model import SystemParams, apply_axis
from .optimal import numeric_optimum
from .solvers import (
    DEFAULT_N_MAX,
    SOLVER_FULL_TRUNCATED,
    SOLVER_MASTER_EQUATION,
    SOLVERS,
)
from .sweep import SweepConfig, run_point, sweep_to_files


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonmol",
        description="Photon statistics of two coupled driven Kerr-nonlinear "
                    "cavity modes (rates in units of kappa).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    point = sub.add_parser("point", help="evaluate one parameter point")
    point.add_argument("--params", help="JSON file with the parameter fields")
    point.add_argument("--j", type=float, help="coupling strength")
    point.add_argument("--eta", type=float,
                       help="drive ratio eps_a/eps_b ('inf' for mode A only)")
    point.add_argument("--phi", type=float,
                       help="relative drive phase: phi_a = phi_b + phi")
    point.add_argument("--delta", type=float, help="common detuning")
    point.add_argument("--u", type=float, help="common Kerr strength")
    point.add_argument("--delta-a", type=float)
    point.add_argument("--delta-b", type=float)
    point.add_argument("--u-a", type=float)
    point.add_argument("--u-b", type=float)
    point.add_argument("--eps-a", type=float)
    point.add_argument("--eps-b", type=float)
    point.add_argument("--phi-a", type=float)
    point.add_argument("--phi-b", type=float)
    point.add_argument("--kappa", type=float, help="common dissipation rate")
    point.add_argument("--solver", default=SOLVER_MASTER_EQUATION,
                       help=f"one of {', '.join(SOLVERS)}")
    point.add_argument("--n-max", type=int,
                       help="MasterEquation box cutoff n_a, n_b <= N-MAX (default: "
                            f"the total cutoff n_a + n_b <= {DEFAULT_N_MAX}, raised "
                            f"to {DEFAULT_N_MAX + 1} at points that need it)")

    sweep = sub.add_parser("sweep", help="run a 2-D sweep from a JSON config")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--threads", type=int, default=1)

    optimize = sub.add_parser("optimize",
                              help="numerically minimize g2_a over (delta, u)")
    optimize.add_argument("--j", type=float, required=True)
    optimize.add_argument("--eta", type=float, required=True)
    optimize.add_argument("--phi", type=float, default=0.0)
    optimize.add_argument("--kappa", type=float, default=1.0)
    optimize.add_argument("--solver", default=SOLVER_FULL_TRUNCATED)
    optimize.add_argument("--grid-points", type=int, default=64)

    fig = sub.add_parser("figure", help="regenerate a figure dataset")
    fig.add_argument("name", help=f"one of {', '.join(FIGURE_NAMES)}")
    fig.add_argument("--out-dir", default=".")
    fig.add_argument("--threads", type=int, default=1)
    fig.add_argument("--count", type=int, help="grid resolution override")

    return parser


def _params_from_args(args) -> SystemParams:
    if args.params:
        with open(args.params) as handle:
            params = SystemParams.from_dict(json.load(handle))
    else:
        params = SystemParams(eps_a=0.01)
    for derived, field in (("eta", "eps_b"), ("phi", "phi_a")):
        if getattr(args, derived) is not None and getattr(args, field) is not None:
            raise ValueError(f"--{derived} and --{field.replace('_', '-')} "
                             "are mutually exclusive")

    for name in ("delta", "u"):  # both modes first; the per-mode flags override
        if getattr(args, name) is not None:
            params = apply_axis(params, name, getattr(args, name))
    changes = {"coupling_j": args.j, "kappa_a": args.kappa, "kappa_b": args.kappa}
    changes |= {field: getattr(args, field) for field in (
        "delta_a", "delta_b", "u_a", "u_b", "eps_a", "eps_b", "phi_a", "phi_b")}
    params = params.replace(**{k: v for k, v in changes.items() if v is not None})
    for name in ("eta", "phi"):  # relative to the final eps_a and phi_b
        if getattr(args, name) is not None:
            params = apply_axis(params, name, getattr(args, name))
    return params


def _dispatch(args) -> int:
    if args.command == "point":
        params = _params_from_args(args)
        row = run_point(params, args.solver, n_max=args.n_max)
        print(json.dumps({
            "params": params.to_dict(),
            "solver": row.solver,
            "g2_a": row.g2_a,
            "g2_a_undefined": row.g2_a is None,
            "mean_n_a": row.mean_n_a,
        }, indent=2))
        return 0
    if args.command == "sweep":
        with open(args.config) as handle:
            config = SweepConfig.from_dict(json.load(handle))
        rows = sweep_to_files(config, args.out, threads=args.threads)
        failed = sum(1 for r in rows if r.error)
        print(f"wrote {len(rows)} rows to {args.out}"
              + (f" ({failed} points failed)" if failed else ""))
        return 0
    if args.command == "optimize":
        result = numeric_optimum(args.kappa, args.j, args.eta, args.phi,
                                 solver=args.solver,
                                 grid_points=args.grid_points)
        print(json.dumps({
            "delta_opt": result.delta_opt,
            "u_opt": result.u_opt,
            "g2_min": result.g2_min,
            "method": result.method,
        }, indent=2))
        return 0
    if args.command == "figure":
        paths = figure(args.name, args.out_dir, threads=args.threads,
                       count=args.count)
        print(json.dumps(paths, indent=2))
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"error: out of memory: {str(err) or 'allocation failed'}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
