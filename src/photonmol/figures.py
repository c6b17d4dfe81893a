"""Canned dataset recipes for the standard figure panels (fig1a..fig5b).

Each recipe writes a CSV dataset, a JSON metadata sidecar, and a standalone
matplotlib script rendering the panel (a log10 heatmap or line plot). Grid
ranges that are not fixed by the recipe bindings are estimates and can be
rescaled through the count override.

The heatmaps and the fig4c/fig4d cuts are SweepConfigs run by run_sweep;
fig5 builds its parameter arrays and goes through the same row builder,
grid_rows. Both end in one evaluate_grid call. fig3 calls numeric_optimum
once per drive ratio, on one thread.
"""

import math
import numbers
from pathlib import Path

import numpy as np

from .model import SystemParams
from .optimal import (
    dual_drive_optimum_asymptotic,
    numeric_optimum,
    single_drive_optimum,
)
from .solvers import SOLVER_FULL_TRUNCATED, SOLVER_MASTER_EQUATION, check_threads
from .sweep import (
    Axis,
    ResultRow,
    SweepConfig,
    grid_rows,
    run_sweep,
    write_csv,
    write_rows_csv,
    write_sidecar,
)

FIGURE_NAMES = (
    "fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b",
    "fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b",
)

_J_DEFAULT = 10.0
_EPS_A = 0.01
_KAPPA = 1.0
# Coupling strengths for the fig5 family (the recipe's own choice).
_FIG5_COUPLINGS = (10.0, 20.0, 50.0)
# Cut positions for the line-plot panels.
_FIG4C_CUTS = (0.024, 0.16)
_FIG4D_CUTS = (0.058, 0.116)


def _base_params(j: float = _J_DEFAULT) -> SystemParams:
    return SystemParams(coupling_j=j, eps_a=_EPS_A, kappa_a=_KAPPA, kappa_b=_KAPPA)


def _sweep_config(name: str, count: int) -> tuple[SweepConfig, dict | None]:
    """SweepConfig of a heatmap (fig1a..fig2b, fig4a, fig4b) or cut (fig4c,
    fig4d: phi scans at two fixed drive ratios), and the heatmap's reference
    overlay (None for a cut)."""
    single = single_drive_optimum(_KAPPA, _J_DEFAULT)
    eta, delta = Axis("eta", 1.05, 20.0, count), Axis("delta", 0.0, 5.0, count)
    u = Axis("u", 1e-3, 0.5, count, scale="log")
    phi, eta_inv = Axis("phi", 0.0, math.pi / 2, count), Axis("eta_inv", 0.01, 0.2, count)
    dual_rules = ("delta := dual_drive_delta", "u := dual_drive_u")
    single_rules = ("delta := single_drive_delta", "u := single_drive_u")
    axis1, axis2, constraints, overlay = {
        "fig1a": (eta, delta, ("u := dual_drive_u",),
                  {"kind": "curve", "code": "ref = 10.0 / xs", "label": "delta = j/eta"}),
        "fig1b": (eta, delta, ("u := single_drive_u",),
                  {"kind": "hline", "code": f"ref = {single.delta_opt!r}",
                   "label": "single-drive delta_opt"}),
        "fig2a": (eta, u, ("delta := dual_drive_delta",),
                  {"kind": "curve", "code": "ref = 0.5 / 10.0 * xs / (xs**2 - 1.0)",
                   "label": "dual-drive u_opt"}),
        "fig2b": (eta, u, ("delta := single_drive_delta",),
                  {"kind": "hline", "code": f"ref = {single.u_opt!r}",
                   "label": "single-drive u_opt"}),
        "fig4a": (phi, eta_inv, dual_rules,
                  {"kind": "curve_x", "code": "ref = np.arctan(1.0 / (2.0 * 10.0 * ys))",
                   "label": "bunching phase curve"}),
        "fig4b": (phi, eta_inv, single_rules,
                  {"kind": "point", "label": "one-photon interference zero",
                   "code": f"ref = ({math.pi / 3!r}, "
                           f"{1.0 / (math.sqrt(3.0) * _J_DEFAULT)!r})"}),
        "fig4c": (Axis("eta_inv", *_FIG4C_CUTS, 2), phi, dual_rules, None),
        "fig4d": (Axis("eta_inv", *_FIG4D_CUTS, 2), phi, single_rules, None),
    }[name]
    return SweepConfig(base=_base_params(), axis1=axis1, axis2=axis2,
                       solver=SOLVER_MASTER_EQUATION, constraints=constraints), overlay


def _run_fig5(count: int, threads: int) -> list[ResultRow]:
    """g2 and mean photon number against the drive ratio for several
    couplings, at the single-drive optimum and a pi/3 relative phase."""
    eta_inv = np.logspace(math.log10(0.005), math.log10(0.2), count)
    optima = [single_drive_optimum(_KAPPA, j) for j in _FIG5_COUPLINGS]
    j = np.array(_FIG5_COUPLINGS)[:, None]
    delta = np.array([opt.delta_opt for opt in optima])[:, None]
    u = np.array([opt.u_opt for opt in optima])[:, None]
    points = {
        "delta_a": delta, "delta_b": delta, "coupling_j": j, "u_a": u, "u_b": u,
        "eps_a": _EPS_A, "eps_b": _EPS_A / (1.0 / eta_inv),  # as symmetric_params
        "phi_a": math.pi / 3, "phi_b": 0.0, "kappa_a": _KAPPA, "kappa_b": _KAPPA,
    }
    return grid_rows(j, eta_inv, points, SOLVER_MASTER_EQUATION, threads=threads)


def _run_fig3(column: str, count: int) -> list[tuple]:
    """Optimal detuning (column delta_opt, fig3a) or Kerr strength (u_opt,
    fig3b) against the drive ratio: numeric minimization next to both
    analytic references."""
    single = single_drive_optimum(_KAPPA, _J_DEFAULT)
    records = []
    for eta in np.logspace(math.log10(1.2), 2.0, count):
        optima = (numeric_optimum(_KAPPA, _J_DEFAULT, eta, 0.0, solver=SOLVER_FULL_TRUNCATED),
                  dual_drive_optimum_asymptotic(_KAPPA, _J_DEFAULT, eta), single)
        records.append((eta, *(getattr(optimum, column) for optimum in optima)))
    return records


_HEATMAP_SCRIPT = """\
# Generated by photonmol @VERSION@: log10 heatmap of @NAME@.csv
import csv
import math

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

with open("@NAME@.csv", newline="") as handle:
    rows = list(csv.DictReader(handle))
xs = np.array(sorted({float(r["@AX1@"]) for r in rows}))
ys = np.array(sorted({float(r["@AX2@"]) for r in rows}))
xi = {v: i for i, v in enumerate(xs)}
yi = {v: i for i, v in enumerate(ys)}
grid = np.full((ys.size, xs.size), np.nan)
for r in rows:
    if r["g2_a"]:
        grid[yi[float(r["@AX2@"])], xi[float(r["@AX1@"])]] = math.log10(float(r["g2_a"]))

fig, ax = plt.subplots(figsize=(5.2, 4.0))
mesh = ax.pcolormesh(xs, ys, grid, shading="nearest", cmap="jet",
                     vmin=-4.0, vmax=4.0)
fig.colorbar(mesh, ax=ax, label="log10 g2_a")
@OVERLAY@
ax.set_xlabel("@AX1@")
ax.set_ylabel("@AX2@")
@YSCALE@
ax.set_title("@NAME@")
ax.legend(loc="upper right")
fig.tight_layout()
fig.savefig("@NAME@.png", dpi=200)
"""

_LINES_SCRIPT = """\
# Generated by photonmol @VERSION@: line plot of @NAME@.csv
import csv
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

with open("@NAME@.csv", newline="") as handle:
    rows = list(csv.DictReader(handle))
series = defaultdict(list)
for r in rows:
    if r["@VALUE@"]:
        series[r["@GROUP@"]].append((float(r["@AX@"]), float(r["@VALUE@"])))

fig, ax = plt.subplots(figsize=(5.2, 4.0))
for label, pts in series.items():
    pts.sort()
    ax.plot([p[0] for p in pts], [p[1] for p in pts],
            label=f"@GROUP@={label}")
ax.set_xlabel("@AX@")
ax.set_ylabel("@VALUE@")
ax.set_yscale("log")
@XSCALE@
ax.set_title("@NAME@")
ax.legend()
fig.tight_layout()
fig.savefig("@NAME@.png", dpi=200)
"""

_OPTIMUM_SCRIPT = """\
# Generated by photonmol @VERSION@: optimal-parameter curves of @NAME@.csv
import csv

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

with open("@NAME@.csv", newline="") as handle:
    rows = list(csv.DictReader(handle))
etas = [float(r["eta"]) for r in rows]
fig, ax = plt.subplots(figsize=(5.2, 4.0))
for column, style in (("@COL@_numeric", "k-"), ("@COL@_dual_asymptotic", "r--"),
                      ("@COL@_single_asymptotic", "b:")):
    ax.plot(etas, [float(r[column]) for r in rows], style, label=column)
ax.set_xlabel("eta")
ax.set_ylabel("@COL@")
ax.set_xscale("log")
@YSCALE@
ax.set_title("@NAME@")
ax.legend()
fig.tight_layout()
fig.savefig("@NAME@.png", dpi=200)
"""


def _fill(template: str, **tokens) -> str:
    from ._version import __version__

    text = template.replace("@VERSION@", __version__)
    for key, value in tokens.items():
        text = text.replace(f"@{key}@", value)
    return text


def _overlay_lines(overlay: dict) -> str:
    code = overlay["code"]
    label = overlay["label"]
    if overlay["kind"] == "hline":
        return f'{code}\nax.axhline(ref, color="w", ls="--", label="{label}")'
    if overlay["kind"] == "curve":
        return f'{code}\nax.plot(xs, ref, "w--", label="{label}")'
    if overlay["kind"] == "curve_x":
        return f'{code}\nax.plot(ref, ys, "k--", label="{label}")'
    return f'{code}\nax.plot([ref[0]], [ref[1]], "wo", label="{label}")'


def figure(
    name: str,
    out_dir,
    threads: int = 1,
    count: int | None = None,
) -> dict:
    """Produce one figure dataset: CSV, metadata sidecar, and plot script.

    count overrides the default grid resolution (101 for the heatmaps and
    fig5, 201 for the cuts, 21 for the optimizer curves) and must be an
    integer of at least 2. threads splits the grid as in evaluate_grid; the
    optimizer curves run on one thread. Returns the written paths.
    """
    if name not in FIGURE_NAMES:
        raise ValueError(
            f"unknown figure {name!r}; valid names: {', '.join(FIGURE_NAMES)}"
        )
    if count is not None and (isinstance(count, bool)
                              or not isinstance(count, numbers.Integral) or count < 2):
        raise ValueError(f"count must be an integer of at least 2, got {count!r}")
    check_threads(threads)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    meta_path = out / f"{name}.meta.json"
    script_path = out / f"{name}_plot.py"
    meta: dict = {"figure": name}

    if name in ("fig5a", "fig5b"):
        rows = _run_fig5(count or 101, threads)
        write_rows_csv(rows, csv_path, "coupling_j", "eta_inv")
        value = "g2_a" if name == "fig5a" else "mean_n_a"
        script = _fill(_LINES_SCRIPT, NAME=name, GROUP="coupling_j",
                       AX="eta_inv", VALUE=value,
                       XSCALE='ax.set_xscale("log")')
        meta["bindings"] = {
            "couplings": list(_FIG5_COUPLINGS), "phi": math.pi / 3,
            "eps_a": _EPS_A, "optimum": "single_drive",
        }
    elif name in ("fig3a", "fig3b"):
        column = "delta_opt" if name == "fig3a" else "u_opt"
        write_csv(csv_path, ["eta", f"{column}_numeric",
                             f"{column}_dual_asymptotic",
                             f"{column}_single_asymptotic"],
                  _run_fig3(column, count or 21))
        yscale = 'ax.set_yscale("log")' if name == "fig3b" else ""
        script = _fill(_OPTIMUM_SCRIPT, NAME=name, COL=column, YSCALE=yscale)
        meta["bindings"] = {"coupling_j": _J_DEFAULT, "phi": 0.0,
                            "eps_a": _EPS_A, "solver": SOLVER_FULL_TRUNCATED}
    else:  # the heatmaps and the fig4c/fig4d cuts
        cuts = name in ("fig4c", "fig4d")
        cfg, overlay = _sweep_config(name, count or (201 if cuts else 101))
        write_rows_csv(run_sweep(cfg, threads=threads), csv_path,
                       cfg.axis1.parameter, cfg.axis2.parameter)
        meta["config"] = cfg.to_dict()
        if cuts:
            script = _fill(_LINES_SCRIPT, NAME=name, GROUP="eta_inv", AX="phi",
                           VALUE="g2_a", XSCALE="")
        else:
            yscale = 'ax.set_yscale("log")' if cfg.axis2.scale == "log" else ""
            script = _fill(_HEATMAP_SCRIPT, NAME=name, AX1=cfg.axis1.parameter,
                           AX2=cfg.axis2.parameter, OVERLAY=_overlay_lines(overlay),
                           YSCALE=yscale)

    script_path.write_text(script)
    write_sidecar(meta_path, meta)
    return {"csv": str(csv_path), "meta": str(meta_path),
            "plot": str(script_path)}
