"""Canned dataset recipes for the standard figure panels (fig1a..fig5b).

Each recipe writes a CSV dataset, a JSON metadata sidecar, and a standalone
matplotlib script rendering the panel (a log10 heatmap or line plot). Grid
ranges that are not fixed by the recipe bindings are estimates and can be
rescaled through the count override.

The heatmaps and the fig4c/fig4d cuts are SweepConfigs run by run_sweep;
fig5 is a sweep over coupling_j in (10, 20, 50) and a log-spaced eta_inv,
passed to the same row builder, sweep_rows, as (parameter, values) axes.
Both end in one evaluate_grid call. fig3 calls numeric_optimum once per
drive ratio, on one thread.
"""

import math
from pathlib import Path

import numpy as np

from .errors import check_int
from .model import SystemParams
from .optimal import (
    dual_drive_optimum_asymptotic,
    numeric_optimum,
    single_drive_optimum,
)
from .solvers import SOLVER_FULL_TRUNCATED, SOLVER_MASTER_EQUATION
from .sweep import (
    Axis,
    SweepConfig,
    run_sweep,
    sweep_rows,
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
_BASE = SystemParams(coupling_j=_J_DEFAULT, eps_a=_EPS_A, kappa_a=_KAPPA, kappa_b=_KAPPA)
_DUAL_RULES = ("delta := dual_drive_delta", "u := dual_drive_u")
_SINGLE_RULES = ("delta := single_drive_delta", "u := single_drive_u")


def _sweep_config(name: str, count: int) -> tuple[SweepConfig, str | None]:
    """SweepConfig of a heatmap (fig1a..fig2b, fig4a, fig4b) or cut (fig4c,
    fig4d: phi scans at two fixed drive ratios), and the two plot-script
    lines of the heatmap's reference overlay, which sets ref and draws it
    (None for a cut)."""
    single = single_drive_optimum(_KAPPA, _J_DEFAULT)
    eta, delta = Axis("eta", 1.05, 20.0, count), Axis("delta", 0.0, 5.0, count)
    u = Axis("u", 1e-3, 0.5, count, scale="log")
    phi, eta_inv = Axis("phi", 0.0, math.pi / 2, count), Axis("eta_inv", 0.01, 0.2, count)
    axis1, axis2, constraints, overlay = {
        "fig1a": (eta, delta, ("u := dual_drive_u",),
                  'ref = 10.0 / xs\nax.plot(xs, ref, "w--", label="delta = j/eta")'),
        "fig1b": (eta, delta, ("u := single_drive_u",),
                  f"ref = {single.delta_opt!r}\n"
                  'ax.axhline(ref, color="w", ls="--", label="single-drive delta_opt")'),
        "fig2a": (eta, u, ("delta := dual_drive_delta",),
                  "ref = 0.5 / 10.0 * xs / (xs**2 - 1.0)\n"
                  'ax.plot(xs, ref, "w--", label="dual-drive u_opt")'),
        "fig2b": (eta, u, ("delta := single_drive_delta",),
                  f"ref = {single.u_opt!r}\n"
                  'ax.axhline(ref, color="w", ls="--", label="single-drive u_opt")'),
        "fig4a": (phi, eta_inv, _DUAL_RULES,
                  "ref = np.arctan(1.0 / (2.0 * 10.0 * ys))\n"
                  'ax.plot(ref, ys, "k--", label="bunching phase curve")'),
        "fig4b": (phi, eta_inv, _SINGLE_RULES,
                  f"ref = ({math.pi / 3!r}, {1.0 / (math.sqrt(3.0) * _J_DEFAULT)!r})\n"
                  'ax.plot([ref[0]], [ref[1]], "wo", label="one-photon interference zero")'),
        "fig4c": (Axis("eta_inv", *_FIG4C_CUTS, 2), phi, _DUAL_RULES, None),
        "fig4d": (Axis("eta_inv", *_FIG4D_CUTS, 2), phi, _SINGLE_RULES, None),
    }[name]
    return SweepConfig(base=_BASE, axis1=axis1, axis2=axis2,
                       solver=SOLVER_MASTER_EQUATION, constraints=constraints), overlay


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


def figure(
    name: str,
    out_dir,
    threads: int = 1,
    count: int | None = None,
) -> dict:
    """Produce one figure dataset: CSV, metadata sidecar, and plot script.

    count overrides the default grid resolution (101 for the heatmaps and
    fig5, 201 for the cuts, 21 for the optimizer curves) and must be an
    integer of at least 2. threads shares the grid as in evaluate_grid; the
    optimizer curves run on one thread. Returns the written paths.
    """
    if name not in FIGURE_NAMES:
        raise ValueError(
            f"unknown figure {name!r}; valid names: {', '.join(FIGURE_NAMES)}"
        )
    if count is not None:
        check_int(count, 2, "count")
    check_int(threads, 1, "threads")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    meta_path = out / f"{name}.meta.json"
    script_path = out / f"{name}_plot.py"
    meta: dict = {"figure": name}

    if name in ("fig5a", "fig5b"):
        # g2 and mean photon number against the drive ratio for several
        # couplings, at the single-drive optimum and a pi/3 relative phase.
        eta_inv = np.logspace(math.log10(0.005), math.log10(0.2), count or 101)
        rows = sweep_rows(_BASE.replace(phi_a=math.pi / 3), ("coupling_j", _FIG5_COUPLINGS),
                          ("eta_inv", eta_inv), _SINGLE_RULES, SOLVER_MASTER_EQUATION,
                          threads=threads)
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
                           AX2=cfg.axis2.parameter, OVERLAY=overlay,
                           YSCALE=yscale)

    script_path.write_text(script)
    write_sidecar(meta_path, meta)
    return {"csv": str(csv_path), "meta": str(meta_path),
            "plot": str(script_path)}
