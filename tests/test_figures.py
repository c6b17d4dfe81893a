import csv
import json
import math

import numpy as np
import pytest

from photonmol import FIGURE_NAMES, SystemParams, evaluate_point, figure, single_drive_optimum
from photonmol.model import apply_axis


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_unknown_figure_lists_valid_names():
    with pytest.raises(ValueError, match="fig4b"):
        figure("fig9", ".")


def test_figure_names_catalog():
    assert FIGURE_NAMES == ("fig1a", "fig1b", "fig2a", "fig2b", "fig3a",
                            "fig3b", "fig4a", "fig4b", "fig4c", "fig4d",
                            "fig5a", "fig5b")


def test_fig1b_outputs(tmp_path):
    paths = figure("fig1b", tmp_path, count=7)
    rows = read_csv(paths["csv"])
    assert len(rows) == 49
    script = open(paths["plot"]).read()
    compile(script, paths["plot"], "exec")  # plot script is valid python
    assert "axhline" in script  # single-drive detuning overlay
    assert f"{1.0 / (2.0 * math.sqrt(3.0))!r}" in script
    meta = json.loads(open(paths["meta"]).read())
    assert meta["figure"] == "fig1b"
    assert meta["config"]["constraints"] == ["u := single_drive_u"]


def test_fig1a_ridge_follows_drive_ratio(tmp_path):
    count = 21
    paths = figure("fig1a", tmp_path, count=count)
    rows = read_csv(paths["csv"])
    etas = sorted({float(r["eta"]) for r in rows})
    deltas = sorted({float(r["delta"]) for r in rows})
    cell = deltas[1] - deltas[0]
    checked = 0
    for eta in etas:
        if not 2.0 <= eta <= 10.0:
            continue
        column = [r for r in rows if float(r["eta"]) == eta]
        best = min(column, key=lambda r: float(r["g2_a"]) if r["g2_a"] else math.inf)
        assert abs(float(best["delta"]) - 10.0 / eta) <= cell + 1e-9
        checked += 1
    assert checked >= 5


def test_fig3a_numeric_tracks_dual_drive_reference(tmp_path):
    with pytest.warns(UserWarning, match="dual-drive asymptotics"):  # at eta = 100
        paths = figure("fig3a", tmp_path, count=6)
    rows = read_csv(paths["csv"])
    assert list(rows[0]) == ["eta", "delta_opt_numeric",
                             "delta_opt_dual_asymptotic",
                             "delta_opt_single_asymptotic"]
    for row in rows:
        eta = float(row["eta"])
        if 1.5 <= eta <= 8.0:
            numeric = float(row["delta_opt_numeric"])
            reference = float(row["delta_opt_dual_asymptotic"])
            assert abs(numeric - reference) / reference < 0.15
    script = open(paths["plot"]).read()
    compile(script, paths["plot"], "exec")


def test_fig4c_cut_shows_phase_controlled_statistics(tmp_path):
    paths = figure("fig4c", tmp_path, count=41)
    rows = [r for r in read_csv(paths["csv"])
            if float(r["eta_inv"]) == pytest.approx(0.16)]
    assert len(rows) == 41
    phis = np.array([float(r["phi"]) for r in rows])
    g2s = np.array([float(r["g2_a"]) for r in rows])
    assert g2s[int(np.argmin(np.abs(phis - 0.0)))] < 1.0
    assert g2s[int(np.argmin(np.abs(phis - 0.096 * math.pi)))] > 1.0


def test_figure_takes_a_numpy_integer_count(tmp_path):
    paths = figure("fig4c", tmp_path, count=np.int64(3))
    meta = json.loads(open(paths["meta"]).read())
    assert meta["config"]["axis2"]["count"] == 3
    assert len(read_csv(paths["csv"])) == 2 * 3  # two cuts of three phases


def test_fig5a_layout(tmp_path):
    paths = figure("fig5a", tmp_path, count=9)
    rows = read_csv(paths["csv"])
    assert len(rows) == 27
    couplings = [float(r["coupling_j"]) for r in rows]
    assert couplings == sorted(couplings)
    assert set(couplings) == {10.0, 20.0, 50.0}
    assert all(r["g2_a"] for r in rows)
    meta = json.loads(open(paths["meta"]).read())
    assert meta["bindings"]["phi"] == pytest.approx(math.pi / 3)


def test_fig5a_rows_are_points_of_a_sweep(tmp_path):
    rows = read_csv(figure("fig5a", tmp_path, count=21)["csv"])
    base = SystemParams(eps_a=0.01, phi_a=math.pi / 3)
    for row in rows:
        params = apply_axis(base, "coupling_j", float(row["coupling_j"]))
        params = apply_axis(params, "eta_inv", float(row["eta_inv"]))
        single = single_drive_optimum(1.0, params.coupling_j)
        params = apply_axis(apply_axis(params, "delta", single.delta_opt),
                            "u", single.u_opt)
        g2, mean_n = evaluate_point(params, "MasterEquation")
        assert (float(row["g2_a"]), float(row["mean_n_a"])) == (g2, mean_n)
        assert (float(row["delta_used"]), float(row["u_used"])) == (
            params.delta_a, params.u_a)


def test_figure_outputs_deterministic(tmp_path):
    first = figure("fig4d", tmp_path / "run1", count=11)
    second = figure("fig4d", tmp_path / "run2", count=11)
    assert (open(first["csv"], "rb").read() == open(second["csv"], "rb").read())


def test_figure_threads_equivalent(tmp_path):
    sequential = figure("fig2a", tmp_path / "seq", count=5)
    parallel = figure("fig2a", tmp_path / "par", count=5, threads=3)
    assert (open(sequential["csv"], "rb").read()
            == open(parallel["csv"], "rb").read())


@pytest.mark.parametrize("name, count", [
    ("fig5a", 0), ("fig5a", 1), ("fig3a", 0), ("fig3a", 1), ("fig1a", 0),
    ("fig4c", 2.5), ("fig5b", True), ("fig3b", 3.0),
])
def test_figure_rejects_counts_below_two(tmp_path, name, count):
    with pytest.raises(ValueError, match="count"):
        figure(name, tmp_path / "out", count=count)
    assert not (tmp_path / "out").exists()
