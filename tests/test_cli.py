import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import photonmol
from photonmol import cli_main

SRC = Path(photonmol.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_help_exits_cleanly(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "simulate")
    assert code == 1


def test_point_at_single_drive_optimum(capsys):
    code, out, _ = run_cli(
        capsys, "point", "--j", "10", "--eps-a", "0.01", "--eps-b", "0",
        "--delta", "0.2887", "--u", "0.00385")
    assert code == 0
    payload = json.loads(out)
    assert payload["g2_a"] < 1e-2
    assert payload["solver"] == "MasterEquation"
    assert payload["params"]["coupling_j"] == 10.0


def test_point_with_params_file(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"coupling_j": 3.0, "eps_a": 0.01,
                                "delta_a": 0.5, "delta_b": 0.5}))
    code, out, _ = run_cli(capsys, "point", "--params", str(path),
                           "--solver", "FullTruncated")
    assert code == 0
    payload = json.loads(out)
    assert payload["g2_a"] == pytest.approx(1.0, abs=1e-3)


def test_point_eta_conflicts_with_eps_b(capsys):
    code, _, err = run_cli(capsys, "point", "--j", "10", "--eta", "3",
                           "--eps-b", "0.01")
    assert code == 1
    assert "mutually exclusive" in err


def test_point_phi_is_the_relative_phase(capsys):
    code, out, _ = run_cli(capsys, "point", "--j", "10", "--eta", "3",
                           "--phi", "1", "--phi-b", "0.5")
    assert code == 0
    params = json.loads(out)["params"]
    assert (params["phi_a"], params["phi_b"]) == (1.5, 0.5)


def test_point_phi_conflicts_with_phi_a(capsys):
    code, _, err = run_cli(capsys, "point", "--phi", "1", "--phi-a", "0.5")
    assert code == 1
    assert "mutually exclusive" in err


def test_point_hierarchy_at_an_asymmetric_point(capsys):
    code, out, _ = run_cli(capsys, "point", "--j", "10", "--delta-a", "1",
                           "--delta-b", "2", "--u-a", "0.05", "--eps-a", "0.01",
                           "--solver", "Hierarchy")
    assert code == 0
    payload = json.loads(out)
    params = photonmol.SystemParams(**payload["params"])
    assert (params.delta_a, params.delta_b) == (1.0, 2.0)
    g2, mean_n = photonmol.evaluate_point(params, "Hierarchy")
    assert (payload["g2_a"], payload["mean_n_a"]) == (g2, mean_n)


@pytest.mark.parametrize("solver", ["MasterEquation", "Hierarchy"])
def test_point_overflow_is_a_solver_error(capsys, solver):
    code, out, err = run_cli(capsys, "point", "--j", "3", "--eps-a", "1e160",
                             "--delta", "0.5", "--solver", solver)
    assert code == 2
    assert out == ""  # no NaN or Infinity printed as JSON
    assert err.startswith("solver error:") and "overflowed" in err


@pytest.mark.parametrize("argv", [
    ("--eps-a", "1e140", "--solver", "Hierarchy"),
    ("--eps-a", "1e160"),
    ("--eps-a", "1e160", "--solver", "Hierarchy"),
    # Undriven, uncoupled, vanishing rates: 0/0 in the one-photon
    # amplitudes, and an exactly singular generator.
    ("--j", "0", "--delta", "0", "--kappa", "5e-324", "--eps-a", "0", "--solver", "Hierarchy"),
    ("--j", "0", "--delta", "0", "--kappa", "5e-324", "--eps-a", "0"),
])
def test_point_overflow_writes_one_stderr_line(capfd, argv):
    # A fresh interpreter, because pytest records warnings instead of
    # printing them; its stderr is the test's file descriptor 2.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "photonmol", "point", "--j", "3", "--delta", "0.5", *argv],
        env=dict(os.environ, PYTHONPATH=path), timeout=120)
    err = capfd.readouterr().err
    assert done.returncode == 2
    assert len(err.splitlines()) == 1 and err.startswith("solver error:"), err


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("solver", ["MasterEquation", "Hierarchy", "FullTruncated"])
def test_point_with_underflowing_mean_n_prints_an_undefined_g2(solver):
    # mean n ~ 6e-203: its square underflows to 0.0 under every solver.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "photonmol", "point", "--j", "3", "--eps-a", "1e-100",
         "--delta", "0.5", "--solver", solver],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    payload = json.loads(done.stdout, parse_constant=reject_constant)
    assert payload["g2_a"] is None and payload["g2_a_undefined"] is True
    assert 0.0 < payload["mean_n_a"] < 1e-200


@pytest.mark.parametrize("argv", [
    ("point", "--j", "10", "--u", "nan"),
    ("point", "--j", "10", "--eps-b", "inf"),
    ("point", "--j", "10", "--n-max", "-1"),
    ("optimize", "--j", "10", "--eta", "3", "--grid-points", "0"),
    ("optimize", "--j", "10", "--eta", "3", "--grid-points", "1"),
    ("optimize", "--j", "0", "--eta", "3"),
])
def test_bad_numbers_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("message", [
    "Unable to allocate 298. GiB for an array with shape (200000, 200000, 1) "
    "and data type float64",
    "",
])
def test_out_of_memory_is_one_error_line(capsys, monkeypatch, message):
    # Raised rather than provoked: where the kernel overcommits memory, a real
    # oversized grid would be allocated and filled.
    def numeric_optimum(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("photonmol.cli.numeric_optimum", numeric_optimum)
    code, out, err = run_cli(capsys, "optimize", "--j", "10", "--eta", "3",
                             "--grid-points", "200000")
    assert (code, out) == (1, "")
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert message in err


def test_optimize_dual_drive(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--j", "10", "--eta", "3",
                           "--phi", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_opt"] == pytest.approx(10.0 / 3.0, rel=0.10)
    assert payload["method"] == "Numeric"
    assert payload["g2_min"] < 1e-2


def test_optimize_stays_in_the_weak_kerr_window(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--j", "11.64", "--eta", "10.64",
                           "--phi", "1.43")
    assert code == 0
    assert json.loads(out)["u_opt"] <= 1.0


def test_optimize_accepts_infinite_ratio(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--j", "10", "--eta", "inf",
                           "--grid-points", "32")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_opt"] == pytest.approx(1.0 / (2 * math.sqrt(3.0)),
                                                 rel=0.15)


def test_sweep_end_to_end(tmp_path, capsys):
    config = {
        "base": {"coupling_j": 3.0, "eps_a": 0.01, "eps_b": 0.005},
        "axis1": {"parameter": "delta", "min": 0.0, "max": 1.0, "count": 2},
        "axis2": {"parameter": "phi", "min": 0.0, "max": 1.0, "count": 2},
        "solver": "Hierarchy",
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    out_path = tmp_path / "result.csv"
    code, out, _ = run_cli(capsys, "sweep", "--config", str(config_path),
                           "--out", str(out_path), "--threads", "2")
    assert code == 0
    assert "4 rows" in out
    assert out_path.exists()
    assert (tmp_path / "result.csv.meta.json").exists()


def test_sweep_without_coupling_writes_error_rows(tmp_path, capsys):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({
        "base": {"eps_a": 0.01},
        "axis1": {"parameter": "eta", "min": 2.0, "max": 3.0, "count": 2},
        "axis2": {"parameter": "delta", "min": 0.0, "max": 1.0, "count": 2},
        "solver": "Hierarchy",
        "constraints": ["u := dual_drive_u"],
    }))
    out_path = tmp_path / "result.csv"
    code, out, err = run_cli(capsys, "sweep", "--config", str(config_path),
                             "--out", str(out_path))
    assert (code, err) == (0, "")
    assert "(4 points failed)" in out
    with open(out_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["error"] for r in rows] == ["coupling strength j must be positive"] * 4


def test_sweep_with_bad_config(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"solver": "MasterEquation"}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(config_path),
                           "--out", str(tmp_path / "x.csv"))
    assert code == 1


@pytest.mark.parametrize("config", [
    [1, 2],
    {"axis1": {"parameter": "phi", "min": 0, "max": 1, "count": 3,
               "step": 0.1},
     "axis2": {"parameter": "eta", "min": 1, "max": 2, "count": 3},
     "solver": "Hierarchy"},
    {"axis1": {"parameter": "phi", "min": 0, "max": 1, "count": 2.5},
     "axis2": {"parameter": "eta", "min": 1, "max": 2, "count": 3},
     "solver": "Hierarchy"},
])
def test_sweep_with_malformed_config_is_one_line_usage_error(tmp_path, capsys,
                                                             config):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "sweep", "--config", str(config_path),
                           "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ("figure", "fig5a", "--count", "0"),
    ("figure", "fig5a", "--count", "1"),
    ("figure", "fig3a", "--count", "1"),
    ("figure", "fig4c", "--threads", "-1"),
    ("figure", "fig3a", "--threads", "0"),
    ("sweep", "--threads", "0"),
])
def test_bad_count_or_threads_is_one_line_usage_error(tmp_path, capsys, argv):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({
        "base": {"coupling_j": 3.0, "eps_a": 0.01},
        "axis1": {"parameter": "delta", "min": 0.0, "max": 1.0, "count": 2},
        "axis2": {"parameter": "phi", "min": 0.0, "max": 1.0, "count": 2},
        "solver": "Hierarchy",
    }))
    out_args = (("--config", str(config_path), "--out", str(tmp_path / "x.csv"))
                if argv[0] == "sweep" else ("--out-dir", str(tmp_path / "figs")))
    code, _, err = run_cli(capsys, *argv, *out_args)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "figs").exists()


def test_figure_unknown_name(capsys, tmp_path):
    code, _, err = run_cli(capsys, "figure", "fig9", "--out-dir", str(tmp_path))
    assert code == 1
    assert "fig1a" in err


def test_figure_small_grid(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "figure", "fig4d", "--out-dir",
                           str(tmp_path), "--count", "9")
    assert code == 0
    paths = json.loads(out)
    assert (tmp_path / "fig4d.csv").exists()
    assert (tmp_path / "fig4d_plot.py").exists()
    assert paths["csv"].endswith("fig4d.csv")
