import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonmol import (
    Axis,
    SolverError,
    SweepConfig,
    SystemParams,
    evaluate_grid,
    numeric_optimum,
    run_point,
    run_sweep,
    single_drive_optimum,
    symmetric_params,
    sweep_to_files,
)
from photonmol.solvers import evaluate_point
from photonmol.model import PARAM_FIELDS
from photonmol.sweep import apply_axis, apply_constraints, parse_constraint, sweep_rows

SQRT3 = math.sqrt(3.0)


def linear_config(count=2, solver="MasterEquation"):
    return SweepConfig(
        base=SystemParams(coupling_j=3.0, eps_a=0.01, eps_b=0.005),
        axis1=Axis("delta", 0.0, 1.0, count),
        axis2=Axis("phi", 0.0, 1.0, count),
        solver=solver,
    )


def test_run_point_linear_system_is_coherent():
    params = symmetric_params(3.0, delta=0.5, u=0.0, eta=2.0, phi=0.3)
    row = run_point(params, "MasterEquation")
    assert row.g2_a == pytest.approx(1.0, abs=1e-6)
    assert row.solver == "MasterEquation"


def test_run_point_solvers_agree():
    params = symmetric_params(10.0, delta=1.0, u=0.05, eta=3.0, phi=0.4)
    exact = run_point(params, "MasterEquation")
    approx = run_point(params, "hierarchy")  # case-insensitive id
    assert approx.g2_a == pytest.approx(exact.g2_a, rel=5e-2)


def test_run_point_bunching_with_suppressed_photon_number():
    opt = single_drive_optimum(1.0, 10.0)
    params = symmetric_params(10.0, delta=opt.delta_opt, u=opt.u_opt,
                              eta=SQRT3 * 10.0, phi=math.pi / 3)
    row = run_point(params, "MasterEquation")
    assert row.g2_a > 1.0
    shifted = run_point(params.replace(eps_b=2 * params.eps_b), "MasterEquation")
    assert row.mean_n_a < shifted.mean_n_a / 100.0


def test_run_point_attaches_parameters_to_errors():
    params = SystemParams(coupling_j=3.0, delta_a=0.5, delta_b=0.5, eps_a=1e160)
    with pytest.raises(SolverError, match="delta_a"):
        run_point(params, "Hierarchy")


def test_rows_record_mode_a_parameters():
    params = SystemParams(delta_a=0.4, delta_b=-0.3, coupling_j=3.0,
                          u_a=0.02, u_b=0.07, eps_a=0.01)
    row = run_point(params, "MasterEquation")
    assert (row.delta, row.u) == (0.4, 0.02)
    config = SweepConfig(base=params, axis1=Axis("phi_a", 0.0, 1.0, 2),
                         axis2=Axis("eps_b", 0.0, 0.01, 2), solver="FullTruncated")
    assert {(r.delta, r.u) for r in run_sweep(config)} == {(0.4, 0.02)}


def test_run_point_rejects_bad_cutoff_before_solving():
    with pytest.raises(ValueError, match="cutoff"):
        run_point(SystemParams(eps_a=0.01), "MasterEquation", n_max=-1)


@pytest.mark.parametrize("solver", ["MasterEquation", "Hierarchy", "FullTruncated"])
@pytest.mark.parametrize("evaluate", [evaluate_point, run_point])
@pytest.mark.parametrize("n_max", [-1, 2.0, True])
def test_every_solver_refuses_a_bad_cutoff(solver, evaluate, n_max):
    with pytest.raises(ValueError, match="cutoff"):
        evaluate(SystemParams(eps_a=0.01), solver, n_max=n_max)


def test_trivial_sweep_rows():
    rows = run_sweep(linear_config())
    assert len(rows) == 4
    for row in rows:
        assert row.error == ""
        assert row.g2_a == pytest.approx(1.0, abs=1e-6)


def test_sweep_row_order_axis1_outer():
    config = linear_config(count=3)
    rows = run_sweep(config)
    axis1_expected = np.repeat(config.axis1.values(), 3)
    axis2_expected = np.tile(config.axis2.values(), 3)
    assert np.allclose([r.axis1 for r in rows], axis1_expected)
    assert np.allclose([r.axis2 for r in rows], axis2_expected)


@pytest.mark.parametrize("solver", ["MasterEquation", "Hierarchy", "FullTruncated"])
def test_sweep_threads_equivalent(tmp_path, solver):
    config = linear_config(count=3, solver=solver)
    sequential = run_sweep(config, threads=1)
    for threads in (2, 3):
        assert run_sweep(config, threads=threads) == sequential

    outputs = [tmp_path / f"threads{threads}.csv" for threads in (1, 2, 3)]
    for threads, out in enumerate(outputs, start=1):
        sweep_to_files(config, out, threads=threads)
    assert outputs[0].read_bytes() == outputs[1].read_bytes() == outputs[2].read_bytes()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_hierarchy_sweep_keeps_asymmetric_rows_apart(threads):
    # delta_a runs away from delta_b = 0: every row but the first three is
    # asymmetric, and each is its own point's value.
    base = SystemParams(coupling_j=3.0, eps_a=0.01, eps_b=0.005)
    config = SweepConfig(base=base, axis1=Axis("delta_a", 0.0, 1.0, 3),
                         axis2=Axis("phi", 0.0, 1.0, 3), solver="Hierarchy")
    rows = run_sweep(config, threads=threads)
    assert [r.error for r in rows] == [""] * 9
    for row in rows:
        params = apply_axis(base.replace(delta_a=row.axis1), "phi", row.axis2)
        g2, mean_n = evaluate_point(params, "Hierarchy")
        assert (row.delta, row.u, row.g2_a, row.mean_n_a) == (row.axis1, 0.0, g2, mean_n)
    assert len({row.mean_n_a for row in rows}) == 9
    assert run_sweep(config, threads=1) == rows


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_full_truncated_sweep_keeps_singular_rows_apart(threads):
    # kappa = 5e-324 leaves an exactly zero pivot ("Singular matrix" from
    # numpy) at the first point and a zero row at the third; one such point
    # must not fail the others.
    config = SweepConfig(base=SystemParams(kappa_b=5e-324),
                         axis1=Axis("kappa_a", 5e-324, 1.0, 2),
                         axis2=Axis("delta", 0.0, 1.0, 2), solver="FullTruncated")
    rows = run_sweep(config, threads=threads)
    assert [r.error for r in rows] == [
        "Singular matrix", "",
        "Singular matrix", ""]
    for row in rows[1::2]:  # undriven: no photons, g2 undefined
        assert (row.delta, row.u, row.g2_a, row.mean_n_a) == (1.0, 0.0, None, 0.0)
    for row in rows[0::2]:
        assert math.isnan(row.delta) and math.isnan(row.u)
        assert row.g2_a is None and row.mean_n_a is None


def test_sweep_csv_deterministic(tmp_path):
    config = linear_config(count=3)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep_to_files(config, out1)
    sweep_to_files(config, out2)
    assert out1.read_bytes() == out2.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["config"]["solver"] == "MasterEquation"
    assert "timestamp" in meta and "version" in meta


def test_sweep_errors_recorded_per_point():
    # eta <= 1 makes the dual-drive constraint diverge; those rows carry the
    # error and the sweep still completes the rest.
    config = SweepConfig(
        base=SystemParams(coupling_j=10.0, eps_a=0.01),
        axis1=Axis("eta", 0.5, 2.0, 2),
        axis2=Axis("delta", 0.0, 1.0, 2),
        solver="Hierarchy",
        constraints=("u := dual_drive_u",),
    )
    rows = run_sweep(config)
    assert [bool(r.error) for r in rows] == [True, True, False, False]
    assert all(r.g2_a is not None for r in rows if not r.error)


def test_undefined_g2_serialized_as_empty_cell(tmp_path):
    config = SweepConfig(
        base=SystemParams(coupling_j=3.0),  # undriven: no one-photon amplitude
        axis1=Axis("delta", 0.0, 1.0, 2),
        axis2=Axis("u", 0.0, 0.1, 2),
        solver="Hierarchy",
    )
    out = tmp_path / "undef.csv"
    rows = sweep_to_files(config, out)
    assert all(r.g2_a is None and not r.error for r in rows)
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    g2_col = header.index("g2_a")
    flag_col = header.index("g2_a_undefined")
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[g2_col] == ""
        assert cells[flag_col] == "true"


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("delta", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Axis("delta", 0.0, 1.0, 4, scale="cubic")
    with pytest.raises(ValueError):
        Axis("u", 0.0, 1.0, 4, scale="log")
    with pytest.raises(ValueError):
        Axis("not_a_parameter", 0.0, 1.0, 4)


def test_axis_stores_a_numpy_integer_count_as_int():
    axis = Axis("phi", 0.0, 1.0, np.int64(3))
    assert type(axis.count) is int
    assert json.loads(json.dumps(axis.to_dict()))["count"] == 3


@pytest.mark.parametrize("solver", [3, None])
@pytest.mark.parametrize("call", [
    lambda solver: evaluate_point(SystemParams(eps_a=0.01), solver),
    lambda solver: evaluate_grid({"eps_a": 0.01}, solver),
    lambda solver: numeric_optimum(1.0, 10.0, 3.0, 0.0, solver=solver),
    lambda solver: linear_config(solver=solver),
], ids=["evaluate_point", "evaluate_grid", "numeric_optimum", "SweepConfig"])
def test_a_solver_that_is_not_a_string_is_a_value_error(call, solver):
    with pytest.raises(ValueError, match="unknown solver"):
        call(solver)


@pytest.mark.parametrize("base, axis1", [
    (SystemParams(coupling_j=np.float32(10.0), eps_a=0.01), Axis("eta", 1.5, 3.0, 2)),
    (SystemParams(coupling_j=10.0, eps_a=0.01), Axis("eta", np.float32(1.5), 3.0, 2)),
])
def test_sidecar_takes_numpy_floats(tmp_path, base, axis1):
    config = SweepConfig(base=base, axis1=axis1, axis2=Axis("phi", 0.0, 1.0, 2),
                         solver="Hierarchy")
    sweep_to_files(config, tmp_path / "x.csv")
    meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
    assert SweepConfig.from_dict(meta["config"]) == config


def test_axis_values():
    lin = Axis("delta", 0.0, 2.0, 5)
    assert np.allclose(lin.values(), [0.0, 0.5, 1.0, 1.5, 2.0])
    log = Axis("u", 1e-3, 1e-1, 3, scale="log")
    assert np.allclose(log.values(), [1e-3, 1e-2, 1e-1])


def test_apply_axis_semantics():
    base = SystemParams(coupling_j=10.0, eps_a=0.01, phi_b=0.2)
    assert apply_axis(base, "eta", 4.0).eps_b == pytest.approx(0.0025)
    assert apply_axis(base, "eta_inv", 0.1).eps_b == pytest.approx(0.001)
    assert apply_axis(base, "phi", 0.5).phi_a == pytest.approx(0.7)
    point = apply_axis(base, "u", 0.03)
    assert point.u_a == point.u_b == 0.03
    point = apply_axis(base, "delta", -1.0)
    assert point.delta_a == point.delta_b == -1.0
    assert apply_axis(base, "kappa_b", 2.0).kappa_b == 2.0
    with pytest.raises(ValueError):
        apply_axis(base, "eta", 0.0)
    with pytest.raises(ValueError, match="bogus"):
        apply_axis(base, "bogus", 1.0)
    rows = sweep_rows(base, ("bogus", [1.0]), ("phi", [0.0, 0.5]), (), "Hierarchy")
    assert [row.error for row in rows] == ["unknown axis parameter 'bogus'"] * 2


@pytest.mark.parametrize("axis1, axis2, bad", [
    (("phi", ["0.5"]), ("eta", [2.0]), "phi"),
    (("phi", [0.5]), ("eta", [True]), "eta"),
    (("phi", [0.5, np.True_]), ("eta", [2.0]), "phi"),
    (("phi", np.array([0.5])), ("eta", np.array([1.0 + 1j])), "eta"),
    (("phi", [0.5]), ("eta", [None]), "eta"),
])
def test_sweep_rows_refuses_axis_values_that_are_not_numbers(axis1, axis2, bad):
    base = SystemParams(coupling_j=3.0, eps_a=0.01)
    with pytest.raises(ValueError, match=f"^{bad} axis values must be numbers"):
        sweep_rows(base, axis1, axis2, (), "Hierarchy")


def test_sweep_rows_takes_integer_axis_values_as_floats():
    base = SystemParams(coupling_j=3.0, eps_a=0.01)
    as_ints = sweep_rows(base, ("phi", [0, 1]), ("eta", (2,)), (), "Hierarchy")
    as_floats = sweep_rows(base, ("phi", [0.0, 1.0]), ("eta", [2.0]), (), "Hierarchy")
    assert as_ints == as_floats
    assert all(type(row.axis1) is float and type(row.axis2) is float for row in as_ints)


@pytest.mark.parametrize("field, value", [
    ("base", {"eps_a": 0.01}),
    ("axis1", {"parameter": "phi", "min": 0.0, "max": 1.0, "count": 2}),
    ("axis2", ("phi", [0.0, 1.0])),
])
def test_sweep_config_refuses_fields_of_the_wrong_type(field, value):
    config = linear_config(solver="Hierarchy")
    fields = {"base": config.base, "axis1": config.axis1, "axis2": config.axis2}
    fields[field] = value
    with pytest.raises(ValueError, match=f"^sweep config {field} must be a"):
        SweepConfig(**fields, solver="Hierarchy")


def test_constraint_parsing():
    assert parse_constraint("u := dual_drive_u") == ("u", "dual_drive_u")
    with pytest.raises(ValueError):
        parse_constraint("u = dual_drive_u")
    with pytest.raises(ValueError):
        parse_constraint("volume := dual_drive_u")
    with pytest.raises(ValueError):
        parse_constraint("u := quantum_magic")


def test_constraints_apply_in_order():
    params = SystemParams(coupling_j=10.0, eps_a=0.01, eps_b=0.005)
    pinned = apply_constraints(
        params, ("delta := dual_drive_delta", "u := dual_drive_u"))
    assert pinned.delta_a == pytest.approx(5.0)
    assert pinned.u_b == pytest.approx(1.0 / 30.0)


def test_config_round_trip():
    config = SweepConfig(
        base=SystemParams(coupling_j=10.0, eps_a=0.01),
        axis1=Axis("eta", 1.5, 20.0, 4),
        axis2=Axis("u", 1e-3, 0.5, 4, scale="log"),
        solver="masterequation",
        constraints=("delta := dual_drive_delta",),
    )
    assert config.solver == "MasterEquation"  # canonicalized
    rebuilt = SweepConfig.from_dict(config.to_dict())
    assert rebuilt == config
    with pytest.raises(ValueError):
        SweepConfig.from_dict({**config.to_dict(), "solver": "Exact"})


VALID_CONFIG = {
    "base": {"coupling_j": 10.0, "eps_a": 0.01},
    "axis1": {"parameter": "phi", "min": 0.0, "max": 1.0, "count": 3},
    "axis2": {"parameter": "eta", "min": 1.5, "max": 4.0, "count": 3,
              "scale": "log"},
    "solver": "FullTruncated",
    "constraints": ["u := dual_drive_u"],
}


@pytest.mark.parametrize("change", [
    {"axis1": {**VALID_CONFIG["axis1"], "step": 0.1}},
    {"axis1": {**VALID_CONFIG["axis1"], "count": 2.5}},
    {"axis1": {**VALID_CONFIG["axis1"], "count": "3"}},
    {"axis1": {**VALID_CONFIG["axis1"], "count": True}},
    {"axis1": {**VALID_CONFIG["axis1"], "min": None}},
    {"axis1": {**VALID_CONFIG["axis1"], "max": math.inf}},
    {"axis1": {"parameter": "phi", "min": 0.0, "count": 3}},
    {"axis2": {**VALID_CONFIG["axis2"], "max": -4.0}},
    {"axis2": [1.0, 2.0]},
    {"base": [10.0]},
    {"base": {"coupling_j": "ten"}},
    {"solver": 3},
    {"constraints": "u := dual_drive_u"},
    {"constraints": [1]},
    {"extra": 1},
    {"axis1": {**VALID_CONFIG["axis1"], "count": 3.0}},
    {"base": {"eps_a": True}},
    {"base": {"coupling_j": "10"}},
    {"axis1": {**VALID_CONFIG["axis1"], "min": "0"}},
    {"axis1": {**VALID_CONFIG["axis1"], "max": True}},
])
def test_config_from_dict_rejects_malformed_input(change):
    SweepConfig.from_dict(VALID_CONFIG)
    with pytest.raises(ValueError):
        SweepConfig.from_dict({**VALID_CONFIG, **change})


@pytest.mark.parametrize("constraints", [[1], "u := dual_drive_u", None, ["u := dual_drive_u", 2]])
def test_config_rejects_constraints_that_are_not_a_list_of_strings(constraints):
    config = linear_config()
    with pytest.raises(ValueError, match="^constraints must be a list of strings"):
        SweepConfig(config.base, config.axis1, config.axis2, config.solver, constraints)


def test_config_stores_constraints_as_a_tuple():
    config = linear_config()
    built = SweepConfig(config.base, config.axis1, config.axis2, config.solver,
                        ["u := dual_drive_u"])
    assert built.constraints == ("u := dual_drive_u",)


@pytest.mark.parametrize("count", [1, 2.5, 3.0, "3", True, None])
def test_axis_rejects_a_count_that_is_not_an_integer_of_at_least_two(count):
    with pytest.raises(ValueError, match="count"):
        Axis("eta", 1.1, 2.0, count)


@pytest.mark.parametrize("data", [[VALID_CONFIG], "config", None, 3.0])
def test_config_from_dict_rejects_non_objects(data):
    with pytest.raises(ValueError, match="JSON object"):
        SweepConfig.from_dict(data)


def test_config_from_dict_rejects_missing_fields():
    for name in ("axis1", "axis2", "solver"):
        data = {k: v for k, v in VALID_CONFIG.items() if k != name}
        with pytest.raises(ValueError, match=name):
            SweepConfig.from_dict(data)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(section=st.sampled_from(["axis1", "axis2", "base", "solver",
                                "constraints"]),
       key=st.sampled_from(["parameter", "min", "max", "count", "scale",
                            "coupling_j", "u_a"]),
       value=json_values)
def test_config_from_dict_raises_only_value_error(section, key, value):
    data = json.loads(json.dumps(VALID_CONFIG))
    if isinstance(data[section], dict):
        data[section][key] = value
    else:
        data[section] = value
    try:
        SweepConfig.from_dict(data)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(field=st.sampled_from(PARAM_FIELDS), value=json_values)
def test_constructors_raise_only_value_error(field, value):
    config = linear_config()
    calls = (
        lambda: SystemParams(**{field: value}),
        lambda: evaluate_grid({field: value}, "Hierarchy"),
        lambda: SweepConfig(config.base, config.axis1, config.axis2, config.solver,
                            constraints=value),
    )
    for call in calls:
        try:
            call()
        except ValueError:
            pass
