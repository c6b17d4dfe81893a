import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from photonmol import (
    bunching_phase_curve,
    c10_zero_condition,
    dual_drive_optimum_asymptotic,
    dual_drive_optimum_exact_phi0,
    evaluate_point,
    g2_approx,
    hierarchy_steady,
    numeric_optimum,
    one_photon_amplitudes,
    single_drive_optimum,
    symmetric_params,
)
import photonmol.optimal as optimal
from photonmol.errors import SolverError
from photonmol.optimal import (
    _ordered_argmin,
    _u_eliminated_polynomial,
    exact_condition_residuals,
)

SQRT3 = math.sqrt(3.0)

SRC = Path(optimal.__file__).resolve().parents[1]


class TestSingleDriveOptimum:
    def test_reference_values(self):
        opt = single_drive_optimum(1.0, 10.0)
        assert opt.delta_opt == pytest.approx(0.28868, abs=1e-5)
        assert opt.u_opt == pytest.approx(0.0038490, abs=1e-7)
        assert opt.g2_min is None
        assert opt.method == "SingleDriveAsymptotic"

    def test_negative_branch(self):
        plus = single_drive_optimum(1.0, 10.0, branch="+")
        minus = single_drive_optimum(1.0, 10.0, branch="-")
        assert minus.delta_opt == -plus.delta_opt
        assert minus.u_opt == -plus.u_opt

    def test_coupling_scaling(self):
        ten = single_drive_optimum(1.0, 10.0)
        twenty = single_drive_optimum(1.0, 20.0)
        assert twenty.delta_opt == ten.delta_opt
        assert twenty.u_opt == pytest.approx(ten.u_opt / 4.0, rel=1e-12)

    def test_validation_and_warning(self):
        with pytest.raises(ValueError):
            single_drive_optimum(1.0, 0.0)
        with pytest.raises(ValueError):
            single_drive_optimum(1.0, 10.0, branch="x")
        with pytest.warns(UserWarning):
            single_drive_optimum(1.0, 2.0)


class TestDualDriveAsymptotic:
    def test_reference_values(self):
        opt = dual_drive_optimum_asymptotic(1.0, 10.0, 2.0)
        assert opt.delta_opt == pytest.approx(5.0)
        assert opt.u_opt == pytest.approx(1.0 / 30.0)

        opt = dual_drive_optimum_asymptotic(1.0, 10.0, 3.0)
        assert opt.delta_opt == pytest.approx(10.0 / 3.0)
        assert opt.u_opt == pytest.approx(0.01875)
        assert opt.method == "DualDriveAsymptotic"

    def test_pole_at_unit_ratio(self):
        with pytest.raises(ValueError):
            dual_drive_optimum_asymptotic(1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            dual_drive_optimum_asymptotic(1.0, 10.0, 0.5)

    def test_large_ratio_warning(self):
        with pytest.warns(UserWarning):
            dual_drive_optimum_asymptotic(1.0, 10.0, 150.0)


class TestDualDriveExact:
    def test_close_to_asymptotic(self):
        exact = dual_drive_optimum_exact_phi0(1.0, 10.0, 3.0)
        asym = dual_drive_optimum_asymptotic(1.0, 10.0, 3.0)
        assert exact.delta_opt == pytest.approx(asym.delta_opt, rel=0.05)
        assert exact.u_opt == pytest.approx(asym.u_opt, rel=0.05)
        assert exact.method == "DualDriveExact"

    def test_residuals_over_parameter_grid(self):
        for j in (10.0, 20.0, 50.0):
            for eta in (1.5, 2.0, 3.0, 5.0, 8.0):
                opt = dual_drive_optimum_exact_phi0(1.0, j, eta)
                res_r, res_i = exact_condition_residuals(
                    opt.delta_opt, opt.u_opt, 1.0, j, eta)
                assert res_r < 1e-10 and res_i < 1e-10

    def test_sharpens_toward_asymptotic_at_strong_coupling(self):
        exact = dual_drive_optimum_exact_phi0(1.0, 100.0, 3.0)
        asym = dual_drive_optimum_asymptotic(1.0, 100.0, 3.0)
        assert abs(exact.delta_opt - asym.delta_opt) / asym.delta_opt < 1e-3
        assert abs(exact.u_opt - asym.u_opt) / asym.u_opt < 1e-3

    def test_gap_decreases_with_coupling(self):
        gaps_delta, gaps_u = [], []
        for j in (10.0, 30.0, 100.0):
            exact = dual_drive_optimum_exact_phi0(1.0, j, 3.0)
            asym = dual_drive_optimum_asymptotic(1.0, j, 3.0)
            gaps_delta.append(abs(exact.delta_opt - asym.delta_opt) / asym.delta_opt)
            gaps_u.append(abs(exact.u_opt - asym.u_opt) / asym.u_opt)
        assert gaps_delta[0] > gaps_delta[1] > gaps_delta[2]
        assert gaps_u[0] > gaps_u[1] > gaps_u[2]

    def test_requires_ratio_above_one(self):
        with pytest.raises(ValueError):
            dual_drive_optimum_exact_phi0(1.0, 10.0, 1.0)

    @pytest.mark.parametrize("samples", [-1, 0, 1, 64.0, True])
    def test_requires_two_samples(self, samples):
        with pytest.raises(ValueError, match="samples"):
            dual_drive_optimum_exact_phi0(1.0, 10.0, 3.0, samples=samples)

    def test_vectorised_scan_equals_pointwise_scan(self):
        for j, eta in ((10.0, 3.0), (20.0, 1.5), (50.0, 8.0), (12.5, 40.0)):
            poly, _, _ = _u_eliminated_polynomial(
                np.longdouble(1.0), np.longdouble(j), np.longdouble(eta))
            grid = np.linspace(2.0 * j / 4096, 2.0 * j, 4096)
            pointwise = [float(poly(np.longdouble(d))) for d in grid]
            assert poly(grid.astype(np.longdouble)).astype(float).tolist() == pointwise


# The exact conditions as release 0.4.1 wrote them, term by term in each of
# three places, kept as the reference for the one term table that replaced
# them.


def det_condition_real(delta, u, kappa, j, eta):
    """Real part of the determinant condition at zero relative phase."""
    return (
        16 * j * delta**2 - 4 * j * kappa**2 + 6 * delta * kappa**2 * eta
        - 8 * delta**3 * eta - 8 * delta * j**2 / eta + 16 * j * delta * u
        - 4 * j**2 / eta * u - 4 * j**2 * eta * u - 8 * delta**2 * eta * u
        + 2 * kappa**2 * eta * u
    )


def det_condition_imag(delta, u, kappa, j, eta):
    """Imaginary part of the determinant condition at zero relative phase."""
    return (
        4 * j**2 * kappa / eta + 12 * kappa * delta**2 * eta - kappa**3 * eta
        - 16 * j * kappa * delta + 8 * kappa * delta * eta * u
        - 8 * j * kappa * u
    )


def _condition_scales(delta, u, kappa, j, eta):
    """Sum of term magnitudes of each condition, for relative residuals."""
    real_scale = (
        abs(16 * j * delta**2) + abs(4 * j * kappa**2)
        + abs(6 * delta * kappa**2 * eta) + abs(8 * delta**3 * eta)
        + abs(8 * delta * j**2 / eta) + abs(16 * j * delta * u)
        + abs(4 * j**2 / eta * u) + abs(4 * j**2 * eta * u)
        + abs(8 * delta**2 * eta * u) + abs(2 * kappa**2 * eta * u)
    )
    imag_scale = (
        abs(4 * j**2 * kappa / eta) + abs(12 * kappa * delta**2 * eta)
        + abs(kappa**3 * eta) + abs(16 * j * kappa * delta)
        + abs(8 * kappa * delta * eta * u) + abs(8 * j * kappa * u)
    )
    return max(real_scale, kappa**3), max(imag_scale, kappa**3)


def reference_residuals(delta, u, kappa, j, eta):
    d, uu = np.longdouble(delta), np.longdouble(u)
    k, jj, e = np.longdouble(kappa), np.longdouble(j), np.longdouble(eta)
    scale_r, scale_i = _condition_scales(d, uu, k, jj, e)
    return (
        float(abs(det_condition_real(d, uu, k, jj, e)) / scale_r),
        float(abs(det_condition_imag(d, uu, k, jj, e)) / scale_i),
    )


def reference_u_eliminated_polynomial(kappa, j, eta):
    def a_part(d):
        return (16 * j * d**2 - 4 * j * kappa**2 + 6 * d * kappa**2 * eta
                - 8 * d**3 * eta - 8 * d * j**2 / eta)

    def a_part_d(d):
        return 32 * j * d + 6 * kappa**2 * eta - 24 * d**2 * eta - 8 * j**2 / eta

    def b_part(d):
        return (16 * j * d - 4 * j**2 / eta - 4 * j**2 * eta
                - 8 * d**2 * eta + 2 * kappa**2 * eta)

    def b_part_d(d):
        return 16 * j - 16 * d * eta

    def n_part(d):
        return -(4 * j**2 / eta + 12 * d**2 * eta - kappa**2 * eta - 16 * j * d)

    def n_part_d(d):
        return 16 * j - 24 * d * eta

    def d_part(d):
        return 8 * (d * eta - j)

    def poly(d):
        return a_part(d) * d_part(d) + b_part(d) * n_part(d)

    def poly_d(d):
        return (a_part_d(d) * d_part(d) + a_part(d) * 8 * eta
                + b_part_d(d) * n_part(d) + b_part(d) * n_part_d(d))

    def u_of(d):
        return n_part(d) / d_part(d)

    return poly, poly_d, u_of


CONDITION_CASES = [(1.0, 10.0, 3.0), (1.0, 20.0, 1.5), (0.5, 7.0, 4.0), (2.0, 50.0, 8.0)]


@pytest.mark.parametrize("kappa, j, eta", CONDITION_CASES)
def test_u_eliminated_polynomial_equals_the_reference_bitwise(kappa, j, eta):
    grid = np.linspace(2.0 * j / 4096, 2.0 * j, 4096).astype(np.longdouble)
    args = np.longdouble(kappa), np.longdouble(j), np.longdouble(eta)
    with np.errstate(divide="ignore", invalid="ignore"):  # u_of where delta = j/eta
        for new, ref in zip(_u_eliminated_polynomial(*args),
                            reference_u_eliminated_polynomial(*args)):
            assert np.array_equal(new(grid), ref(grid), equal_nan=True)


@pytest.mark.parametrize("kappa, j, eta", CONDITION_CASES)
def test_residuals_equal_the_reference(kappa, j, eta):
    opt = dual_drive_optimum_exact_phi0(kappa, j, eta)
    rng = np.random.default_rng(7)
    points = [(opt.delta_opt, opt.u_opt)] + [
        (rng.uniform(0.0, 2.0 * j), rng.uniform(-kappa, kappa)) for _ in range(50)]
    for delta, u in points:
        real, imag = exact_condition_residuals(delta, u, kappa, j, eta)
        ref_real, ref_imag = reference_residuals(delta, u, kappa, j, eta)
        assert real == ref_real
        assert abs(imag - ref_imag) <= 1e-18


class TestNumericOptimum:
    def test_single_drive_limit(self):
        opt = numeric_optimum(1.0, 10.0, math.inf, 0.0)
        assert opt.delta_opt == pytest.approx(0.28868, rel=0.10)
        assert opt.u_opt == pytest.approx(0.0038490, rel=0.10)
        assert opt.method == "Numeric"

    def test_matches_dual_drive_asymptotic(self):
        opt = numeric_optimum(1.0, 10.0, 3.0, 0.0)
        asym = dual_drive_optimum_asymptotic(1.0, 10.0, 3.0)
        assert opt.delta_opt == pytest.approx(asym.delta_opt, rel=0.10)
        assert opt.u_opt == pytest.approx(asym.u_opt, rel=0.10)

    def test_large_ratio_approaches_single_drive(self):
        opt = numeric_optimum(1.0, 10.0, 100.0, 0.0)
        single = single_drive_optimum(1.0, 10.0)
        assert (abs(opt.delta_opt - single.delta_opt)
                < abs(opt.delta_opt - 10.0 / 100.0))

    def test_g2_min_consistent_with_amplitude_solver(self):
        opt = numeric_optimum(1.0, 10.0, 3.0, 0.0)
        params = symmetric_params(10.0, delta=opt.delta_opt, u=opt.u_opt,
                                  eta=3.0, phi=0.0)
        g2, _ = evaluate_point(params, "FullTruncated")
        assert abs(g2 - opt.g2_min) < 1e-12

    def test_never_worse_than_asymptotic_candidate(self):
        for eta, phi in ((3.0, 0.0), (5.0, 0.2), (2.0, math.pi / 3)):
            opt = numeric_optimum(1.0, 10.0, eta, phi)
            asym = dual_drive_optimum_asymptotic(1.0, 10.0, eta)
            params = symmetric_params(10.0, delta=asym.delta_opt,
                                      u=asym.u_opt, eta=eta, phi=phi)
            candidate, _ = evaluate_point(params, "FullTruncated")
            assert opt.g2_min <= candidate

    def test_hierarchy_solver_agrees(self):
        opt = numeric_optimum(1.0, 10.0, 3.0, 0.0, solver="Hierarchy")
        asym = dual_drive_optimum_asymptotic(1.0, 10.0, 3.0)
        assert opt.delta_opt == pytest.approx(asym.delta_opt, rel=0.10)

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            numeric_optimum(1.0, 10.0, 3.0, 0.0, solver="Magic")


class TestBunchingConditions:
    def test_reference_point(self):
        cond = c10_zero_condition(1.0, 10.0, 1.0 / (2.0 * SQRT3))
        assert cond.phi_star == pytest.approx(math.pi / 3, abs=1e-12)
        assert cond.eta_inv_star == pytest.approx(0.057735, abs=1e-6)

    def test_resonant_detuning(self):
        cond = c10_zero_condition(1.0, 10.0, 0.0)
        assert cond.phi_star == pytest.approx(math.pi / 2, abs=1e-12)
        assert cond.eta_inv_star == pytest.approx(0.05, abs=1e-12)

    def test_condition_zeroes_one_photon_amplitude(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            delta = rng.uniform(-5.0, 5.0)
            cond = c10_zero_condition(1.0, 10.0, delta)
            params = symmetric_params(10.0, delta=delta,
                                      eta=1.0 / cond.eta_inv_star,
                                      phi=cond.phi_star)
            c10, c01 = one_photon_amplitudes(params)
            assert abs(c10) <= 1e-12 * abs(c01)

    def test_coupling_validation(self):
        with pytest.raises(ValueError):
            c10_zero_condition(1.0, 0.0, 1.0)

    def test_phase_curve_limits(self):
        assert bunching_phase_curve(1.0, 10.0, 1e-9) == pytest.approx(0.0, abs=1e-9)
        with pytest.warns(UserWarning):
            value = bunching_phase_curve(1.0, 10.0, 20.0)
        assert value == pytest.approx(math.pi / 4)

    def test_phase_curve_marks_bunching(self):
        # Moving from zero relative phase onto the curve boosts the
        # correlation by far more than one order of magnitude.
        asym = dual_drive_optimum_asymptotic(1.0, 10.0, 5.0)
        phi_curve = bunching_phase_curve(1.0, 10.0, 5.0)
        values = []
        for phi in (0.0, phi_curve):
            params = symmetric_params(10.0, delta=asym.delta_opt,
                                      u=asym.u_opt, eta=5.0, phi=phi)
            values.append(g2_approx(hierarchy_steady(params)))
        assert values[1] >= 10.0 * values[0]


@pytest.mark.parametrize("call", [
    lambda: single_drive_optimum(1.0, 0.0),
    lambda: c10_zero_condition(1.0, 0.0, 0.5),
    lambda: dual_drive_optimum_asymptotic(1.0, 0.0, 3.0),
    lambda: dual_drive_optimum_exact_phi0(1.0, -1.0, 3.0),
    lambda: bunching_phase_curve(1.0, 0.0, 3.0),
    lambda: numeric_optimum(1.0, 0.0, 3.0, 0.0),
], ids=["single_drive", "c10_zero", "dual_asymptotic", "dual_exact", "bunching_curve",
        "numeric"])
def test_conditions_reject_non_positive_coupling(call):
    with pytest.raises(ValueError, match="coupling strength j must be positive"):
        call()


@pytest.mark.parametrize("grid_points", [1, 3.0, True])
def test_numeric_optimum_rejects_bad_grid_points(grid_points):
    with pytest.raises(ValueError, match="grid_points"):
        numeric_optimum(1.0, 10.0, 3.0, 0.0, grid_points=grid_points)


def test_numeric_optimum_error_on_empty_grid():
    # A two-point grid confined to an undefined region cannot happen with the
    # standard domain, so force it with undriven parameters.
    with pytest.raises(SolverError):
        numeric_optimum(1.0, 10.0, math.inf, 0.0, eps_a=0.0, grid_points=2)


# --- the optimiser's contract: the weak-Kerr window and the analytic optima --


def workload_requests(seed, batches):
    """(j, eta, phi) requests drawn as perfbench's optimize workload draws
    them: j in [10, 20], eta log-uniform in [1.2, 100], and in each batch
    one request at phi = 0 and one at phi in [0.05, pi/2]."""
    rng = np.random.default_rng([seed, 2])

    def request(phi):
        j = rng.uniform(10.0, 20.0)
        return j, 10.0 ** rng.uniform(math.log10(1.2), math.log10(100.0)), phi

    out = []
    for _ in range(batches):
        out.append(request(0.0))
        out.append(request(rng.uniform(0.05, math.pi / 2)))
    return out


# Requests whose refinement left the window at 0.2.0 (u_opt up to 2.6e5
# kappa) or ended on its top edge far from the weak-Kerr dip.
EDGE_REQUESTS = [
    (11.64, 10.64, 1.43),
    (18.50634687232882, 49.88371123353292, 0.0),
    (16.71440429531723, 72.32992043726412, 1.449422021049345),
]


def analytic_bound(j, eta, phi):
    """FullTruncated g2 at the asymptotic optimum and, at phi = 0, at the
    exact one, whichever is lower, plus the benchmark's 1e-7 slack for
    REFINE_TOL."""
    refs = [dual_drive_optimum_asymptotic(1.0, j, eta)]
    if phi == 0.0:
        refs.append(dual_drive_optimum_exact_phi0(1.0, j, eta))
    return min(
        evaluate_point(symmetric_params(j, delta=ref.delta_opt, u=ref.u_opt,
                                        eta=eta, phi=phi), "FullTruncated")[0]
        for ref in refs) + 1e-7


@pytest.mark.parametrize("j, eta, phi", workload_requests(1, 20) + EDGE_REQUESTS)
def test_numeric_optimum_stays_weak_kerr_and_beats_analytic(j, eta, phi):
    opt = numeric_optimum(1.0, j, eta, phi)
    assert opt.u_opt <= 1.0
    assert opt.g2_min <= analytic_bound(j, eta, phi)


def test_restart_when_the_exact_optimum_raises(monkeypatch):
    def no_root(*args, **kwargs):
        raise SolverError("no root")

    j, eta, phi = EDGE_REQUESTS[1]
    bound = analytic_bound(j, eta, phi)
    monkeypatch.setattr(optimal, "dual_drive_optimum_exact_phi0", no_root)
    opt = numeric_optimum(1.0, j, eta, phi)
    assert opt.u_opt <= 1.0
    assert opt.g2_min <= bound


def test_restart_when_the_exact_optimum_has_negative_u():
    # Near eta = 1 the exact phi = 0 optimum has u < 0 (here u = -3.89), so
    # the restart seeds from the asymptotic one.
    assert dual_drive_optimum_exact_phi0(1.0, 2.8983050847457625, 1.01).u_opt < 0
    opt = numeric_optimum(1.0, 2.8983050847457625, 1.01, 0.0)
    assert 0 < opt.u_opt <= 1.0 and math.isfinite(opt.g2_min)


# numeric_optimum and dual_drive_optimum_exact_phi0 outputs of release 0.2.0,
# as float.hex, which the batched grid and the vectorised scan reproduce.
NUMERIC_PINS = [
    ((10.0, 3.0, 0.0, "FullTruncated"),
     ("0x1.af5caf392b826p+1", "0x1.3d63d6e470edbp-6", "0x1.b06f5a9efebc5p-31")),
    ((15.0, 5.5, 0.7, "FullTruncated"),
     ("0x1.e7b4d27e297cdp+0", "0x1.d78420043e433p-6", "0x1.6721299fbb14cp-31")),
    ((10.0, math.inf, 0.0, "FullTruncated"),
     ("0x1.265500dcea1dep-2", "0x1.f8970924c7ba6p-9", "0x1.1c7654290aed6p-29")),
    ((20.0, 1.5, 0.0, "FullTruncated"),
     ("0x1.aaf74eff37322p+3", "0x1.ed6fae27682c7p-6", "0x1.63b57f93ba608p-30")),
    ((10.0, 3.0, 0.0, "Hierarchy"),
     ("0x1.af5cfaa74bd4bp+1", "0x1.3d714dc08fb46p-6", "0x1.16aca5fd75364p-29")),
]

EXACT_PINS = [
    ((10.0, 3.0), ("0x1.af5ca3bc7dbc8p+1", "0x1.3d7233d9841d1p-6")),
    ((20.0, 1.5), ("0x1.aaf736997d1fep+3", "0x1.ed7dd73db717bp-6")),
    ((12.5, 8.0), ("0x1.a30cb36d5e34ep+0", "0x1.75e7bacded1aap-8")),
]


@pytest.mark.parametrize("case, expected", NUMERIC_PINS)
def test_numeric_optimum_pinned(case, expected):
    j, eta, phi, solver = case
    opt = numeric_optimum(1.0, j, eta, phi, solver=solver)
    assert (opt.delta_opt.hex(), opt.u_opt.hex(), float(opt.g2_min).hex()) == expected


@pytest.mark.parametrize("case, expected", EXACT_PINS)
def test_exact_optimum_pinned(case, expected):
    opt = dual_drive_optimum_exact_phi0(1.0, *case)
    assert (opt.delta_opt.hex(), opt.u_opt.hex()) == expected


def test_import_leaves_scipy_optimize_to_the_optimisers():
    # A fresh interpreter, because this one has imported scipy.optimize.
    script = (
        "import sys\n"
        "import photonmol\n"
        "print('scipy.optimize' in sys.modules)\n"
        "opt = photonmol.numeric_optimum(1, 12, 5, 0.3)\n"
        "exact = photonmol.dual_drive_optimum_exact_phi0(1, 10, 3)\n"
        "print(opt.delta_opt.hex(), opt.u_opt.hex(), float(opt.g2_min).hex(),\n"
        "      exact.delta_opt.hex(), exact.u_opt.hex())\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    loaded, answers = done.stdout.splitlines()
    assert loaded == "False"
    opt = numeric_optimum(1, 12, 5, 0.3)
    exact = dual_drive_optimum_exact_phi0(1, 10, 3)
    assert answers.split() == [opt.delta_opt.hex(), opt.u_opt.hex(), float(opt.g2_min).hex(),
                               exact.delta_opt.hex(), exact.u_opt.hex()]


class TestOrderedArgmin:
    def test_ties_keep_the_earlier_point(self):
        assert _ordered_argmin(np.full((2, 3), 0.5)) == (0, 0)
        # Within 1e-12 of the best so far is a tie, even below it.
        values = np.array([[5.0, 2.0, 2.0 + 5e-13],
                           [2.0 - 5e-13, 3.0, 2.0 - 9e-13]])
        assert _ordered_argmin(values) == (0, 1)

    def test_moves_on_more_than_the_tolerance(self):
        values = np.array([[5.0, 2.0, 2.0 + 5e-13],
                           [2.0 - 5e-13, 3.0, 2.0 - 2e-12]])
        assert _ordered_argmin(values) == (1, 2)

    def test_tolerance_is_against_the_running_best(self):
        # np.argmin would pick the last value; each lies within 1e-12 of
        # the first, which therefore stays the best.
        assert _ordered_argmin(np.array([1.0, 1.0 - 0.8e-12, 1.0 - 0.9e-12])) == (0,)

    def test_non_finite_values_never_win(self):
        assert _ordered_argmin(np.array([[math.nan, math.inf], [7.0, math.nan]])) == (1, 0)
        assert _ordered_argmin(np.array([[math.nan, math.inf]])) is None
