import math
import sys

import numpy as np
import pytest

from photonmol import (
    SOLVER_FULL_TRUNCATED,
    SOLVER_HIERARCHY,
    AmplitudeSet,
    HilbertSpec,
    SystemParams,
    dual_drive_optimum_asymptotic,
    full_truncated_steady,
    g2_approx,
    hierarchy_steady,
    liouvillian,
    mean_photon_approx,
    observables,
    one_photon_amplitudes,
    single_drive_optimum,
    steady_state,
    symmetric_params,
    two_photon_amplitudes,
)
from photonmol.errors import SolverError
from photonmol.model import PARAM_FIELDS
import photonmol.solvers as solvers
from photonmol.solvers import GRID_CHUNK, evaluate_grid, evaluate_point
from property_checks import asymmetric_params, generic_params

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def drive_phasors(params):
    return (params.eps_a * np.exp(1j * params.phi_a),
            params.eps_b * np.exp(1j * params.phi_b))


def test_one_photon_zero_at_interference_point():
    params = symmetric_params(10.0, delta=1.0 / (2.0 * SQRT3),
                              eta=SQRT3 * 10.0, phi=math.pi / 3)
    c10, c01 = one_photon_amplitudes(params)
    assert abs(c10) < 1e-12 * abs(c01)


def test_one_photon_symmetric_drive():
    params = symmetric_params(5.0, delta=0.8, eta=1.0, phi=0.0)
    c10, c01 = one_photon_amplitudes(params)
    assert c10 == c01


def test_one_photon_single_drive_closed_form():
    params = symmetric_params(10.0, delta=1.2, eta=math.inf, phi=0.4)
    c10, c01 = one_photon_amplitudes(params)
    pole = params.delta_a - 0.5j * params.kappa_a
    denom = pole**2 - params.coupling_j**2
    ea = params.eps_a * np.exp(1j * params.phi_a)
    assert c10 == pytest.approx(-ea * pole / denom)
    assert c01 == pytest.approx(ea * params.coupling_j / denom)


def test_closed_forms_accept_asymmetric_configuration():
    for params in (
        SystemParams(delta_a=1.0, delta_b=2.0, coupling_j=5.0, eps_a=0.01),
        SystemParams(kappa_a=1.0, kappa_b=1.5, coupling_j=5.0, eps_a=0.01,
                     u_b=0.05),
    ):
        c10, c01 = one_photon_amplitudes(params)
        c20, c11, c02 = two_photon_amplitudes(params, c10, c01)
        assert (c10, c01, c20, c11, c02) == explicit_hierarchy(params)


def test_two_photon_undriven_is_zero():
    params = symmetric_params(5.0, delta=1.0, u=0.1, eta=1.0, eps_a=0.0)
    assert two_photon_amplitudes(params, 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_substituted_two_photon_equations_hold():
    # After inserting the closed-form one-photon amplitudes, the two-photon
    # equations can be written with the reduced source eps_a*eps_b*
    # exp(i(phi_a+phi_b)) and the drive ratio; both forms must agree.
    params = symmetric_params(10.0, delta=1.7, u=0.06, eta=2.5, phi=0.8,
                              u_a=0.02)
    c10, c01 = one_photon_amplitudes(params)
    c20, c11, c02 = two_photon_amplitudes(params, c10, c01)
    ea, eb = drive_phasors(params)
    delta, kap, j = params.delta_a, params.kappa_a, params.coupling_j
    eta = params.eps_a / params.eps_b
    phi = params.phi_a - params.phi_b
    pole = delta - 0.5j * kap
    denom = pole**2 - j**2
    source = params.eps_a * params.eps_b * np.exp(1j * (params.phi_a + params.phi_b))

    res1 = ((2 * delta + 2 * params.u_a - 1j * kap) * c20 + SQRT2 * j * c11
            + SQRT2 * (j - eta * np.exp(1j * phi) * pole) / denom * source)
    res2 = ((2 * delta + 2 * params.u_b - 1j * kap) * c02 + SQRT2 * j * c11
            + SQRT2 * (j - np.exp(-1j * phi) / eta * pole) / denom * source)
    res3 = ((2 * delta - 1j * kap) * c11 + SQRT2 * j * (c20 + c02)
            + ((np.exp(-1j * phi) / eta + eta * np.exp(1j * phi)) * j
               - (2 * delta - 1j * kap)) / denom * source)
    scale = max(abs(ea * c10), abs(eb * c01))
    assert max(abs(res1), abs(res2), abs(res3)) < 1e-12 * scale


def test_two_photon_dip_at_dual_drive_optimum():
    # The pair amplitude collapses at the optimum; one kappa away in detuning
    # the normalized pair weight is dozens of times larger (measured ~54x).
    opt = dual_drive_optimum_asymptotic(1.0, 10.0, 3.0)
    weights = []
    for delta in (opt.delta_opt, opt.delta_opt + 1.0):
        params = symmetric_params(10.0, delta=delta, u=opt.u_opt, eta=3.0,
                                  u_a=0.007)
        amps = hierarchy_steady(params)
        weights.append(abs(amps.c20) ** 2 / abs(amps.c10) ** 4)
    assert weights[1] > 30.0 * weights[0]


def test_full_solve_matches_hierarchy_at_weak_drive():
    rng = np.random.default_rng(17)
    for _ in range(5):
        params = symmetric_params(
            10.0, delta=rng.uniform(-5, 5), u=rng.uniform(0, 0.1),
            eta=rng.uniform(1.5, 8), phi=rng.uniform(0, math.pi))
        g2_h = g2_approx(hierarchy_steady(params))
        g2_f = g2_approx(full_truncated_steady(params))
        assert abs(g2_h - g2_f) <= 1e-3 * g2_f


def test_full_solve_undriven_is_vacuum():
    params = symmetric_params(5.0, delta=1.0, u=0.1, eta=1.0, eps_a=0.0)
    amps = full_truncated_steady(params)
    assert amps.c00 == 1.0
    assert amps.c10 == amps.c01 == amps.c20 == amps.c11 == amps.c02 == 0.0
    g2 = g2_approx(amps)
    assert g2 is None


def test_full_solve_matches_master_equation_at_optimum():
    opt = dual_drive_optimum_asymptotic(1.0, 10.0, 3.0)
    params = symmetric_params(10.0, delta=opt.delta_opt, u=opt.u_opt, eta=3.0)
    g2_f = g2_approx(full_truncated_steady(params))
    spec = HilbertSpec(3, 3)
    obs = observables(steady_state(liouvillian(params, spec)), spec)
    assert abs(g2_f - obs.g2_a) / obs.g2_a < 5e-2


def test_full_solve_handles_asymmetric_configuration():
    params = SystemParams(delta_a=1.0, delta_b=-0.5, coupling_j=4.0,
                          u_a=0.03, u_b=0.07, eps_a=0.01, eps_b=0.004,
                          phi_a=0.6, phi_b=-0.2, kappa_a=1.2, kappa_b=0.8)
    amps = full_truncated_steady(params)
    spec = HilbertSpec(3, 3)
    obs = observables(steady_state(liouvillian(params, spec)), spec)
    assert mean_photon_approx(amps) == pytest.approx(obs.mean_n_a, rel=1e-3)
    assert g2_approx(amps) == pytest.approx(obs.g2_a, rel=5e-2)


def test_g2_coherent_amplitudes():
    alpha = 0.3
    amps = AmplitudeSet(c00=1.0, c10=alpha, c01=0.0,
                        c20=alpha**2 / SQRT2, c11=0.0, c02=0.0)
    assert g2_approx(amps) == pytest.approx(1.0, abs=1e-12)


def test_g2_edge_cases():
    no_pairs = AmplitudeSet(1.0, 0.05, 0.0, 0.0, 0.0, 0.0)
    assert g2_approx(no_pairs) == 0.0
    no_singles = AmplitudeSet(1.0, 0.0, 0.05, 0.02, 0.0, 0.0)
    assert g2_approx(no_singles) is None


def test_mean_photon_approx():
    assert mean_photon_approx(AmplitudeSet(1.0, 0.0, 0.1, 0.0, 0.0, 0.0)) == 0.0
    params = symmetric_params(0.0, delta=0.4, eta=math.inf, eps_a=0.01)
    amps = hierarchy_steady(params)
    assert mean_photon_approx(amps) == pytest.approx(
        0.01**2 / (0.4**2 + 0.25), rel=1e-12)


def test_mean_photon_suppressed_at_interference_zero():
    params = symmetric_params(10.0, delta=1.0 / (2.0 * SQRT3),
                              u=single_drive_optimum(1.0, 10.0).u_opt,
                              eta=SQRT3 * 10.0, phi=math.pi / 3)
    amps = hierarchy_steady(params)
    assert mean_photon_approx(amps) < 1e-20

    spec = HilbertSpec(3, 3)
    exact_zero = observables(
        steady_state(liouvillian(params, spec)), spec).mean_n_a
    shifted = params.replace(eps_b=2.0 * params.eps_b)
    exact_shifted = observables(
        steady_state(liouvillian(shifted, spec)), spec).mean_n_a
    assert exact_shifted >= 100.0 * exact_zero


def test_drive_scaling_covariance_is_exact():
    base = symmetric_params(10.0, delta=1.3, u=0.04, eta=2.0, phi=0.6)
    amps = hierarchy_steady(base)
    for scale in (0.5, 2.0):
        scaled = hierarchy_steady(base.replace(eps_a=scale * base.eps_a,
                                               eps_b=scale * base.eps_b))
        assert scaled.c10 == scale * amps.c10
        assert scaled.c01 == scale * amps.c01
        assert scaled.c20 == scale**2 * amps.c20
        assert scaled.c11 == scale**2 * amps.c11
        assert scaled.c02 == scale**2 * amps.c02
        assert g2_approx(scaled) == g2_approx(amps)


def test_drive_scaling_covariance_is_exact_at_asymmetric_points():
    # Amplitudes only: |c|**2 goes through libm's pow, which is not exact
    # under power-of-two scaling, so g2 may differ in its last bit.
    rng = np.random.default_rng(71)
    for _ in range(200):
        base = asymmetric_params(rng)
        amps = amplitudes(hierarchy_steady(base))
        for scale in (0.5, 2.0):
            scaled = amplitudes(hierarchy_steady(base.replace(
                eps_a=scale * base.eps_a, eps_b=scale * base.eps_b)))
            assert scaled[:2] == tuple(scale * c for c in amps[:2])
            assert scaled[2:] == tuple(scale**2 * c for c in amps[2:])


def test_hierarchy_residuals():
    rng = np.random.default_rng(42)
    for _ in range(10):
        params = symmetric_params(
            10.0, delta=rng.uniform(-5, 5), u=rng.uniform(0, 0.1),
            eta=rng.uniform(1.5, 8), phi=rng.uniform(0, math.pi))
        amps = hierarchy_steady(params)
        ea, eb = drive_phasors(params)
        delta, kap, j = params.delta_a, params.kappa_a, params.coupling_j
        res = (
            (2 * delta + 2 * params.u_a - 1j * kap) * amps.c20
            + SQRT2 * j * amps.c11 + SQRT2 * ea * amps.c10,
            (2 * delta + 2 * params.u_b - 1j * kap) * amps.c02
            + SQRT2 * j * amps.c11 + SQRT2 * eb * amps.c01,
            (2 * delta - 1j * kap) * amps.c11 + SQRT2 * j * (amps.c20 + amps.c02)
            + eb * amps.c10 + ea * amps.c01,
        )
        rhs_norm = max(abs(SQRT2 * ea * amps.c10), abs(SQRT2 * eb * amps.c01),
                       abs(eb * amps.c10 + ea * amps.c01))
        assert max(abs(r) for r in res) < 1e-12 * rhs_norm


def test_full_solve_residuals():
    rng = np.random.default_rng(43)
    for _ in range(10):
        params = symmetric_params(
            10.0, delta=rng.uniform(-5, 5), u=rng.uniform(0, 0.1),
            eta=rng.uniform(1.5, 8), phi=rng.uniform(0, math.pi))
        amps = full_truncated_steady(params)
        ea, eb = drive_phasors(params)
        delta, kap, j = params.delta_a, params.kappa_a, params.coupling_j
        res = (
            (delta - 0.5j * kap) * amps.c10 + j * amps.c01 + ea
            + np.conj(eb) * amps.c11 + SQRT2 * np.conj(ea) * amps.c20,
            (delta - 0.5j * kap) * amps.c01 + j * amps.c10 + eb
            + np.conj(ea) * amps.c11 + SQRT2 * np.conj(eb) * amps.c02,
            (2 * delta + 2 * params.u_a - 1j * kap) * amps.c20
            + SQRT2 * j * amps.c11 + SQRT2 * ea * amps.c10,
            (2 * delta - 1j * kap) * amps.c11 + SQRT2 * j * (amps.c20 + amps.c02)
            + eb * amps.c10 + ea * amps.c01,
            (2 * delta + 2 * params.u_b - 1j * kap) * amps.c02
            + SQRT2 * j * amps.c11 + SQRT2 * eb * amps.c01,
        )
        rhs_norm = max(abs(ea), abs(eb))
        assert max(abs(r) for r in res) < 1e-12 * rhs_norm


def test_mode_exchange_swaps_amplitudes():
    params = symmetric_params(6.0, delta=0.9, eta=2.5, phi=0.7, u_a=0.02,
                              u_b=0.08)
    swapped = SystemParams(
        delta_a=params.delta_b, delta_b=params.delta_a,
        coupling_j=params.coupling_j, u_a=params.u_b, u_b=params.u_a,
        eps_a=params.eps_b, eps_b=params.eps_a, phi_a=params.phi_b,
        phi_b=params.phi_a, kappa_a=params.kappa_b, kappa_b=params.kappa_a)
    for solver in (hierarchy_steady, full_truncated_steady):
        amps, amps_swapped = solver(params), solver(swapped)
        assert amps.c10 == pytest.approx(amps_swapped.c01, abs=1e-12)
        assert amps.c20 == pytest.approx(amps_swapped.c02, abs=1e-12)
        assert amps.c11 == pytest.approx(amps_swapped.c11, abs=1e-12)


def test_weak_drive_amplitude_ordering():
    eps = 0.01
    params = symmetric_params(0.3, delta=0.0, u=0.01, eta=1.2, phi=0.3,
                              eps_a=eps)
    amps = hierarchy_steady(params)
    for value in (amps.c10, amps.c01):
        assert 0.1 * eps < abs(value) < 10.0 * eps
    for value in (amps.c20, amps.c11, amps.c02):
        assert 0.1 * eps**2 < abs(value) < 10.0 * eps**2


# --- the batched builders against the explicit formulas ----------------------


def full_truncated_matrix(params):
    """The 5x5 steady system of (c10, c01, c20, c11, c02), written out."""
    ea, eb = drive_phasors(params)
    da, db = params.delta_a, params.delta_b
    ka, kb = params.kappa_a, params.kappa_b
    ua, ub = params.u_a, params.u_b
    j = params.coupling_j
    matrix = np.array(
        [
            [da - 0.5j * ka, j, SQRT2 * np.conj(ea), np.conj(eb), 0.0],
            [j, db - 0.5j * kb, 0.0, np.conj(ea), SQRT2 * np.conj(eb)],
            [SQRT2 * ea, 0.0, 2 * da + 2 * ua - 1j * ka, SQRT2 * j, 0.0],
            [eb, ea, SQRT2 * j, da + db - 0.5j * (ka + kb), SQRT2 * j],
            [0.0, SQRT2 * eb, 0.0, SQRT2 * j, 2 * db + 2 * ub - 1j * kb],
        ],
        dtype=complex,
    )
    rhs = np.array([-ea, -eb, 0.0, 0.0, 0.0], dtype=complex)
    return matrix, rhs


def explicit_full_truncated(params):
    """The 5x5 steady system solved on its own."""
    return tuple(np.linalg.solve(*full_truncated_matrix(params)))


def explicit_hierarchy(params):
    """Closed-form one-photon amplitudes and the 3x3 two-photon system,
    written out and solved on their own."""
    ea, eb = drive_phasors(params)
    da, db = params.delta_a, params.delta_b
    ka, kb = params.kappa_a, params.kappa_b
    j = params.coupling_j
    pole_a, pole_b = da - 0.5j * ka, db - 0.5j * kb
    denom = pole_a * pole_b - j**2
    c10 = (eb * j - ea * pole_b) / denom
    c01 = (ea * j - eb * pole_a) / denom
    matrix = np.array(
        [
            [2 * da + 2 * params.u_a - 1j * ka, SQRT2 * j, 0.0],
            [0.0, SQRT2 * j, 2 * db + 2 * params.u_b - 1j * kb],
            [SQRT2 * j, da + db - 0.5j * (ka + kb), SQRT2 * j],
        ],
        dtype=complex,
    )
    rhs = np.array(
        [-SQRT2 * ea * c10, -SQRT2 * eb * c01, -(eb * c10 + ea * c01)],
        dtype=complex,
    )
    return (c10, c01) + tuple(np.linalg.solve(matrix, rhs))


def random_params(rng, symmetric):
    """A weak-drive point; asymmetric in detunings and rates unless asked."""
    delta_a, kappa_a = rng.uniform(-5, 5), rng.uniform(0.5, 2)
    return SystemParams(
        delta_a=delta_a, delta_b=delta_a if symmetric else rng.uniform(-5, 5),
        coupling_j=rng.uniform(0, 10), u_a=rng.uniform(0, 0.2),
        u_b=rng.uniform(0, 0.2), eps_a=rng.uniform(0, 0.02),
        eps_b=rng.uniform(0, 0.02), phi_a=rng.uniform(-3, 3),
        phi_b=rng.uniform(-3, 3), kappa_a=kappa_a,
        kappa_b=kappa_a if symmetric else rng.uniform(0.5, 2))


def amplitudes(amps):
    return (amps.c10, amps.c01, amps.c20, amps.c11, amps.c02)


def test_scalar_solvers_equal_explicit_formulas():
    rng = np.random.default_rng(61)
    for _ in range(50):
        params = random_params(rng, symmetric=False)
        assert amplitudes(full_truncated_steady(params)) == \
            explicit_full_truncated(params)
        assert amplitudes(hierarchy_steady(params)) == explicit_hierarchy(params)
        params = random_params(rng, symmetric=True)
        assert amplitudes(hierarchy_steady(params)) == explicit_hierarchy(params)


def test_hierarchy_is_the_full_system_without_feedback():
    # The hierarchy drops the two-photon amplitudes from the one-photon
    # equations: the 5x5 system with that block zeroed, solved as a whole.
    rng = np.random.default_rng(73)
    for draw in (generic_params, asymmetric_params) * 100:
        params = draw(rng)
        matrix, rhs = full_truncated_matrix(params)
        matrix[:2, 2:] = 0.0
        want = np.linalg.solve(matrix, rhs)
        got = np.array(amplitudes(hierarchy_steady(params)))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("solver, u_a", [
    (SOLVER_FULL_TRUNCATED, 1e7),
    (SOLVER_FULL_TRUNCATED, 1e8),
    (SOLVER_HIERARCHY, 1e8),
])
def test_strong_kerr_systems_are_solved(solver, u_a):
    # One entry dwarfs the rest, yet the system stays regular (H - i Gamma/2);
    # a determinant test |det| < 1e-14 max|entry|^n once rejected it.
    params = SystemParams(coupling_j=3.0, delta_a=0.5, delta_b=0.5, u_a=u_a,
                          eps_a=0.01, eps_b=0.005)
    steady, explicit = {SOLVER_FULL_TRUNCATED: (full_truncated_steady, explicit_full_truncated),
                        SOLVER_HIERARCHY: (hierarchy_steady, explicit_hierarchy)}[solver]
    assert amplitudes(steady(params)) == explicit(params)
    g2, mean_n = evaluate_point(params, solver)
    assert math.isfinite(g2) and math.isfinite(mean_n)


# At 1e160 the two-photon solve overflows; at 1e140 it does not, but
# |c10|^4 and |c20|^2 do, and g2 would be inf/inf.
@pytest.mark.parametrize("eps_a", [1e160, 1e140])
def test_overflow_raises_for_the_point_and_spares_its_grid_neighbours(eps_a):
    params = SystemParams(coupling_j=3.0, delta_a=0.5, delta_b=0.5, eps_a=eps_a)
    with pytest.raises(SolverError, match="overflowed") as raised:
        evaluate_point(params, SOLVER_HIERARCHY)
    g2, mean_n, error = evaluate_grid(
        {"coupling_j": 3.0, "delta_a": 0.5, "delta_b": 0.5,
         "eps_a": np.array([0.01, eps_a, 0.02])}, SOLVER_HIERARCHY)
    assert error.tolist() == ["", str(raised.value), ""]
    assert np.isnan(g2[1]) and np.isnan(mean_n[1])
    for i, eps_a in ((0, 0.01), (2, 0.02)):
        assert (g2[i], mean_n[i]) == evaluate_point(params.replace(eps_a=eps_a),
                                                    SOLVER_HIERARCHY)


# A Kerr strength nine orders above every other entry: the systems are
# regular, and the grid solves them as stacks like any other point.
STRONG_U = 1e9


def grid_points(count):
    """count seeded points as field arrays, with eta = inf at the first, an
    undriven point at the second and a Kerr strength of STRONG_U in the
    middle."""
    rng = np.random.default_rng(67)
    rows = [random_params(rng, symmetric=False) for _ in range(count)]
    rows[0] = rows[0].replace(eps_b=0.0)
    rows[1] = rows[1].replace(eps_a=0.0, eps_b=0.0)
    rows[count // 2] = rows[count // 2].replace(u_a=STRONG_U)
    return rows, {name: np.array([getattr(p, name) for p in rows])
                  for name in PARAM_FIELDS}


@pytest.mark.parametrize("solver", [SOLVER_FULL_TRUNCATED, SOLVER_HIERARCHY])
def test_grid_matches_point_evaluation(solver):
    rows, points = grid_points(GRID_CHUNK + 1)  # spans two chunks
    g2, mean_n, error = evaluate_grid(points, solver)
    expected_g2, expected_mean, expected_error = [], [], []
    for params in rows:
        try:
            g2_p, mean_p = evaluate_point(params, solver)
            expected_error.append("")
        except SolverError as err:
            g2_p, mean_p = math.nan, math.nan
            expected_error.append(str(err))
        expected_g2.append(math.nan if g2_p is None else g2_p)
        expected_mean.append(mean_p)
    expected_g2, expected_mean = np.array(expected_g2), np.array(expected_mean)

    middle = GRID_CHUNK // 2
    assert error.tolist() == expected_error == [""] * len(rows)
    assert np.isnan(expected_g2[1]) and expected_mean[1] == 0.0
    assert np.isfinite(g2[[0, middle - 1, middle, middle + 1, GRID_CHUNK]]).all()
    explicit = explicit_full_truncated if solver == SOLVER_FULL_TRUNCATED \
        else explicit_hierarchy
    c10, _, c20, _, _ = explicit(rows[middle])
    assert g2[middle] == pytest.approx(2 * abs(c20) ** 2 / abs(c10) ** 4, rel=1e-14)
    assert mean_n[middle] == pytest.approx(abs(c10) ** 2, rel=1e-14)
    for got, want in ((g2, expected_g2), (mean_n, expected_mean)):
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        finite = np.isfinite(want)
        assert np.all(np.abs(got[finite] - want[finite])
                      <= 1e-14 * np.abs(want[finite]))


def test_grid_broadcasts_and_defaults():
    deltas = np.linspace(-2.0, 2.0, 5)
    u_values = np.array([0.0, 0.05, 0.1])
    g2, mean_n, error = evaluate_grid(
        {"delta_a": deltas, "delta_b": deltas, "u_a": u_values[:, None],
         "u_b": u_values[:, None], "coupling_j": 4.0, "eps_a": 0.01},
        "fulltruncated")
    assert g2.shape == mean_n.shape == error.shape == (3, 5)
    assert not error.any()
    for i, u in enumerate(u_values):
        for k, delta in enumerate(deltas):
            params = SystemParams(delta_a=delta, delta_b=delta, u_a=u, u_b=u,
                                  coupling_j=4.0, eps_a=0.01)
            assert (g2[i, k], mean_n[i, k]) == evaluate_point(params, "FullTruncated")
    empty = evaluate_grid({"delta_a": np.array([])}, "Hierarchy")
    assert empty[0].shape == empty[1].shape == empty[2].shape == (0,)


def test_grid_master_equation_falls_back_to_points():
    points = {"delta_a": np.array([0.3, 0.8]), "delta_b": np.array([0.3, 0.8]),
              "coupling_j": 3.0, "u_a": 0.05, "u_b": 0.05,
              "eps_a": np.array([0.01, 0.0])}
    g2, mean_n, error = evaluate_grid(points, "MasterEquation", n_max=2)
    params = SystemParams(delta_a=0.3, delta_b=0.3, coupling_j=3.0, u_a=0.05,
                          u_b=0.05, eps_a=0.01)
    assert (g2[0], mean_n[0]) == evaluate_point(params, "MasterEquation", n_max=2)
    assert np.isnan(g2[1]) and mean_n[1] == 0.0
    assert error.tolist() == ["", ""]


@pytest.mark.parametrize("points", [
    {"delta": np.zeros(3)},
    {"u_a": np.array([0.1, math.nan])},
    {"eps_b": np.array([0.01, math.inf])},
    {"kappa_a": np.array([1.0, 0.0])},
    {"eps_a": np.array([0.01, -0.01])},
    {"coupling_j": np.array([-1.0, 2.0])},
])
def test_grid_rejects_what_system_params_rejects(points):
    with pytest.raises(ValueError):
        evaluate_grid(points, "FullTruncated")


@pytest.mark.parametrize("points, field", [
    ({"eps_a": "0.01", "coupling_j": 3.0}, "eps_a"),
    ({"eps_a": 0.01, "coupling_j": True}, "coupling_j"),
    ({"eps_a": np.array([0.01, 0.02]), "u_a": np.array([True, False])}, "u_a"),
    ({"eps_a": np.array([0.01 + 1j, 0.02])}, "eps_a"),
    ({"eps_a": [0.01, None]}, "eps_a"),
    ({"eps_a": [0.01, "0.02"]}, "eps_a"),
    ({"eps_a": [0.01, True], "coupling_j": 3.0}, "eps_a"),
    ({"eps_a": 0.01, "coupling_j": (True, 1)}, "coupling_j"),
    ({"eps_a": [[0.01], [np.True_]]}, "eps_a"),
])
def test_grid_refuses_a_field_that_is_not_numbers(points, field):
    with pytest.raises(ValueError, match=f"^{field} must be numbers"):
        evaluate_grid(points, "FullTruncated")


def test_grid_takes_integer_arrays_as_floats():
    points = {"coupling_j": np.array([3, 4]), "eps_a": 0.01, "delta_a": 1}
    as_floats = {name: np.asarray(values, dtype=float) for name, values in points.items()}
    for got, want in zip(evaluate_grid(points, "Hierarchy"),
                         evaluate_grid(as_floats, "Hierarchy")):
        assert np.array_equal(got, want)


def test_grid_hierarchy_solves_asymmetric_points():
    points = {"delta_a": np.array([0.0, 1.0]), "delta_b": 0.0,
              "coupling_j": 3.0, "u_a": 0.05, "eps_a": 0.01}
    g2, mean_n, error = evaluate_grid(points, "Hierarchy")
    symmetric = SystemParams(coupling_j=3.0, u_a=0.05, eps_a=0.01)
    assert (g2[0], mean_n[0]) == evaluate_point(symmetric, "Hierarchy")
    assert (g2[1], mean_n[1]) == evaluate_point(symmetric.replace(delta_a=1.0),
                                                "Hierarchy")
    assert error.tolist() == ["", ""]


@pytest.mark.parametrize("threads", [0, -1, 2.0, True])
def test_grid_rejects_non_positive_threads(threads):
    with pytest.raises(ValueError, match="threads"):
        evaluate_grid({"delta_a": np.zeros(4)}, "FullTruncated", threads=threads)


@pytest.mark.parametrize("solver, n_max", [
    pytest.param(solver, n_max, id=solver if n_max == -1 else f"{solver}-{n_max}")
    for n_max in (-1, 2.5, 2.0, True) for solver in (SOLVER_FULL_TRUNCATED, "MasterEquation")
])
def test_grid_rejects_bad_cutoff_for_the_whole_call(solver, n_max):
    with pytest.raises(ValueError, match="cutoff"):
        evaluate_grid({"delta_a": np.zeros(3), "eps_a": 0.01}, solver, n_max=n_max)


# A grid is cut in GRID_CHUNK-point chunks whatever the thread count: more
# threads share the chunks, they never cut the grid finer.
@pytest.mark.parametrize("size, threads, chunks", [
    (16, 2, [16]),
    (16, 3, [16]),
    (GRID_CHUNK + 1, 1, [GRID_CHUNK, 1]),
    (2 * GRID_CHUNK + 1, 2, [GRID_CHUNK, GRID_CHUNK, 1]),
])
def test_grid_threads_split_the_chunks(monkeypatch, size, threads, chunks):
    seen = []
    stacked = solvers.full_truncated_grid

    def recording(params):
        seen.append(params.delta_a.size)
        return stacked(params)

    monkeypatch.setattr(solvers, "full_truncated_grid", recording)
    evaluate_grid({"delta_a": np.zeros(size)}, "FullTruncated", threads=threads)
    assert sorted(seen, reverse=True) == chunks


def test_grid_threads_agree_under_fast_switching():
    _, points = grid_points(3 * GRID_CHUNK // 2)
    # An undriven, uncoupled point with vanishing rates: its exactly singular
    # matrix fails the stacked solve of its chunk, which then goes point by
    # point.
    singular = SystemParams(kappa_a=5e-324, kappa_b=5e-324)
    for name in PARAM_FIELDS:
        points[name][GRID_CHUNK // 4] = getattr(singular, name)
    serial = evaluate_grid(points, SOLVER_FULL_TRUNCATED)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = evaluate_grid(points, SOLVER_FULL_TRUNCATED, threads=3)
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(serial, threaded):
        assert np.array_equal(want, got, equal_nan=want.dtype != object)
    assert serial[2][GRID_CHUNK // 4] == "Singular matrix"


# Every failure kind a weak-drive solver produces, and its message word for
# word: an undriven point (g2 undefined, no error), vanishing rates, and the
# two overflows.
UNDRIVEN = SystemParams(coupling_j=3.0)
VANISHING_RATES = SystemParams(kappa_a=5e-324, kappa_b=5e-324)
SOLUTION_OVERFLOW = {
    SOLVER_HIERARCHY: "two-photon 3x3 system overflowed: its solution is not finite",
    SOLVER_FULL_TRUNCATED: "truncated-manifold 5x5 system overflowed: its solution is not finite",
}
G2_OVERFLOW = "weak-drive g2 overflowed: |c10|^4 or |c20|^2 is not finite"
WEAK_FAILURES = {
    SOLVER_HIERARCHY: [
        (VANISHING_RATES, SOLUTION_OVERFLOW[SOLVER_HIERARCHY]),
        (SystemParams(coupling_j=3.0, delta_a=0.5, delta_b=0.5, eps_a=1e160),
         SOLUTION_OVERFLOW[SOLVER_HIERARCHY]),
        (SystemParams(coupling_j=3.0, delta_a=0.5, delta_b=0.5, eps_a=1e140), G2_OVERFLOW),
    ],
    SOLVER_FULL_TRUNCATED: [
        (VANISHING_RATES, "Singular matrix"),
        (SystemParams(coupling_j=3.0, delta_a=0.5, delta_b=0.5, eps_a=1e80), G2_OVERFLOW),
    ],
}


def point_outcome(params, solver):
    """evaluate_point's answer as a grid records it: (g2, mean n, error)."""
    try:
        g2, mean_n = evaluate_point(params, solver)
    except SolverError as err:
        return math.nan, math.nan, str(err)
    return math.nan if g2 is None else g2, mean_n, ""


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("solver", [SOLVER_HIERARCHY, SOLVER_FULL_TRUNCATED])
def test_weak_drive_grid_and_points_share_one_kernel(solver, threads):
    # GRID_CHUNK + 3 points, cut after GRID_CHUNK at either thread count;
    # threads=2 gives each chunk its own worker. The failures sit at the
    # start, in the middle and on both sides of the cut, between good
    # points, so each singular matrix shares its chunk with good points.
    rng = np.random.default_rng(211)
    rows = [random_params(rng, symmetric=False) for _ in range(GRID_CHUNK + 3)]
    failures = [(UNDRIVEN, "")] + WEAK_FAILURES[solver]
    places = {}
    for offset, (params, message) in enumerate(failures):
        for start in (5, 510, GRID_CHUNK - 4):
            rows[start + 2 * offset] = params
            places[start + 2 * offset] = message
    g2, mean_n, error = evaluate_grid(
        {name: np.array([getattr(p, name) for p in rows]) for name in PARAM_FIELDS},
        solver, threads=threads)
    for i, params in enumerate(rows):
        want_g2, want_mean, want_error = point_outcome(params, solver)
        assert error[i] == want_error == places.get(i, "")
        assert np.array_equal(g2[i], want_g2, equal_nan=True)
        assert np.array_equal(mean_n[i], want_mean, equal_nan=True)
    assert np.isnan(g2[5]) and mean_n[5] == 0.0  # undriven: g2 undefined
    for singular in (7, 512, GRID_CHUNK - 2):  # the vanishing rates
        assert error[singular] == failures[1][1]
        assert np.isfinite(g2[[singular - 1, singular + 1]]).all()
        assert np.isfinite(mean_n[[singular - 1, singular + 1]]).all()


@pytest.mark.parametrize("solver", ["MasterEquation", SOLVER_HIERARCHY, SOLVER_FULL_TRUNCATED])
def test_point_answers_python_floats(solver):
    g2, mean_n = evaluate_point(SystemParams(coupling_j=3.0, eps_a=0.01, u_a=0.05), solver)
    assert type(g2) is float and type(mean_n) is float


def test_grid_pool_is_capped_at_the_cpu_count(monkeypatch):
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, function, items):
            return map(function, items)

    points = {"delta_a": np.linspace(0.0, 2.0, 16), "coupling_j": 3.0, "eps_a": 0.01}
    serial = evaluate_grid(points, SOLVER_HIERARCHY)
    monkeypatch.setattr(solvers, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(solvers, "GRID_CHUNK", 1)  # 16 one-point chunks
    for cpus, workers in ((3, [3]), (None, []), (64, [16])):
        monkeypatch.setattr(solvers.os, "cpu_count", lambda: cpus)
        requested.clear()
        capped = evaluate_grid(points, SOLVER_HIERARCHY, threads=10000)
        assert requested == workers
        for want, got in zip(serial, capped):
            assert np.array_equal(want, got, equal_nan=want.dtype != object)


@pytest.mark.parametrize("solver, size", [
    ("MasterEquation", 16), (SOLVER_HIERARCHY, 16), (SOLVER_HIERARCHY, GRID_CHUNK)])
def test_grid_of_one_chunk_runs_on_the_calling_thread(monkeypatch, solver, size):
    def no_pool(max_workers):
        raise RuntimeError("can't start new thread")

    points = {"delta_a": np.linspace(0.0, 2.0, size), "coupling_j": 3.0, "eps_a": 0.01}
    serial = evaluate_grid(points, solver)
    monkeypatch.setattr(solvers, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(solvers.os, "cpu_count", lambda: 4)
    threaded = evaluate_grid(points, solver, threads=4)
    assert threaded[2].tolist() == [""] * size
    for want, got in zip(serial, threaded):
        assert np.array_equal(want, got, equal_nan=want.dtype != object)
    with pytest.raises(RuntimeError, match="thread"):  # two chunks do start a pool
        evaluate_grid({**points, "delta_a": np.zeros(GRID_CHUNK + 1)}, SOLVER_HIERARCHY,
                      threads=4)


@pytest.mark.parametrize("solve", [
    full_truncated_steady,
    lambda params: evaluate_point(params, SOLVER_FULL_TRUNCATED),
], ids=["full_truncated_steady", "evaluate_point"])
def test_exactly_singular_weak_drive_system_is_a_solver_error(solve):
    # Undriven, uncoupled, vanishing rates: the 5x5 system has an exactly
    # zero pivot, and numpy's message is kept.
    with pytest.raises(SolverError) as raised:
        solve(SystemParams(kappa_a=5e-324, kappa_b=5e-324))
    assert str(raised.value) == "Singular matrix"
