import math
import re
import resource
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from photonmol import (
    HilbertSpec,
    SolverError,
    SystemParams,
    TotalSpec,
    dual_drive_optimum_asymptotic,
    dual_drive_optimum_exact_phi0,
    evaluate_grid,
    evaluate_point,
    evolve,
    hierarchy_steady,
    g2_approx,
    liouvillian,
    mode_annihilators,
    observables,
    steady_state,
    symmetric_params,
    unvec,
    validate_density_matrix,
    vec,
)
from photonmol import lindblad, solvers
from photonmol.lindblad import (
    _openblas_controls,
    _photon_numbers,
    _single_threaded_blas,
    master_equation_grid,
)
from photonmol.model import PARAM_FIELDS

SPEC = HilbertSpec(3, 3)


def vacuum(spec=SPEC):
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def test_steady_state_undriven_is_vacuum():
    params = SystemParams(delta_a=0.7, delta_b=-0.2, coupling_j=3.0)
    rho = steady_state(liouvillian(params, SPEC))
    assert np.max(np.abs(rho - vacuum())) < 1e-12


def test_steady_state_driven_linear_mode_is_coherent():
    params = SystemParams(delta_a=0.4, eps_a=0.015, phi_a=0.7)
    rho = steady_state(liouvillian(params, SPEC))
    obs = observables(rho, SPEC)
    assert obs.mean_n_a == pytest.approx(0.015**2 / (0.4**2 + 0.25), rel=1e-6)
    assert obs.g2_a == pytest.approx(1.0, abs=1e-6)


def test_steady_state_matches_long_time_evolution():
    # Cross-check against the independent integrator at the dual-drive
    # optimum; by t = 50/kappa the residual transient is ~1e-11.
    opt = dual_drive_optimum_asymptotic(1.0, 10.0, 3.0)
    params = symmetric_params(10.0, delta=opt.delta_opt, u=opt.u_opt, eta=3.0)
    liouv = liouvillian(params, SPEC)
    direct = steady_state(liouv)
    integrated = evolve(liouv, vacuum(), t_final=50.0, dt=1e-3)
    assert np.max(np.abs(direct - integrated)) < 1e-8


def test_steady_state_rejects_a_non_finite_state():
    # The solve overflows to NaN, and a NaN residual fails every comparison
    # with the tolerance.
    params = SystemParams(coupling_j=3.0, eps_a=1e160, delta_a=0.5, delta_b=0.5)
    with pytest.raises(SolverError, match="overflowed"):
        steady_state(liouvillian(params, SPEC))


def test_steady_state_rejects_a_large_residual(monkeypatch):
    # A solve that returns a perturbed vector leaves a residual far above
    # the tolerance; the gate must catch it rather than return the state.
    liouv = liouvillian(symmetric_params(10.0, delta=0.3, u=0.02, eta=3.0), SPEC)
    exact_solve = lindblad._getrs

    def perturbed_solve(*args, **kwargs):
        solution, info = exact_solve(*args, **kwargs)
        return solution + 1e-6 * np.random.default_rng(61).normal(size=solution.size), info

    monkeypatch.setattr(lindblad, "_getrs", perturbed_solve)
    with pytest.raises(SolverError, match="ill-conditioned"):
        steady_state(liouv)
    params = symmetric_params(10.0, delta=0.3, u=0.02, eta=3.0)
    with pytest.raises(SolverError, match="ill-conditioned") as raised:
        evaluate_point(params, "MasterEquation")
    _, _, error = evaluate_grid(
        {name: [value, value] for name, value in params.to_dict().items()}, "MasterEquation")
    assert error.tolist() == [str(raised.value)] * 2


@pytest.mark.parametrize("shape", [(5, 5), (4, 6), (16,), (0, 0), (4, 4, 4)])
def test_steady_state_rejects_a_generator_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}"):
        steady_state(np.zeros(shape, dtype=complex))


def complex_steady_state(liouv):
    """The steady-state solve as it was before the real coordinates: a
    complex LU of the full generator. Kept verbatim as the reference."""
    size = liouv.shape[0]
    dim = int(round(math.sqrt(size)))
    system = liouv.copy()
    system[0, :] = 0.0
    system[0, :: dim + 1] = 1.0  # trace row
    rhs = np.zeros(size, dtype=complex)
    rhs[0] = 1.0
    with _single_threaded_blas:
        try:
            lu = scipy.linalg.lu_factor(system)
            solution = scipy.linalg.lu_solve(lu, rhs)
            for _ in range(2):  # iterative refinement tightens tiny populations
                solution += scipy.linalg.lu_solve(lu, rhs - system @ solution)
        except (scipy.linalg.LinAlgError, ValueError) as err:
            raise SolverError(f"steady-state system is singular: {err}") from err
        rho = unvec(solution)
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real

        residual = np.max(np.abs(liouv @ vec(rho)))
        tol = 1e-10 * max(np.max(np.abs(liouv)), 1.0)
        if not math.isfinite(residual):  # NaN fails every comparison
            raise SolverError(f"steady-state solve overflowed: residual {residual}")
        if residual > tol:
            cond = np.linalg.cond(system)
            raise SolverError(
                f"steady-state solve ill-conditioned: residual {residual:.3e} "
                f"exceeds {tol:.3e} (condition number ~{cond:.3e})"
            )
    return rho


def asymmetric_dual_drive_points(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        eps_a = rng.uniform(0.005, 0.03)
        yield SystemParams(
            delta_a=rng.uniform(-3, 3), delta_b=rng.uniform(-3, 3),
            coupling_j=rng.uniform(1, 15), u_a=rng.uniform(0, 0.2),
            u_b=rng.uniform(0, 0.2), eps_a=eps_a, eps_b=eps_a / rng.uniform(1.2, 10),
            phi_a=rng.uniform(-math.pi, math.pi), phi_b=rng.uniform(-math.pi, math.pi),
            kappa_a=rng.uniform(0.7, 1.5), kappa_b=rng.uniform(0.7, 1.5))


@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_master_equation_point_matches_the_complex_solve(n_max):
    spec = HilbertSpec(n_max, n_max)
    for params in asymmetric_dual_drive_points(67 + n_max, 8):
        g2, mean_n = evaluate_point(params, "MasterEquation", n_max)
        reference = observables(complex_steady_state(liouvillian(params, spec)), spec)
        assert reference.mean_n_a > 1e-14
        assert mean_n == pytest.approx(reference.mean_n_a, rel=1e-9, abs=0.0)
        assert g2 == pytest.approx(reference.g2_a, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_steady_state_of_a_dense_generator_matches_evaluate_point(n_max):
    spec = HilbertSpec(n_max, n_max)
    for params in asymmetric_dual_drive_points(71 + n_max, 4):
        g2, mean_n = evaluate_point(params, "MasterEquation", n_max)
        obs = observables(steady_state(liouvillian(params, spec)), spec)
        assert obs.mean_n_a == pytest.approx(mean_n, rel=1e-12, abs=0.0)
        assert obs.g2_a == pytest.approx(g2, rel=1e-12, abs=0.0)


def operator_observables(rho, spec):
    """observables() as it was before it read the populations: traces of
    the operator products, per mode (g2, mean n). Kept as the reference."""
    a, b = mode_annihilators(spec)
    out = []
    for c in (a, b):
        cd = c.conj().T
        mean_n = max(np.trace(cd @ c @ rho).real, 0.0)
        pair = max(np.trace(cd @ cd @ c @ c @ rho).real, 0.0)
        out.append((pair / mean_n**2, mean_n))
    return out


@pytest.mark.parametrize("n_max_a, n_max_b", [(2, 3), (4, 2), (3, 3)])
def test_observables_match_the_operator_products(n_max_a, n_max_b):
    spec = HilbertSpec(n_max_a, n_max_b)
    for params in asymmetric_dual_drive_points(83 + 5 * n_max_a + n_max_b, 8):
        rho = steady_state(liouvillian(params, spec))
        obs = observables(rho, spec)
        (g2_a, mean_n_a), (g2_b, mean_n_b) = operator_observables(rho, spec)
        assert obs.mean_n_a == pytest.approx(mean_n_a, rel=2e-15, abs=0.0)
        assert obs.mean_n_b == pytest.approx(mean_n_b, rel=2e-15, abs=0.0)
        assert obs.g2_a == pytest.approx(g2_a, rel=2e-15, abs=0.0)
        assert obs.g2_b == pytest.approx(g2_b, rel=2e-15, abs=0.0)


@pytest.mark.parametrize("spec", [HilbertSpec(2, 3), HilbertSpec(4, 2), HilbertSpec(0, 1)])
def test_photon_numbers_follow_the_basis_convention(spec):
    weights = _photon_numbers(spec)
    assert weights.shape == (2, 2, spec.dim)
    for index in range(spec.dim):
        for mode, n in enumerate(spec.occupations(index)):
            assert weights[mode, :, index].tolist() == [n, n * (n - 1)]


def test_exactly_singular_generator_is_reported_as_singular():
    # Undriven, uncoupled and with vanishing rates: an exact zero pivot.
    params = SystemParams(kappa_a=5e-324, kappa_b=5e-324)
    with pytest.raises(SolverError, match="singular"):
        evaluate_point(params, "MasterEquation")


def grid_columns(rows):
    return {name: np.array([getattr(params, name) for params in rows]) for name in PARAM_FIELDS}


@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_master_equation_grid_matches_points_bitwise(monkeypatch, n_max):
    # One table block and three points more, so threads=1 crosses a table
    # block boundary in one chunk, and threads=2 shares five chunks of at
    # most 8 points between two workers, switching between them often.
    rows = list(asymmetric_dual_drive_points(89 + n_max, lindblad._TABLE_BLOCK + 3))
    expected = [evaluate_point(params, "MasterEquation", n_max) for params in rows]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads, grid_chunk in ((1, solvers.GRID_CHUNK), (2, 8)):
            monkeypatch.setattr(solvers, "GRID_CHUNK", grid_chunk)
            g2, mean_n, error = evaluate_grid(grid_columns(rows), "MasterEquation",
                                              n_max=n_max, threads=threads)
            assert error.tolist() == [""] * len(rows)
            assert list(zip(g2.tolist(), mean_n.tolist())) == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_master_equation_point_reads_the_populations_of_the_dense_solve(n_max):
    # The grid kernel reads the populations from the solution's diagonal
    # coordinates, observables() from the density matrix: the same bits.
    spec = HilbertSpec(n_max, n_max)
    for params in asymmetric_dual_drive_points(97 + n_max, 6):
        obs = observables(steady_state(liouvillian(params, spec)), spec)
        assert evaluate_point(params, "MasterEquation", n_max) == (obs.g2_a, obs.mean_n_a)


# A grid's failing points and the messages they record, word for word, in
# the box n_max = 3 and in the default space. There the vanishing rates
# leave the zero pivot at 11 of 100 unknowns, and every total cutoff
# saturates at eps_a = 1e160 (mean n = N/2) instead of overflowing.
FAILING_POINTS = (
    (SystemParams(kappa_a=5e-324, kappa_b=5e-324),
     "steady-state system is singular: pivot 17 is exactly zero"),
    (SystemParams(coupling_j=3.0, u_a=1e308, eps_a=0.01),
     "steady-state system is singular: array must not contain infs or NaNs"),
    (SystemParams(coupling_j=3.0, eps_a=1e160, delta_a=0.5, delta_b=0.5),
     "steady-state solve overflowed: residual nan"),
)
DEFAULT_SPACE_FAILING_POINTS = (
    (FAILING_POINTS[0][0], "steady-state system is singular: pivot 11 is exactly zero"),
    FAILING_POINTS[1],
    (FAILING_POINTS[2][0], "truncation not converged: top-shell share 6.000e-01 "
                           "at total cutoff 4 exceeds 0.001"),
    # box 3 returns g2 = 4.81 here; total N = 4 gives 1.041, N = 5 1.0016
    (SystemParams(coupling_j=3.0, eps_a=1.0, delta_a=0.5, delta_b=0.5),
     "truncation not converged: top-shell share 1.934e-02 at total cutoff 4 exceeds 0.001"),
)


def check_failures_spare_the_neighbours(failing, n_max, threads):
    good = list(asymmetric_dual_drive_points(103, len(failing) + 1))
    rows = [good[0]]
    for (params, _), neighbour in zip(failing, good[1:]):
        rows += [params, neighbour]
    g2, mean_n, error = evaluate_grid(grid_columns(rows), "MasterEquation", n_max=n_max,
                                      threads=threads)
    assert error.tolist() == ["", *(part for _, message in failing for part in (message, ""))]
    assert np.isnan(g2[1::2]).all() and np.isnan(mean_n[1::2]).all()
    assert list(zip(g2[::2].tolist(), mean_n[::2].tolist())) == [
        evaluate_point(params, "MasterEquation", n_max) for params in good]
    for params, message in failing:
        with pytest.raises(SolverError) as raised:
            evaluate_point(params, "MasterEquation", n_max)
        assert str(raised.value) == message


@pytest.mark.parametrize("threads", [1, 2])
def test_master_equation_grid_records_failures_and_spares_the_neighbours(threads):
    check_failures_spare_the_neighbours(FAILING_POINTS, 3, threads)
    for params, message in FAILING_POINTS:  # the dense path fails alike
        with pytest.raises(SolverError) as raised:
            steady_state(liouvillian(params, SPEC))
        assert str(raised.value) == message


@pytest.mark.parametrize("threads", [1, 2])
def test_default_space_records_failures_and_spares_the_neighbours(threads):
    check_failures_spare_the_neighbours(DEFAULT_SPACE_FAILING_POINTS, None, threads)


def in_a_fresh_thread(function, *args):
    """function(*args), called in a new thread, which has no kernel buffers yet."""
    results = []
    thread = threading.Thread(target=lambda: results.append(function(*args)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(results) == 1
    return results[0]


def test_kernel_buffers_carry_nothing_from_a_failed_point():
    # The overflowing point scatters its huge entries into the thread's box-3
    # generator before its solve fails; the next point must not see them.
    overflow, message = FAILING_POINTS[2]
    good = next(asymmetric_dual_drive_points(61, 1))
    fresh = in_a_fresh_thread(evaluate_point, good, "MasterEquation", 3)
    with pytest.raises(SolverError, match=re.escape(message)):
        evaluate_point(overflow, "MasterEquation", 3)
    flat, _, _ = lindblad._kernel_buffers(SPEC)
    assert np.abs(flat).max() > 1e150
    assert evaluate_point(good, "MasterEquation", 3) == fresh
    assert lindblad._kernel_buffers(SPEC)[0] is flat


def test_kernel_buffers_are_kept_per_thread_and_space():
    buffers = lindblad._kernel_buffers(SPEC)
    assert all(lindblad._kernel_buffers(SPEC)[i] is buffers[i] for i in range(3))
    assert lindblad._kernel_buffers(TotalSpec(3))[0] is not buffers[0]
    assert in_a_fresh_thread(lindblad._kernel_buffers, SPEC)[0] is not buffers[0]
    large = HilbertSpec(5, 5)  # 36 states: its buffers are freed with the call
    assert large.dim > lindblad._KEPT_BUFFERS_DIM
    assert lindblad._kernel_buffers(large)[0] is not lindblad._kernel_buffers(large)[0]
    flat, liouv_h, work = buffers
    size = SPEC.dim**2
    assert np.shares_memory(flat, liouv_h) and liouv_h.shape == work.shape == (size, size)
    assert liouv_h.flags.f_contiguous and work.flags.f_contiguous


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_lone_box_points_page_in_no_fresh_buffers():
    # Two fresh 512 KB arrays would cost each box-3 point 224 minor faults.
    points = list(asymmetric_dual_drive_points(67, 6))
    evaluate_point(points[0], "MasterEquation", 3)  # warm-up: tables and buffers
    for params in points[1:]:
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        evaluate_point(params, "MasterEquation", 3)
        assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before < 16


@pytest.mark.parametrize("n_total", [1, 2, 3, 4, 5])
def test_total_space_generator_is_the_restricted_box_generator(n_total):
    spec = TotalSpec(n_total)
    kept = spec.box_indices()
    vec_kept = (kept[:, None] + kept[None, :] * spec.box.dim).ravel(order="F")
    for params in asymmetric_dual_drive_points(113 + n_total, 3):
        box = liouvillian(params, spec.box)
        assert np.array_equal(liouvillian(params, spec), box[np.ix_(vec_kept, vec_kept)])


def total_space_values(params, n_total):
    g2, mean_n, error = master_equation_grid(params, TotalSpec(n_total))
    assert error[0] == ""
    return g2[0], mean_n[0]


# The exact phi = 0 antibunching zeros: the total N = 3 top shell carries
# about 60% of the g2 numerator there, and box 3 is high by 2.6x to 15x.
@pytest.mark.parametrize("j, eta", [(10.0, 3.0), (12.0, 5.0), (10.0, 6.0)])
def test_default_space_converges_at_the_antibunching_zero(j, eta):
    optimum = dual_drive_optimum_exact_phi0(1.0, j, eta)
    params = symmetric_params(j, delta=optimum.delta_opt, u=optimum.u_opt, eta=eta)
    converged = total_space_values(params, 5)[0]
    g2, mean_n = evaluate_point(params, "MasterEquation")
    assert (g2, mean_n) == total_space_values(params, 4)  # escalated
    assert abs(g2 - converged) <= 2e-2 * converged
    assert abs(evaluate_point(params, "MasterEquation", 3)[0] - converged) > converged


def test_default_space_solves_weak_points_at_the_base_cutoff():
    for params in asymmetric_dual_drive_points(127, 8):
        assert evaluate_point(params, "MasterEquation") == total_space_values(params, 3)


def default_space_rows():
    """Asymmetric weak points with escalated and failing points mixed in,
    some on either side of a table block boundary."""
    rows = list(asymmetric_dual_drive_points(131, 2 * lindblad._TABLE_BLOCK + 6))
    escalated = [symmetric_params(j, delta=opt.delta_opt, u=opt.u_opt, eta=eta)
                 for j, eta in ((10.0, 3.0), (12.0, 5.0)) for opt in
                 [dual_drive_optimum_exact_phi0(1.0, j, eta)]]
    escalated.append(SystemParams(coupling_j=3.0, eps_a=0.1, delta_a=0.5, delta_b=0.5))
    failing = [params for params, _ in DEFAULT_SPACE_FAILING_POINTS]
    for at, params in zip((1, 30, 31, 32, 33, 40, 63, 64, 65), escalated + failing):
        rows[at] = params
    return rows


def test_master_equation_grid_reads_no_space_as_the_default():
    rows = default_space_rows()
    g2, mean_n, error = master_equation_grid(SimpleNamespace(**grid_columns(rows)))
    for i, params in enumerate(rows):
        try:
            assert (g2[i], mean_n[i], error[i]) == (
                *evaluate_point(params, "MasterEquation"), "")
        except SolverError as err:
            assert error[i] == str(err)
            assert math.isnan(g2[i]) and math.isnan(mean_n[i])
    assert np.count_nonzero(error) == len(DEFAULT_SPACE_FAILING_POINTS)


def test_an_explicit_total_space_does_not_escalate():
    # At this exact zero the N = 3 top shell carries about 60% of the g2
    # numerator: the default re-solves at N = 4, TotalSpec(3) alone does not.
    optimum = dual_drive_optimum_exact_phi0(1.0, 10.0, 3.0)
    params = symmetric_params(10.0, delta=optimum.delta_opt, u=optimum.u_opt, eta=3.0)
    dense = {}
    for n_total in (3, 4):
        spec = TotalSpec(n_total)
        obs = observables(steady_state(liouvillian(params, spec)), spec)
        dense[n_total] = (obs.g2_a, obs.mean_n_a, "")
    assert dense[3][0] > 1.4 * dense[4][0]
    g2, mean_n, error = master_equation_grid(params, TotalSpec(3))
    assert (g2[0], mean_n[0], error[0]) == dense[3]
    g2, mean_n, error = master_equation_grid(params)
    assert (g2[0], mean_n[0], error[0]) == dense[4]


@pytest.mark.parametrize("table_block, grid_chunk", [
    (lindblad._TABLE_BLOCK, solvers.GRID_CHUNK), (3, 16)])
def test_default_space_grid_matches_points_bitwise(monkeypatch, table_block, grid_chunk):
    rows = default_space_rows()
    expected = []
    for params in rows:
        try:
            expected.append((*evaluate_point(params, "MasterEquation"), ""))
        except SolverError as err:
            expected.append((None, math.nan, str(err)))
    assert sum(1 for *_, message in expected if message) == len(DEFAULT_SPACE_FAILING_POINTS)
    monkeypatch.setattr(lindblad, "_TABLE_BLOCK", table_block)
    monkeypatch.setattr(solvers, "GRID_CHUNK", grid_chunk)
    for threads in (1, 2):
        g2, mean_n, error = evaluate_grid(grid_columns(rows), "MasterEquation", threads=threads)
        assert error.tolist() == [message for *_, message in expected]
        for i, (g2_i, mean_n_i, message) in enumerate(expected):
            if message:
                assert math.isnan(g2[i]) and math.isnan(mean_n[i])
            else:
                assert (g2[i], mean_n[i]) == (g2_i, mean_n_i)


def test_evolve_zero_generator_returns_state():
    rho0 = vacuum()
    out = evolve(np.zeros((SPEC.dim**2, SPEC.dim**2), dtype=complex),
                 rho0, t_final=1.0, dt=0.1)
    assert np.array_equal(out, rho0)


def test_evolve_undriven_decay():
    params = SystemParams()
    liouv = liouvillian(params, SPEC)
    rho0 = np.zeros((SPEC.dim, SPEC.dim), dtype=complex)
    rho0[SPEC.index(1, 0), SPEC.index(1, 0)] = 1.0
    out = evolve(liouv, rho0, t_final=1.0, dt=1e-3)
    obs = observables(out, SPEC)
    assert obs.mean_n_a == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_evolve_detects_unstable_step():
    params = symmetric_params(10.0, delta=5.0, eta=2.0)
    liouv = liouvillian(params, SPEC)
    with pytest.raises(SolverError, match="step size"):
        evolve(liouv, vacuum(), t_final=10.0, dt=1.0)


def test_evolve_input_validation():
    liouv = np.zeros((SPEC.dim**2, SPEC.dim**2), dtype=complex)
    with pytest.raises(ValueError):
        evolve(liouv, vacuum(), t_final=1.0, dt=0.0)
    with pytest.raises(ValueError):
        evolve(liouv, vacuum(), t_final=-1.0, dt=0.1)


@pytest.mark.parametrize("liouv_shape, rho0_shape", [
    ((16, 16), (3, 3)), ((81, 81), (9, 9, 1)), ((81, 81), (9, 3)), ((81, 27), (9, 9)),
    ((81,), (9, 9)), ((0, 0), (0, 0))])
def test_evolve_rejects_a_state_that_does_not_fit_the_generator(liouv_shape, rho0_shape):
    message = (f"generator and rho0 must be d^2 x d^2 and d x d arrays, "
               f"got shapes {liouv_shape} and {rho0_shape}")
    with pytest.raises(ValueError, match=re.escape(message)):
        evolve(np.zeros(liouv_shape, dtype=complex), np.zeros(rho0_shape), 1.0, 0.1)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["t_final", "dt"])
def test_evolve_rejects_a_non_finite_time(name, value):
    # An infinite dt used to return rho0 unchanged, and a NaN failed on int().
    times = {"t_final": 5.0, "dt": 0.1, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        evolve(np.zeros((SPEC.dim**2, SPEC.dim**2), dtype=complex), vacuum(), **times)


@pytest.mark.parametrize("name", ["t_final", "dt"])
def test_evolve_rejects_a_time_that_is_not_a_number(name):
    times = {"t_final": 5.0, "dt": 0.1, name: "1.0"}
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        evolve(np.zeros((SPEC.dim**2, SPEC.dim**2), dtype=complex), vacuum(), **times)


def test_observables_vacuum_flags_g2():
    obs = observables(vacuum(), SPEC)
    assert obs.mean_n_a == 0.0
    assert obs.mean_n_b == 0.0
    assert obs.g2_a is None
    assert obs.g2_b is None


def test_observables_single_photon_state():
    rho = np.zeros((SPEC.dim, SPEC.dim), dtype=complex)
    rho[SPEC.index(1, 0), SPEC.index(1, 0)] = 1.0
    obs = observables(rho, SPEC)
    assert obs.mean_n_a == pytest.approx(1.0, abs=1e-12)
    assert obs.g2_a == pytest.approx(0.0, abs=1e-12)


def test_validate_density_matrix():
    params = symmetric_params(10.0, delta=1.0, u=0.05, eta=3.0, phi=0.5)
    rho = steady_state(liouvillian(params, SPEC))
    validate_density_matrix(rho)
    with pytest.raises(SolverError):
        validate_density_matrix(2.0 * rho)
    with pytest.raises(SolverError):
        validate_density_matrix(rho + 1e-8j * np.eye(SPEC.dim))


def test_mode_exchange_symmetry():
    params = SystemParams(delta_a=1.0, delta_b=-0.5, coupling_j=4.0,
                          u_a=0.03, u_b=0.07, eps_a=0.01, eps_b=0.004,
                          phi_a=0.6, phi_b=-0.2, kappa_a=1.2, kappa_b=0.8)
    swapped = SystemParams(delta_a=-0.5, delta_b=1.0, coupling_j=4.0,
                           u_a=0.07, u_b=0.03, eps_a=0.004, eps_b=0.01,
                           phi_a=-0.2, phi_b=0.6, kappa_a=0.8, kappa_b=1.2)
    obs = observables(steady_state(liouvillian(params, SPEC)), SPEC)
    obs_swapped = observables(steady_state(liouvillian(swapped, SPEC)), SPEC)
    assert obs.mean_n_a == pytest.approx(obs_swapped.mean_n_b, abs=1e-10)
    assert obs.mean_n_b == pytest.approx(obs_swapped.mean_n_a, abs=1e-10)
    assert obs.g2_a == pytest.approx(obs_swapped.g2_b, rel=1e-10)
    assert obs.g2_b == pytest.approx(obs_swapped.g2_a, rel=1e-10)


def test_drive_phase_gauge_invariance():
    params = symmetric_params(10.0, delta=2.0, u=0.04, eta=3.0, phi=0.9)
    shifted = params.replace(phi_a=params.phi_a + 1.1, phi_b=params.phi_b + 1.1)
    obs = observables(steady_state(liouvillian(params, SPEC)), SPEC)
    obs_shifted = observables(steady_state(liouvillian(shifted, SPEC)), SPEC)
    assert obs.mean_n_a == pytest.approx(obs_shifted.mean_n_a, rel=1e-10)
    assert obs.g2_a == pytest.approx(obs_shifted.g2_a, rel=1e-10)
    assert obs.g2_b == pytest.approx(obs_shifted.g2_b, rel=1e-10)


def test_weak_drive_limit_approaches_amplitude_prediction():
    predicted = g2_approx(hierarchy_steady(
        symmetric_params(10.0, delta=1.0, u=0.05, eta=3.0)))
    gaps = []
    for scale in (1.0, 0.5, 0.25):
        params = symmetric_params(10.0, delta=1.0, u=0.05, eta=3.0,
                                  eps_a=0.01 * scale)
        obs = observables(steady_state(liouvillian(params, SPEC)), SPEC)
        gaps.append(abs(obs.g2_a - predicted))
    assert gaps[0] > gaps[1] > gaps[2]


def test_truncation_convergence():
    params = symmetric_params(10.0, delta=1.0, u=0.05, eta=3.0, phi=0.7)
    values = []
    for n_max in (3, 4):
        spec = HilbertSpec(n_max, n_max)
        obs = observables(steady_state(liouvillian(params, spec)), spec)
        values.append(obs.g2_a)
    assert abs(values[0] - values[1]) / values[1] < 1e-6


def blas_thread_counts():
    return [get_threads() for get_threads, _ in _openblas_controls()]


@pytest.mark.filterwarnings("ignore:Diagonal number")
def test_steady_state_restores_blas_thread_counts():
    controls = _openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS library loaded")
    saved = blas_thread_counts()
    liouv = liouvillian(symmetric_params(10.0, delta=0.3, u=0.02, eta=3.0), SPEC)
    try:
        for _, set_threads in controls:
            set_threads(2)
        before = blas_thread_counts()
        steady_state(liouv)
        assert blas_thread_counts() == before
        with pytest.raises(SolverError):
            steady_state(np.zeros_like(liouv))
        assert blas_thread_counts() == before
        with _single_threaded_blas:
            assert blas_thread_counts() == [1] * len(controls)
        assert blas_thread_counts() == before
    finally:
        for (_, set_threads), count in zip(controls, saved):
            set_threads(count)


def test_evolve_runs_on_single_threaded_blas_and_restores_counts():
    controls = _openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS library loaded")
    seen = []

    class RecordingGenerator(np.ndarray):
        def __matmul__(self, other):
            seen.append(blas_thread_counts())
            return np.asarray(self) @ other

    stable = liouvillian(symmetric_params(10.0, delta=0.3, u=0.02, eta=3.0), SPEC)
    unstable = liouvillian(symmetric_params(10.0, delta=5.0, eta=2.0), SPEC)
    saved = blas_thread_counts()
    try:
        for _, set_threads in controls:
            set_threads(2)
        before = blas_thread_counts()
        evolve(stable.view(RecordingGenerator), vacuum(), t_final=0.01, dt=1e-3)
        assert blas_thread_counts() == before
        with pytest.raises(SolverError, match="step size"):
            evolve(unstable.view(RecordingGenerator), vacuum(), t_final=10.0, dt=1.0)
        assert blas_thread_counts() == before
        assert seen and all(counts == [1] * len(controls) for counts in seen)
    finally:
        for (_, set_threads), count in zip(controls, saved):
            set_threads(count)


def test_steady_state_concurrent_calls_match_serial():
    rng = np.random.default_rng(53)
    generators = [
        liouvillian(symmetric_params(
            rng.uniform(1, 10), delta=rng.uniform(-2, 2), u=rng.uniform(0, 0.1),
            eta=rng.uniform(1, 5), phi=rng.uniform(-math.pi, math.pi)), SPEC)
        for _ in range(6)
    ]
    before = blas_thread_counts()
    serial = [steady_state(g).tobytes() for g in generators]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(steady_state, g) for g in generators * 4]
            concurrent = [f.result(timeout=120).tobytes() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial * 4
    assert blas_thread_counts() == before
