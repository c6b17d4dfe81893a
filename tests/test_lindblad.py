import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from photonmol import (
    HilbertSpec,
    SolverError,
    SystemParams,
    dual_drive_optimum_asymptotic,
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
from photonmol.lindblad import _openblas_controls, _photon_numbers, _single_threaded_blas

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
    exact_solve = scipy.linalg.lu_solve
    noise = 1e-6 * np.random.default_rng(61).normal(size=SPEC.dim**2)

    def perturbed_solve(*args, **kwargs):
        return exact_solve(*args, **kwargs) + noise

    monkeypatch.setattr(scipy.linalg, "lu_solve", perturbed_solve)
    with pytest.raises(SolverError, match="ill-conditioned"):
        steady_state(liouv)
    with pytest.raises(SolverError, match="ill-conditioned"):
        evaluate_point(symmetric_params(10.0, delta=0.3, u=0.02, eta=3.0),
                       "MasterEquation")


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
