"""Randomized invariant checks shared by the property tests and the
acceptance suite. Each check runs `draws` independent seeded cases and
returns the number of cases exercised."""

import math

import numpy as np

import photonmol as pm

SPEC3 = pm.HilbertSpec(3, 3)


def generic_params(rng, coupling_j=10.0):
    return pm.symmetric_params(
        coupling_j,
        delta=rng.uniform(-5.0, 5.0),
        u=rng.uniform(0.0, 0.1),
        eta=rng.uniform(1.5, 8.0),
        phi=rng.uniform(0.0, math.pi),
        eps_a=0.01,
    )


def asymmetric_params(rng):
    return pm.SystemParams(
        delta_a=rng.uniform(-3.0, 3.0), delta_b=rng.uniform(-3.0, 3.0),
        coupling_j=rng.uniform(0.5, 8.0), u_a=rng.uniform(0.0, 0.1),
        u_b=rng.uniform(0.0, 0.1), eps_a=rng.uniform(0.003, 0.02),
        eps_b=rng.uniform(0.003, 0.02),
        phi_a=rng.uniform(-math.pi, math.pi),
        phi_b=rng.uniform(-math.pi, math.pi),
        kappa_a=rng.uniform(0.6, 1.5), kappa_b=rng.uniform(0.6, 1.5),
    )


def swap_modes(p: pm.SystemParams) -> pm.SystemParams:
    return pm.SystemParams(
        delta_a=p.delta_b, delta_b=p.delta_a, coupling_j=p.coupling_j,
        u_a=p.u_b, u_b=p.u_a, eps_a=p.eps_b, eps_b=p.eps_a,
        phi_a=p.phi_b, phi_b=p.phi_a, kappa_a=p.kappa_b, kappa_b=p.kappa_a,
    )


def check_density_matrix_invariants(draws: int, seed: int = 101) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        rho = pm.steady_state(pm.liouvillian(generic_params(rng), SPEC3))
        pm.validate_density_matrix(rho)
    return draws


def check_gauge_invariance(draws: int, seed: int = 202) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        params = generic_params(rng)
        shift = rng.uniform(-math.pi, math.pi)
        shifted = params.replace(phi_a=params.phi_a + shift,
                                 phi_b=params.phi_b + shift)
        obs = pm.observables(pm.steady_state(pm.liouvillian(params, SPEC3)), SPEC3)
        obs_s = pm.observables(pm.steady_state(pm.liouvillian(shifted, SPEC3)), SPEC3)
        for x, y in ((obs.mean_n_a, obs_s.mean_n_a),
                     (obs.mean_n_b, obs_s.mean_n_b),
                     (obs.g2_a, obs_s.g2_a), (obs.g2_b, obs_s.g2_b)):
            assert abs(x - y) <= 1e-10 * max(abs(x), 1.0)
    return draws


def check_mode_exchange_symmetry(draws: int, seed: int = 303) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        params = asymmetric_params(rng)
        obs = pm.observables(pm.steady_state(pm.liouvillian(params, SPEC3)), SPEC3)
        swapped = pm.observables(
            pm.steady_state(pm.liouvillian(swap_modes(params), SPEC3)), SPEC3)
        assert abs(obs.mean_n_a - swapped.mean_n_b) <= 1e-10
        assert abs(obs.mean_n_b - swapped.mean_n_a) <= 1e-10
        assert abs(obs.g2_a - swapped.g2_b) <= 1e-10 * max(abs(obs.g2_a), 1.0)
        assert abs(obs.g2_b - swapped.g2_a) <= 1e-10 * max(abs(obs.g2_b), 1.0)
    return draws


def check_drive_scaling_invariance(draws: int, seed: int = 404) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        params = generic_params(rng)
        reference = pm.g2_approx(pm.hierarchy_steady(params))
        for scale in (0.5, 2.0):
            scaled = params.replace(eps_a=scale * params.eps_a,
                                    eps_b=scale * params.eps_b)
            assert pm.g2_approx(pm.hierarchy_steady(scaled)) == reference
    return draws


def check_truncation_convergence(draws: int, seed: int = 505) -> int:
    """Box 3 against box 4, the references, and the default space against
    the total cutoff n_a + n_b <= 5."""
    rng = np.random.default_rng(seed)
    total5 = pm.TotalSpec(5)
    for _ in range(draws):
        params = generic_params(rng)
        values = []
        for n_max in (3, 4):
            spec = pm.HilbertSpec(n_max, n_max)
            obs = pm.observables(
                pm.steady_state(pm.liouvillian(params, spec)), spec)
            values.append(obs.g2_a)
        assert abs(values[0] - values[1]) <= 1e-6 * abs(values[1])
        default, _ = pm.evaluate_point(params, pm.SOLVER_MASTER_EQUATION)
        converged = pm.observables(
            pm.steady_state(pm.liouvillian(params, total5)), total5).g2_a
        assert abs(default - converged) <= 1e-6 * abs(converged)
    return draws


def check_weak_drive_limit(draws: int, seed: int = 707) -> int:
    """Both weak-drive g2 values approach the master equation's as eps**2,
    and the hierarchy, its eps -> 0 limit, is the closer of the two."""
    rng = np.random.default_rng(seed)
    for i in range(draws):
        params = (generic_params if 2 * i < draws else asymmetric_params)(rng)
        gaps = {}
        for solver in (pm.SOLVER_HIERARCHY, pm.SOLVER_FULL_TRUNCATED):
            gaps[solver] = []
            for scale in (1.0, 0.5):
                scaled = params.replace(eps_a=scale * params.eps_a,
                                        eps_b=scale * params.eps_b)
                exact, _ = pm.evaluate_point(scaled, pm.SOLVER_MASTER_EQUATION, n_max=4)
                approx, _ = pm.evaluate_point(scaled, solver)
                gaps[solver].append(abs(exact - approx) / exact)
            assert 3.5 <= gaps[solver][0] / gaps[solver][1] <= 4.5
        assert gaps[pm.SOLVER_HIERARCHY][0] < gaps[pm.SOLVER_FULL_TRUNCATED][0]
    return draws


def check_one_photon_zero_condition(draws: int, seed: int = 606) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        delta = rng.uniform(-5.0, 5.0)
        condition = pm.c10_zero_condition(1.0, 10.0, delta)
        params = pm.symmetric_params(10.0, delta=delta,
                                     eta=1.0 / condition.eta_inv_star,
                                     phi=condition.phi_star)
        c10, c01 = pm.one_photon_amplitudes(params)
        assert abs(c10) <= 1e-12 * abs(c01)
    return draws
