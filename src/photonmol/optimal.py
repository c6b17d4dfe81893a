"""Optimal parameter points for antibunching and the bunching-condition
curves.

The antibunching optimum (delta_opt, u_opt) minimizing the mode-A
correlation is available four ways: the single-drive strong-coupling
asymptotics, the dual-drive strong-coupling asymptotics, the exact
zero-relative-phase conditions (a pair of real polynomial equations solved
by eliminating the Kerr strength and root-scanning the detuning), and a
direct numerical minimization of the weak-drive correlation.
"""

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, check_int, check_number
from .model import symmetric_params
from .solvers import (
    SOLVER_FULL_TRUNCATED,
    evaluate_grid,
    evaluate_point,
    normalize_solver,
)

METHOD_SINGLE_DRIVE_ASYMPTOTIC = "SingleDriveAsymptotic"
METHOD_DUAL_DRIVE_ASYMPTOTIC = "DualDriveAsymptotic"
METHOD_DUAL_DRIVE_EXACT = "DualDriveExact"
METHOD_NUMERIC = "Numeric"

_SQRT3 = math.sqrt(3.0)

# numeric_optimum's Nelder-Mead tolerance on (log delta, log u), and the
# distance from the u cap (in log u) that counts as stopping on it.
REFINE_TOL = 1e-4


@dataclass(frozen=True)
class OptimalPoint:
    """An optimal (detuning, Kerr strength) pair in units of kappa.

    g2_min is the minimized correlation for the numeric method and None for
    the analytic conditions (they fix the point, not its correlation value).
    """

    delta_opt: float
    u_opt: float
    g2_min: float | None
    method: str


@dataclass(frozen=True)
class BunchingCondition:
    """Drive settings nulling the one-photon amplitude of mode A.

    At this point single-photon occupation is suppressed while photon pairs
    survive, producing strong bunching.
    """

    phi_star: float
    eta_inv_star: float


def _check_inputs(kappa: float, j: float, **values: float) -> None:
    """The input rule of every optimum here: ValueError unless kappa is a
    positive, finite number, j a positive number (every condition divides
    by j) and each of values (eta, delta) a number other than NaN; an
    infinite eta is mode A driven alone. Checks without converting: the
    sweep rules call these functions at every point."""
    check_number(kappa, "kappa")
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
    check_number(j, "coupling strength j")
    if not j > 0:
        raise ValueError("coupling strength j must be positive")
    for name, value in values.items():
        if math.isnan(check_number(value, name)):
            raise ValueError(f"{name} must not be NaN")


def single_drive_optimum(kappa: float, j: float, branch: str = "+") -> OptimalPoint:
    """Strong-coupling antibunching optimum when only mode A is driven:
    delta_opt = +-kappa/(2 sqrt(3)), u_opt = +-(2/(3 sqrt(3))) kappa^3/j^2."""
    _check_inputs(kappa, j)
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    if j < 5 * kappa:
        warnings.warn(
            "single-drive optimum assumes strong coupling; "
            f"j={j} is below 5*kappa", stacklevel=2,
        )
    sign = 1.0 if branch == "+" else -1.0
    return OptimalPoint(
        delta_opt=sign * kappa / (2.0 * _SQRT3),
        u_opt=sign * (2.0 / (3.0 * _SQRT3)) * kappa**3 / j**2,
        g2_min=None,
        method=METHOD_SINGLE_DRIVE_ASYMPTOTIC,
    )


def dual_drive_optimum_asymptotic(kappa: float, j: float, eta: float) -> OptimalPoint:
    """Strong-coupling antibunching optimum with both modes driven in phase:
    delta_opt = j/eta, u_opt = (kappa^2/2j) * eta/(eta^2 - 1)."""
    _check_inputs(kappa, j, eta=eta)
    if eta <= 1:
        raise ValueError(
            "dual-drive optimum requires eta > 1 (the Kerr strength diverges "
            "at eta = 1 and is negative below)"
        )
    if eta >= (j / kappa) ** 2:
        warnings.warn(
            f"dual-drive asymptotics valid only for eta well below "
            f"(j/kappa)^2 = {(j / kappa) ** 2:g}; got eta={eta}", stacklevel=2,
        )
    return OptimalPoint(
        delta_opt=j / eta,
        u_opt=(kappa**2 / (2.0 * j)) * eta / (eta**2 - 1.0),
        g2_min=None,
        method=METHOD_DUAL_DRIVE_ASYMPTOTIC,
    )


# --- exact zero-relative-phase conditions --------------------------------
#
# Nulling the two-photon amplitude of mode A requires the determinant of the
# remaining homogeneous system to vanish; with zero relative phase its real
# and imaginary parts give two real polynomial equations in (delta, u). The
# imaginary part is linear in u, so u is eliminated and the detuning found
# by scanning the resulting quartic for sign changes.


def _condition_terms(d, kappa, j, eta):
    """Terms (r0, r1, i0, i1) of the two determinant conditions at zero
    relative phase, split by power of u: real = sum(r0) + u*sum(r1) and
    imaginary = kappa*(sum(i0) + u*sum(i1)). Sums run left to right."""
    r0 = (16 * j * d**2, -4 * j * kappa**2, 6 * d * kappa**2 * eta,
          -8 * d**3 * eta, -8 * d * j**2 / eta)
    r1 = (16 * j * d, -4 * j**2 / eta, -4 * j**2 * eta, -8 * d**2 * eta,
          2 * kappa**2 * eta)
    i0 = (4 * j**2 / eta, 12 * d**2 * eta, -kappa**2 * eta, -16 * j * d)
    i1 = (8 * d * eta, -8 * j)
    return r0, r1, i0, i1


def _sum(terms):
    """Left-to-right sum that starts from the first term, not from int 0."""
    return functools.reduce(operator.add, terms)


def exact_condition_residuals(delta, u, kappa, j, eta):
    """Relative residuals |sum of terms| / sum of |terms| of the real and
    imaginary determinant conditions at (delta, u). The scales are floored
    at kappa^3 and kappa^2 (kappa is factored out of the imaginary one)."""
    d, uu = np.longdouble(delta), np.longdouble(u)
    k, jj, e = np.longdouble(kappa), np.longdouble(j), np.longdouble(eta)
    r0, r1, i0, i1 = _condition_terms(d, k, jj, e)
    return tuple(
        float(abs(_sum(terms)) / max(_sum(abs(t) for t in terms), floor))
        for terms, floor in (((*r0, *(t * uu for t in r1)), k**3),
                             ((*i0, *(t * uu for t in i1)), k**2))
    )


def _u_eliminated_polynomial(kappa, j, eta):
    """After eliminating u from the (linear-in-u) imaginary condition,
    roots of P(delta) = A*D + B*N solve both conditions simultaneously:
    real condition = A + B*u, u = N/D, with A = sum(r0), B = sum(r1),
    N = -sum(i0) and D = sum(i1) from _condition_terms."""
    def parts(d):
        r0, r1, i0, i1 = _condition_terms(d, kappa, j, eta)
        return _sum(r0), _sum(r1), -_sum(i0), _sum(i1)

    def poly(d):
        a, b, n, dd = parts(d)
        return a * dd + b * n

    def poly_d(d):  # D' = 8*eta
        a, b, n, dd = parts(d)
        a_d = 32 * j * d + 6 * kappa**2 * eta - 24 * d**2 * eta - 8 * j**2 / eta
        b_d = 16 * j - 16 * d * eta
        n_d = 16 * j - 24 * d * eta
        return a_d * dd + a * 8 * eta + b_d * n + b * n_d

    def u_of(d):
        _, _, n, dd = parts(d)
        return n / dd

    return poly, poly_d, u_of


def dual_drive_optimum_exact_phi0(
    kappa: float, j: float, eta: float, samples: int = 4096
) -> OptimalPoint:
    """Exact zero-relative-phase antibunching optimum.

    Scans the u-eliminated quartic over delta in (0, 2j] for sign changes,
    polishes each bracketed root in extended precision, and returns the root
    nearest the asymptotic seed (j/eta, ...). Both determinant conditions
    are verified to a relative residual of 1e-10.
    """
    _check_inputs(kappa, j, eta=eta)
    if eta <= 1:
        raise ValueError("exact dual-drive optimum requires eta > 1")
    check_int(samples, 2, "samples")
    poly, poly_d, u_of = _u_eliminated_polynomial(
        np.longdouble(kappa), np.longdouble(j), np.longdouble(eta)
    )
    from scipy.optimize import brentq  # on first use: slower to import than photonmol

    grid = np.linspace(2.0 * j / samples, 2.0 * j, samples)
    values = poly(grid.astype(np.longdouble)).astype(float)

    seed = j / eta
    candidates = []
    signs = np.sign(values)
    for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
        root = brentq(lambda d: float(poly(np.longdouble(d))),
                      grid[i], grid[i + 1], xtol=1e-13, rtol=8.9e-16)
        root = np.longdouble(root)
        for _ in range(6):  # Newton polish in extended precision
            slope = poly_d(root)
            if slope == 0:
                break
            root = root - poly(root) / slope
        u_val = u_of(root)
        res_r, res_i = exact_condition_residuals(root, u_val, kappa, j, eta)
        if math.isfinite(float(u_val)) and res_r < 1e-10 and res_i < 1e-10:
            candidates.append((float(root), float(u_val)))
    if not candidates:
        raise SolverError(
            f"no root of the exact conditions found for delta in (0, {2 * j}]"
            f" at kappa={kappa}, j={j}, eta={eta}"
        )
    delta_opt, u_opt = min(candidates, key=lambda du: abs(du[0] - seed))
    return OptimalPoint(delta_opt=delta_opt, u_opt=u_opt, g2_min=None,
                        method=METHOD_DUAL_DRIVE_EXACT)


def _ordered_argmin(values: np.ndarray) -> tuple[int, ...] | None:
    """Index of the grid minimum under an ordered scan with a tie rule.

    Scans values in C order and moves to a value only when it lies more
    than 1e-12 below the best so far, so near-ties keep the earlier point.
    Non-finite values never win; None when there is no finite value.
    """
    best_val, best = math.inf, None
    for index, val in enumerate(values.ravel().tolist()):
        if val < best_val - 1e-12:
            best_val, best = val, index
    return None if best is None else np.unravel_index(best, values.shape)


def numeric_optimum(
    kappa: float,
    j: float,
    eta: float,
    phi: float,
    solver: str = SOLVER_FULL_TRUNCATED,
    eps_a: float | None = None,
    grid_points: int = 64,
    n_max: int | None = None,
) -> OptimalPoint:
    """Numerically minimize the mode-A correlation over (delta, u).

    Coarse grid of grid_points x grid_points (at least 2; delta linear in
    [0.05 kappa, 1.2 j], u log-spaced in [1e-4 kappa, kappa]), evaluated in
    one evaluate_grid call, followed by Nelder-Mead refinement in log
    coordinates to a fixed relative parameter tolerance of REFINE_TOL
    (1e-4). Grid ties closer than 1e-12 prefer the weaker nonlinearity.
    n_max is the master equation's cutoff, read as by evaluate_point.

    u is capped at the grid's top row (kappa), delta is free. A run ending
    within REFINE_TOL of the cap (in log u) at 1 < eta < inf is refined
    again from the analytic optimum (exact at phi = 0 if it has u > 0, else
    asymptotic; u clipped to the cap); the lower g2 wins, the first on a tie.
    """
    from scipy.optimize import minimize  # on first use: slower to import than photonmol

    solver = normalize_solver(solver)
    _check_inputs(kappa, j, eta=eta)
    check_int(grid_points, 2, "grid_points")
    if eps_a is None:
        eps_a = 0.01 * kappa

    def objective(delta, u):
        params = symmetric_params(j, delta=delta, u=u, eta=eta, phi=phi,
                                  eps_a=eps_a, kappa=kappa)
        try:
            g2, _ = evaluate_point(params, solver, n_max=n_max)
        except SolverError:
            return math.inf
        if g2 is None or not math.isfinite(g2):
            return math.inf
        return g2

    deltas = np.linspace(0.05 * kappa, 1.2 * j, grid_points)
    u_values = np.logspace(-4, 0, grid_points) * kappa
    base = symmetric_params(j, eta=eta, phi=phi, eps_a=eps_a, kappa=kappa)
    g2_grid, _, _ = evaluate_grid(
        base.to_dict() | {"delta_a": deltas, "delta_b": deltas,
                          "u_a": u_values[:, None], "u_b": u_values[:, None]},
        solver, n_max=n_max,
    )
    best = _ordered_argmin(g2_grid)  # rows ascend in u: weaker nonlinearity first
    if best is None:
        raise SolverError(
            f"correlation non-finite over the whole grid at kappa={kappa}, "
            f"j={j}, eta={eta}, phi={phi}"
        )
    log_u_cap = math.log(u_values[-1])

    def refine(start) -> OptimalPoint:
        result = minimize(lambda x: objective(math.exp(x[0]), math.exp(x[1])),
                          np.log(start), method="Nelder-Mead",
                          bounds=[(None, None), (None, log_u_cap)],
                          options={"xatol": REFINE_TOL, "fatol": math.inf, "maxiter": 800})
        delta_opt, u_opt = (math.exp(v) for v in result.x)
        return OptimalPoint(delta_opt=delta_opt, u_opt=u_opt,
                            g2_min=float(result.fun), method=METHOD_NUMERIC)

    opt = refine((deltas[best[1]], u_values[best[0]]))
    if log_u_cap - math.log(opt.u_opt) > REFINE_TOL or not 1 < eta < math.inf:
        return opt
    try:
        seed = dual_drive_optimum_exact_phi0(kappa, j, eta) if phi == 0 else None
    except SolverError:
        seed = None
    if seed is None or seed.u_opt <= 0:
        seed = dual_drive_optimum_asymptotic(kappa, j, eta)
    second = refine((seed.delta_opt, min(seed.u_opt, u_values[-1])))
    return second if second.g2_min < opt.g2_min else opt


def c10_zero_condition(kappa: float, j: float, delta: float) -> BunchingCondition:
    """Drive ratio and relative phase nulling the one-photon amplitude of
    mode A at the given detuning: eta e^{i phi} (delta - i kappa/2) = j."""
    _check_inputs(kappa, j, delta=delta)
    pole = complex(delta, -0.5 * kappa)
    return BunchingCondition(
        phi_star=-np.angle(pole),
        eta_inv_star=abs(pole) / j,
    )


def bunching_phase_curve(kappa: float, j: float, eta: float) -> float:
    """Relative phase along which strong bunching appears when (delta, u)
    follow the dual-drive asymptotic optimum: phi = arctan(eta kappa / 2j)."""
    _check_inputs(kappa, j, eta=eta)
    argument = eta * kappa / (2.0 * j)
    if argument > 0.5:
        warnings.warn(
            f"bunching phase curve assumes eta*kappa/(2j) << 1; got "
            f"{argument:g}", stacklevel=2,
        )
    return math.atan(argument)
