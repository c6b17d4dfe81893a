"""Optimal parameter points for antibunching and the bunching-condition
curves.

The antibunching optimum (delta_opt, u_opt) minimizing the mode-A
correlation is available four ways: the single-drive strong-coupling
asymptotics, the dual-drive strong-coupling asymptotics, the exact
zero-relative-phase conditions (a pair of real polynomial equations solved
by eliminating the Kerr strength and root-scanning the detuning), and a
direct numerical minimization of the weak-drive correlation.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize

from .errors import SolverError
from .model import symmetric_params
from .solvers import SOLVER_FULL_TRUNCATED, evaluate_point, normalize_solver

METHOD_SINGLE_DRIVE_ASYMPTOTIC = "SingleDriveAsymptotic"
METHOD_DUAL_DRIVE_ASYMPTOTIC = "DualDriveAsymptotic"
METHOD_DUAL_DRIVE_EXACT = "DualDriveExact"
METHOD_NUMERIC = "Numeric"

_SQRT3 = math.sqrt(3.0)


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


def single_drive_optimum(kappa: float, j: float, branch: str = "+") -> OptimalPoint:
    """Strong-coupling antibunching optimum when only mode A is driven:
    delta_opt = +-kappa/(2 sqrt(3)), u_opt = +-(2/(3 sqrt(3))) kappa^3/j^2."""
    if j <= 0:
        raise ValueError("coupling strength j must be positive")
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


def exact_condition_residuals(delta, u, kappa, j, eta):
    """Relative residuals of the two determinant conditions at (delta, u)."""
    d, uu = np.longdouble(delta), np.longdouble(u)
    k, jj, e = np.longdouble(kappa), np.longdouble(j), np.longdouble(eta)
    scale_r, scale_i = _condition_scales(d, uu, k, jj, e)
    return (
        float(abs(det_condition_real(d, uu, k, jj, e)) / scale_r),
        float(abs(det_condition_imag(d, uu, k, jj, e)) / scale_i),
    )


def _u_eliminated_polynomial(kappa, j, eta):
    """After eliminating u from the (linear-in-u) imaginary condition,
    roots of P(delta) = A*D + B*N solve both conditions simultaneously:
    real condition = A + B*u, u = N/D."""
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


def dual_drive_optimum_exact_phi0(
    kappa: float, j: float, eta: float, samples: int = 4096
) -> OptimalPoint:
    """Exact zero-relative-phase antibunching optimum.

    Scans the u-eliminated quartic over delta in (0, 2j] for sign changes,
    polishes each bracketed root in extended precision, and returns the root
    nearest the asymptotic seed (j/eta, ...). Both determinant conditions
    are verified to a relative residual of 1e-10.
    """
    if eta <= 1:
        raise ValueError("exact dual-drive optimum requires eta > 1")
    poly, poly_d, u_of = _u_eliminated_polynomial(
        np.longdouble(kappa), np.longdouble(j), np.longdouble(eta)
    )
    grid = np.linspace(2.0 * j / samples, 2.0 * j, samples)
    values = np.array([float(poly(np.longdouble(d))) for d in grid])

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


def numeric_optimum(
    kappa: float,
    j: float,
    eta: float,
    phi: float,
    solver: str = SOLVER_FULL_TRUNCATED,
    eps_a: float | None = None,
    grid_points: int = 64,
    refine_tol: float = 1e-4,
    n_max: int = 3,
) -> OptimalPoint:
    """Numerically minimize the mode-A correlation over (delta, u).

    Coarse 64x64 grid (delta linear in [0.05 kappa, 1.2 j], u log-spaced in
    [1e-4 kappa, kappa]) followed by Nelder-Mead refinement in log
    coordinates to a relative parameter tolerance of refine_tol. Grid ties
    closer than 1e-12 prefer the weaker nonlinearity.
    """
    solver = normalize_solver(solver)
    if grid_points < 1:
        raise ValueError(f"grid_points must be at least 1, got {grid_points}")
    if eps_a is None:
        eps_a = 0.01 * kappa

    def objective(delta, u):
        params = symmetric_params(j, delta=delta, u=u, eta=eta, phi=phi,
                                  eps_a=eps_a, kappa=kappa)
        try:
            g2, _ = evaluate_point(params, solver, n_max=n_max)
        except (SolverError, np.linalg.LinAlgError):
            return math.inf
        if g2 is None or not math.isfinite(g2):
            return math.inf
        return g2

    deltas = np.linspace(0.05 * kappa, 1.2 * j, grid_points)
    u_values = np.logspace(-4, 0, grid_points) * kappa
    best_val, best_xy = math.inf, None
    for u in u_values:  # ascending u: ties keep the weaker nonlinearity
        for delta in deltas:
            val = objective(delta, u)
            if val < best_val - 1e-12:
                best_val, best_xy = val, (delta, u)
    if best_xy is None:
        raise SolverError(
            f"correlation non-finite over the whole grid at kappa={kappa}, "
            f"j={j}, eta={eta}, phi={phi}"
        )

    result = minimize(
        lambda x: objective(math.exp(x[0]), math.exp(x[1])),
        np.log(best_xy),
        method="Nelder-Mead",
        options={"xatol": refine_tol, "fatol": math.inf, "maxiter": 800},
    )
    delta_opt, u_opt = (math.exp(v) for v in result.x)
    return OptimalPoint(delta_opt=delta_opt, u_opt=u_opt,
                        g2_min=objective(delta_opt, u_opt),
                        method=METHOD_NUMERIC)


def c10_zero_condition(kappa: float, j: float, delta: float) -> BunchingCondition:
    """Drive ratio and relative phase nulling the one-photon amplitude of
    mode A at the given detuning: eta e^{i phi} (delta - i kappa/2) = j."""
    if j <= 0:
        raise ValueError("coupling strength j must be positive")
    pole = complex(delta, -0.5 * kappa)
    return BunchingCondition(
        phi_star=-np.angle(pole),
        eta_inv_star=abs(pole) / j,
    )


def bunching_phase_curve(kappa: float, j: float, eta: float) -> float:
    """Relative phase along which strong bunching appears when (delta, u)
    follow the dual-drive asymptotic optimum: phi = arctan(eta kappa / 2j)."""
    argument = eta * kappa / (2.0 * j)
    if argument > 0.5:
        warnings.warn(
            f"bunching phase curve assumes eta*kappa/(2j) << 1; got "
            f"{argument:g}", stacklevel=2,
        )
    return math.atan(argument)
