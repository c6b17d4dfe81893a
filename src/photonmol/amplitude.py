"""Weak-drive amplitude treatment of the two-mode system.

With both drives weak the state stays close to vacuum and is expanded over
the six Fock states with at most two total photons, with the vacuum
amplitude fixed to one. Two solvers are provided:

* the hierarchy solve: closed forms for the one-photon amplitudes followed
  by a 3x3 linear system for the two-photon amplitudes. It drops the
  feedback of two-photon amplitudes onto the one-photon ones, which makes
  it the eps -> 0 limit of the master equation;
* the full truncated solve: the complete 5x5 steady linear system including
  those feedback terms.

Each solver builds its systems from parameter arrays and solves them as
stacks: the scalar entry points solve a batch of one, and hierarchy_grid /
full_truncated_grid solve many points at once for solvers.evaluate_grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .model import SystemParams

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class AmplitudeSet:
    """Amplitudes of |0,0>, |1,0>, |0,1>, |2,0>, |1,1>, |0,2> with c00 = 1."""

    c00: complex
    c10: complex
    c01: complex
    c20: complex
    c11: complex
    c02: complex


def _drive_phasors(params) -> tuple:
    ea = params.eps_a * np.exp(1j * params.phi_a)
    eb = params.eps_b * np.exp(1j * params.phi_b)
    return ea, eb


# --- linear systems, built and solved as stacks -----------------------------
#
# The builders below take a SystemParams, or an object with the same field
# names holding equal-length 1-D arrays (one entry per point), and return
# (B, n, n) matrices with (B, n, 1) right-hand sides: B = 1 for a
# SystemParams.


def _stack(rows: list) -> np.ndarray:
    """(B, rows, cols) stack of a matrix whose entries are all scalars or
    all 1-D arrays of length B."""
    out = np.array(rows, dtype=complex)
    return out.reshape(out.shape[:2] + (-1,)).transpose(2, 0, 1)


def _cmul(a, b):
    """a * b, rounded as a scalar product rounds.

    numpy's and Python's scalar complex products use the textbook formula;
    numpy's vectorised ones may fuse its multiply-adds and round
    differently. The hierarchy's products go through here, so stacked
    amplitudes equal the scalar ones bit for bit.
    """
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return a * b
    return ((a.real * b.real - a.imag * b.imag)
            + 1j * (a.real * b.imag + a.imag * b.real))


def _solve_stack(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(B, n) solutions of a (B, n, n) stack against (B, n, 1) right-hand
    sides. Both systems are H - i Gamma/2 with H Hermitian and Gamma > 0
    diagonal, regular however strong the Kerr terms, so only overflow is
    checked: a row with any non-finite entry is all NaN."""
    solutions = np.linalg.solve(matrices, rhs)[..., 0]
    solutions[~np.isfinite(solutions).all(axis=1)] = np.nan
    return solutions


def _solve_one(matrices: np.ndarray, rhs: np.ndarray, label: str) -> np.ndarray:
    """Solution of a batch of one; SolverError when it is not finite."""
    solution = _solve_stack(matrices, rhs)[0]
    if np.isnan(solution[0]):
        raise SolverError(f"{label} overflowed: its solution is not finite")
    return solution


def _two_photon_system(params, c10, c01) -> tuple[np.ndarray, np.ndarray]:
    """3x3 system of (c20, c11, c02) with the one-photon amplitudes as
    sources."""
    ea, eb = _drive_phasors(params)
    da, db = params.delta_a, params.delta_b
    ka, kb = params.kappa_a, params.kappa_b
    j = params.coupling_j
    zero = da - da  # +0.0 in da's shape: x - x is +0.0 for finite x
    matrix = _stack([
        [2 * da + 2 * params.u_a - 1j * ka, _SQRT2 * j, zero],
        [zero, _SQRT2 * j, 2 * db + 2 * params.u_b - 1j * kb],
        [_SQRT2 * j, da + db - 0.5j * (ka + kb), _SQRT2 * j],
    ])
    rhs = _stack([
        [_cmul(-_SQRT2 * ea, c10)],
        [_cmul(-_SQRT2 * eb, c01)],
        [-(_cmul(eb, c10) + _cmul(ea, c01))],
    ])
    return matrix, rhs


def _full_truncated_system(params) -> tuple[np.ndarray, np.ndarray]:
    """5x5 steady system of (c10, c01, c20, c11, c02) with c00 = 1."""
    ea, eb = _drive_phasors(params)
    da, db = params.delta_a, params.delta_b
    ka, kb = params.kappa_a, params.kappa_b
    ua, ub = params.u_a, params.u_b
    j = params.coupling_j
    zero = da - da  # +0.0 in da's shape: x - x is +0.0 for finite x
    matrix = _stack([
        [da - 0.5j * ka, j, _SQRT2 * np.conj(ea), np.conj(eb), zero],
        [j, db - 0.5j * kb, zero, np.conj(ea), _SQRT2 * np.conj(eb)],
        [_SQRT2 * ea, zero, 2 * da + 2 * ua - 1j * ka, _SQRT2 * j, zero],
        [eb, ea, _SQRT2 * j, da + db - 0.5j * (ka + kb), _SQRT2 * j],
        [zero, _SQRT2 * eb, zero, _SQRT2 * j, 2 * db + 2 * ub - 1j * kb],
    ])
    rhs = _stack([[-ea], [-eb], [zero], [zero], [zero]])
    return matrix, rhs


def one_photon_amplitudes(params: SystemParams) -> tuple[complex, complex]:
    """Closed-form one-photon amplitudes (c10, c01) with c00 = 1.

    The interference between the direct drive and the cross-coupled drive
    of the other mode can null either amplitude exactly. params may also
    hold 1-D arrays, as for the system builders, giving arrays of c10, c01.
    """
    ea, eb = _drive_phasors(params)
    j = params.coupling_j
    pole_a = params.delta_a - 0.5j * params.kappa_a
    pole_b = params.delta_b - 0.5j * params.kappa_b
    # float_power is libm's pow, as j**2 on a Python float; an array's
    # j**2 is j*j, which can round differently.
    denom = _cmul(pole_a, pole_b) - np.float_power(j, 2.0)
    c10 = (eb * j - _cmul(ea, pole_b)) / denom
    c01 = (ea * j - _cmul(eb, pole_a)) / denom
    return c10, c01


def two_photon_amplitudes(
    params: SystemParams, c10: complex, c01: complex
) -> tuple[complex, complex, complex]:
    """Two-photon amplitudes (c20, c11, c02) driven by the one-photon ones.

    Solves the 3x3 linear system of the two-photon manifold in the steady
    state; the one-photon amplitudes enter only as sources.
    """
    c20, c11, c02 = _solve_one(*_two_photon_system(params, c10, c01),
                               "two-photon 3x3 system")
    return c20, c11, c02


def hierarchy_steady(params: SystemParams) -> AmplitudeSet:
    """Hierarchy solve: closed-form one-photon amplitudes, then the 3x3
    two-photon system."""
    c10, c01 = one_photon_amplitudes(params)
    c20, c11, c02 = two_photon_amplitudes(params, c10, c01)
    return AmplitudeSet(c00=1.0, c10=c10, c01=c01, c20=c20, c11=c11, c02=c02)


def full_truncated_steady(params: SystemParams) -> AmplitudeSet:
    """Full steady solve of the two-photon-manifold amplitudes.

    Keeps the feedback of the two-photon amplitudes onto the one-photon
    equations. Unknowns are ordered (c10, c01, c20, c11, c02) with c00
    fixed to one.
    """
    c10, c01, c20, c11, c02 = _solve_one(*_full_truncated_system(params),
                                         "truncated-manifold 5x5 system")
    return AmplitudeSet(c00=1.0, c10=c10, c01=c01, c20=c20, c11=c11, c02=c02)


def g2_approx(amps: AmplitudeSet) -> float | None:
    """Weak-drive second-order correlation of mode A: 2|c20|^2 / |c10|^4.

    Follows from the definition <adag adag a a>/<adag a>^2 with the state in
    the two-photon manifold and c00 = 1. None when the one-photon amplitude
    vanishes (correlation undefined).
    """
    with np.errstate(all="ignore"):  # overflow yields inf or NaN, for the caller to flag
        mean = abs(amps.c10) ** 2
        denom = mean * mean
        if denom == 0.0:
            return None
        return 2.0 * abs(amps.c20) ** 2 / denom


def mean_photon_approx(amps: AmplitudeSet) -> float:
    """Weak-drive mean photon number of mode A: |c10|^2."""
    return abs(amps.c10) ** 2


def hierarchy_grid(params) -> tuple[np.ndarray, np.ndarray]:
    """Hierarchy (g2_a, mean_n_a) over a batch of points, given as an
    object with SystemParams' field names holding 1-D arrays. g2 is NaN
    where hierarchy_steady would raise and where g2 is undefined.
    """
    c10, c01 = one_photon_amplitudes(params)
    solutions = _solve_stack(*_two_photon_system(params, c10, c01))
    return _g2_and_mean(c10, solutions[:, 0])


def full_truncated_grid(params) -> tuple[np.ndarray, np.ndarray]:
    """FullTruncated (g2_a, mean_n_a) over a batch of points, given as for
    hierarchy_grid. NaN where full_truncated_steady would raise; g2 also
    NaN where it is undefined."""
    solutions = _solve_stack(*_full_truncated_system(params))
    return _g2_and_mean(solutions[:, 0], solutions[:, 2])


def _g2_and_mean(c10: np.ndarray, c20: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g2_approx and mean_photon_approx over amplitude arrays, with NaN for
    an undefined g2. hypot and float_power call the same libm hypot and pow
    as abs(c) ** 2 on a scalar, so each value equals the scalar one.
    Overflow yields inf or NaN; evaluate_grid ignores the warnings."""
    mean = np.float_power(np.hypot(c10.real, c10.imag), 2.0)
    denom = mean * mean
    g2 = 2.0 * np.float_power(np.hypot(c20.real, c20.imag), 2.0) / denom
    g2[denom == 0.0] = np.nan
    return g2, mean
