"""Exact steady state of the dissipative dynamics and photon-statistics
observables."""

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SolverError
# mode_annihilators is not called here; perfbench's tracer looks it up here.
from .fock import HilbertSpec, mode_annihilators  # noqa: F401
from .model import hermitian_maps, unvec, vec

# LU factorisation of the real steady-state system; returns (lu, piv, info).
_getrf = scipy.linalg.get_lapack_funcs("getrf", dtype=np.float64)

# Trace drift per integration step signalling an unstable step size.
_TRACE_DRIFT_LIMIT = 1e-6


# Thread-count entry points as OpenBLAS builds name them: the copies
# vendored by numpy (64-bit integers) and scipy are prefixed "scipy_".
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")
)


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS library the
    process has loaded; numpy and scipy each bring their own copy. Found
    once, on first use, from the process's memory map; empty where that
    map cannot be read or no OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in os.path.basename(line.split()[-1])})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return tuple(controls)


class _SingleThreadedBlas:
    """Context manager running its block with every loaded OpenBLAS pinned
    to one thread.

    Small dense solves lose more to waking BLAS threads than they gain, and
    solves running in several threads at once oversubscribe the cores. The
    pin is reference-counted across threads: the first solve to enter saves
    the thread counts, and the last to leave restores them. Does nothing
    where no OpenBLAS is found.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._users = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if self._users == 0:
                self._saved = [(setter, getter())
                               for getter, setter in _openblas_controls()]
                for setter, _ in self._saved:
                    setter(1)
            self._users += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._users -= 1
            if self._users == 0:
                for setter, count in self._saved:
                    setter(count)


_single_threaded_blas = _SingleThreadedBlas()


@dataclass(frozen=True)
class Observables:
    """Mean photon numbers and equal-time second-order correlations.

    g2 values are None when the square of the corresponding mean photon
    number is 0.0: the correlation is undefined, as in the weak-drive solvers.
    """

    mean_n_a: float
    mean_n_b: float
    g2_a: float | None
    g2_b: float | None


def steady_state(liouv: np.ndarray) -> np.ndarray:
    """Unique steady density matrix of a complex generator.

    The generator, which must preserve Hermiticity, is mapped onto the real
    coordinates of hermitian_maps() and solved by hermitian_steady_state().
    """
    to_real, to_vec = hermitian_maps(int(round(math.sqrt(liouv.shape[0]))))
    real = np.asfortranarray(((to_real @ liouv) @ to_vec).real)
    return hermitian_steady_state(real, float(np.max(np.abs(liouv), initial=0.0)))


def _trace_system(liouv_h: np.ndarray, dim: int) -> np.ndarray:
    """The generator in Hermitian coordinates with its first row, the
    equation of rho_00, replaced by the trace constraint on the diagonal
    coordinates; a fresh array in the column-major order LAPACK factorises."""
    system = np.array(liouv_h, order="F")
    system[0, :] = 0.0
    system[0, :dim] = 1.0
    return system


def hermitian_steady_state(liouv_h: np.ndarray, scale: float) -> np.ndarray:
    """Unique steady density matrix of a generator given in the real
    coordinates of hermitian_maps(), as a complex dim x dim array.

    A density matrix is Hermitian and the generator preserves Hermiticity,
    so the steady state solves a real system of dim**2 unknowns. Its first
    equation is replaced by the trace constraint, the system is factorised
    once and the solution refined twice with that factorisation, then
    trace-normalized. The residual max |(L vec rho)_ij| must stay within
    1e-10 * max(scale, 1), where scale is max |L| over the complex
    generator's entries. The solve runs on single-threaded BLAS and
    restores the caller's BLAS thread counts on return.
    """
    size = liouv_h.shape[0]
    dim = int(round(math.sqrt(size)))
    pairs = (size - dim) // 2  # upper-triangle entries
    rhs = np.zeros(size)
    rhs[0] = 1.0

    def constrained(x):  # the trace-constrained system times x
        product = liouv_h @ x
        product[0] = x[:dim].sum()
        return product

    with _single_threaded_blas, np.errstate(all="ignore"):
        try:  # getrf, because lu_factor warns on an exactly zero pivot
            *lu, info = _getrf(np.asarray_chkfinite(_trace_system(liouv_h, dim)), overwrite_a=True)
        except ValueError as err:
            raise SolverError(f"steady-state system is singular: {err}") from err
        if info > 0:
            raise SolverError(f"steady-state system is singular: pivot {info} is exactly zero")
        solution = scipy.linalg.lu_solve(lu, rhs, check_finite=False)
        for _ in range(2):  # iterative refinement tightens tiny populations
            solution += scipy.linalg.lu_solve(lu, rhs - constrained(solution),
                                              check_finite=False)
        solution /= solution[:dim].sum()

        # |(L vec rho)_ij| from the real coordinates of L vec rho, which is Hermitian.
        product = liouv_h @ solution
        residual = np.concatenate([
            np.abs(product[:dim]),
            np.hypot(product[dim:dim + pairs], product[dim + pairs:]),
        ]).max()
        tol = 1e-10 * max(scale, 1.0)
        if not math.isfinite(residual):  # NaN fails every comparison
            raise SolverError(f"steady-state solve overflowed: residual {residual}")
        if residual > tol:
            cond = np.linalg.cond(_trace_system(liouv_h, dim))
            raise SolverError(
                f"steady-state solve ill-conditioned: residual {residual:.3e} "
                f"exceeds {tol:.3e} (condition number ~{cond:.3e})"
            )
    return unvec(hermitian_maps(dim)[1] @ solution)


def evolve(
    liouv: np.ndarray,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
) -> np.ndarray:
    """Propagate a density matrix with a classical fourth-order Runge-Kutta
    scheme, renormalizing the trace after every step. Independent of
    steady_state(); used as its cross-check oracle. Like steady_state(),
    it runs on single-threaded BLAS and restores the caller's BLAS thread
    counts on return."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    dim = rho0.shape[0]
    v = vec(rho0.astype(complex))

    n_full, remainder = divmod(t_final, dt)
    steps = [dt] * int(round(n_full))
    if remainder > 1e-12 * dt:
        steps.append(remainder)

    with _single_threaded_blas:
        for h in steps:
            k1 = liouv @ v
            k2 = liouv @ (v + 0.5 * h * k1)
            k3 = liouv @ (v + 0.5 * h * k2)
            k4 = liouv @ (v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            trace = np.real(v[:: dim + 1].sum())
            if abs(trace - 1.0) > _TRACE_DRIFT_LIMIT:
                raise SolverError(
                    f"trace drifted by {abs(trace - 1.0):.3e} in one step; "
                    f"the step size dt={dt} is too large for this generator"
                )
            v = v / trace
    return unvec(v)


@functools.lru_cache(maxsize=16)
def _photon_numbers(spec: HilbertSpec) -> np.ndarray:
    """(mode, moment, state) array: for modes A and B, n and n(n-1) of each
    basis state, the diagonals of a'a and a'a'aa. Cached per space and
    shared between callers, so read-only."""
    counts = np.array([spec.occupations(i) for i in range(spec.dim)]).T
    weights = np.stack([counts, counts * (counts - 1)], axis=1).astype(float)
    weights.setflags(write=False)
    return weights


def observables(rho: np.ndarray, spec: HilbertSpec) -> Observables:
    """Mean photon numbers and g2(0) of both modes from a density matrix.
    Both moments are diagonal in the Fock basis, so they are read from the
    populations."""
    populations = rho.diagonal().real
    means, g2s = [], []
    for n, pairs in _photon_numbers(spec):
        mean_n = max(populations @ n, 0.0)
        denom = mean_n * mean_n
        means.append(mean_n)
        g2s.append(None if denom == 0.0 else max(populations @ pairs, 0.0) / denom)
    return Observables(mean_n_a=means[0], mean_n_b=means[1],
                       g2_a=g2s[0], g2_b=g2s[1])


def validate_density_matrix(
    rho: np.ndarray,
    hermitian_tol: float = 1e-10,
    trace_tol: float = 1e-10,
    eigenvalue_floor: float = -1e-8,
) -> None:
    """Raise if rho violates Hermiticity, unit trace, or positivity."""
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > hermitian_tol:
        raise SolverError(f"density matrix not Hermitian: deviation {herm:.3e}")
    trace_err = abs(np.trace(rho).real - 1.0)
    if trace_err > trace_tol:
        raise SolverError(f"density matrix trace off by {trace_err:.3e}")
    min_eig = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if min_eig < eigenvalue_floor:
        raise SolverError(f"density matrix indefinite: min eigenvalue {min_eig:.3e}")
