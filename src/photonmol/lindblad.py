"""Exact steady state of the dissipative dynamics and photon-statistics
observables."""

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from .errors import SolverError, check_number
# mode_annihilators is not called here; perfbench's tracer looks it up here.
from .fock import HilbertSpec, TotalSpec, mode_annihilators  # noqa: F401
from .model import PARAM_FIELDS, hermitian_entries, hermitian_maps, unvec, vec

# LU factorisation of the real steady-state system, returning (lu, piv,
# info), and the solve with it, returning (x, info).
_getrf, _getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)

# What a generator with a non-finite entry outside the trace row reports.
_NOT_FINITE = "steady-state system is singular: array must not contain infs or NaNs"

# Points per sparse table product in master_equation_grid. In box 3 a
# point's values take 4203 real and 2655 complex entries (76 KB), so a
# block of 32 takes about 2.5 MB where a grid chunk of 1024 would take
# 78 MB; blocks of 16 to 64 points ran equally fast. In the default total
# space N = 3 a point takes 1341 and 891 entries (25 KB).
_TABLE_BLOCK = 32

# Top-shell share (see _solve_points()) above which master_equation_grid
# solves a point again one total cutoff higher. With 1e-3 the default
# space was within 4e-4 of N = 5 in g2 on 7,300 figure-grid points and
# random draws up to 100x the usual drive; with 1e-2, within 5e-3. The
# exact antibunching zeros sit at 0.58-0.67.
TOP_SHELL_LIMIT = 1e-3

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
    """Unique steady density matrix of a dense complex generator on d states,
    a d^2 x d^2 array, as a complex d x d array.

    The generator, which must preserve Hermiticity, is mapped onto the real
    coordinates of hermitian_maps() and solved by _steady_coordinates() on
    single-threaded BLAS; the caller's BLAS thread counts are restored on
    return.
    """
    dim = math.isqrt(liouv.shape[0]) if liouv.ndim == 2 else 0
    size = dim * dim
    if dim == 0 or liouv.shape != (size, size):
        raise ValueError(f"generator must be a d^2 x d^2 array, got shape {liouv.shape}")
    to_real, to_vec = hermitian_maps(dim)
    real = np.asfortranarray(((to_real @ liouv) @ to_vec).real)
    if not np.isfinite(real[1:]).all():  # row 0 becomes the trace row
        raise SolverError(_NOT_FINITE)
    scale = float(np.max(np.abs(liouv), initial=0.0))
    with _single_threaded_blas, np.errstate(all="ignore"):
        solution = _steady_coordinates(real, np.empty((size, size), order="F"), scale)
    return unvec(to_vec @ solution)


def _fill_trace_system(system: np.ndarray, liouv_h: np.ndarray, dim: int) -> np.ndarray:
    """system, overwritten by the generator in Hermitian coordinates with its
    first row, the equation of rho_00, replaced by the trace constraint on
    the diagonal coordinates."""
    np.copyto(system, liouv_h)
    system[0, :] = 0.0
    system[0, :dim] = 1.0
    return system


def _steady_coordinates(liouv_h: np.ndarray, work: np.ndarray, scale: float) -> np.ndarray:
    """The one steady-state solve: real coordinates of the unique steady
    density matrix of a finite generator in the coordinates of
    hermitian_maps(). Runs on the caller's BLAS setting and error state.

    A density matrix is Hermitian and the generator preserves Hermiticity,
    so the steady state solves a real system of dim**2 unknowns. Its first
    equation is replaced by the trace constraint, the system is factorised
    once in work (a column-major array of liouv_h's shape, overwritten) and
    the solution refined twice with that factorisation, then
    trace-normalized. The residual max |(L vec rho)_ij| must stay within
    1e-10 * max(scale, 1), where scale is max |L| over the complex
    generator's entries.
    """
    size = liouv_h.shape[0]
    dim = math.isqrt(size)
    pairs = (size - dim) // 2  # upper-triangle entries
    rhs = np.zeros(size)
    rhs[0] = 1.0
    # getrf, because lu_factor warns on an exactly zero pivot
    lu, piv, info = _getrf(_fill_trace_system(work, liouv_h, dim), overwrite_a=True)
    if info > 0:
        raise SolverError(f"steady-state system is singular: pivot {info} is exactly zero")
    solution, _ = _getrs(lu, piv, rhs)
    for _ in range(2):  # iterative refinement tightens tiny populations
        product = liouv_h @ solution  # the trace-constrained system times solution
        product[0] = solution[:dim].sum()
        correction, _ = _getrs(lu, piv, np.subtract(rhs, product, out=product),
                               overwrite_b=True)
        solution += correction
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
        cond = np.linalg.cond(_fill_trace_system(work, liouv_h, dim))
        raise SolverError(
            f"steady-state solve ill-conditioned: residual {residual:.3e} "
            f"exceeds {tol:.3e} (condition number ~{cond:.3e})"
        )
    return solution


def master_equation_grid(params, spec, escalate_to: TotalSpec | None = None
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g2_a, mean_n_a, error) arrays of the steady states at many points.

    params is a SystemParams, or any object whose PARAM_FIELDS attributes are
    equal-length arrays (a grid's field columns), checked as SystemParams does.
    spec is a HilbertSpec or a TotalSpec. error holds the SolverError message
    of a failed point, "" elsewhere; g2 is NaN there and where the
    correlation is undefined, mean n there.

    With escalate_to (spec a TotalSpec then), a point whose top-shell share
    (see _solve_points()) exceeds TOP_SHELL_LIMIT is solved again in
    escalate_to, and fails if its share there still exceeds it. Each point
    escalates on its own, so the values do not depend on how a grid is split.
    """
    columns = {name: np.atleast_1d(getattr(params, name)) for name in PARAM_FIELDS}
    g2, mean_n, error, share = _solve_points(columns, spec)
    if escalate_to is None:
        return g2, mean_n, error
    redo = np.flatnonzero(share > TOP_SHELL_LIMIT)
    if redo.size:
        g2[redo], mean_n[redo], error[redo], share = _solve_points(
            {name: column[redo] for name, column in columns.items()}, escalate_to)
        above = share > TOP_SHELL_LIMIT
        g2[redo[above]] = mean_n[redo[above]] = math.nan
        error[redo[above]] = [
            f"truncation not converged: top-shell share {value:.3e} at total "
            f"cutoff {escalate_to.n_total} exceeds {TOP_SHELL_LIMIT:g}" for value in share[above]]
    return g2, mean_n, error


def _solve_points(columns: dict, spec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """master_equation_grid() in one space, without escalation, and each
    point's top-shell share in a TotalSpec: sum of n_a(n_a - 1) p over the
    states with n_a + n_b = spec.n_total, over the same sum on all states
    (0.0 where that is 0.0). The shares are NaN in a HilbertSpec and at
    failed points.

    One kernel: the generators' values come from one sparse product per
    table and block of _TABLE_BLOCK points. Each point scatters its values
    into one dense generator, which keeps its zeros from point to point,
    and is solved by _steady_coordinates() in one reused work array; both
    are the calling thread's _kernel_buffers(). The whole call runs on
    single-threaded BLAS.
    """
    dim = spec.dim
    size = dim * dim
    count = len(columns["delta_a"])
    g2, mean_n, share = np.full(count, np.nan), np.full(count, np.nan), np.full(count, np.nan)
    error = np.full(count, "", dtype=object)
    flat, liouv_h, work = _kernel_buffers(spec)
    # A strided vector, as the diagonal of a complex rho is: BLAS sums a
    # strided dot product in another order than a contiguous one, and
    # observables() reads rho's diagonal, so both give the same bits.
    populations = np.empty((dim, 2))[:, 0]
    moments_a = _photon_numbers(spec)[0]
    top_pairs = _top_shell_pairs(spec) if isinstance(spec, TotalSpec) else None
    with _single_threaded_blas, np.errstate(all="ignore"):
        for start in range(0, count, _TABLE_BLOCK):
            block = slice(start, start + _TABLE_BLOCK)
            positions, values, scales = hermitian_entries(SimpleNamespace(**{
                name: column[block] for name, column in columns.items()}), spec)
            # Row 0 becomes the trace row, so its entries need not be finite.
            finite = np.isfinite(values[positions % size != 0]).all(axis=0)
            for i, point_values, scale, ok in zip(range(start, count), values.T,
                                                  scales.tolist(), finite.tolist()):
                if not ok:
                    error[i] = _NOT_FINITE
                    continue
                flat[positions] = point_values
                try:
                    solution = _steady_coordinates(liouv_h, work, scale)
                except SolverError as err:
                    error[i] = str(err)
                    continue
                populations[:] = solution[:dim]
                mean_n[i], g2_i = _moments(populations, *moments_a)
                g2[i] = math.nan if g2_i is None else g2_i
                if top_pairs is not None:
                    total = populations @ moments_a[1]
                    share[i] = populations @ top_pairs / total if total > 0.0 else 0.0
    return g2, mean_n, error, share


# Each thread's _kernel_buffers cache, made on its first master-equation
# point and freed with the thread.
_thread_buffers = threading.local()

# Largest space whose kernel buffers a thread keeps (two 8 MB arrays at 32
# states). Past it the solve dwarfs paging in fresh arrays (a box-5 point:
# 1,419 faults in 49 ms), while keeping them would hold 27 MB (box 5) to
# 690 MB (box 8) for the life of the thread.
_KEPT_BUFFERS_DIM = 32


def _kernel_buffers(spec: HilbertSpec | TotalSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat, liouv_h, work): _solve_points()'s dense generator in spec, as
    a flat array and as a column-major square view of it, and its
    column-major work array. Kept per thread for the last 16 spaces of at
    most _KEPT_BUFFERS_DIM states, as the per-space tables are kept, so a
    lone point does not page in two fresh arrays (2 x 512 KB in box 3).
    Reuse is exact: every point rewrites all of its space's structural
    entries, so the rest of flat stays zero, and _steady_coordinates()
    overwrites all of work."""
    if spec.dim > _KEPT_BUFFERS_DIM:
        return _new_kernel_buffers(spec)
    try:
        cached = _thread_buffers.cached
    except AttributeError:
        cached = _thread_buffers.cached = functools.lru_cache(maxsize=16)(_new_kernel_buffers)
    return cached(spec)


def _new_kernel_buffers(spec: HilbertSpec | TotalSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    size = spec.dim**2
    flat = np.zeros(size * size)
    return flat, flat.reshape((size, size), order="F"), np.empty((size, size), order="F")


def evolve(
    liouv: np.ndarray,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
) -> np.ndarray:
    """Propagate a density matrix with a classical fourth-order Runge-Kutta
    scheme, renormalizing the trace after every step. liouv is a d^2 x d^2
    generator and rho0 a d x d matrix. Independent of steady_state(); used
    as its cross-check oracle. Like steady_state(), it runs on
    single-threaded BLAS and restores the caller's BLAS thread counts on
    return."""
    for name, value in (("t_final", t_final), ("dt", dt)):
        if not math.isfinite(check_number(value, name)):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    dim = rho0.shape[0] if rho0.ndim == 2 else 0
    if dim == 0 or rho0.shape != (dim, dim) or liouv.shape != (dim * dim, dim * dim):
        raise ValueError(f"generator and rho0 must be d^2 x d^2 and d x d arrays, "
                         f"got shapes {liouv.shape} and {rho0.shape}")
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
def _photon_numbers(spec: HilbertSpec | TotalSpec) -> np.ndarray:
    """(mode, moment, state) array: for modes A and B, n and n(n-1) of each
    basis state, the diagonals of a'a and a'a'aa. Cached per space and
    shared between callers, so read-only."""
    counts = np.array([spec.occupations(i) for i in range(spec.dim)]).T
    weights = np.stack([counts, counts * (counts - 1)], axis=1).astype(float)
    weights.setflags(write=False)
    return weights


@functools.lru_cache(maxsize=16)
def _top_shell_pairs(spec: TotalSpec) -> np.ndarray:
    """n_a(n_a-1) of each basis state with n_a + n_b = spec.n_total, 0.0 on
    the others. Cached per space and shared between callers, so read-only."""
    (n_a, pairs_a), (n_b, _) = _photon_numbers(spec)
    pairs = np.where(n_a + n_b == spec.n_total, pairs_a, 0.0)
    pairs.setflags(write=False)
    return pairs


def _moments(populations: np.ndarray, n: np.ndarray, pairs: np.ndarray):
    """(mean n, g2) of one mode from the populations and that mode's n and
    n(n-1) per basis state; g2 None where mean n squared is 0.0."""
    mean_n = max(populations @ n, 0.0)
    denom = mean_n * mean_n
    return mean_n, None if denom == 0.0 else max(populations @ pairs, 0.0) / denom


def observables(rho: np.ndarray, spec: HilbertSpec | TotalSpec) -> Observables:
    """Mean photon numbers and g2(0) of both modes from a density matrix.
    Both moments are diagonal in the Fock basis, so they are read from the
    populations."""
    populations = rho.diagonal().real
    (mean_n_a, g2_a), (mean_n_b, g2_b) = (
        _moments(populations, *weights) for weights in _photon_numbers(spec))
    return Observables(mean_n_a=mean_n_a, mean_n_b=mean_n_b, g2_a=g2_a, g2_b=g2_b)


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
