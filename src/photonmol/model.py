"""Physical parameter set and generators of the open-system dynamics.

All rates and energies are dimensionless multiples of the common dissipation
scale kappa; the model lives in the frame rotating at the shared drive
frequency, so only detunings appear.
"""

import functools
import math
import operator
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy.sparse

from .fock import HilbertSpec, mode_annihilators

_TAU = 2.0 * math.pi

PARAM_FIELDS = (
    "delta_a", "delta_b", "coupling_j", "u_a", "u_b",
    "eps_a", "eps_b", "phi_a", "phi_b", "kappa_a", "kappa_b",
)

_param_values = operator.attrgetter(*PARAM_FIELDS)


@dataclass(frozen=True)
class SystemParams:
    """Parameters of two coupled, coherently driven Kerr-nonlinear modes.

    delta_a, delta_b   detunings of the modes from the drive
    coupling_j         real inter-mode coupling strength (>= 0)
    u_a, u_b           Kerr interaction strengths
    eps_a, eps_b       drive amplitudes (>= 0; phases carry the sign)
    phi_a, phi_b       drive phases in radians
    kappa_a, kappa_b   dissipation rates (> 0)
    """

    delta_a: float = 0.0
    delta_b: float = 0.0
    coupling_j: float = 0.0
    u_a: float = 0.0
    u_b: float = 0.0
    eps_a: float = 0.0
    eps_b: float = 0.0
    phi_a: float = 0.0
    phi_b: float = 0.0
    kappa_a: float = 1.0
    kappa_b: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, _param_values(self))):
            bad = [f"{name}={getattr(self, name)}" for name in PARAM_FIELDS
                   if not math.isfinite(getattr(self, name))]
            raise ValueError(f"parameters must be finite: {', '.join(bad)}")
        if self.kappa_a <= 0 or self.kappa_b <= 0:
            raise ValueError("dissipation rates must be positive")
        if self.eps_a < 0 or self.eps_b < 0:
            raise ValueError("drive amplitudes must be non-negative")
        if self.coupling_j < 0:
            raise ValueError("coupling strength must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemParams":
        if not isinstance(data, dict):
            raise ValueError(f"parameters must be a JSON object, got "
                             f"{type(data).__name__}")
        unknown = set(data) - set(PARAM_FIELDS)
        if unknown:
            raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
        try:
            values = {k: float(v) for k, v in data.items()}
        except (TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"parameter values must be numbers: {err}") from None
        return cls(**values)

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class DriveRatios:
    """Strength ratio eta = eps_a/eps_b and relative phase phi = phi_a - phi_b."""

    eta: float
    phi: float


def wrap_phase(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = angle - _TAU * math.floor((angle + math.pi) / _TAU)
    if wrapped <= -math.pi:
        wrapped = math.pi
    return wrapped


def drive_ratios(params: SystemParams) -> DriveRatios:
    """Drive strength ratio and relative phase; eta is inf when only A is driven."""
    if params.eps_a == 0 and params.eps_b == 0:
        raise ValueError("drive ratios undefined: both drive amplitudes are zero")
    eta = math.inf if params.eps_b == 0 else params.eps_a / params.eps_b
    return DriveRatios(eta=eta, phi=wrap_phase(params.phi_a - params.phi_b))


# Inputs that apply_axis derives SystemParams fields from.
DERIVED_AXES = ("eta", "eta_inv", "phi", "u", "delta")


def _eps_b_from_eta(eps_a: float, eta: float) -> float:
    """Mode B's drive amplitude at drive ratio eta = eps_a/eps_b (inf: 0.0)."""
    if eta <= 0:
        raise ValueError("eta axis values must be positive")
    return eps_a / eta


def apply_axis(params: SystemParams, name: str, value: float) -> SystemParams:
    """Set one input on a parameter set: a SystemParams field or one of
    DERIVED_AXES: eta (eps_b = eps_a/eta), eta_inv (eps_b = eps_a*eta_inv),
    phi (relative phase, phi_a = phi_b + phi), u or delta (both modes)."""
    if name == "eta":
        return params.replace(eps_b=_eps_b_from_eta(params.eps_a, value))
    if name == "eta_inv":
        if value < 0:
            raise ValueError("eta_inv axis values must be non-negative")
        return params.replace(eps_b=params.eps_a * value)
    if name == "phi":
        return params.replace(phi_a=params.phi_b + value)
    if name == "u":
        return params.replace(u_a=value, u_b=value)
    if name == "delta":
        return params.replace(delta_a=value, delta_b=value)
    return params.replace(**{name: value})


def symmetric_params(
    coupling_j: float,
    delta: float = 0.0,
    u: float = 0.0,
    eta: float = math.inf,
    phi: float = 0.0,
    eps_a: float = 0.01,
    kappa: float = 1.0,
    u_a: float | None = None,
    u_b: float | None = None,
) -> SystemParams:
    """Build the symmetric configuration used throughout: equal detunings and
    dissipation rates, drive set by (eps_a, eta, phi) with phi on mode A.
    Equal to the apply_axis chain, but one construction: the optimizer's
    objective builds one per step.
    """
    return SystemParams(
        delta_a=delta, delta_b=delta, coupling_j=coupling_j,
        u_a=u if u_a is None else u_a, u_b=u if u_b is None else u_b,
        eps_a=eps_a, eps_b=_eps_b_from_eta(eps_a, eta), phi_a=phi, phi_b=0.0,
        kappa_a=kappa, kappa_b=kappa,
    )


def hamiltonian(params: SystemParams, spec: HilbertSpec) -> np.ndarray:
    """Rotating-frame Hamiltonian: detunings, beam-splitter coupling, Kerr
    terms and coherent drives on both modes. Hermitian by construction."""
    a, b = mode_annihilators(spec)
    ad, bd = a.conj().T, b.conj().T
    h = (
        params.delta_a * (ad @ a)
        + params.delta_b * (bd @ b)
        + params.coupling_j * (a @ bd + ad @ b)
        + params.u_a * (ad @ ad @ a @ a)
        + params.u_b * (bd @ bd @ b @ b)
    )
    drive = (
        params.eps_a * np.exp(1j * params.phi_a) * ad
        + params.eps_b * np.exp(1j * params.phi_b) * bd
    )
    return h + drive + drive.conj().T


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    dim = int(round(math.sqrt(v.size)))
    return v.reshape((dim, dim), order="F")


def _kron_entries(op_a: np.ndarray, op_b: np.ndarray, size: int):
    """Flat indices into a size x size matrix and values of the nonzero
    entries of kron(op_a, op_b), by index arithmetic on both factors'
    nonzeros."""
    dim = op_b.shape[0]
    ia, ja = np.nonzero(op_a)
    ib, jb = np.nonzero(op_b)
    rows = ia[:, None] * dim + ib[None, :]
    cols = ja[:, None] * dim + jb[None, :]
    values = op_a[ia, ja][:, None] * op_b[ib, jb][None, :]
    return (rows * size + cols).ravel(), values.ravel()


@functools.lru_cache(maxsize=16)
def _liouvillian_table(spec: HilbertSpec) -> tuple[np.ndarray, scipy.sparse.csr_array]:
    """Affine decomposition of the generator on one Hilbert space.

    L is linear in the coefficients returned by _liouvillian_coefficients().
    Returns the flat indices of L's structurally nonzero entries and a
    sparse (positions x coefficients) table holding each coefficient's
    generator at those entries, so that L.flat[positions] = table @
    coefficients. Built from the nonzeros of the Kronecker factors, never
    a dense generator. The sparse product runs without BLAS, so its
    result does not depend on the BLAS thread count. Cached and shared
    between callers, who must not modify it.
    """
    a, b = mode_annihilators(spec)
    ad, bd = a.conj().T, b.conj().T
    eye = np.eye(spec.dim, dtype=complex)

    def commutator(op):  # rho -> -i [op, rho]
        return [(eye, op, -1j), (op.T, eye, 1j)]

    def dissipator(c):  # rho -> D[c] rho
        cdc = c.conj().T @ c
        return [(c.conj(), c, 1.0), (eye, cdc, -0.5), (cdc.T, eye, -0.5)]

    generators = [
        commutator(op) for op in (
            ad @ a, bd @ b, a @ bd + ad @ b, ad @ ad @ a @ a, bd @ bd @ b @ b,
            ad + a, 1j * (ad - a), bd + b, 1j * (bd - b),
        )
    ] + [dissipator(a), dissipator(b)]

    size = spec.dim**2
    flat, column, values = [], [], []
    for k, terms in enumerate(generators):
        for op_a, op_b, scale in terms:
            where, value = _kron_entries(op_a, op_b, size)
            flat.append(where)
            column.append(np.full(where.size, k))
            values.append(scale * value)
    positions, slot = np.unique(np.concatenate(flat), return_inverse=True)
    table = scipy.sparse.csr_array(  # sums the terms landing on one entry
        (np.concatenate(values), (slot, np.concatenate(column))),
        shape=(positions.size, len(generators)),
    )
    table.eliminate_zeros()
    positions.setflags(write=False)
    return positions, table


def _liouvillian_coefficients(params: SystemParams) -> np.ndarray:
    """Real coefficients of the generators of _liouvillian_table(), in its
    order: each drive eps e^{i phi} enters by its real and imaginary parts."""
    drive_a = params.eps_a * np.exp(1j * params.phi_a)
    drive_b = params.eps_b * np.exp(1j * params.phi_b)
    return np.array([
        params.delta_a, params.delta_b, params.coupling_j,
        params.u_a, params.u_b,
        drive_a.real, drive_a.imag, drive_b.real, drive_b.imag,
        params.kappa_a, params.kappa_b,
    ])


def liouvillian(params: SystemParams, spec: HilbertSpec) -> np.ndarray:
    """Generator of d(vec rho)/dt = L vec(rho): commutator with the Hamiltonian
    plus a dissipator kappa_x * D[x] for each mode, in column-stacking
    convention. Returned as a fresh dense array."""
    positions, table = _liouvillian_table(spec)
    size = spec.dim**2
    liouv = np.zeros(size * size, dtype=complex)
    liouv[positions] = table @ _liouvillian_coefficients(params)
    return liouv.reshape(size, size)


@functools.lru_cache(maxsize=16)
def hermitian_maps(dim: int) -> tuple[scipy.sparse.csr_array, scipy.sparse.csr_array]:
    """Maps between vec(rho) of a Hermitian dim x dim matrix and its dim**2
    real coordinates x: the diagonal entries, then the real parts and then
    the imaginary parts of the upper triangle rho_ij (i < j), in
    np.triu_indices order.

    Returns (to_real, to_vec) with x = Re(to_real @ vec(rho)) and vec(rho) =
    to_vec @ x. A generator L that preserves Hermiticity acts on the
    coordinates as the real matrix Re(to_real @ L @ to_vec). Cached and
    shared between callers, who must not modify them.
    """
    size, pairs = dim * dim, dim * (dim - 1) // 2
    diag = np.arange(dim) * (dim + 1)
    rows, cols = np.triu_indices(dim, 1)
    upper, lower = rows + cols * dim, cols + rows * dim  # vec indices of rho_ij, rho_ji
    coords = np.arange(size)
    re, im = coords[dim:dim + pairs], coords[dim + pairs:]
    to_real = scipy.sparse.csr_array(
        (np.concatenate([np.ones(dim + pairs), np.full(pairs, -1j)]),
         (coords, np.concatenate([diag, upper, upper]))),
        shape=(size, size))
    to_vec = scipy.sparse.csr_array(  # rho_ij = x_re + i x_im, rho_ji its conjugate
        (np.concatenate([np.ones(dim + 2 * pairs), np.full(pairs, 1j), np.full(pairs, -1j)]),
         (np.concatenate([diag, upper, lower, upper, lower]),
          np.concatenate([coords[:dim], re, re, im, im]))),
        shape=(size, size))
    return to_real, to_vec


@functools.lru_cache(maxsize=16)
def _hermitian_table(spec: HilbertSpec) -> tuple[np.ndarray, scipy.sparse.csr_array]:
    """_liouvillian_table() in the real coordinates of hermitian_maps().

    Each generator, taken with a real coefficient from
    _liouvillian_coefficients(), preserves Hermiticity, so it acts on the
    coordinates as a real matrix. Returns the column-major flat indices of
    the real generator's structurally nonzero entries and a real sparse
    (positions x coefficients) table, so that R.T.flat[positions] = table @
    coefficients. Column-major, because LAPACK factorises that layout
    without a transposing copy. Derived from the complex table by the
    coordinate maps alone; cached and shared between callers, who must not
    modify it.
    """
    positions, table = _liouvillian_table(spec)
    to_real, to_vec = hermitian_maps(spec.dim)
    size = spec.dim**2
    rows, cols = np.divmod(positions, size)
    flat, column, values = [], [], []
    for k, generator in enumerate(table.T.toarray()):
        real = (to_real @ scipy.sparse.csr_array(
            (generator, (rows, cols)), shape=(size, size)) @ to_vec).real.tocoo()
        real.eliminate_zeros()
        flat.append(real.col * size + real.row)
        column.append(np.full(real.nnz, k))
        values.append(real.data)
    real_positions, slot = np.unique(np.concatenate(flat), return_inverse=True)
    real_table = scipy.sparse.csr_array(
        (np.concatenate(values), (slot, np.concatenate(column))),
        shape=(real_positions.size, table.shape[1]),
    )
    real_positions.setflags(write=False)
    return real_positions, real_table


def hermitian_liouvillian(params: SystemParams, spec: HilbertSpec) -> tuple[np.ndarray, float]:
    """The generator in the real coordinates of hermitian_maps(), as a fresh
    real (d^2 x d^2) column-major array assembled from the cached real
    table, and max |L| over the entries of the complex generator, which
    scales the steady-state residual tolerance. No dense complex generator
    is built."""
    positions, table = _hermitian_table(spec)
    coefficients = _liouvillian_coefficients(params)
    size = spec.dim**2
    liouv = np.zeros(size * size)
    liouv[positions] = table @ coefficients
    entries = _liouvillian_table(spec)[1] @ coefficients
    return (liouv.reshape((size, size), order="F"),
            float(np.max(np.abs(entries), initial=0.0)))
