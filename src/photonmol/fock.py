"""Truncated two-mode Fock spaces and bosonic ladder operators as dense matrices.

Basis convention: |n_a, n_b> maps to row index n_a * (n_max_b + 1) + n_b,
i.e. mode A is the slow (outer) index of the Kronecker product. The
total-excitation space (TotalSpec) keeps the states n_a + n_b <= N of the
box HilbertSpec(N, N), in the box's order. mode_annihilators() builds the
ladders of either space on that space's own basis; the Kronecker toolkit
(destroy, create, identity, tensor, mode_operator) embeds single-mode
operators in a box.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import check_int


@dataclass(frozen=True)
class HilbertSpec:
    """Photon-number cutoffs of the two-mode truncated Fock space."""

    n_max_a: int
    n_max_b: int

    def __post_init__(self):
        for cutoff in (self.n_max_a, self.n_max_b):
            check_int(cutoff, 0, "photon-number cutoff")

    @property
    def dim(self) -> int:
        return (self.n_max_a + 1) * (self.n_max_b + 1)

    def index(self, n_a: int, n_b: int) -> int:
        """Basis index of |n_a, n_b>."""
        if not (0 <= n_a <= self.n_max_a and 0 <= n_b <= self.n_max_b):
            raise ValueError(f"occupation ({n_a}, {n_b}) outside cutoff")
        return n_a * (self.n_max_b + 1) + n_b

    def occupations(self, index: int) -> tuple[int, int]:
        """Inverse of index(): occupation numbers (n_a, n_b)."""
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} outside [0, {self.dim})")
        return divmod(index, self.n_max_b + 1)

    def basis_vector(self, n_a: int, n_b: int) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index(n_a, n_b)] = 1.0
        return vec


@functools.lru_cache(maxsize=16)
def _total_states(n_total: int) -> tuple[tuple[int, int], ...]:
    """(n_a, n_b) of the states with n_a + n_b <= n_total, mode A slow."""
    return tuple((n_a, n_b) for n_a in range(n_total + 1) for n_b in range(n_total + 1 - n_a))


@dataclass(frozen=True)
class TotalSpec:
    """Two-mode Fock space truncated in the total photon number: the states
    |n_a, n_b> with n_a + n_b <= n_total, ordered as in box (mode A slow).

    Every state keeps the states one photon below it, so the ladders of
    mode_annihilators() are exact here, and the generator built from them
    equals the box generator restricted to these states.
    """

    n_total: int

    def __post_init__(self):
        check_int(self.n_total, 0, "photon-number cutoff")

    @property
    def box(self) -> HilbertSpec:
        """The smallest box space holding every state."""
        return HilbertSpec(self.n_total, self.n_total)

    @property
    def dim(self) -> int:
        return (self.n_total + 1) * (self.n_total + 2) // 2

    def occupations(self, index: int) -> tuple[int, int]:
        """Occupation numbers (n_a, n_b) of basis state index."""
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} outside [0, {self.dim})")
        return _total_states(self.n_total)[index]

    def box_indices(self) -> np.ndarray:
        """Basis indices of the states in box, ascending."""
        return np.array([self.box.index(*state) for state in _total_states(self.n_total)])


def destroy(n_max: int) -> np.ndarray:
    """Single-mode annihilation operator on the (n_max+1)-dimensional space.

    Entries M[n-1, n] = sqrt(n); everything above the cutoff is dropped.
    """
    check_int(n_max, 0, "photon-number cutoff")
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)


def create(n_max: int) -> np.ndarray:
    """Single-mode creation operator, the adjoint of destroy(n_max)."""
    return destroy(n_max).conj().T


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def tensor(op_a: np.ndarray, op_b: np.ndarray) -> np.ndarray:
    """Kronecker product with op_a acting on the slow (mode A) index."""
    return np.kron(op_a, op_b)


def mode_operator(spec: HilbertSpec, mode: str, op: np.ndarray) -> np.ndarray:
    """Embed a single-mode operator on mode "a" or "b", identity on the other."""
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    n_own = spec.n_max_a if mode == "a" else spec.n_max_b
    if op.shape != (n_own + 1, n_own + 1):
        raise ValueError(
            f"operator shape {op.shape} does not match mode {mode!r} "
            f"dimension {n_own + 1}"
        )
    if mode == "a":
        return tensor(op, identity(spec.n_max_b + 1))
    return tensor(identity(spec.n_max_a + 1), op)


@functools.lru_cache(maxsize=16)
def mode_annihilators(spec: HilbertSpec | TotalSpec) -> tuple[np.ndarray, np.ndarray]:
    """The annihilation operators (a, b) of both modes on spec's basis:
    a|n_a, n_b> = sqrt(n_a) |n_a - 1, n_b>, and b the same way. Every state
    of either space keeps the state one photon below it in each mode.

    Cached per space and shared between callers, so both are read-only.
    """
    states = [spec.occupations(i) for i in range(spec.dim)]
    index = {state: i for i, state in enumerate(states)}
    a, b = np.zeros((2, spec.dim, spec.dim), dtype=complex)
    for column, (n_a, n_b) in enumerate(states):
        if n_a:
            a[index[n_a - 1, n_b], column] = math.sqrt(n_a)
        if n_b:
            b[index[n_a, n_b - 1], column] = math.sqrt(n_b)
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b
