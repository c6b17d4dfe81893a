"""Truncated two-mode Fock spaces and bosonic ladder operators as dense matrices.

Basis convention: |n_a, n_b> maps to row index n_a * (n_max_b + 1) + n_b,
i.e. mode A is the slow (outer) index of the Kronecker product.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HilbertSpec:
    """Photon-number cutoffs of the two-mode truncated Fock space."""

    n_max_a: int
    n_max_b: int

    def __post_init__(self):
        for cutoff in (self.n_max_a, self.n_max_b):
            if isinstance(cutoff, bool) or not isinstance(cutoff, numbers.Integral) or cutoff < 0:
                raise ValueError(f"photon-number cutoff {cutoff!r} is not a non-negative integer")

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


def destroy(n_max: int) -> np.ndarray:
    """Single-mode annihilation operator on the (n_max+1)-dimensional space.

    Entries M[n-1, n] = sqrt(n); everything above the cutoff is dropped.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
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
def mode_annihilators(spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray]:
    """The embedded annihilation operators (a, b) of both modes.

    Cached per space and shared between callers, so both are read-only.
    """
    a = mode_operator(spec, "a", destroy(spec.n_max_a))
    b = mode_operator(spec, "b", destroy(spec.n_max_b))
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b
