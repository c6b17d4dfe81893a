"""Dense numpy-only reference for the mode-A photon statistics.

Written independently of photonmol: the Fock space is truncated on the
total photon number rather than per mode, operators are built entry by
entry, the density matrix is vectorised by rows (C order) rather than by
columns, and the trace condition enters as a rank-one update of the
generator rather than as a replaced row. Only numpy is used.
"""

import numpy as np

# Cutoff on n_a + n_b. The package default is 3 photons per mode, at most 6
# in total, so this space contains the package's default space.
REFERENCE_TOTAL_N = 6


def _annihilators(total_n):
    """Annihilation operators of modes A and B on the states |n_a, n_b>
    with n_a + n_b <= total_n; the vacuum has index 0."""
    states = [(n_a, n - n_a) for n in range(total_n + 1) for n_a in range(n + 1)]
    index = {s: i for i, s in enumerate(states)}
    a = np.zeros((len(states), len(states)), dtype=complex)
    b = np.zeros_like(a)
    for (n_a, n_b), col in index.items():
        if n_a > 0:
            a[index[(n_a - 1, n_b)], col] = np.sqrt(n_a)
        if n_b > 0:
            b[index[(n_a, n_b - 1)], col] = np.sqrt(n_b)
    return a, b


def reference_statistics(p, total_n=REFERENCE_TOTAL_N):
    """(g2_a, mean_n_a) of the exact steady state for a parameter mapping p.

    p has the fields of photonmol's SystemParams (delta_a, ..., kappa_b).
    g2_a is None when mean_n_a is exactly zero.
    """
    a, b = _annihilators(total_n)
    ad, bd = a.conj().T, b.conj().T
    dim = a.shape[0]
    drive_a = p["eps_a"] * np.exp(1j * p["phi_a"])
    drive_b = p["eps_b"] * np.exp(1j * p["phi_b"])
    h = (p["delta_a"] * ad @ a + p["delta_b"] * bd @ b
         + p["coupling_j"] * (ad @ b + bd @ a)
         + p["u_a"] * ad @ ad @ a @ a + p["u_b"] * bd @ bd @ b @ b
         + drive_a * ad + np.conj(drive_a) * a
         + drive_b * bd + np.conj(drive_b) * b)
    eye = np.eye(dim)
    # Row-major vec: vec(X rho Y) = kron(X, Y.T) vec(rho).
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, c in ((p["kappa_a"], a), (p["kappa_b"], b)):
        n_op = c.conj().T @ c
        gen += rate * (np.kron(c, c.conj()) - 0.5 * np.kron(n_op, eye)
                       - 0.5 * np.kron(eye, n_op.T))
    # With t . vec(rho) = tr(rho) and v = vec(|0,0><0,0|): the range of gen
    # is the traceless subspace and tr(v) = 1, so gen - v t^T is regular and
    # the steady state solves (gen - v t^T) x = -v. Putting v on the vacuum
    # alone keeps the O(1) trace term out of the equations for the small
    # two-photon populations that g2 depends on.
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = -1.0
    system = gen + np.outer(rhs, eye.reshape(-1))
    x = np.linalg.solve(system, rhs)
    x += np.linalg.solve(system, rhs - system @ x)  # one refinement round
    rho = x.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    mean_n = np.trace(ad @ a @ rho).real
    if mean_n == 0.0:
        return None, 0.0
    pairs = np.trace(ad @ ad @ a @ a @ rho).real
    return float(pairs / mean_n**2), float(mean_n)
