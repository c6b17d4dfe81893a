import math

import numpy as np
import pytest

from photonmol import (
    HilbertSpec,
    SystemParams,
    TotalSpec,
    drive_ratios,
    hamiltonian,
    liouvillian,
    mode_annihilators,
    steady_state,
    symmetric_params,
    unvec,
    vec,
    wrap_phase,
)
from photonmol.model import apply_axis, hermitian_entries

SPEC = HilbertSpec(3, 3)


def random_params(rng):
    return SystemParams(
        delta_a=rng.uniform(-3, 3), delta_b=rng.uniform(-3, 3),
        coupling_j=rng.uniform(0, 8), u_a=rng.uniform(0, 0.2),
        u_b=rng.uniform(0, 0.2), eps_a=rng.uniform(0, 0.05),
        eps_b=rng.uniform(0, 0.05), phi_a=rng.uniform(-math.pi, math.pi),
        phi_b=rng.uniform(-math.pi, math.pi), kappa_a=rng.uniform(0.5, 2),
        kappa_b=rng.uniform(0.5, 2),
    )


def kron_liouvillian(params, spec):
    """Reference generator: the explicit Kronecker-product formula,
    -i (I x H - H^T x I) + sum_c kappa_c (c* x c - I x c'c / 2 - (c'c)^T x I / 2)."""
    h = hamiltonian(params, spec)
    a, b = mode_annihilators(spec)
    eye = np.eye(spec.dim, dtype=complex)
    liouv = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, c in ((params.kappa_a, a), (params.kappa_b, b)):
        cdc = c.conj().T @ c
        liouv += rate * (np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc)
                         - 0.5 * np.kron(cdc.T, eye))
    return liouv


def test_params_validation():
    for field in ("u_a", "eps_b", "phi_a", "kappa_b"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                SystemParams(**{field: bad})
    with pytest.raises(ValueError):
        SystemParams(kappa_a=0.0)
    with pytest.raises(ValueError):
        SystemParams(eps_a=-0.1)
    with pytest.raises(ValueError):
        SystemParams(coupling_j=-1.0)


@pytest.mark.parametrize("build, field", [
    (lambda: SystemParams(eps_a="0.01"), "eps_a"),
    (lambda: SystemParams(eps_a=True), "eps_a"),
    (lambda: SystemParams(u_a=0.1 + 0j), "u_a"),
    (lambda: SystemParams(kappa_b=None), "kappa_b"),
    (lambda: SystemParams(coupling_j=10**400), "coupling_j"),
    (lambda: symmetric_params("10"), "coupling_j"),
    (lambda: SystemParams().replace(phi_a="0.5"), "phi_a"),
], ids=["str", "bool", "complex", "None", "too-large-int", "symmetric_params", "replace"])
def test_params_refuse_a_value_that_is_not_a_number(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be a number"):
        build()


@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), np.int64(3), 3])
def test_params_store_python_floats(value):
    params = SystemParams(coupling_j=value)
    assert type(params.coupling_j) is float and params.coupling_j == float(value)


def test_params_dict_round_trip():
    params = SystemParams(delta_a=1.5, coupling_j=10.0, eps_a=0.01, phi_b=0.3)
    assert SystemParams.from_dict(params.to_dict()) == params
    for bad in ({"coupling": 10.0}, [1.0], {"u_a": None}, {"u_a": [0.1]},
                {"u_a": "strong"}, {"u_a": "nan"}):
        with pytest.raises(ValueError):
            SystemParams.from_dict(bad)


def test_symmetric_params():
    params = symmetric_params(10.0, delta=1.0, u=0.05, eta=4.0, phi=0.7)
    assert params.eps_b == pytest.approx(0.0025)
    assert params.phi_a == 0.7 and params.phi_b == 0.0
    assert params.u_a == params.u_b == 0.05
    assert symmetric_params(10.0, eta=math.inf).eps_b == 0.0
    with pytest.raises(ValueError):
        symmetric_params(10.0, eta=0.0)


@pytest.mark.parametrize("eta", [0.5, 3.0, math.inf])
def test_symmetric_params_builds_what_apply_axis_builds(eta):
    built = SystemParams(coupling_j=10.0, eps_a=0.01)
    for name, value in (("delta", 1.0), ("u", 0.05), ("eta", eta), ("phi", 0.7)):
        built = apply_axis(built, name, value)
    assert symmetric_params(10.0, delta=1.0, u=0.05, eta=eta, phi=0.7) == built
    with pytest.raises(ValueError, match="eta axis values must be positive"):
        symmetric_params(10.0, eta=0.0)


def test_hamiltonian_zero_params():
    h = hamiltonian(SystemParams(), SPEC)
    assert np.all(h == 0)


def test_hamiltonian_matrix_elements():
    rng = np.random.default_rng(11)
    params = random_params(rng)
    h = hamiltonian(params, SPEC)
    idx_20 = SPEC.index(2, 0)
    assert h[idx_20, idx_20] == pytest.approx(2 * params.delta_a + 2 * params.u_a)
    idx_10, idx_01 = SPEC.index(1, 0), SPEC.index(0, 1)
    assert h[idx_10, idx_01] == pytest.approx(params.coupling_j)


def test_hamiltonian_hermitian():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = hamiltonian(random_params(rng), SPEC)
        scale = max(np.max(np.abs(h)), 1.0)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-14 * scale


def test_drive_ratios():
    ratios = drive_ratios(SystemParams(eps_a=0.01, eps_b=0.005))
    assert ratios.eta == pytest.approx(2.0)
    assert ratios.phi == 0.0

    assert math.isinf(drive_ratios(SystemParams(eps_a=0.01)).eta)

    ratios = drive_ratios(SystemParams(eps_a=0.01, eps_b=0.01, phi_a=0.0,
                                       phi_b=1.5 * math.pi))
    assert ratios.phi == pytest.approx(math.pi / 2)

    with pytest.raises(ValueError):
        drive_ratios(SystemParams())


def test_wrap_phase_range():
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)
    assert wrap_phase(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-1.5 * math.pi) == pytest.approx(math.pi / 2)
    for x in np.linspace(-20, 20, 101):
        w = wrap_phase(x)
        assert -math.pi < w <= math.pi


def test_liouvillian_annihilates_vacuum_when_undriven():
    params = SystemParams(delta_a=1.3, delta_b=-0.4)
    liouv = liouvillian(params, SPEC)
    rho = np.zeros((SPEC.dim, SPEC.dim), dtype=complex)
    rho[0, 0] = 1.0
    assert np.all(liouv @ vec(rho) == 0)


def test_liouvillian_matches_kronecker_formula():
    rng = np.random.default_rng(43)
    for n_max_a in range(5):
        for n_max_b in range(5):
            spec = HilbertSpec(n_max_a, n_max_b)
            for _ in range(2):
                params = random_params(rng)
                reference = kron_liouvillian(params, spec)
                scale = max(np.max(np.abs(reference)), 1.0)
                deviation = np.max(np.abs(liouvillian(params, spec) - reference))
                assert deviation <= 1e-13 * scale, (spec, deviation)


def hermitian_coordinates(liouv, dim):
    """Re(P L T) written out: L applied to each Hermitian basis matrix (the
    units on the diagonal, then E_ij + E_ji, then i E_ij - i E_ji over the
    upper triangle in np.triu_indices order), and the result's diagonal,
    upper-triangle real parts and imaginary parts read off."""
    upper = list(zip(*np.triu_indices(dim, 1)))
    basis = []
    for i in range(dim):
        unit = np.zeros((dim, dim), dtype=complex)
        unit[i, i] = 1.0
        basis.append(unit)
    for phase in (1.0, 1j):
        for i, j in upper:
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j], unit[j, i] = phase, np.conj(phase)
            basis.append(unit)
    images = liouv @ np.column_stack([vec(unit) for unit in basis])
    out = images.reshape((dim, dim, -1), order="F")
    rows = [out[i, i].real for i in range(dim)]
    rows += [out[i, j].real for i, j in upper] + [out[i, j].imag for i, j in upper]
    return np.array(rows).reshape(dim * dim, dim * dim)


def dense_hermitian_generator(params, spec):
    """hermitian_entries() scattered into a dense real column-major array."""
    positions, values, scale = hermitian_entries(params, spec)
    size = spec.dim**2
    liouv_h = np.zeros(size * size)
    liouv_h[positions] = values
    return liouv_h.reshape((size, size), order="F"), scale


def test_hermitian_liouvillian_matches_kronecker_formula():
    rng = np.random.default_rng(59)
    specs = [HilbertSpec(n_max_a, n_max_b) for n_max_a in range(5) for n_max_b in range(5)]
    for spec in specs + [TotalSpec(n_total) for n_total in range(1, 5)]:
        params = random_params(rng)
        reference = kron_liouvillian(params, spec)
        scale = max(np.max(np.abs(reference)), 1.0)
        liouv_h, max_abs = dense_hermitian_generator(params, spec)
        expected = hermitian_coordinates(reference, spec.dim)
        deviation = np.max(np.abs(liouv_h - expected))
        assert deviation <= 1e-13 * scale, (spec, deviation)
        assert max_abs == pytest.approx(np.max(np.abs(reference)), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n_total", range(6))
def test_total_space_hamiltonian_is_the_restricted_box_hamiltonian(n_total):
    # The hop is built as a'b plus its adjoint; a @ b' would drop the top shell.
    spec = TotalSpec(n_total)
    kept = np.ix_(spec.box_indices(), spec.box_indices())
    rng = np.random.default_rng(137 + n_total)
    for _ in range(3):
        params = random_params(rng)
        h = hamiltonian(params, spec)
        assert np.array_equal(h, h.conj().T)
        assert np.array_equal(h, hamiltonian(params, spec.box)[kept])


def test_liouvillian_returns_a_fresh_array():
    params = random_params(np.random.default_rng(47))
    first = liouvillian(params, SPEC)
    expected = first.copy()
    first[:] = 0.0
    assert np.array_equal(liouvillian(params, SPEC), expected)


def test_mode_annihilators_are_shared_read_only():
    a, _ = mode_annihilators(SPEC)
    assert mode_annihilators(HilbertSpec(3, 3))[0] is a
    with pytest.raises(ValueError):
        a[0, 1] = 2.0


def test_liouvillian_trace_preservation_random_state():
    rng = np.random.default_rng(23)
    liouv = liouvillian(random_params(rng), SPEC)
    x = rng.normal(size=(SPEC.dim, SPEC.dim)) + 1j * rng.normal(size=(SPEC.dim, SPEC.dim))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    assert abs(np.trace(unvec(liouv @ vec(rho)))) < 1e-12


def test_liouvillian_trace_preservation_matrix_units():
    rng = np.random.default_rng(29)
    spec = HilbertSpec(1, 1)
    liouv = liouvillian(random_params(rng), spec)
    for i in range(spec.dim):
        for j in range(spec.dim):
            unit = np.zeros((spec.dim, spec.dim), dtype=complex)
            unit[i, j] = 1.0
            assert abs(np.trace(unvec(liouv @ vec(unit)))) < 1e-12


def test_single_driven_linear_mode_mean():
    params = SystemParams(delta_a=0.3, eps_a=0.01)
    rho = steady_state(liouvillian(params, SPEC))
    a, _ = mode_annihilators(SPEC)
    mean_n = np.trace(a.conj().T @ a @ rho).real
    assert mean_n == pytest.approx(0.01**2 / (0.3**2 + 0.25), rel=1e-8)


def test_common_phase_shift_is_a_diagonal_conjugation():
    rng = np.random.default_rng(31)
    params = random_params(rng)
    shift = 0.83
    shifted = params.replace(phi_a=params.phi_a + shift,
                             phi_b=params.phi_b + shift)
    numbers = np.array([sum(SPEC.occupations(k)) for k in range(SPEC.dim)])
    gauge = np.diag(np.exp(1j * shift * numbers))
    h_ref = gauge @ hamiltonian(params, SPEC) @ gauge.conj().T
    h_new = hamiltonian(shifted, SPEC)
    assert np.max(np.abs(h_new - h_ref)) < 1e-12 * max(np.max(np.abs(h_ref)), 1.0)
