import numpy as np
import pytest

from photonmol import (
    HilbertSpec,
    TotalSpec,
    create,
    destroy,
    identity,
    mode_annihilators,
    mode_operator,
    tensor,
)


def test_destroy_vacuum_only_space():
    op = destroy(0)
    assert op.shape == (1, 1)
    assert np.all(op == 0)


def test_destroy_entries():
    op = destroy(2)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2.0)
    assert np.array_equal(op, expected)


def test_number_operator_diagonal():
    op = destroy(2)
    number = create(2) @ op
    assert np.allclose(number, np.diag([0.0, 1.0, 2.0]), atol=1e-15)


def test_destroy_rejects_negative_cutoff():
    with pytest.raises(ValueError):
        destroy(-1)


@pytest.mark.parametrize("n_max", [2.5, 2.0, True])
def test_destroy_rejects_non_integer_cutoff(n_max):
    with pytest.raises(ValueError, match="cutoff"):
        destroy(n_max)


def test_truncated_commutator_pattern():
    # [a, adag] is the identity except the top corner, which collects the
    # truncation artifact -n_max. Off-diagonal entries vanish exactly; the
    # diagonal carries only the rounding of sqrt(n)**2.
    for n_max in range(1, 6):
        a = destroy(n_max)
        ad = a.conj().T
        comm = a @ ad - ad @ a
        expected = np.eye(n_max + 1, dtype=complex)
        expected[n_max, n_max] = -n_max
        assert np.array_equal(comm - np.diag(np.diag(comm)),
                              np.zeros_like(comm))
        assert np.allclose(np.diag(comm), np.diag(expected),
                           rtol=1e-15, atol=1e-15)


def test_tensor_identity():
    assert np.array_equal(tensor(identity(2), identity(3)), identity(6))


def test_tensor_single_mode_action():
    spec = HilbertSpec(1, 1)
    op = tensor(destroy(1), identity(2))
    state = spec.basis_vector(1, 0)
    out = op @ state
    assert np.allclose(out, spec.basis_vector(0, 0), atol=1e-15)


def test_tensor_mixed_product_property():
    rng = np.random.default_rng(0)
    a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                  for _ in range(4))
    left = tensor(a, b) @ tensor(c, d)
    right = tensor(a @ c, b @ d)
    assert np.allclose(left, right, atol=1e-14)


def test_mode_operator_action_on_a():
    spec = HilbertSpec(1, 1)
    op = mode_operator(spec, "a", destroy(1))
    out = op @ spec.basis_vector(1, 1)
    assert np.allclose(out, spec.basis_vector(0, 1), atol=1e-15)


def test_mode_operator_action_on_b():
    spec = HilbertSpec(2, 2)
    op = mode_operator(spec, "b", destroy(2))
    out = op @ spec.basis_vector(2, 2)
    assert np.allclose(out, np.sqrt(2.0) * spec.basis_vector(2, 1), atol=1e-15)


def test_mode_operator_dimension_mismatch():
    spec = HilbertSpec(2, 1)
    with pytest.raises(ValueError):
        mode_operator(spec, "a", destroy(1))
    with pytest.raises(ValueError):
        mode_operator(spec, "c", destroy(2))


def test_number_operators_commute_exactly():
    spec = HilbertSpec(2, 3)
    n_a = mode_operator(spec, "a", create(2) @ destroy(2))
    n_b = mode_operator(spec, "b", create(3) @ destroy(3))
    assert np.array_equal(n_a @ n_b, n_b @ n_a)


def test_embedded_single_mode_operators_commute_exactly():
    # Real-valued single-mode operators (ladder operators and their products
    # are real) commute bit for bit after embedding.
    rng = np.random.default_rng(7)
    spec = HilbertSpec(2, 2)
    x = rng.normal(size=(3, 3)).astype(complex)
    y = rng.normal(size=(3, 3)).astype(complex)
    op_a = mode_operator(spec, "a", x)
    op_b = mode_operator(spec, "b", y)
    assert np.array_equal(op_a @ op_b, op_b @ op_a)


def test_index_mapping_round_trip():
    spec = HilbertSpec(3, 2)
    assert spec.dim == 12
    for index in range(spec.dim):
        n_a, n_b = spec.occupations(index)
        assert spec.index(n_a, n_b) == index
    assert spec.index(1, 0) == 3  # mode A is the slow index


def test_index_bounds():
    spec = HilbertSpec(1, 1)
    with pytest.raises(ValueError):
        spec.index(2, 0)
    with pytest.raises(ValueError):
        spec.occupations(4)
    with pytest.raises(ValueError):
        HilbertSpec(-1, 0)


def test_adjoint_involution():
    op = destroy(3) + 0.5j * create(3)
    assert np.array_equal(op.conj().T.conj().T, op)


@pytest.mark.parametrize("n_total", [0, 1, 3, 4])
def test_total_space_keeps_the_box_states_up_to_the_total_cutoff(n_total):
    spec = TotalSpec(n_total)
    box = spec.box
    assert box == HilbertSpec(n_total, n_total)
    kept = [box.occupations(i) for i in range(box.dim) if sum(box.occupations(i)) <= n_total]
    assert spec.dim == len(kept)
    assert [spec.occupations(i) for i in range(spec.dim)] == kept
    assert spec.box_indices().tolist() == [box.index(*state) for state in kept]
    with pytest.raises(ValueError, match="outside"):
        spec.occupations(spec.dim)


@pytest.mark.parametrize("n_total", [-1, 2.0, True])
def test_total_space_rejects_a_bad_cutoff(n_total):
    with pytest.raises(ValueError, match="cutoff"):
        TotalSpec(n_total)


@pytest.mark.parametrize("n_max_a", range(5))
@pytest.mark.parametrize("n_max_b", range(5))
def test_box_ladders_are_the_embedded_single_mode_ladders(n_max_a, n_max_b):
    spec = HilbertSpec(n_max_a, n_max_b)
    a, b = mode_annihilators(spec)
    assert np.array_equal(a, mode_operator(spec, "a", destroy(n_max_a)))
    assert np.array_equal(b, mode_operator(spec, "b", destroy(n_max_b)))
    assert a.dtype == b.dtype == complex


@pytest.mark.parametrize("n_total", range(6))
def test_total_space_ladders_are_the_box_ladders_between_kept_states(n_total):
    # Exact, because every kept state keeps the state one photon below it.
    spec = TotalSpec(n_total)
    kept = np.ix_(spec.box_indices(), spec.box_indices())
    a, b = mode_annihilators(spec)
    assert np.array_equal(a, mode_operator(spec.box, "a", destroy(n_total))[kept])
    assert np.array_equal(b, mode_operator(spec.box, "b", destroy(n_total))[kept])
