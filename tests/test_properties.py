"""Seeded randomized invariants at unit-test scale; the acceptance suite
reruns the same checks with at least 100 total cases."""

import property_checks as checks


def test_density_matrix_invariants():
    assert checks.check_density_matrix_invariants(8) == 8


def test_gauge_invariance():
    assert checks.check_gauge_invariance(5) == 5


def test_mode_exchange_symmetry():
    assert checks.check_mode_exchange_symmetry(5) == 5


def test_drive_scaling_invariance():
    assert checks.check_drive_scaling_invariance(8) == 8


def test_truncation_convergence():
    assert checks.check_truncation_convergence(3) == 3


def test_one_photon_zero_condition():
    assert checks.check_one_photon_zero_condition(8) == 8


def test_weak_drive_limit():
    assert checks.check_weak_drive_limit(40) == 40
