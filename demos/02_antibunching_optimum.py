"""Locate the antibunching operating point three ways.

With weak Kerr nonlinearity, destructive interference between two-photon
excitation paths suppresses photon pairs in mode A at a specific detuning
and Kerr strength. The package provides the strong-coupling closed forms,
the exact zero-phase conditions, and a direct numerical minimizer; here we
compare all three at J = 10 kappa.
"""

import numpy as np

import photonmol as pm

KAPPA, J = 1.0, 10.0

print("drive only mode A (eta = inf):")
single = pm.single_drive_optimum(KAPPA, J)
print(f"  closed form: delta = {single.delta_opt:.5f}, u = {single.u_opt:.6f}")
numeric = pm.numeric_optimum(KAPPA, J, np.inf, 0.0)
print(f"  numeric:     delta = {numeric.delta_opt:.5f}, "
      f"u = {numeric.u_opt:.6f}, g2_min = {numeric.g2_min:.2e}")

print("\nboth modes driven, eta = 3, relative phase 0:")
asym = pm.dual_drive_optimum_asymptotic(KAPPA, J, eta=3.0)
print(f"  strong-coupling form: delta = {asym.delta_opt:.5f}, "
      f"u = {asym.u_opt:.6f}")
exact = pm.dual_drive_optimum_exact_phi0(KAPPA, J, eta=3.0)
print(f"  exact conditions:     delta = {exact.delta_opt:.5f}, "
      f"u = {exact.u_opt:.6f}")
numeric = pm.numeric_optimum(KAPPA, J, 3.0, 0.0)
print(f"  numeric:              delta = {numeric.delta_opt:.5f}, "
      f"u = {numeric.u_opt:.6f}, g2_min = {numeric.g2_min:.2e}")

# Scan the detuning through the optimum to see the interference dip. The
# correlation collapses by orders of magnitude inside a fraction of kappa.
print("\ndetuning scan at the optimal Kerr strength (master equation):")
for delta in np.linspace(exact.delta_opt - 1.0, exact.delta_opt + 1.0, 9):
    params = pm.symmetric_params(J, delta=delta, u=exact.u_opt, eta=3.0)
    g2, _ = pm.evaluate_point(params, pm.SOLVER_MASTER_EQUATION)
    bar = "#" * max(0, int(12 + np.log10(g2)))
    print(f"  delta = {delta:7.4f}: g2 = {g2:.3e} {bar}")

print("\nthe minimum sits at the exact-condition point, not the asymptotic "
      "one; they merge as J/kappa grows")
