"""Fisher information and the quantum potential of a 1-D density.

Walks through the static core of the toolkit on a standard normal:
the three numerical routes to the quantum potential, the link
integral(P Q) = (hbar^2/8m) FI, the momentum-fluctuation moments, and
the osmotic velocity fields.
"""

import numpy as np

from fisherqp import (
    Grid,
    PhysicalConstants,
    QPForm,
    density_from_samples,
    differential_entropy,
    fisher_information,
    mean_quantum_potential,
    momentum_fluctuation,
    osmotic_fields,
    quantum_potential,
)
from fisherqp.functionals import masked_quadrature
from fisherqp.grid import quadrature_values
from fisherqp.reports import IdentityCheck
from fisherqp.suites import identities_suite

constants = PhysicalConstants()  # hbar = m = omega = k = T = 1
grid = Grid(-8.0, 8.0, 4097)
density = density_from_samples(grid.from_function(lambda x: np.exp(-x * x / 2)))

print("standard normal on [-8, 8], n = 4097")
print(f"  mass               {quadrature_values(density.values, grid.dx):.12f}")

fi = fisher_information(density)
print(f"  Fisher information {fi:.9f}   (closed form: 1/sigma^2 = 1)")
print(f"  entropy            {differential_entropy(density):.9f}"
      f"   (closed form: ln sqrt(2 pi e) = {0.5 * np.log(2 * np.pi * np.e):.9f})")

# Three routes to the same field. SQRT differentiates sqrt(P); GRAD uses
# P'' and (P')^2; FLUCT goes through the log-derivative w = P'/P.  Q
# rebuilt from the drift u of the osmotic fields below is FLUCT rescaled,
# so it is no route of its own.
print("\nquantum potential at x = 0 and x = 2 (closed form: 1/4 - x^2/8):")
i0, i2 = grid.n // 2, int(round((2.0 - grid.xmin) / grid.dx))
for form in QPForm:
    q = quantum_potential(density, constants, form)
    print(f"  {form.name:8s} Q(0) = {q.values[i0]:+.8f}   Q(2) = {q.values[i2]:+.8f}")

mean_qp = mean_quantum_potential(density, constants)
print(f"\nintegral(P Q) = {mean_qp:.9f} vs (hbar^2/8m) FI = {fi / 8:.9f}")

# the verify-identities suite checks the mean of delta_p; its second moment
# is (hbar^2/4) FI by construction, the FI integrand times hbar^2/4
checks = {c.name: c for c in identities_suite(density, constants, None)
          if isinstance(c, IdentityCheck)}
mean = checks["fluctuation-mean-zero"].lhs
delta_p = momentum_fluctuation(density, constants)
second = masked_quadrature(density.values * delta_p**2, density.support_mask, grid.dx)
print("\nmomentum fluctuation delta_p = -(hbar/2) P'/P  (here: x/2)")
print(f"  delta_p(2)       {delta_p[i2]:+.6f}     (closed form x/2 = 1)")
print(f"  <delta_p>        {mean:+.2e}      (vanishes for decayed P)")
print(f"  <delta_p^2>      {second:.9f}  vs (hbar^2/4) FI = {fi / 4:.9f}")
print(f"  mean excess E    {second / (2 * constants.mass):.9f}"
      f"  vs (hbar^2/8m) FI = {fi / 8:.9f}")

u, u_bar, k_u = osmotic_fields(density, constants)
print("\nosmotic fields at x = 2 (closed forms x/2, -x/2, x/2):")
print(f"  u = {u.values[i2]:+.6f}   u_bar = {u_bar.values[i2]:+.6f}"
      f"   k_u = {k_u.values[i2]:+.6f}")
