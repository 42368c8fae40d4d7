"""The two constrained extremizations, side by side.

MaxEnt: extremize Shannon entropy subject to <x^2> = 1; the solution is
a Gibbs density exp(-alpha x^2)/Z with alpha = 1/2 (a standard normal).

Fisher extremization: extremize Fisher information subject to a
multiplier -4 on x^2; the stationarity condition reduces to a
Schroedinger-like ground-state problem whose solution is a Gaussian of
variance 1/2, with the normalization multiplier alpha_norm = 8 E0.
"""

import numpy as np

from fisherqp import (
    ConstraintSpec,
    Grid,
    PhysicalConstants,
    epi_solve,
    maxent_solve,
    mean_quantum_potential,
    quantum_potential,
    riccati_check,
)
from fisherqp.extremizers import stationarity_residual
from fisherqp.functionals import weighted_max_dev
from fisherqp.grid import quadrature_values

constants = PhysicalConstants()
grid = Grid(-8.0, 8.0, 4097)
a_field = grid.from_function(lambda x: x * x)

print("MaxEnt with constraint <x^2> = 1")
density, alpha_gibbs, z = maxent_solve(a_field, 1.0)
print(f"  alpha_gibbs {alpha_gibbs:.9f}   (closed form 1/2)")
print(f"  Z           {z:.9f}   (closed form sqrt(2 pi) = {np.sqrt(2 * np.pi):.9f})")
dev = np.max(np.abs(density.values - np.exp(-grid.x**2 / 2) / np.sqrt(2 * np.pi)))
print(f"  max deviation from the standard normal: {dev:.2e}")

print("\nFisher extremization with multiplier lambda = -4 on x^2")
spec = ConstraintSpec(A_fields=[a_field], multipliers=[-4.0])
result = epi_solve(spec, grid)
print(f"  alpha_norm  {result.alpha_norm:.6f}   (closed form 4)")
print(f"  eigenvalue  {result.eigenvalue:.6f}   (closed form 1/2)")
print(f"  extreme FI  {result.fisher_I:.6f}   (closed form 2)")
print(f"  stationarity residual  {stationarity_residual(result):.2e}")
print(f"  Riccati residual       {riccati_check(result):.2e}")

# the eigen-equation the solver solves pins the quantum potential of the
# extremal density to the constraint: Q = (hbar^2/8m)(lambda A + alpha_norm)
p_I = result.p_I
q = quantum_potential(p_I, constants).values
coeff = constants.hbar**2 / (8.0 * constants.mass)
affine = coeff * (-4.0 * a_field.values + result.alpha_norm)
dev = weighted_max_dev(q, np.where(p_I.support_mask, affine, 0.0), p_I)
print("\nthe extremal density pins its own quantum potential:")
print(f"  Q = (hbar^2/8m)(lambda A + alpha_norm), max deviation / max |Q| "
      f"{dev / np.max(np.abs(q)):.2e}")
through_a = coeff * (-4.0 * quadrature_values(p_I.values * a_field.values, grid.dx)
                     + result.alpha_norm)
print(f"  mean: integral(p_I Q) = {mean_quantum_potential(p_I, constants):.9f} "
      f"vs {through_a:.9f}")
print("  (the often-quoted hbar^2/4m slope overshoots by 2: the slope ratio is 1/2)")
