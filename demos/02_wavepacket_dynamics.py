"""Schroedinger dynamics and the identities that ride along with it.

Evolves a free Gaussian packet with the Crank-Nicolson stepper and
checks, at mid-trajectory, the continuity equation, the quantum
Hamilton-Jacobi equation, and the entropy production rate against
-integral(S'P')/m integrated by parts, -integral(dP/dt (log P + 1)).
"""

import numpy as np

from fisherqp import (
    Grid,
    PhysicalConstants,
    continuity_residual,
    density_from_samples,
    entropy_rate_check,
    evolve,
    fisher_information,
    hj_residual,
    osmotic_entropy_rate,
)
from fisherqp.grid import quadrature_values
from fisherqp.propagator import psi_density

constants = PhysicalConstants()
grid = Grid(-8.0, 8.0, 4097)   # dx = 1/256
density = density_from_samples(grid.from_function(lambda x: np.exp(-x * x / 2)))
psi0 = np.sqrt(density.values)  # zero phase: the packet starts at rest
V = grid.zeros()


def energy(psi):
    """<H> of the discrete Hamiltonian the stepper uses: H = tridiag(-kin,
    2 kin + V, -kin) with the walls pinned to 0.  Crank-Nicolson is a
    Cayley transform of H, so it conserves <H> to roundoff."""
    kin = constants.hbar**2 / (2.0 * constants.mass * grid.dx * grid.dx)
    h_psi = (2.0 * kin + V.values) * psi
    h_psi[:-1] -= kin * psi[1:]
    h_psi[1:] -= kin * psi[:-1]
    h_psi[0] = h_psi[-1] = 0.0
    return quadrature_values((np.conj(psi) * h_psi).real, grid.dx)


print("free Gaussian, sigma0 = 1, dt = 1/1024, t in [0, 1]")
# the trapezoid quadrature of the raw |psi_k|^2 (the walls are 0, so a
# sum) at every step, and copies of the two end states
norms, ends = [], {}


def watch(k, psi):
    norms.append(np.sum(np.abs(psi) ** 2) * grid.dx)
    if k in (0, 1024):
        ends[k] = psi.copy()


window = evolve(psi0, V, constants, 1.0 / 1024, 1024, 512, each=watch)

p_end = psi_density(ends[1024], grid).values
var = np.trapezoid(p_end * grid.x**2, dx=grid.dx)
print(f"  norm drift        {np.max(np.abs(np.array(norms) - 1.0)):.2e}")
print(f"  sigma^2(t=1)      {var:.8f}   (closed form 1 + (t/2)^2 = 1.25)")
print(f"  energy drift      {abs(energy(ends[1024]) - energy(ends[0])):.2e}")

print("\nresiduals at t = 0.5 (normalized, second order in dx and dt):")
print(f"  continuity        {continuity_residual(window):.2e}")
print(f"  Hamilton-Jacobi   {hj_residual(window):.2e}")
lhs, rhs = entropy_rate_check(window)
print(f"  entropy rate      d(entropy)/dt = {lhs:.6f} vs -int(dP/dt (log P + 1)) = {rhs:.6f}")

# The synthetic osmotic state: S' = -(hbar/2m) P'/P makes the entropy
# production exactly (hbar/2m) FI, which is nonnegative.
rate = osmotic_entropy_rate(density, constants)
print(f"\nosmotic entropy production {rate:.8f}"
      f" = (hbar/2m) FI = {0.5 * fisher_information(density):.8f}")
