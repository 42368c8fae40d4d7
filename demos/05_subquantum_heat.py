"""Heat-field picture: the density as a Gibbs form of an exchanged heat.

Starts, as the ``thermal`` command does, from a heat field, Q_heat =
x^2/8, and derives its density P = c_hat exp(-alpha_th Q_heat), a
Gaussian of sigma = 2.  Runs the command's check suite tying the
probabilistic and thermal descriptions together, and diffuses both sides
in lockstep (Fick for the density, the heat equation for its heat
field).  The two formal routes to a "thermal" Fisher information are
compared: route B is FI rearranged under the coupling, route A is not an
identity, and the measured ratio is reported rather than hidden.
"""

import numpy as np

from fisherqp import (
    Grid,
    PhysicalConstants,
    density_from_heat,
    thermalized_qp,
    vanishing_qp_residual,
)
from fisherqp.grid import ScalarField, quadrature_values, second_derivative_values
from fisherqp.suites import thermal_suite
from fisherqp.thermal import coupled_run

constants = PhysicalConstants()  # thermal equality hbar*omega = k*T holds
grid = Grid(-16.0, 16.0, 8193)
heat = ScalarField(grid, grid.x**2 / 8)
density, c_hat = density_from_heat(heat, constants.alpha_th)

variance = quadrature_values(density.values * grid.x**2, grid.dx)
print("density of the heat field Q_heat = x^2/8")
print(f"  variance = {variance:.6f}   (sigma = 2: 4)")
print(f"  c_hat    = {c_hat:.6f}   (1/sqrt(8 pi) = {1.0 / np.sqrt(8.0 * np.pi):.6f})")

checks = list(thermal_suite(heat, density, constants, 0.004, 1e-3))
route_b = {item.name: item for item in checks}["thermal-fisher-route-b"]  # vs direct FI
# route A, -2 alpha int(P lap Q), is not an identity under the coupling
lap_q = second_derivative_values(heat.values, grid.dx)
route_a = -2.0 * constants.alpha_th * quadrature_values(density.values * lap_q, grid.dx)
print("\nthermal Fisher information:")
print(f"  route B  beta^2 int(P (grad Q)^2) = {route_b.lhs:.10f}")
print(f"  direct   int((P')^2/P)            = {route_b.rhs:.10f}")
print(f"  route A  (formal)                 = {route_a:.10f}"
      f"   ratio A/B = {route_a / route_b.lhs:+.4f}  <- reported, not asserted")

print("\nthermal suite over 4 steps of 1e-3 (ratio law, fluctuation chain,")
print("thermalized Q, route B):")
for item in checks:
    print(f"  {item.name:28s} error {item.rel_err:.2e}"
          f"  tol {item.tol:.0e}  {'ok' if item.passed else 'FAIL'}")

# Lockstep flow of the pair over 20 steps of 1e-3: Fick's law for the
# density, the heat equation for its heat field.  The heat flow carries no
# thermalized quantum potential where the density lives (the weight drops
# the skin off the support, where the heat field continues linearly).
# The run returns the heat fields at its middle step, 10, and either side.
_, (before, now, after) = coupled_run(density, heat, constants, 0.02, 1e-3)
thq = thermalized_qp(before, now, after, 1e-3, constants)
scale = 0.25 * np.max(np.abs(second_derivative_values(constants.alpha_th * now.values,
                                                     grid.dx)))
weight = density.values / np.max(density.values)
print(f"\nthermalized quantum potential at t = 0.01: density-weighted max |Q| / scale = "
      f"{np.max(weight[2:-2] * np.abs(thq.values[2:-2])) / scale:.2e}  (~ 0)")

qv = 2.0 * constants.hbar * constants.omega * np.log(4.0 + 0.2 * grid.x)
res = vanishing_qp_residual(ScalarField(grid, qv), constants)
lap = np.max(np.abs(second_derivative_values(qv, grid.dx)))
print(f"vanishing-Q family 2 hw log(a + b x): residual / scale = "
      f"{np.max(np.abs(res.values[2:-2])) / lap:.2e}")
