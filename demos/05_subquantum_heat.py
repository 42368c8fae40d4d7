"""Heat-field picture: the density as a Gibbs form of an exchanged heat.

Builds the heat field of a Gaussian density (Q_heat = x^2/(2 beta
sigma^2) up to gauge), diffuses both sides, and runs the ``thermal``
command's check suite tying the probabilistic and thermal descriptions
together.  The
two formal routes to a "thermal" Fisher information are compared: route
B is an algebraic identity under the coupling, route A is not, and the
measured ratio is reported rather than hidden.
"""

import numpy as np

from fisherqp import (
    Grid,
    HeatField,
    PhysicalConstants,
    density_from_samples,
    fick_diffuse,
    heat_equation_evolve,
    heat_from_density,
    thermalized_qp,
    vanishing_qp_residual,
)
from fisherqp.grid import ScalarField, second_derivative_values
from fisherqp.suites import thermal_suite

constants = PhysicalConstants()  # thermal equality hbar*omega = k*T holds
grid = Grid(-16.0, 16.0, 8193)
density = density_from_samples(grid.from_function(lambda x: np.exp(-x * x / 8)))

hf = heat_from_density(density, constants)
print("heat field of a sigma = 2 Gaussian (gauge: Q_heat(0) = 0)")
i = int(round((4.0 - grid.xmin) / grid.dx))
print(f"  Q_heat(4) = {hf.Q_heat.values[i]:.6f}   (closed form x^2/8 = 2)")

checks = list(thermal_suite(hf, density, 0.004, 1e-3))
by_name = {item.name: item for item in checks}
route_b = by_name["thermal-fisher-route-b"]            # route B vs direct FI
route_a = by_name["flag-thermal-route-factor"].lhs     # flagged against route B
print("\nthermal Fisher information:")
print(f"  route B  beta^2 int(P (grad Q)^2) = {route_b.lhs:.10f}")
print(f"  direct   int((P')^2/P)            = {route_b.rhs:.10f}")
print(f"  route A  (formal)                 = {route_a:.10f}"
      f"   ratio A/B = {route_a / route_b.lhs:+.4f}  <- flagged, not asserted")

print("\nthermal suite over 4 steps of 1e-3 (ratio law, heat-action link,")
print("fluctuation chain, kinetic excess, Gibbs slope, thermalized Q, route B):")
for item in checks:
    if not item.flagged:
        print(f"  {item.name:28s} error {item.rel_err:.2e}"
              f"  tol {item.tol:.0e}  {'ok' if item.passed else 'FAIL'}")

# Diffusion side: density under Fick's law, heat bump under the heat
# equation; both spread their variance by 2 D t.
g = Grid(-12.0, 12.0, 6145)
d0 = density_from_samples(g.from_function(lambda x: np.exp(-x * x / 2)))
fick = fick_diffuse(d0, constants.diffusivity, 1.0, 1e-3)
var = np.trapezoid(fick[-1].values * g.x**2, dx=g.dx)
print(f"\nFick diffusion: sigma^2(1) = {var:.6f}   (1 + 2Dt = {1 + 2 * constants.diffusivity})")

bump = HeatField(ScalarField(g, np.exp(-g.x**2 / 2)), constants)
heat = heat_equation_evolve(bump, 0.02, 1e-3)
thq = thermalized_qp(heat, len(heat) // 2)
scale = 0.25 * np.max(np.abs(
    second_derivative_values(heat.fields[len(heat) // 2].q_tilde().values, g.dx)
))
print(f"thermalized quantum potential on the heat flow: "
      f"max |Q| / scale = {np.max(np.abs(thq.values[2:-2])) / scale:.2e}  (~ 0)")

qv = 2.0 * constants.hbar * constants.omega * np.log(4.0 + 0.2 * g.x)
res = vanishing_qp_residual(HeatField(ScalarField(g, qv), constants))
lap = np.max(np.abs(second_derivative_values(qv, g.dx)))
print(f"vanishing-Q family 2 hw log(a + b x): residual / scale = "
      f"{np.max(np.abs(res.values[2:-2])) / lap:.2e}")
