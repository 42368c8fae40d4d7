import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from fisherqp import (
    BoundaryContact,
    DegenerateSupport,
    Grid,
    PhysicalConstants,
    delta_s_from_heat,
    density_from_heat,
    density_from_samples,
    gibbs_density,
    momentum_fluctuation,
    thermalized_qp,
    vanishing_qp_residual,
)
from fisherqp.cli import COMMANDS
from fisherqp.grid import (ScalarField, derivative_values, quadrature_values,
                           second_derivative_values)
from fisherqp.suites import identities_suite, thermal_suite
from fisherqp.thermal import _coupling_deviation, _heat_guard, coupled_run

from conftest import (checks_by_name, cn_backward_error, diffusion_flow, gaussian_density,
                      note_value)

C = PhysicalConstants()


def wide_grid():
    return Grid(-16.0, 16.0, 8193)


def coupled_gaussian(grid, sigma=1.0, constants=C):
    """(heat field, density) of a Gaussian of width ``sigma``, heat first:
    Q_heat = x^2/(2 alpha_th sigma^2) and its coupled density."""
    heat = ScalarField(grid, grid.x**2 / (2.0 * constants.alpha_th * sigma**2))
    density, _ = density_from_heat(heat, constants.alpha_th)
    return heat, density


def coupling_deviation(density, heat, constants):
    """Weighted max deviation of P from c_hat exp(-alpha_th Q_heat): the
    reduction ``coupled_run`` makes at every step, on a Density."""
    p = density.values
    return _coupling_deviation(p, float(np.max(p)), density.support_mask, heat.values,
                               constants.alpha_th, heat.grid.dx, np.empty(len(p)),
                               np.empty(len(p)))


# ---------------------------------------------------------------------------
# heat field construction
# ---------------------------------------------------------------------------


def test_heat_gradient_coupling_exact(grid):
    # grad(P)/P + alpha * grad(Q) = 0 by construction through the coupling
    from fisherqp.thermal import coupled_grad_heat

    d = gaussian_density(grid)
    grad_q = coupled_grad_heat(d, C)
    assert np.max(np.abs(d.grad_log() + C.alpha_th * grad_q)) == 0.0


def test_thermalized_qp_reads_the_dimensionless_field(grid):
    # Q_tilde = alpha_th Q_heat: at alpha_th = 1/2, and the same hbar, mass
    # and diffusivity, the thermalized quantum potential of the same fields
    # is half its value at alpha_th = 1
    c2 = PhysicalConstants(omega=2.0, temperature=2.0)
    before, now, after = (ScalarField(grid, (1.0 + 0.1 * k) * grid.x**2) for k in range(3))
    assert np.allclose(thermalized_qp(before, now, after, 1e-3, c2).values,
                       0.5 * thermalized_qp(before, now, after, 1e-3, C).values)


# ---------------------------------------------------------------------------
# delta S
# ---------------------------------------------------------------------------


def test_delta_s_scaling(grid):
    ds = delta_s_from_heat(ScalarField(grid, grid.x**2), C)
    assert np.allclose(ds.values, grid.x**2 / 2)


def test_delta_s_gradient_matches_fluctuation(grid):
    heat, d = coupled_gaussian(grid)
    ds = delta_s_from_heat(heat, C)
    grad_ds = derivative_values(ds.values, grid.dx)
    delta_p = momentum_fluctuation(d, C)
    mask = d.support_mask
    w = d.values / d.values.max()
    scale = np.max(np.abs(delta_p))
    assert np.max((w * np.abs(grad_ds - delta_p))[mask]) <= 1e-6 * scale


def test_delta_s_thermal_identity(grid):
    # (2/hbar) deltaS = beta * Q_heat when hbar*omega = k*T
    heat = ScalarField(grid, grid.x**2)
    ds = delta_s_from_heat(heat, C)
    assert np.allclose(2.0 / C.hbar * ds.values, C.beta * heat.values)


# ---------------------------------------------------------------------------
# diffusion
# ---------------------------------------------------------------------------


def fick_end(d, D, steps, dt):
    """The density after ``steps`` Fick steps from ``d``, renormalized."""
    g = d.grid
    u = diffusion_flow(d.values, g.dx, D, steps, dt)[-1]
    return density_from_samples(ScalarField(g, u), truncation_check=False)


def mass_drift(flow, dx):
    """Worst |mass - 1| over a raw flow, read before any renormalization."""
    return max(abs(quadrature_values(u, dx) - 1.0) for u in flow)


def test_fick_heat_kernel():
    g = Grid(-12.0, 12.0, 6145)
    d = gaussian_density(g)
    flow = diffusion_flow(d.values, g.dx, 0.5, 1000, 1e-3)
    P = density_from_samples(ScalarField(g, flow[-1]), truncation_check=False).values
    var = np.trapezoid(P * g.x**2, dx=g.dx)
    assert var == pytest.approx(2.0, abs=1e-3)  # sigma0^2 + 2 D t
    assert mass_drift(flow, g.dx) <= 1e-9


def test_fick_disjoint_bumps_conserve_mass():
    g = Grid(-16.0, 16.0, 4097)
    raw = np.exp(-((g.x - 6) ** 2) / 0.5) + np.exp(-((g.x + 6) ** 2) / 0.5)
    d = density_from_samples(ScalarField(g, raw))
    flow = diffusion_flow(d.values, g.dx, 0.5, 500, 1e-3)
    assert mass_drift(flow, g.dx) <= 1e-9
    for u in flow[:: len(flow) // 4]:
        dens = density_from_samples(ScalarField(g, u), truncation_check=False)
        assert quadrature_values(dens.values, g.dx) == pytest.approx(1.0, abs=1e-9)


def test_fick_explicit_matches_implicit():
    g = Grid(-12.0, 12.0, 513)
    d = gaussian_density(g)
    dt = 0.4 * g.dx**2 / 0.5  # just under the explicit stability bound
    steps = 64
    imp = fick_end(d, 0.5, steps, dt)
    # forward-Euler reference with the same held end values
    nu = 0.5 * dt / g.dx**2
    u = d.values.copy()
    for _ in range(steps):
        u[1:-1] += nu * (u[2:] - 2.0 * u[1:-1] + u[:-2])
    exp = density_from_samples(ScalarField(g, u), truncation_check=False)
    dev = np.max(np.abs(imp.values - exp.values))
    assert dev <= 5e-5  # explicit stepping is first order in time


def test_heat_equation_gaussian_bump_variance():
    g = Grid(-12.0, 12.0, 6145)
    q = diffusion_flow(np.exp(-g.x**2 / 2), g.dx, C.diffusivity, 1000, 1e-3)[-1]
    var = np.trapezoid(q * g.x**2, dx=g.dx) / np.trapezoid(q, dx=g.dx)
    assert var == pytest.approx(2.0, abs=1e-3)


def heat_residual(flow, dx, dt):
    """Relative max of lap(Q) - (1/D) dQ/dt at the middle step of a heat
    flow, the time derivative centered, the two points next to each wall
    left out."""
    k = len(flow) // 2
    dqdt = (flow[k + 1] - flow[k - 1]) / (2 * dt)
    lap = second_derivative_values(flow[k], dx)
    return np.max(np.abs(lap - dqdt / C.diffusivity)[2:-2]) / np.max(np.abs(lap))


def test_heat_equation_residual_second_order():
    def resid(n, dtinv):
        g = Grid(-16.0, 16.0, n)
        flow = diffusion_flow(np.exp(-g.x**2 / 2), g.dx, C.diffusivity, 32, 1.0 / dtinv)
        return heat_residual(flow, g.dx, 1.0 / dtinv)

    assert resid(2049, 256) / resid(4097, 512) >= 3.0


def test_heat_equation_affine_invariant():
    g = Grid(-12.0, 12.0, 2049)
    q0 = 1.0 + 0.3 * g.x
    q = diffusion_flow(q0, g.dx, C.diffusivity, 100, 1e-3)[-1]
    assert np.max(np.abs(q - q0)) <= 1e-12


def test_heat_equation_residual():
    g = wide_grid()
    flow = diffusion_flow(np.exp(-g.x**2 / 2), g.dx, C.diffusivity, 20, 1e-3)
    assert heat_residual(flow, g.dx, 1e-3) <= 1e-3


# ---------------------------------------------------------------------------
# pointwise identities
# ---------------------------------------------------------------------------


def test_vanishing_qp_log_affine_family():
    g = Grid(-12.0, 12.0, 6145)
    for a, b in [(4.0, 0.2), (6.0, 0.3), (5.0, -0.25)]:
        q = 2.0 * C.hbar * C.omega * np.log(a + b * g.x)
        res = vanishing_qp_residual(ScalarField(g, q), C)
        scale = np.max(np.abs(second_derivative_values(q, g.dx)))
        assert np.max(np.abs(res.values[2:-2])) <= 1e-6 * scale


def test_vanishing_qp_constant_field():
    g = Grid(-12.0, 12.0, 1025)
    res = vanishing_qp_residual(ScalarField(g, np.full(g.n, 3.0)), C)
    assert np.max(np.abs(res.values)) == 0.0


def test_vanishing_qp_affine_counterexample():
    g = Grid(-12.0, 12.0, 1025)
    res = vanishing_qp_residual(ScalarField(g, 0.7 * g.x), C)
    want = 0.7**2 / (2.0 * C.hbar * C.omega)
    assert np.allclose(res.values[2:-2], want, atol=1e-10)


def test_thermalized_qp_vanishes_on_heat_flow():
    g = wide_grid()
    flow = diffusion_flow(np.exp(-g.x**2 / 2), g.dx, C.diffusivity, 20, 1e-3)
    before, now, after = (ScalarField(g, q) for q in flow[9:12])
    field = thermalized_qp(before, now, after, 1e-3, C)
    scale = 0.25 * np.max(np.abs(second_derivative_values(C.alpha_th * now.values, g.dx)))
    assert np.max(np.abs(field.values[2:-2])) <= 1e-3 * scale


# ---------------------------------------------------------------------------
# thermal Fisher information
# ---------------------------------------------------------------------------


def thermal_fisher_routes(density, heat, constants):
    """(route B, direct FI, route A) from the static thermal suite's
    route-B check, whose note gives route A."""
    route_b = checks_by_name(thermal_suite(heat, density, constants, None, 1e-3))[
        "thermal-fisher-route-b"]
    return route_b.lhs, route_b.rhs, note_value(route_b, "route A =")


def test_thermal_fisher_route_b_equals_fisher():
    heat, d = coupled_gaussian(wide_grid(), sigma=2.0)
    route_b, fisher, _ = thermal_fisher_routes(d, heat, C)
    assert route_b == pytest.approx(fisher, rel=1e-8)
    assert fisher == pytest.approx(0.25, abs=1e-6)


def test_thermal_fisher_static_routes_disagree():
    # alpha = beta = 1/2, Q = x^2: route A = -2*alpha*<lap Q> = -2,
    # route B = FI = 1; the mismatch is reported, not asserted away
    c = PhysicalConstants(omega=2.0, temperature=2.0)
    g = Grid(-8.0, 8.0, 4097)
    heat = ScalarField(g, g.x**2)
    d, _ = density_from_heat(heat, c.alpha_th)
    route_b, _, route_a = thermal_fisher_routes(d, heat, c)
    assert route_b == pytest.approx(1.0, abs=1e-6)
    assert route_a == pytest.approx(-2.0, abs=1e-6)
    assert route_a / route_b == pytest.approx(-2.0, abs=1e-5)


def test_thermal_fisher_uniform_is_zero():
    g = Grid(0.0, 1.0, 513)
    heat = ScalarField(g, np.full(g.n, 1.3))
    d, _ = density_from_heat(heat, C.alpha_th, truncation_check=False)
    assert thermal_fisher_routes(d, heat, C)[0] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# chains and coherence
# ---------------------------------------------------------------------------


def thermal_checks(heat, constants, t_final=0.004, dt=1e-3):
    """Every check of the ``thermal`` suite on the heat field ``heat`` and
    its coupled density, the four coherence checks first."""
    density, _ = density_from_heat(heat, constants.alpha_th, truncation_check=False)
    return list(thermal_suite(heat, density, constants, t_final, dt))


def test_coupled_evolution_short_horizon():
    heat, d = coupled_gaussian(wide_grid(), sigma=2.0)
    assert coupled_run(d, heat, C, 0.01, 1e-3)[0] <= 2e-3


def test_coupled_run_needs_two_steps():
    # the heat window is the middle step and one step either side
    heat, d = coupled_gaussian(Grid(-8.0, 8.0, 257))
    with pytest.raises(ValueError, match="at least two steps"):
        coupled_run(d, heat, C, 1e-3, 1e-3)


def test_coupling_deviation_detects_mismatch(grid):
    heat, d = coupled_gaussian(grid)
    assert coupling_deviation(d, heat, C) <= 1e-12
    assert coupling_deviation(d, ScalarField(grid, grid.x**2 / 3), C) > 1e-2


def test_coherence_suite_all_pass():
    heat, _ = coupled_gaussian(wide_grid(), sigma=2.0)
    checks = thermal_checks(heat, C)
    assert all(item.passed for item in checks)
    assert [item.name for item in checks] == [
        "ratio-law-evolution",
        "fluctuation-chain",
        "thermalized-qp-vanishes",
        "thermal-fisher-route-b",
    ]


def test_fluctuation_chain_reads_the_same_in_any_unit_of_hbar():
    # one density and heat field, hbar*omega = k*T = 1 in two units of
    # hbar: grad(delta_S) against delta_p over max|delta_p| is
    # dimensionless, so the record reads the same and passes in both
    parse, suite = COMMANDS["thermal"]
    readings = []
    for hbar, omega in ((1.0, 1.0), (0.5, 2.0)):
        payload = {"grid": {"xmin": -8.0, "xmax": 8.0, "n": 4097},
                   "heat": {"kind": "quadratic", "coeff": 0.5},
                   "t_final": 0.002, "dt": 0.001,
                   "constants": {"hbar": hbar, "omega": omega}}
        chain = checks_by_name(suite(**parse(payload)))["fluctuation-chain"]
        assert chain.passed
        readings.append(chain.lhs)
    assert readings[1] == pytest.approx(readings[0], rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Gibbs-side formulas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,gamma", [(2.0, 0.5), (1.0, 4.0)])
def test_gibbs_formulas(k, gamma):
    g = Grid(-8.0, 8.0, 8193)
    E = ScalarField(g, k * g.x**2 / 2)
    density, _ = gibbs_density(E, gamma)
    checks = checks_by_name(identities_suite(density, C, (E, gamma)))
    assert checks["gibbs-qp-formula"].lhs <= 1e-6
    fisher = checks["gibbs-fisher-formula"]
    assert fisher.lhs == pytest.approx(gamma * k, rel=1e-6)  # direct
    assert fisher.rhs == pytest.approx(gamma * k, rel=1e-6)  # energy route


# ---------------------------------------------------------------------------
# factor-once stepping and streamed flows
# ---------------------------------------------------------------------------


def heat_flow(q0, constants, steps, dt):
    """Copies of every step of the heat flow ``coupled_run`` runs from
    ``q0``, each checked by its wall guard."""
    dx = q0.grid.dx
    flow = diffusion_flow(q0.values, dx, constants.diffusivity, steps, dt)
    guard = _heat_guard(q0.values, dx)
    for q in flow:
        guard(q)
    return flow


def test_factored_heat_stepper_matches_solve_banded():
    # every step of the lockstep heat flow solves the reference fixed-end
    # Crank-Nicolson system to a normwise backward error of at most 4 eps;
    # the end values of the coupled field are far from 0, so a step that
    # loses the fold fails
    g = Grid(-12.0, 12.0, 2049)
    q0, d = coupled_gaussian(g)
    assert min(abs(q0.values[0]), abs(q0.values[-1])) > 10.0
    dt, steps = 1e-3, 64
    heat = heat_flow(q0, C, steps, dt)
    _, window = coupled_run(d, q0, C, steps * dt, dt)
    assert all(np.array_equal(w.values, heat[k]) for w, k in zip(window, (31, 32, 33)))
    c = 0.5 * C.diffusivity * dt / g.dx**2
    ab = np.zeros((3, g.n - 2))
    ab[0, 1:] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[2, :-1] = -c
    assert len(heat) == steps + 1
    for k in range(steps):
        u, u_next = heat[k], heat[k + 1]
        assert (u_next[0], u_next[-1]) == (u[0], u[-1])
        rhs = (1.0 - 2.0 * c) * u[1:-1] + c * (u[2:] + u[:-2])
        rhs[0] += c * u[0]
        rhs[-1] += c * u[-1]
        assert cn_backward_error(ab, u_next[1:-1], rhs) <= 4 * np.finfo(float).eps


def materialized_run(density, q0, constants, steps, dt):
    """(worst coupling deviation, heat flow) of the reference flows: the Fick
    flow of ``density`` and the heat flow of ``q0``, both with the
    diffusivity of ``constants``, each step materialized as a Density and a
    ScalarField."""
    g = density.grid
    D = constants.diffusivity
    fick = diffusion_flow(density.values, g.dx, D, steps, dt)
    heat = diffusion_flow(q0.values, g.dx, D, steps, dt)
    dev = max(coupling_deviation(density_from_samples(ScalarField(g, p), truncation_check=False),
                                 ScalarField(g, q), constants)
              for p, q in zip(fick, heat))
    return dev, heat


def test_coupled_deviation_uses_caller_constants():
    # hbar*omega = k*T = 2 with D = hbar/2m = 1/4: the lockstep reduction
    # must equal the materialized flows under the same constants
    c = PhysicalConstants(mass=2.0, omega=2.0, temperature=2.0)
    assert c.is_thermal_equilibrium
    g = wide_grid()
    q0, d = coupled_gaussian(g, sigma=2.0, constants=c)
    dev, window = coupled_run(d, q0, c, 0.01, 1e-3)
    ref, ref_heat = materialized_run(d, q0, c, 10, 1e-3)
    assert dev == ref
    assert all(np.array_equal(w.values, ref_heat[k]) for w, k in zip(window, (4, 5, 6)))
    assert dev != coupled_run(d, coupled_gaussian(g, sigma=2.0)[0], C, 0.01, 1e-3)[0]


def test_coherence_lockstep_matches_materialized_flows():
    c = PhysicalConstants(mass=2.0, omega=2.0, temperature=2.0)
    g = wide_grid()
    q0 = ScalarField(g, g.x**2 / 4)
    density, _ = density_from_heat(q0, c.alpha_th, truncation_check=False)
    dev, window = coupled_run(density, q0, c, 0.01, 1e-3)
    ref, ref_heat = materialized_run(density, q0, c, 10, 1e-3)
    assert dev == ref
    checks = thermal_checks(q0, c, 0.01, 1e-3)
    assert {ch.name: ch for ch in checks}["ratio-law-evolution"].lhs == ref
    assert len(window) == 3 and len(ref_heat) == 11
    for w, k in zip(window, (4, 5, 6)):
        assert np.array_equal(w.values, ref_heat[k])
    ref_window = [ScalarField(g, ref_heat[k]) for k in (4, 5, 6)]
    assert np.array_equal(thermalized_qp(*window, 1e-3, c).values,
                          thermalized_qp(*ref_window, 1e-3, c).values)


# ---------------------------------------------------------------------------
# lockstep guards and validation against the materialized flows
# ---------------------------------------------------------------------------


def heat_contact_step(q0, dt, steps):
    """First step at which the heat wall guard, evaluated on the full second
    derivative of a from-scratch banded Crank-Nicolson flow from ``q0``
    with the diffusivity of ``C``, trips."""
    g, D = q0.grid, C.diffusivity
    c = 0.5 * D * dt / g.dx**2
    ab = np.zeros((3, g.n - 2))
    ab[0, 1:] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[2, :-1] = -c
    u = q0.values.copy()
    lap = second_derivative_values(u, g.dx)
    edge_scale = max(abs(lap[1]), abs(lap[-2]))
    interior_scale = float(np.max(np.abs(lap)))
    noise_floor = 1e-10 * max(1.0, float(np.max(np.abs(u)))) / g.dx**2
    for k in range(steps + 1):
        lap = second_derivative_values(u, g.dx)
        edge = max(abs(lap[1]), abs(lap[-2]))
        if interior_scale > noise_floor and edge > max(10.0 * edge_scale,
                                                       1e-6 * interior_scale):
            return k
        rhs = (1.0 - 2.0 * c) * u[1:-1] + c * (u[2:] + u[:-2])
        rhs[0] += c * u[0]
        rhs[-1] += c * u[-1]
        u = u.copy()
        u[1:-1] = solve_banded((1, 1), ab, rhs)
    return None


def fick_contact_step(density, dt, steps):
    """First step at which a first-interior value of the reference Fick
    flow exceeds 1e-10 of its peak."""
    flow = diffusion_flow(density.values, density.grid.dx, C.diffusivity, steps, dt)
    return next((k for k, u in enumerate(flow) if max(u[1], u[-2]) > 1e-10 * u.max()),
                None)


def test_fick_contact_same_step_in_lockstep():
    g = Grid(-4.0, 4.0, 129)
    heat = ScalarField(g, 2.0 * g.x**2)
    density, _ = density_from_heat(heat, C.alpha_th, truncation_check=False)
    dt = 1e-2
    k = fick_contact_step(density, dt, 20)
    assert k == 9
    thermal_checks(heat, C, (k - 1) * dt, dt)
    with pytest.raises(BoundaryContact, match="diffusing density reached the wall"):
        thermal_checks(heat, C, k * dt, dt)


def test_heat_contact_after_step_zero_same_step_as_full_guard():
    # a narrow bump next to the right wall: its curvature arrives there at
    # step 19, well after step 0
    g = Grid(-8.0, 8.0, 513)
    heat = ScalarField(g, g.x**2 / 2 + 10.0 * np.exp(-((g.x - 7.5) / 0.1) ** 2))
    dt = 1e-3
    k = heat_contact_step(heat, dt, 40)
    assert k == 19
    thermal_checks(heat, C, (k - 1) * dt, dt)
    with pytest.raises(BoundaryContact, match="heat-field curvature reached the wall"):
        thermal_checks(heat, C, k * dt, dt)


def test_overflowing_heat_flow_raises_like_materialized_flow():
    # finite input whose first heat step overflows to a non-finite field
    g = Grid(-8.0, 8.0, 257)
    heat = ScalarField(g, 2.5e306 * g.x**2)
    with np.errstate(over="ignore", invalid="ignore"):
        flow = diffusion_flow(heat.values, g.dx, C.diffusivity, 4, 1e-3)
        with pytest.raises(ValueError, match="field values must be finite"):
            [ScalarField(g, q) for q in flow]
        with pytest.raises(ValueError, match="field values must be finite"):
            thermal_checks(heat, C, 4e-3, 1e-3)


def test_thermal_refuses_one_point_support():
    g = Grid(-8.0, 8.0, 257)
    with pytest.raises(DegenerateSupport, match="support has 1"):
        thermal_checks(ScalarField(g, 1e306 * g.x**2), C)


# coupled two-Gaussian mixtures; every n - 1 is a power of two, so dx is one
MIXTURES = dict(
    n=st.sampled_from([129, 257, 513, 1025]),
    steps=st.integers(2, 20),
    dt=st.sampled_from([1e-4, 5e-4, 1e-3]),
    weight=st.floats(0.05, 1.0),
    centers=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    widths=st.tuples(st.floats(0.3, 0.8), st.floats(0.3, 0.8)),
)


def mixture_heat(g, weight, centers, widths):
    """The heat field of a two-Gaussian mixture, -(1/alpha_th) log of the
    mixture."""
    raw = sum(a * np.exp(-((g.x - c) ** 2) / (2.0 * s**2))
              for a, c, s in zip((1.0, weight), centers, widths))
    return ScalarField(g, -np.log(raw) / C.alpha_th)


@settings(max_examples=50, deadline=None)
@given(**MIXTURES)
def test_lockstep_deviation_equals_materialized_flows(n, steps, dt, weight, centers, widths):
    g = Grid(-8.0, 8.0, n)
    q0 = mixture_heat(g, weight, centers, widths)
    d, _ = density_from_heat(q0, C.alpha_th)
    dev, window = coupled_run(d, q0, C, steps * dt, dt)
    ref, ref_heat = materialized_run(d, q0, C, steps, dt)
    assert dev == ref
    assert all(np.array_equal(q, r) for q, r in zip(heat_flow(q0, C, steps, dt), ref_heat,
                                                     strict=True))
    mid = (steps + 1) // 2
    assert all(np.array_equal(w.values, r) for w, r in zip(window, ref_heat[mid - 1 : mid + 2],
                                                           strict=True))


def divided_deviation(p, mask, q, dx):
    """max over ``mask`` of (p/peak) |p - e/T| / peak, e = exp(-alpha_th
    (q - min q)) and T its integral: the coupling deviation with its two
    divisions."""
    peak = float(np.max(p))
    e = np.exp(-C.alpha_th * (q - q.min()))
    return float(np.max((p / peak * np.abs(p - e / quadrature_values(e, dx)))[mask],
                        initial=0.0)) / peak


@settings(max_examples=50, deadline=None)
@given(**MIXTURES)
def test_division_free_deviation_equals_the_divided_form(n, steps, dt, weight, centers,
                                                         widths):
    # per step the two forms may differ by roundoff relative to the peak
    # (up to 0.99 eps measured over 300 drawn runs), which is all of a
    # deviation at roundoff level, as at step 0; the worst over the run,
    # the reported value, agrees to 1e-13
    eps = np.finfo(float).eps
    g = Grid(-8.0, 8.0, n)
    q0 = mixture_heat(g, weight, centers, widths)
    d, _ = density_from_heat(q0, C.alpha_th)
    fick = diffusion_flow(d.values, g.dx, C.diffusivity, steps, dt)
    heat = diffusion_flow(q0.values, g.dx, C.diffusivity, steps, dt)
    devs, divided = [], []
    for u, q in zip(fick, heat, strict=True):
        p = density_from_samples(ScalarField(g, u), truncation_check=False)
        devs.append(coupling_deviation(p, ScalarField(g, q), C))
        divided.append(divided_deviation(p.values, p.support_mask, q, g.dx))
        assert devs[-1] == pytest.approx(divided[-1], rel=1e-13, abs=4 * eps)
    assert max(devs) == pytest.approx(max(divided), rel=1e-13)
    dev = devs[-1]
    # the last step again on the grid of the smallest dx, 2^-511, scaled by
    # a power of two: every product stays a normal float
    scale = 2.0**-511 / g.dx
    tiny = Grid(-8.0 * scale, 8.0 * scale, n)
    assert tiny.dx == 2.0**-511
    p_tiny = p.values / scale
    dev_tiny = _coupling_deviation(p_tiny, float(np.max(p_tiny)), p.support_mask, q,
                                   C.alpha_th, tiny.dx, np.empty(n), np.empty(n))
    assert np.isfinite(dev_tiny)
    assert dev_tiny == pytest.approx(dev, rel=1e-13)
    assert dev_tiny == pytest.approx(divided_deviation(p_tiny, p.support_mask, q, tiny.dx),
                                     rel=1e-13, abs=4 * eps)
