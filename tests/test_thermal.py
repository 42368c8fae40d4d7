import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from fisherqp import (
    BoundaryContact,
    DecoupledInputs,
    DegenerateSupport,
    Grid,
    HeatField,
    PhysicalConstants,
    coherence_suite,
    delta_s_from_heat,
    density_from_heat,
    density_from_samples,
    fick_diffuse,
    fisher_information,
    fluctuation_report,
    gibbs_formula_check,
    heat_equation_evolve,
    heat_from_density,
    thermal_fisher_report,
    thermalized_qp,
    vanishing_qp_residual,
)
from fisherqp.grid import ScalarField, derivative_values, second_derivative_values
from fisherqp.thermal import _coupled_run, coupling_deviation

from conftest import cn_backward_error, gaussian_density

C = PhysicalConstants()


def wide_grid():
    return Grid(-16.0, 16.0, 8193)


# ---------------------------------------------------------------------------
# heat field construction
# ---------------------------------------------------------------------------


def test_heat_from_density_gaussian(grid):
    d = gaussian_density(grid)
    hf = heat_from_density(d, C)
    mask = d.support_mask
    assert np.max(np.abs(hf.Q_heat.values - grid.x**2 / 2)[mask]) <= 1e-10
    assert hf.Q_heat.values[grid.n // 2] == 0.0  # gauge pin


def test_heat_roundtrip(grid):
    d = gaussian_density(grid)
    hf = heat_from_density(d, C)
    back, chat = density_from_heat(hf.Q_heat, C.alpha_th)
    assert np.max(np.abs(back.values - d.values)) <= 1e-9
    assert chat == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-9)


def test_heat_uniform_interior():
    g = Grid(0.0, 1.0, 257)
    d = density_from_samples(g.field(np.ones(g.n)), truncation_check=False)
    hf = heat_from_density(d, C)
    assert np.max(np.abs(hf.Q_heat.values)) <= 1e-12


def test_heat_gradient_coupling_exact(grid):
    # grad(P)/P + alpha * grad(Q) = 0 by construction through the coupling
    from fisherqp.thermal import coupled_grad_heat

    d = gaussian_density(grid)
    grad_q = coupled_grad_heat(d, C)
    assert np.max(np.abs(d.grad_log() + C.alpha_th * grad_q)) == 0.0


def test_q_tilde_is_scaled_field(grid):
    d = gaussian_density(grid)
    c2 = PhysicalConstants(omega=2.0, temperature=2.0)
    hf = heat_from_density(d, c2)
    assert np.allclose(hf.q_tilde().values, 0.5 * hf.Q_heat.values)


# ---------------------------------------------------------------------------
# delta S
# ---------------------------------------------------------------------------


def test_delta_s_scaling(grid):
    hf = HeatField(ScalarField(grid, grid.x**2), C)
    ds = delta_s_from_heat(hf)
    assert np.allclose(ds.values, grid.x**2 / 2)


def test_delta_s_gradient_matches_fluctuation(grid):
    d = gaussian_density(grid)
    hf = heat_from_density(d, C)
    ds = delta_s_from_heat(hf)
    grad_ds = derivative_values(ds.values, grid.dx)
    rep = fluctuation_report(d, C)
    mask = d.support_mask
    w = d.values / d.values.max()
    scale = np.max(np.abs(rep.delta_p.values))
    assert np.max((w * np.abs(grad_ds - rep.delta_p.values))[mask]) <= 1e-6 * scale


def test_delta_s_thermal_identity(grid):
    # (2/hbar) deltaS = beta * Q_heat when hbar*omega = k*T
    hf = HeatField(ScalarField(grid, grid.x**2), C)
    ds = delta_s_from_heat(hf)
    assert np.allclose(2.0 / C.hbar * ds.values, C.beta * hf.Q_heat.values)


# ---------------------------------------------------------------------------
# diffusion
# ---------------------------------------------------------------------------


def test_fick_heat_kernel():
    g = Grid(-12.0, 12.0, 6145)
    d = gaussian_density(g)
    traj = fick_diffuse(d, 0.5, 1.0, 1e-3)
    P = traj.densities[-1].values
    var = np.trapezoid(P * g.x**2, dx=g.dx)
    assert var == pytest.approx(2.0, abs=1e-3)  # sigma0^2 + 2 D t
    assert traj.mass_drift <= 1e-9


def test_fick_zero_time_is_identity():
    g = Grid(-12.0, 12.0, 2049)
    d = gaussian_density(g)
    traj = fick_diffuse(d, 0.5, 1e-3, 1e-3)
    # initial snapshot is re-normalized, hence equal only to roundoff
    assert np.max(np.abs(traj.densities[0].values - d.values)) <= 1e-14
    assert len(traj.densities) == 2


def test_fick_disjoint_bumps_conserve_mass():
    g = Grid(-16.0, 16.0, 4097)
    raw = np.exp(-((g.x - 6) ** 2) / 0.5) + np.exp(-((g.x + 6) ** 2) / 0.5)
    d = density_from_samples(g.field(raw))
    traj = fick_diffuse(d, 0.5, 0.5, 1e-3)
    assert traj.mass_drift <= 1e-9
    for dens in traj.densities[:: len(traj.densities) // 4]:
        assert dens.mass_check() == pytest.approx(1.0, abs=1e-9)


def test_fick_explicit_matches_implicit():
    g = Grid(-12.0, 12.0, 513)
    d = gaussian_density(g)
    dt = 0.4 * g.dx**2 / 0.5  # just under the explicit stability bound
    steps = 64
    imp = fick_diffuse(d, 0.5, steps * dt, dt)
    # forward-Euler reference with the same held end values
    nu = 0.5 * dt / g.dx**2
    u = d.values.copy()
    for _ in range(steps):
        u[1:-1] += nu * (u[2:] - 2.0 * u[1:-1] + u[:-2])
    exp = density_from_samples(g.field(u), truncation_check=False)
    dev = np.max(np.abs(imp.densities[-1].values - exp.values))
    assert dev <= 5e-5  # explicit stepping is first order in time


def test_heat_equation_gaussian_bump_variance():
    g = Grid(-12.0, 12.0, 6145)
    hf = HeatField(ScalarField(g, np.exp(-g.x**2 / 2)), C)
    traj = heat_equation_evolve(hf, 1.0, 1e-3)
    q = traj.fields[-1].Q_heat.values
    var = np.trapezoid(q * g.x**2, dx=g.dx) / np.trapezoid(q, dx=g.dx)
    assert var == pytest.approx(2.0, abs=1e-3)


def test_heat_equation_residual_second_order():
    def resid(n, dtinv):
        g = Grid(-16.0, 16.0, n)
        hf = HeatField(ScalarField(g, np.exp(-g.x**2 / 2)), C)
        traj = heat_equation_evolve(hf, 32.0 / dtinv, 1.0 / dtinv)
        k = len(traj) // 2
        dqdt = (
            traj.fields[k + 1].Q_heat.values - traj.fields[k - 1].Q_heat.values
        ) / (2 * traj.dt)
        lap = second_derivative_values(traj.fields[k].Q_heat.values, g.dx)
        return np.max(np.abs(lap - dqdt / traj.diffusivity)[2:-2]) / np.max(
            np.abs(lap)
        )

    assert resid(2049, 256) / resid(4097, 512) >= 3.0


def test_heat_equation_affine_invariant():
    g = Grid(-12.0, 12.0, 2049)
    hf = HeatField(ScalarField(g, 1.0 + 0.3 * g.x), C)
    traj = heat_equation_evolve(hf, 0.1, 1e-3)
    assert np.max(np.abs(traj.fields[-1].Q_heat.values - hf.Q_heat.values)) <= 1e-12


def test_heat_equation_residual():
    g = wide_grid()
    hf = HeatField(ScalarField(g, np.exp(-g.x**2 / 2)), C)
    traj = heat_equation_evolve(hf, 0.02, 1e-3)
    k = len(traj) // 2
    dqdt = (
        traj.fields[k + 1].Q_heat.values - traj.fields[k - 1].Q_heat.values
    ) / (2 * traj.dt)
    lap = second_derivative_values(traj.fields[k].Q_heat.values, g.dx)
    resid = lap - dqdt / traj.diffusivity
    assert np.max(np.abs(resid[2:-2])) <= 1e-3 * np.max(np.abs(lap))


# ---------------------------------------------------------------------------
# pointwise identities
# ---------------------------------------------------------------------------


def test_vanishing_qp_log_affine_family():
    g = Grid(-12.0, 12.0, 6145)
    for a, b in [(4.0, 0.2), (6.0, 0.3), (5.0, -0.25)]:
        q = 2.0 * C.hbar * C.omega * np.log(a + b * g.x)
        res = vanishing_qp_residual(HeatField(ScalarField(g, q), C))
        scale = np.max(np.abs(second_derivative_values(q, g.dx)))
        assert np.max(np.abs(res.values[2:-2])) <= 1e-6 * scale


def test_vanishing_qp_constant_field():
    g = Grid(-12.0, 12.0, 1025)
    res = vanishing_qp_residual(HeatField(g.field(np.full(g.n, 3.0)), C))
    assert np.max(np.abs(res.values)) == 0.0


def test_vanishing_qp_affine_counterexample():
    g = Grid(-12.0, 12.0, 1025)
    res = vanishing_qp_residual(HeatField(ScalarField(g, 0.7 * g.x), C))
    want = 0.7**2 / (2.0 * C.hbar * C.omega)
    assert np.allclose(res.values[2:-2], want, atol=1e-10)


def test_thermalized_qp_vanishes_on_heat_flow():
    g = wide_grid()
    hf = HeatField(ScalarField(g, np.exp(-g.x**2 / 2)), C)
    traj = heat_equation_evolve(hf, 0.02, 1e-3)
    field = thermalized_qp(traj, len(traj) // 2)
    scale = 0.25 * np.max(
        np.abs(second_derivative_values(traj.fields[len(traj) // 2].q_tilde().values, g.dx))
    )
    assert np.max(np.abs(field.values[2:-2])) <= 1e-3 * scale


def test_thermalized_qp_static_quadratic():
    g = Grid(-8.0, 8.0, 1025)
    field = thermalized_qp(HeatField(ScalarField(g, g.x**2), C))
    assert field.values[g.n // 2] == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(field.values[2:-2], 0.5, atol=1e-8)


def test_thermalized_qp_requires_interior_index():
    g = Grid(-8.0, 8.0, 257)
    hf = HeatField(ScalarField(g, np.exp(-g.x**2)), C)
    traj = heat_equation_evolve(hf, 0.004, 1e-3)
    with pytest.raises(ValueError):
        thermalized_qp(traj, 0)


# ---------------------------------------------------------------------------
# thermal Fisher information
# ---------------------------------------------------------------------------


def test_thermal_fisher_route_b_equals_fisher():
    g = wide_grid()
    d = gaussian_density(g, sigma=2.0)
    hf = heat_from_density(d, C)
    rep = thermal_fisher_report(d, hf, C)
    assert rep.route_b == pytest.approx(rep.fisher_direct, rel=1e-8)
    assert rep.fisher_direct == pytest.approx(0.25, abs=1e-6)


def test_thermal_fisher_static_routes_disagree():
    # alpha = beta = 1/2, Q = x^2: route A = -2*alpha*<lap Q> = -2,
    # route B = FI = 1; the mismatch is reported, not asserted away
    c = PhysicalConstants(omega=2.0, temperature=2.0)
    g = Grid(-8.0, 8.0, 4097)
    hf = HeatField(ScalarField(g, g.x**2), c)
    d, _ = density_from_heat(hf.Q_heat, c.alpha_th)
    rep = thermal_fisher_report(d, hf, c)
    assert rep.route_b == pytest.approx(1.0, abs=1e-6)
    assert rep.route_a == pytest.approx(-2.0, abs=1e-6)
    assert rep.ratio_a_over_b == pytest.approx(-2.0, abs=1e-5)


def test_thermal_fisher_uniform_is_zero():
    g = Grid(0.0, 1.0, 513)
    hf = HeatField(g.field(np.full(g.n, 1.3)), C)
    d, _ = density_from_heat(hf.Q_heat, C.alpha_th, truncation_check=False)
    assert thermal_fisher_report(d, hf, C).route_b == pytest.approx(0.0, abs=1e-12)


def test_thermal_fisher_rejects_decoupled_inputs(grid):
    d = gaussian_density(grid)
    hf = HeatField(ScalarField(grid, np.abs(grid.x)), C)  # wrong profile
    with pytest.raises(DecoupledInputs):
        thermal_fisher_report(d, hf, C)


# ---------------------------------------------------------------------------
# chains and coherence
# ---------------------------------------------------------------------------


def test_coupled_evolution_short_horizon():
    g = wide_grid()
    d = gaussian_density(g, sigma=2.0)
    assert _coupled_run(d, heat_from_density(d, C), C, 0.01, 1e-3)[0] <= 2e-3


def test_coupling_deviation_detects_mismatch(grid):
    d = gaussian_density(grid)
    hf_good = heat_from_density(d, C)
    assert coupling_deviation(d, hf_good, C) <= 1e-12
    hf_bad = HeatField(ScalarField(grid, grid.x**2 / 3), C)
    assert coupling_deviation(d, hf_bad, C) > 1e-2


def test_coherence_suite_all_pass():
    g = wide_grid()
    d = gaussian_density(g, sigma=2.0)
    hf = heat_from_density(d, C)
    report = coherence_suite(hf, C)
    assert report.all_passed
    names = {item.name for item in report.items}
    assert names == {
        "ratio-law-evolution",
        "heat-action-link",
        "fluctuation-chain",
        "kinetic-excess",
        "gibbs-form-slope",
    }


def test_coherence_kinetic_excess_closed_form():
    # Q = x^2 with natural constants: both kinetic-excess forms are x^2/2
    g = wide_grid()
    hf = HeatField(ScalarField(g, g.x**2 / 4), C)
    report = coherence_suite(hf, C)
    assert report.item("kinetic-excess").lhs <= 1e-10


def test_coherence_requires_thermal_equality():
    g = wide_grid()
    hf = HeatField(ScalarField(g, g.x**2 / 4), PhysicalConstants(omega=3.0))
    with pytest.raises(ValueError):
        coherence_suite(hf, PhysicalConstants(omega=3.0))


# ---------------------------------------------------------------------------
# Gibbs-side formulas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,gamma", [(2.0, 0.5), (1.0, 4.0)])
def test_gibbs_formulas(k, gamma):
    g = Grid(-8.0, 8.0, 8193)
    E = ScalarField(g, k * g.x**2 / 2)
    chk = gibbs_formula_check(E, gamma, C)
    assert chk.qp_maxdev <= 1e-6
    assert chk.fisher_direct == pytest.approx(gamma * k, rel=1e-6)
    assert chk.fisher_energy_route == pytest.approx(gamma * k, rel=1e-6)


# ---------------------------------------------------------------------------
# factor-once stepping and streamed flows
# ---------------------------------------------------------------------------


def test_factored_heat_stepper_matches_solve_banded():
    # every step solves the reference fixed-end Crank-Nicolson system to a
    # normwise backward error of at most 4 eps; the end values -1.5 and 1.5
    # are far from 0, so a step that loses the fold fails
    g = Grid(-12.0, 12.0, 2049)
    hf = HeatField(ScalarField(g, np.exp(-g.x**2 / 2) + g.x / 8), C)
    dt, steps = 1e-3, 64
    traj = heat_equation_evolve(hf, steps * dt, dt)
    c = 0.5 * C.diffusivity * dt / g.dx**2
    ab = np.zeros((3, g.n - 2))
    ab[0, 1:] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[2, :-1] = -c
    assert traj.kept == tuple(range(steps + 1))
    for before, after in zip(traj.fields, traj.fields[1:]):
        u, u_next = before.Q_heat.values, after.Q_heat.values
        assert (u_next[0], u_next[-1]) == (u[0], u[-1])
        rhs = (1.0 - 2.0 * c) * u[1:-1] + c * (u[2:] + u[:-2])
        rhs[0] += c * u[0]
        rhs[-1] += c * u[-1]
        assert cn_backward_error(ab, u_next[1:-1], rhs) <= 4 * np.finfo(float).eps


def test_coupled_deviation_uses_caller_constants():
    # hbar*omega = k*T = 2 with D = hbar/2m = 1/4: the lockstep reduction
    # must equal the materialized flows under the same constants
    c = PhysicalConstants(mass=2.0, omega=2.0, temperature=2.0)
    assert c.is_thermal_equilibrium
    g = wide_grid()
    d = gaussian_density(g, sigma=2.0)
    dev = _coupled_run(d, heat_from_density(d, c), c, 0.01, 1e-3)[0]
    fick = fick_diffuse(d, c.diffusivity, 0.01, 1e-3)
    heat = heat_equation_evolve(heat_from_density(d, c), 0.01, 1e-3)
    ref = max(coupling_deviation(p, h, c) for p, h in zip(fick.densities, heat.fields))
    assert dev == ref
    assert dev != _coupled_run(d, heat_from_density(d, C), C, 0.01, 1e-3)[0]


def test_coherence_lockstep_matches_materialized_flows():
    c = PhysicalConstants(mass=2.0, omega=2.0, temperature=2.0)
    g = wide_grid()
    hf = HeatField(ScalarField(g, g.x**2 / 4), c)
    report = coherence_suite(hf, c, evolve_horizon=0.01, evolve_dt=1e-3, keep=(4, 5, 6))
    density, _ = density_from_heat(hf.Q_heat, c.alpha_th, truncation_check=False)
    fick = fick_diffuse(density, c.diffusivity, 0.01, 1e-3)
    heat = heat_equation_evolve(hf, 0.01, 1e-3)
    ref = max(coupling_deviation(p, h, c) for p, h in zip(fick.densities, heat.fields))
    assert report.item("ratio-law-evolution").lhs == ref
    assert report.heat.kept == (4, 5, 6, 10) and len(report.heat) == len(heat) == 11
    for k in report.heat.kept:
        assert np.array_equal(report.heat.field(k).Q_heat.values,
                              heat.field(k).Q_heat.values)
    assert np.array_equal(thermalized_qp(report.heat, 5).values,
                          thermalized_qp(heat, 5).values)
    with pytest.raises(ValueError, match="not kept"):
        thermalized_qp(report.heat, 2)


# ---------------------------------------------------------------------------
# lockstep guards and validation against the materialized flows
# ---------------------------------------------------------------------------


def heat_contact_step(hf, dt, steps):
    """First step at which the heat wall guard, evaluated on the full second
    derivative of a from-scratch banded Crank-Nicolson flow, trips."""
    g, D = hf.grid, hf.constants.diffusivity
    c = 0.5 * D * dt / g.dx**2
    ab = np.zeros((3, g.n - 2))
    ab[0, 1:] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[2, :-1] = -c
    u = hf.Q_heat.values.copy()
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


def test_lockstep_flows_keep_their_own_diffusivity():
    # Fick steps with the suite's constants (D = 1/4), heat with the heat
    # field's (D = 1/2): two factorizations, each equal to its own flow
    c = PhysicalConstants(mass=2.0, omega=2.0, temperature=2.0)
    g = Grid(-8.0, 8.0, 1025)
    hf = HeatField(ScalarField(g, g.x**2), C)
    report = coherence_suite(hf, c, evolve_horizon=0.01, evolve_dt=1e-3)
    density, _ = density_from_heat(hf.Q_heat, c.alpha_th, truncation_check=False)
    fick = fick_diffuse(density, c.diffusivity, 0.01, 1e-3)
    heat = heat_equation_evolve(hf, 0.01, 1e-3)
    ref = max(coupling_deviation(p, h, c) for p, h in zip(fick.densities, heat.fields))
    assert report.item("ratio-law-evolution").lhs == ref
    assert np.array_equal(report.heat.field(10).Q_heat.values, heat.field(10).Q_heat.values)


def test_fick_contact_same_step_in_lockstep():
    g = Grid(-4.0, 4.0, 129)
    hf = HeatField(ScalarField(g, 2.0 * g.x**2), C)
    density, _ = density_from_heat(hf.Q_heat, C.alpha_th, truncation_check=False)
    dt, k = 1e-2, 9
    fick_diffuse(density, C.diffusivity, (k - 1) * dt, dt)
    coherence_suite(hf, C, evolve_horizon=(k - 1) * dt, evolve_dt=dt)
    with pytest.raises(BoundaryContact, match="diffusing density reached the wall"):
        fick_diffuse(density, C.diffusivity, k * dt, dt)
    with pytest.raises(BoundaryContact, match="diffusing density reached the wall"):
        coherence_suite(hf, C, evolve_horizon=k * dt, evolve_dt=dt)


def test_heat_contact_after_step_zero_same_step_as_full_guard():
    # a narrow bump next to the right wall: its curvature arrives there at
    # step 19, well after step 0
    g = Grid(-8.0, 8.0, 513)
    hf = HeatField(ScalarField(g, g.x**2 / 2 + 10.0 * np.exp(-((g.x - 7.5) / 0.1) ** 2)), C)
    dt = 1e-3
    k = heat_contact_step(hf, dt, 40)
    assert k == 19
    heat_equation_evolve(hf, (k - 1) * dt, dt)
    coherence_suite(hf, C, evolve_horizon=(k - 1) * dt, evolve_dt=dt)
    with pytest.raises(BoundaryContact, match="heat-field curvature reached the wall"):
        heat_equation_evolve(hf, k * dt, dt)
    with pytest.raises(BoundaryContact, match="heat-field curvature reached the wall"):
        coherence_suite(hf, C, evolve_horizon=k * dt, evolve_dt=dt)


def test_overflowing_heat_flow_raises_like_materialized_flow():
    # finite input whose first heat step overflows to a non-finite field
    g = Grid(-8.0, 8.0, 257)
    hf = HeatField(ScalarField(g, 2.5e306 * g.x**2), C)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="field values must be finite"):
            heat_equation_evolve(hf, 4e-3, 1e-3)
        with pytest.raises(ValueError, match="field values must be finite"):
            coherence_suite(hf, C, evolve_horizon=4e-3, evolve_dt=1e-3)


def test_gibbs_form_slope_refuses_one_point_support():
    g = Grid(-8.0, 8.0, 257)
    hf = HeatField(ScalarField(g, 1e306 * g.x**2), C)
    with pytest.raises(DegenerateSupport, match="support has 1"):
        coherence_suite(hf, C)


@settings(max_examples=50, deadline=None)
@given(
    n=st.sampled_from([129, 257, 513, 1025]),
    steps=st.integers(1, 20),
    dt=st.sampled_from([1e-4, 5e-4, 1e-3]),
    weight=st.floats(0.05, 1.0),
    centers=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    widths=st.tuples(st.floats(0.3, 0.8), st.floats(0.3, 0.8)),
)
def test_lockstep_deviation_equals_materialized_flows(n, steps, dt, weight, centers, widths):
    g = Grid(-8.0, 8.0, n)
    raw = sum(a * np.exp(-((g.x - c) ** 2) / (2.0 * s**2))
              for a, c, s in zip((1.0, weight), centers, widths))
    d = density_from_samples(g.field(raw))
    fick = fick_diffuse(d, C.diffusivity, steps * dt, dt)
    heat = heat_equation_evolve(heat_from_density(d, C), steps * dt, dt)
    ref = max(coupling_deviation(p, h, C) for p, h in zip(fick.densities, heat.fields))
    assert _coupled_run(d, heat_from_density(d, C), C, steps * dt, dt)[0] == ref
