"""Acceptance suite: one test per criterion, each printing a verdict line.

Grids default to n = 4097 on [-8, 8]; a criterion states its grid when it
needs a different one (finer for quadrature-limited identities, wider for
diffusive horizons), and the stationary dynamics use the discrete ground
state, which is the stationary object of the discrete evolution.
"""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from fisherqp import (
    ConstraintSpec,
    Grid,
    PhysicalConstants,
    QPForm,
    continuity_residual,
    density_from_heat,
    density_from_samples,
    entropy_rate_check,
    epi_solve,
    evolve,
    fisher_information,
    gibbs_density,
    hj_residual,
    maxent_solve,
    mean_quantum_potential,
    momentum_fluctuation,
    osmotic_entropy_rate,
    quantum_potential,
    riccati_check,
    sweep,
    thermalized_qp,
    vanishing_qp_residual,
    verify_euler,
    verify_legendre,
)
from fisherqp.functionals import masked_quadrature, weighted_max_dev
from fisherqp.grid import ScalarField, second_derivative_values
from fisherqp.suites import identities_suite, thermal_suite
from fisherqp.thermal import coupled_run

from conftest import (checks_by_name, diffusion_flow, gaussian_density, madelung_psi,
                      mixture_density, note_value)

C = PhysicalConstants()


def verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {label}: {status}  {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def mixtures():
    g = Grid(-8.0, 8.0, 8193)
    rng = np.random.default_rng(2024)
    return g, [mixture_density(g, rng) for _ in range(50)]


def test_criterion_01_qp_form_equivalence(mixtures):
    g, densities = mixtures
    worst = 0.0
    for d in densities:
        ref = quantum_potential(d, C, QPForm.SQRT).values
        scale = np.max(np.abs(ref))
        for form in (QPForm.GRAD, QPForm.FLUCT):
            q = quantum_potential(d, C, form).values
            worst = max(worst, weighted_max_dev(q, ref, d) / scale)
    verdict(1, "qp-four-form-equivalence", worst <= 1e-5,
            f"worst normalized deviation {worst:.3e} <= 1e-5")


def test_criterion_02_mean_qp_equals_fisher(mixtures):
    g, densities = mixtures
    worst = 0.0
    for d in densities:
        lhs = mean_quantum_potential(d, C)
        rhs = fisher_information(d) / 8.0
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    std = gaussian_density(Grid(-8.0, 8.0, 4097))
    value = mean_quantum_potential(std, C)
    ok = worst <= 1e-6 and abs(value - 0.125) <= 1e-6
    verdict(2, "mean-qp-equals-fisher", ok,
            f"worst rel err {worst:.3e} <= 1e-6; standard normal {value:.9f}")


def test_criterion_03_fluctuation_moments(mixtures):
    g, densities = mixtures
    worst_mean, worst_second = 0.0, 0.0
    for d in densities:
        checks = checks_by_name(identities_suite(d, C, None))
        worst_mean = max(worst_mean, abs(checks["fluctuation-mean-zero"].lhs))
        delta_p = momentum_fluctuation(d, C)
        second = masked_quadrature(d.values * delta_p**2, d.support_mask, g.dx)
        ref = C.hbar**2 / 4.0 * fisher_information(d)
        worst_second = max(worst_second, abs(second - ref) / ref)
    ok = worst_mean <= 1e-8 and worst_second <= 1e-6
    verdict(3, "fluctuation-moments", ok,
            f"|<dp>| {worst_mean:.3e} <= 1e-8; second-moment rel {worst_second:.3e} <= 1e-6")


def test_criterion_04_epi_harmonic_family():
    g = Grid(-8.0, 8.0, 4097)
    res = epi_solve(
        ConstraintSpec(A_fields=[g.from_function(lambda x: x * x)],
                       multipliers=[-4.0]),
        g,
    )
    closed = np.exp(-g.x**2) / np.sqrt(np.pi)
    dev = np.max(np.abs(res.p_I.values - closed))
    ric = riccati_check(res)
    ok = (
        abs(res.alpha_norm - 4.0) <= 1e-3
        and abs(res.fisher_I - 2.0) <= 1e-3
        and dev <= 1e-4
        and ric <= 1e-3
    )
    verdict(4, "epi-harmonic-family", ok,
            f"alpha_norm {res.alpha_norm:.6f}, FI {res.fisher_I:.6f}, "
            f"density dev {dev:.2e}, riccati {ric:.2e}")


def test_criterion_05_legendre_suite():
    g = Grid(-8.0, 8.0, 4097)
    a = g.from_function(lambda x: x * x)

    base = sweep(a, [-1.0, -2.0, -4.0, -8.0], g)
    closed_ok = all(
        abs(r.I - np.sqrt(-r.lam)) <= 1e-3
        and abs(r.meanA - (-r.lam) ** -0.5) <= 1e-3
        and abs(r.Lambda_pot - 2 * np.sqrt(-r.lam)) <= 2e-3
        for r in base.records
    )

    refined = sweep(a, list(-np.exp(np.linspace(0, np.log(8), 7))), g)
    finest = sweep(a, list(-np.exp(np.linspace(0, np.log(8), 13))), g)
    euler = max(verify_euler(base), verify_euler(refined), verify_euler(finest))
    rep_mid = verify_legendre(refined)
    rep_fine = verify_legendre(finest)
    relations_ok = (
        rep_fine.dLambda_dlam_vs_negmeanA <= 2e-2
        and rep_fine.dI_dmeanA_vs_lambda <= 2e-2
        and rep_fine.reciprocity_d2I <= 2e-2
        and rep_fine.reciprocity_d2Lambda <= 2e-2
    )
    # halving the log-spacing shrinks differencing-limited residuals >= 3x;
    # dI/d<A> already sits at the eigensolver floor far below tolerance
    shrink_ok = (
        rep_mid.dLambda_dlam_vs_negmeanA / rep_fine.dLambda_dlam_vs_negmeanA >= 3.0
        and rep_mid.reciprocity_d2I / rep_fine.reciprocity_d2I >= 3.0
        and rep_mid.reciprocity_d2Lambda / rep_fine.reciprocity_d2Lambda >= 3.0
        and rep_fine.dI_dmeanA_vs_lambda <= 1e-4
    )
    ok = closed_ok and euler <= 1e-2 and relations_ok and shrink_ok
    verdict(5, "legendre-suite", ok,
            f"euler {euler:.2e} <= 1e-2; relations max {rep_fine.dLambda_dlam_vs_negmeanA:.2e}/"
            f"{rep_fine.dI_dmeanA_vs_lambda:.2e}/{rep_fine.reciprocity_d2I:.2e}/"
            f"{rep_fine.reciprocity_d2Lambda:.2e} <= 2e-2; shrink >= 3x")


def test_criterion_06_maxent():
    g = Grid(-8.0, 8.0, 4097)
    density, alpha, _ = maxent_solve(g.from_function(lambda x: x * x), 1.0)
    closed = np.exp(-g.x**2 / 2) / np.sqrt(2 * np.pi)
    dev = np.max(np.abs(density.values - closed))
    ok = abs(alpha - 0.5) <= 1e-6 and dev <= 1e-8
    verdict(6, "maxent-standard-normal", ok,
            f"alpha_gibbs {alpha:.9f} (0.5 +- 1e-6); max density dev {dev:.2e} <= 1e-8")


def test_criterion_07_gibbs_formulas():
    g = Grid(-8.0, 8.0, 8193)
    k, gamma = 2.0, 0.5
    energy = ScalarField(g, k * g.x**2 / 2)
    density, _ = gibbs_density(energy, gamma)
    checks = checks_by_name(identities_suite(density, C, (energy, gamma)))
    fisher = checks["gibbs-fisher-formula"]  # lhs direct, rhs energy route
    qp_dev = checks["gibbs-qp-formula"].lhs
    ok = (
        abs(fisher.lhs - gamma * k) <= 1e-6
        and abs(fisher.rhs - gamma * k) <= 1e-6
        and qp_dev <= 1e-6
    )
    verdict(7, "gibbs-formulas", ok,
            f"FI direct {fisher.lhs:.8f}, energy route "
            f"{fisher.rhs:.8f} (= gamma*k = {gamma * k}); "
            f"Q deviation {qp_dev:.2e} <= 1e-6")


def _free_gaussian(xmax, n, dtinv, T=1.0):
    """The Madelung window at the middle step of a free Gaussian's flow to T."""
    g = Grid(-xmax, xmax, n)
    steps = int(T * dtinv)
    return evolve(madelung_psi(gaussian_density(g)), g.zeros(), C, 1.0 / dtinv, steps,
                  steps // 2)


def _stationary(n=4097):
    g = Grid(-8.0, 8.0, n)
    V = 0.5 * g.x**2
    kin = 1.0 / (2.0 * g.dx**2)
    _, vecs = eigh_tridiagonal(2 * kin + V[1:-1], -kin * np.ones(g.n - 3),
                               select="i", select_range=(0, 0))
    psi = np.zeros(g.n)
    psi[1:-1] = np.abs(vecs[:, 0])
    psi /= np.sqrt(np.trapezoid(psi**2, dx=g.dx))
    d = density_from_samples(ScalarField(g, psi**2), truncation_check=False)
    return evolve(madelung_psi(d), ScalarField(g, V), C, 1.0 / 1024, 64, 32)


def test_criterion_08_dynamics():
    # contract point: dx = 1/256, dt = 1/1024 on [-8, 8]
    window = _free_gaussian(8.0, 4097, 1024)  # at the middle step, 512
    r_cont = continuity_residual(window)
    r_hj = hj_residual(window)
    lhs, rhs = entropy_rate_check(window)
    r_ent = abs(lhs - rhs) / (abs(lhs) + abs(rhs))
    contract_ok = max(r_cont, r_hj, r_ent) <= 1e-3

    # second-order convergence, on the wide domain where truncation error
    # dominates the wall-seeded noise floor
    w_c, w_f = _free_gaussian(10.0, 5121, 1024), _free_gaussian(10.0, 10241, 2048)
    ratio_cont = continuity_residual(w_c) / continuity_residual(w_f)
    lc, lf = entropy_rate_check(w_c), entropy_rate_check(w_f)
    ratio_ent = (abs(lc[0] - lc[1]) / (abs(lc[0]) + abs(lc[1]))) / (
        abs(lf[0] - lf[1]) / (abs(lf[0]) + abs(lf[1]))
    )

    def coherent_hj(n, dtinv):
        g = Grid(-10.0, 10.0, n)
        d = density_from_samples(g.from_function(lambda x: np.exp(-((x - 1) ** 2))))
        return hj_residual(evolve(madelung_psi(d), g.from_function(lambda x: 0.5 * x**2), C,
                                  1.0 / dtinv, dtinv, dtinv // 2))

    ratio_hj = coherent_hj(5121, 1024) / coherent_hj(10241, 2048)
    conv_ok = min(ratio_cont, ratio_ent, ratio_hj) >= 3.5

    w_stat = _stationary()
    s_cont = continuity_residual(w_stat)
    s_hj = hj_residual(w_stat)
    s_lhs, s_rhs = entropy_rate_check(w_stat)
    stat_ok = max(s_cont, s_hj, abs(s_lhs), abs(s_rhs)) <= 1e-7

    ok = contract_ok and conv_ok and stat_ok
    verdict(8, "schroedinger-dynamics", ok,
            f"free residuals {r_cont:.2e}/{r_hj:.2e}/{r_ent:.2e} <= 1e-3; "
            f"convergence x{ratio_cont:.1f}/x{ratio_hj:.1f}/x{ratio_ent:.1f} >= 3.5; "
            f"stationary {max(s_cont, s_hj):.2e} <= 1e-7")


def test_criterion_09_osmotic_entropy_production():
    d = gaussian_density(Grid(-8.0, 8.0, 4097))
    rate = osmotic_entropy_rate(d, C)
    ref = 0.5 * fisher_information(d)
    ok = rate >= 0.0 and abs(rate - ref) / ref <= 1e-6
    verdict(9, "osmotic-entropy-production", ok,
            f"rate {rate:.8f} = (hbar/2m) FI = {ref:.8f} (rel "
            f"{abs(rate - ref) / ref:.2e}), nonnegative")


def test_criterion_10_thermal_suite():
    D = C.diffusivity
    g12 = Grid(-12.0, 12.0, 6145)
    fick = diffusion_flow(gaussian_density(g12).values, g12.dx, D, 1000, 1e-3)
    p_end = density_from_samples(ScalarField(g12, fick[-1]), truncation_check=False).values
    var_fick = np.trapezoid(p_end * g12.x**2, dx=g12.dx)
    fick_ok = abs(var_fick - (1.0 + 2 * D)) <= 1e-3

    q_end = diffusion_flow(np.exp(-g12.x**2 / 2), g12.dx, D, 1000, 1e-3)[-1]
    var_heat = np.trapezoid(q_end * g12.x**2, dx=g12.dx) / np.trapezoid(
        q_end, dx=g12.dx
    )
    heat_ok = abs(var_heat - (1.0 + 2 * D)) <= 1e-3

    g16 = Grid(-16.0, 16.0, 8193)
    heat = ScalarField(g16, g16.x**2 / 8)  # the heat field of a sigma = 2 Gaussian
    wide, _ = density_from_heat(heat, C.alpha_th)
    _, short = coupled_run(wide, heat, C, 0.004, 1e-3)  # steps 1, 2 and 3
    thq = thermalized_qp(*short, 1e-3, C)
    scale = 0.25 * np.max(np.abs(
        second_derivative_values(C.alpha_th * short[1].values, g16.dx)
    ))
    weight = wide.values / np.max(wide.values)
    thq_ok = np.max(weight[2:-2] * np.abs(thq.values[2:-2])) <= 1e-3 * scale

    qv = 2.0 * np.log(4.0 + 0.2 * g12.x)
    res = vanishing_qp_residual(ScalarField(g12, qv), C)
    lap_scale = np.max(np.abs(second_derivative_values(qv, g12.dx)))
    family_ok = np.max(np.abs(res.values[2:-2])) <= 1e-6 * lap_scale

    coherence = list(thermal_suite(heat, wide, C, 0.004, 1e-3))
    coherence_ok = all(i.passed for i in coherence)
    tf = checks_by_name(coherence)["thermal-fisher-route-b"]
    route_b_rel = abs(tf.lhs - tf.rhs) / tf.rhs  # lhs route B, rhs FI
    routeb_ok = route_b_rel <= 1e-8
    ok = fick_ok and heat_ok and thq_ok and routeb_ok and family_ok and coherence_ok
    verdict(10, "thermal-suite", ok,
            f"variance {var_fick:.6f}/{var_heat:.6f} (want 2.0); thermalized-QP ok "
            f"{thq_ok}; route-B rel {route_b_rel:.1e}; "
            f"vanishing family ok {family_ok}; coherence items "
            f"{[i.passed for i in coherence]}")


def test_criterion_11_discrepancy_ledger():
    g = Grid(-8.0, 8.0, 4097)
    d = gaussian_density(g)
    checks = checks_by_name(identities_suite(d, C, None))
    # the thermal run on the Gaussian's heat field x^2/2
    heat = ScalarField(g, g.x**2 / 2)
    coupled, _ = density_from_heat(heat, C.alpha_th)
    thermal = checks_by_name(thermal_suite(heat, coupled, C, 0.004, 1e-3))
    # measured ratios recorded in the notes: implemented sign is opposite
    # the printed one, and route A lands at -2x route B on the static
    # Gaussian pair
    sign_ratio = note_value(checks["mean-QP-equals-FI"], "measured ratio")
    route_ratio = note_value(thermal["thermal-fisher-route-b"], "measured ratio A/B =")
    ok = (
        sign_ratio == pytest.approx(-1.0, abs=1e-5)
        and route_ratio == pytest.approx(-2.0, abs=1e-5)
    )
    verdict(11, "discrepancy-ledger", ok,
            f"sign ratio {sign_ratio:+.6f}, "
            f"thermal route ratio {route_ratio:+.6f}")
