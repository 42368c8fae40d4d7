import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from fisherqp import (
    BoundaryContact,
    Grid,
    PhysicalConstants,
    continuity_residual,
    density_from_samples,
    entropy_rate_check,
    evolve,
    fisher_information,
    hj_residual,
    madelung_window,
    osmotic_entropy_rate,
)
from fisherqp.grid import ScalarField, crank_nicolson_flow, quadrature_values
from fisherqp.propagator import BOUNDARY_THRESHOLD, psi_density

from conftest import (cn_backward_error, every_step, gaussian_density, madelung_psi,
                      reduction_depth)

C = PhysicalConstants()


def free_gaussian(xmax=8.0, n=4097, dtinv=1024, T=1.0, each=None):
    """The Madelung window at the middle step of a free Gaussian's flow to
    T, each step passed to ``each``."""
    g = Grid(-xmax, xmax, n)
    steps = int(T * dtinv)
    return evolve(madelung_psi(gaussian_density(g)), g.zeros(), C, 1.0 / dtinv, steps,
                  steps // 2, each)


def discrete_ho_ground_state(g):
    """Ground eigenvector of the same tridiagonal Hamiltonian the stepper
    uses, i.e. the exactly stationary state of the discrete dynamics."""
    V = 0.5 * g.x**2
    kin = 1.0 / (2.0 * g.dx**2)
    _, vecs = eigh_tridiagonal(
        2.0 * kin + V[1:-1], -kin * np.ones(g.n - 3), select="i", select_range=(0, 0)
    )
    psi = np.zeros(g.n)
    psi[1:-1] = vecs[:, 0]
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    psi /= np.sqrt(np.trapezoid(psi**2, dx=g.dx))
    d = density_from_samples(ScalarField(g, psi**2), truncation_check=False)
    return madelung_psi(d), ScalarField(g, V)


def stationary_window(n=4097, dtinv=1024, steps=64):
    g = Grid(-8.0, 8.0, n)
    psi0, V = discrete_ho_ground_state(g)
    return evolve(psi0, V, C, 1.0 / dtinv, steps, steps // 2)


def raw_norm(psi, dx):
    """The trapezoid quadrature of the raw |psi|^2 (the walls are 0, so a
    sum)."""
    return np.sum(np.abs(psi) ** 2) * dx


def test_unitarity():
    norms = []
    free_gaussian(T=0.25, each=lambda k, psi: norms.append(raw_norm(psi, 16.0 / 4096)))
    assert np.max(np.abs(np.array(norms) - 1.0)) <= 1e-12


def test_ho_ground_state_density_invariant():
    # analytic Gaussian in the harmonic trap: density static over t in [0, 5]
    g = Grid(-8.0, 8.0, 16385)
    d = density_from_samples(g.from_function(lambda x: np.exp(-(x**2))))
    V = g.from_function(lambda x: 0.5 * x**2)
    drift = 0.0

    def watch(k, psi):
        nonlocal drift
        drift = max(drift, np.max(np.abs(psi_density(psi, g).values - d.values)))

    evolve(madelung_psi(d), V, C, 1.0 / 1024, 5 * 1024, 5 * 512, watch)
    assert drift <= 1e-7


def test_free_gaussian_dispersion():
    g = Grid(-8.0, 8.0, 4097)
    end = {}
    free_gaussian(each=lambda k, psi: end.update(psi=psi.copy()))
    P = psi_density(end["psi"], g).values
    var = np.trapezoid(P * g.x**2, dx=g.dx) - np.trapezoid(P * g.x, dx=g.dx) ** 2
    assert var == pytest.approx(1.25, abs=1e-4)  # sigma0^2 (1 + (t/2)^2)


def test_potential_shift_is_pure_gauge():
    g = Grid(-10.0, 10.0, 2561)
    psi0 = madelung_psi(gaussian_density(g))
    V = g.from_function(lambda x: 0.5 * x**2)
    Vc = ScalarField(g, V.values + 1.0)
    _, t1 = every_step(partial(evolve, psi0, V, C, 1.0 / 2048, 128, 64))
    _, t2 = every_step(partial(evolve, psi0, Vc, C, 1.0 / 2048, 128, 64))
    dev = max(
        np.max(np.abs(psi_density(a, g).values - psi_density(b, g).values))
        for a, b in zip(t1, t2, strict=True)
    )
    assert dev <= 1e-9


def test_potential_shift_leaves_hj_residual_unchanged():
    # the phase rate absorbs -c*t, so the residual is gauge-invariant
    g = Grid(-10.0, 10.0, 2561)
    psi0 = madelung_psi(gaussian_density(g))
    V = g.from_function(lambda x: 0.5 * x**2)
    Vc = ScalarField(g, V.values + 1.0)
    r1 = hj_residual(evolve(psi0, V, C, 1.0 / 2048, 128, 64))
    r2 = hj_residual(evolve(psi0, Vc, C, 1.0 / 2048, 128, 64))
    # both sit at the stationary-state noise floor; the shift adds nothing
    assert abs(r2 - r1) <= 1e-8


def test_time_reversal():
    g = Grid(-10.0, 10.0, 2561)
    _, forth = every_step(partial(evolve, madelung_psi(gaussian_density(g)), g.zeros(), C,
                                  1.0 / 512, 128, 64))
    _, back = every_step(partial(evolve, forth[-1], g.zeros(), C, -1.0 / 512, 128, 64))
    assert np.max(np.abs(back[-1] - forth[0])) <= 1e-8
    for dt in (1.0 / 512, -1.0 / 512):
        ab, _ = cn_system(g, g.zeros(), dt)
        assert reduction_depth(ab[1], ab[0, 1:]) == 2


def first_wall_contact(psi0, V, dt, steps):
    """(step, message) of the first step at which the wall test, run on
    all of |psi|^2 at every step of the same flow ``evolve`` iterates,
    trips; None when no step does."""
    g = V.grid
    psi = np.asarray(psi0).astype(complex)
    psi[0] = psi[-1] = 0.0
    psi /= np.sqrt(quadrature_values(np.abs(psi) ** 2, g.dx))
    kin = C.hbar**2 / (2.0 * C.mass * g.dx * g.dx)
    z = 1j * dt / (2.0 * C.hbar)
    flow = crank_nicolson_flow(psi, 1.0 + z * (2.0 * kin + V.values[1:-1]), z * -kin, steps)
    for k, u in enumerate(flow):
        p = np.abs(u) ** 2
        edge = max(p[1], p[-2])
        if edge > BOUNDARY_THRESHOLD * p.max():
            return k, f"wave packet reached the wall (relative edge density {edge:.3e})"
    return None


def test_boundary_contact_at_step_zero():
    # exp(-x^2) on [-4, 4] starts with a relative edge density of 1.2e-7,
    # above the threshold: the start itself is refused, whatever its momentum
    g = Grid(-4.0, 4.0, 1025)
    d = density_from_samples(
        g.from_function(lambda x: np.exp(-(x**2))), truncation_check=False
    )
    psi0 = madelung_psi(d, 3.0 * g.x)  # momentum 3
    step, message = first_wall_contact(psi0, g.zeros(), 1.0 / 512, 512)
    assert step == 0
    with pytest.raises(BoundaryContact) as raised:
        evolve(psi0, g.zeros(), C, 1.0 / 512, 2, 1)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "center, width, momentum, contact",
    [(0.0, 1.0, 3.0, 419),   # a moving packet runs into the wall
     (6.4, 0.1, 0.0, 28)],   # a narrow packet at rest spreads into it
    ids=["moving", "near-wall"],
)
def test_boundary_contact_at_the_step_the_full_test_finds(center, width, momentum, contact):
    g = Grid(-8.0, 8.0, 2049)
    psi0 = wall_packet(g, center, width, momentum)
    step, message = first_wall_contact(psi0, g.zeros(), 1.0 / 512, 1024)
    assert step == contact
    with pytest.raises(BoundaryContact) as raised:
        evolve(psi0, g.zeros(), C, 1.0 / 512, step, 1)
    assert str(raised.value) == message
    evolve(psi0, g.zeros(), C, 1.0 / 512, step - 1, 1)


def wall_packet(g, center, width, momentum):
    """psi0 of a Gaussian packet exp(-(x - center)^2 / width) with the
    given momentum."""
    d = density_from_samples(
        g.from_function(lambda x: np.exp(-((x - center) ** 2) / width)), truncation_check=False
    )
    return madelung_psi(d, momentum * g.x)


def test_each_sees_every_step_once_in_order():
    g = Grid(-10.0, 10.0, 513)
    seen = []
    evolve(madelung_psi(gaussian_density(g)), g.zeros(), C, 1.0 / 512, 32, 16,
           lambda k, psi: seen.append(k))
    assert seen == list(range(33))


def test_each_sees_no_step_past_the_wall_contact():
    # the moving packet reaches the wall at step 419: the guard of that
    # step raises before its reader call
    g = Grid(-8.0, 8.0, 2049)
    seen = []
    with pytest.raises(BoundaryContact):
        evolve(wall_packet(g, 0.0, 1.0, 3.0), g.zeros(), C, 1.0 / 512, 1024, 512,
               lambda k, psi: seen.append(k))
    assert seen == list(range(419))


def traced_peak(steps, psi0, V):
    """Peak bytes traced by tracemalloc over one ``evolve`` of ``steps``
    steps from ``psi0``."""
    tracemalloc.start()
    try:
        evolve(psi0, V, C, 1.0 / 1024, steps, steps // 2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evolve_memory_does_not_grow_with_steps():
    # a run holds its flow's buffers and the three window copies, whatever
    # its length: keeping every step of the long run would add ~31 MB
    g = Grid(-8.0, 8.0, 4097)
    psi0, V = madelung_psi(gaussian_density(g)), g.zeros()
    traced_peak(32, psi0, V)  # loads the solver before anything is traced
    assert traced_peak(512, psi0, V) - traced_peak(32, psi0, V) <= 2**20


def test_energy_conservation_1000_steps():
    g = Grid(-10.0, 10.0, 2049)
    V = g.from_function(lambda x: 0.5 * x**2)
    # <H> of the discrete Hamiltonian the stepper inverts, walls pinned
    kin = C.hbar**2 / (2.0 * C.mass * g.dx**2)
    energies = {}

    def energy(k, psi):
        if k % 250 == 0:
            h_psi = (2.0 * kin + V.values) * psi
            h_psi[:-1] -= kin * psi[1:]
            h_psi[1:] -= kin * psi[:-1]
            h_psi[0] = h_psi[-1] = 0.0
            energies[k] = quadrature_values((np.conj(psi) * h_psi).real, g.dx)

    evolve(madelung_psi(gaussian_density(g)), V, C, 1.0 / 1024, 1000, 500, energy)
    e0 = energies[0]
    drift = max(abs(energies[k] - e0) for k in (250, 500, 750, 1000))
    assert drift / abs(e0) <= 1e-8


def test_free_gaussian_residuals_at_contract_resolution():
    # dx = 1/256, dt = 1/1024 on [-8, 8]
    window = free_gaussian()  # at step 512
    assert continuity_residual(window) <= 1e-3
    assert hj_residual(window) <= 1e-3
    lhs, rhs = entropy_rate_check(window)
    assert lhs > 0 and rhs > 0  # spreading packet produces entropy
    assert abs(lhs - rhs) <= 1e-3 * (abs(lhs) + abs(rhs))


def test_residual_second_order_convergence():
    # wall-truncation noise of the initial data dominates on [-8, 8];
    # the wider domain isolates the second-order truncation error
    w_c = free_gaussian(xmax=10.0, n=5121, dtinv=1024)
    w_f = free_gaussian(xmax=10.0, n=10241, dtinv=2048)
    assert continuity_residual(w_c) / continuity_residual(w_f) >= 3.5
    lc = entropy_rate_check(w_c)
    lf = entropy_rate_check(w_f)
    e_c = abs(lc[0] - lc[1]) / (abs(lc[0]) + abs(lc[1]))
    e_f = abs(lf[0] - lf[1]) / (abs(lf[0]) + abs(lf[1]))
    assert e_c / e_f >= 3.5


def test_hj_convergence_on_coherent_state():
    def run(n, dtinv):
        g = Grid(-10.0, 10.0, n)
        d = density_from_samples(g.from_function(lambda x: np.exp(-((x - 1) ** 2))))
        V = g.from_function(lambda x: 0.5 * x**2)
        # one time unit, checked at its middle step
        return hj_residual(evolve(madelung_psi(d), V, C, 1.0 / dtinv, dtinv, dtinv // 2))

    assert run(5121, 1024) / run(10241, 2048) >= 3.5


def test_entropy_rate_through_a_collision():
    # two packets (sigma = 1, centres -/+8, momenta +/-3) collide at
    # t = 8/3; at step 1365 of dt = 1/512 the fringes have near-nodes where
    # the S'P' form reads 2.4e-3 off the centered rate, while its by-parts
    # form reads 9.6e-5, within the entropy-rate tolerance of 1e-3
    g = Grid(-40.0, 40.0, 8193)
    psi0 = (np.exp(-((g.x + 8.0) ** 2) / 4.0 + 3j * g.x)
            + np.exp(-((g.x - 8.0) ** 2) / 4.0 - 3j * g.x))
    lhs, rhs = entropy_rate_check(evolve(psi0, g.zeros(), C, 1.0 / 512, 1366, 1365))
    assert lhs == pytest.approx(0.2324862, abs=1e-7)
    assert abs(rhs - lhs) <= 1e-3 * abs(lhs)


def test_stationary_state_residuals():
    window = stationary_window(steps=32)
    assert continuity_residual(window) <= 1e-8
    assert hj_residual(window) <= 1e-6
    lhs, rhs = entropy_rate_check(window)
    assert abs(lhs) <= 1e-8 and abs(rhs) <= 1e-8


def test_stationary_hj_energy_balance():
    # dS/dt = -E0 while V + Q = E0 pointwise, so the HJ residual is tiny
    window = stationary_window(steps=32)
    mask = window.now.support_mask
    assert np.allclose(window.dsdt[mask], -0.5, atol=1e-5)


def test_requires_interior_index():
    g = Grid(-8.0, 8.0, 4097)
    psi0 = madelung_psi(gaussian_density(g))
    for index in (0, 51):
        with pytest.raises(ValueError, match=rf"index {index} must be interior \(1..50\)"):
            evolve(psi0, g.zeros(), C, 1.0 / 1024, 51, index)


def test_osmotic_entropy_rate(standard_normal):
    rate = osmotic_entropy_rate(standard_normal, C)
    ref = C.hbar / (2.0 * C.mass) * fisher_information(standard_normal)
    assert rate == pytest.approx(ref, rel=1e-6)
    assert rate >= 0.0


# ---------------------------------------------------------------------------
# factor-once stepping and streaming trajectories
# ---------------------------------------------------------------------------


def cn_system(g, V, dt):
    """The Crank-Nicolson system A psi+ = (2I - A) psi on the interior,
    A = I + i dt H / 2 hbar: A in banded storage and psi -> (2I - A) psi."""
    kin = C.hbar**2 / (2.0 * C.mass * g.dx**2)
    main = 2.0 * kin + V.values
    off = -kin * np.ones(g.n - 1)
    z = 1j * dt / (2.0 * C.hbar)
    ab = np.zeros((3, g.n - 2), dtype=complex)
    ab[0, 1:] = z * off[1:-1]
    ab[1, :] = 1.0 + z * main[1:-1]
    ab[2, :-1] = z * off[1:-1]

    def explicit(psi):
        hpsi = main * psi
        hpsi[:-1] += off * psi[1:]
        hpsi[1:] += off * psi[:-1]
        return (psi - z * hpsi)[1:-1]

    return ab, explicit


def test_factored_stepper_matches_solve_banded():
    # every step solves the reference Crank-Nicolson system to a normwise
    # backward error of at most 4 eps
    g = Grid(-10.0, 10.0, 2561)
    V = g.from_function(lambda x: 0.5 * x**2)
    _, psis = every_step(partial(evolve, madelung_psi(gaussian_density(g), 1.5 * g.x), V, C,
                                 1.0 / 512, 64, 32))
    ab, explicit = cn_system(g, V, 1.0 / 512)
    assert reduction_depth(ab[1], ab[0, 1:]) == 2
    assert len(psis) == 65
    for psi, nxt in zip(psis, psis[1:]):
        assert nxt[0] == nxt[-1] == 0.0
        assert cn_backward_error(ab, nxt[1:-1], explicit(psi)) <= 4 * np.finfo(float).eps


def past_phase_wrap():
    """The discrete trap ground state, whose stationary phase -E0 t passes
    -pi at t = 2 pi, long before step 450 of 512 steps of 1/64."""
    g = Grid(-8.0, 8.0, 1025)
    psi0, V = discrete_ho_ground_state(g)
    return psi0, V, 1.0 / 64, 512, 450


def test_windowed_evolve_matches_full_past_phase_wrap():
    # the window evolve returns is the one madelung_window forms from the
    # three steps a reader copies, bit for bit, with or without a reader
    psi0, V, dt, steps, mid = past_phase_wrap()
    read, psis = every_step(partial(evolve, psi0, V, C, dt, steps, mid))
    alone = evolve(psi0, V, C, dt, steps, mid)
    assert len(psis) == steps + 1
    built = madelung_window(psis[mid - 1 : mid + 2], dt, V, C)
    for w in (read, alone):
        for name in ("before", "now", "after"):
            assert np.array_equal(getattr(w, name).values, getattr(built, name).values)
        for name in ("dj", "grad_s", "dsdt"):
            assert np.array_equal(getattr(w, name), getattr(built, name))
        assert continuity_residual(w) == continuity_residual(built)
        assert hj_residual(w) == hj_residual(built)
        assert entropy_rate_check(w) == entropy_rate_check(built)


def test_collision_hj_residual():
    # two sigma = 1 packets from x = -8 and +8 with momenta +3 and -3 meet
    # at t = 8/3, where the density forms fringes with near-nodes; S = -3|x|
    # gives each packet its momentum (they do not overlap at t = 0)
    g = Grid(-40.0, 40.0, 8193)
    x = g.x
    d = density_from_samples(ScalarField(
        g, np.exp(-((x + 8.0) ** 2) / 2) + np.exp(-((x - 8.0) ** 2) / 2)))
    mid = 1365
    window = evolve(madelung_psi(d, -3.0 * np.abs(x)), g.zeros(), C, 1.0 / 512, mid + 1, mid)
    assert hj_residual(window) <= 1e-3


def test_norm_drift_reads_the_raw_norm():
    # a reader reads the raw norm off every step, as demo 02 does
    g = Grid(-10.0, 10.0, 2561)
    norms = []
    evolve(madelung_psi(gaussian_density(g)), g.zeros(), C, 1.0 / 512, 32, 16,
           lambda k, psi: norms.append(raw_norm(psi, g.dx)))
    assert len(norms) == 33
    assert np.max(np.abs(np.array(norms) - 1.0)) <= 1e-12


def test_evolve_refuses_a_start_off_the_potential_grid():
    g = Grid(-8.0, 8.0, 1025)
    psi0 = madelung_psi(gaussian_density(Grid(-8.0, 8.0, 513)))
    with pytest.raises(ValueError, match="513 points"):
        evolve(psi0, g.zeros(), C, 1.0 / 512, 4, 2)
