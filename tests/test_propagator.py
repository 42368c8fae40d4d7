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
from fisherqp.serialization import dump_trajectory
from fisherqp.propagator import BOUNDARY_THRESHOLD

from conftest import cn_backward_error, gaussian_density, madelung_psi, reduction_depth

C = PhysicalConstants()


def free_gaussian_trajectory(xmax=8.0, n=4097, dtinv=1024, T=1.0):
    g = Grid(-xmax, xmax, n)
    return evolve(madelung_psi(gaussian_density(g)), g.zeros(), C, 1.0 / dtinv,
                  int(T * dtinv))


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


def stationary_trajectory(n=4097, dtinv=1024, steps=64):
    g = Grid(-8.0, 8.0, n)
    psi0, V = discrete_ho_ground_state(g)
    return evolve(psi0, V, C, 1.0 / dtinv, steps)


def raw_norms(traj):
    """The trapezoid quadrature of the raw |psi_k|^2 at every kept step
    (the walls are 0, so a sum)."""
    return np.array([np.sum(np.abs(psi) ** 2) * traj.grid.dx for psi in traj.psis])


def test_unitarity():
    traj = free_gaussian_trajectory(T=0.25)
    assert np.max(np.abs(raw_norms(traj) - 1.0)) <= 1e-12


def test_ho_ground_state_density_invariant():
    # analytic Gaussian in the harmonic trap: density static over t in [0, 5]
    g = Grid(-8.0, 8.0, 16385)
    d = density_from_samples(g.from_function(lambda x: np.exp(-(x**2))))
    V = g.from_function(lambda x: 0.5 * x**2)
    # stepped in chunks so that no more than one chunk of states is held at
    # a time, each chunk starting from the last state of the one before
    psi = madelung_psi(d)
    drift = 0.0
    for _ in range(5 * 1024 // 256):
        run = evolve(psi, V, C, 1.0 / 1024, 256)
        for snapshot in run.psis:
            p = density_from_samples(ScalarField(g, np.abs(snapshot) ** 2),
                                     truncation_check=False)
            drift = max(drift, np.max(np.abs(p.values - d.values)))
        psi = run.psis[-1]
    assert drift <= 1e-7


def test_free_gaussian_dispersion():
    traj = free_gaussian_trajectory()
    g = traj.grid
    P = traj.density(len(traj) - 1).values
    var = np.trapezoid(P * g.x**2, dx=g.dx) - np.trapezoid(P * g.x, dx=g.dx) ** 2
    assert var == pytest.approx(1.25, abs=1e-4)  # sigma0^2 (1 + (t/2)^2)


def test_potential_shift_is_pure_gauge():
    g = Grid(-10.0, 10.0, 2561)
    psi0 = madelung_psi(gaussian_density(g))
    V = g.from_function(lambda x: 0.5 * x**2)
    Vc = ScalarField(g, V.values + 1.0)
    t1 = evolve(psi0, V, C, 1.0 / 2048, 128)
    t2 = evolve(psi0, Vc, C, 1.0 / 2048, 128)
    dev = max(
        np.max(np.abs(t1.density(k).values - t2.density(k).values)) for k in t1.kept
    )
    assert dev <= 1e-9


def test_potential_shift_leaves_hj_residual_unchanged():
    # the phase rate absorbs -c*t, so the residual is gauge-invariant
    g = Grid(-10.0, 10.0, 2561)
    psi0 = madelung_psi(gaussian_density(g))
    V = g.from_function(lambda x: 0.5 * x**2)
    Vc = ScalarField(g, V.values + 1.0)
    r1 = hj_residual(madelung_window(evolve(psi0, V, C, 1.0 / 2048, 128), 64))
    r2 = hj_residual(madelung_window(evolve(psi0, Vc, C, 1.0 / 2048, 128), 64))
    # both sit at the stationary-state noise floor; the shift adds nothing
    assert abs(r2 - r1) <= 1e-8


def test_time_reversal():
    g = Grid(-10.0, 10.0, 2561)
    traj = evolve(madelung_psi(gaussian_density(g)), g.zeros(), C, 1.0 / 512, 128)
    back = evolve(traj.psis[-1], g.zeros(), C, -1.0 / 512, 128)
    assert np.max(np.abs(back.psis[-1] - traj.psis[0])) <= 1e-8
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
        evolve(psi0, g.zeros(), C, 1.0 / 512, 1)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "center, width, momentum, contact",
    [(0.0, 1.0, 3.0, 419),   # a moving packet runs into the wall
     (6.4, 0.1, 0.0, 28)],   # a narrow packet at rest spreads into it
    ids=["moving", "near-wall"],
)
def test_boundary_contact_at_the_step_the_full_test_finds(center, width, momentum, contact):
    g = Grid(-8.0, 8.0, 2049)
    d = density_from_samples(
        g.from_function(lambda x: np.exp(-((x - center) ** 2) / width)), truncation_check=False
    )
    psi0 = madelung_psi(d, momentum * g.x)
    step, message = first_wall_contact(psi0, g.zeros(), 1.0 / 512, 1024)
    assert step == contact
    with pytest.raises(BoundaryContact) as raised:
        evolve(psi0, g.zeros(), C, 1.0 / 512, step, keep=())
    assert str(raised.value) == message
    evolve(psi0, g.zeros(), C, 1.0 / 512, step - 1, keep=())


def test_energy_conservation_1000_steps():
    g = Grid(-10.0, 10.0, 2049)
    V = g.from_function(lambda x: 0.5 * x**2)
    traj = evolve(madelung_psi(gaussian_density(g)), V, C, 1.0 / 1024, 1000)
    # <H> of the discrete Hamiltonian the stepper inverts, walls pinned
    kin = C.hbar**2 / (2.0 * C.mass * g.dx**2)

    def energy(k):
        psi = traj.psi(k)
        h_psi = (2.0 * kin + V.values) * psi
        h_psi[:-1] -= kin * psi[1:]
        h_psi[1:] -= kin * psi[:-1]
        h_psi[0] = h_psi[-1] = 0.0
        return quadrature_values((np.conj(psi) * h_psi).real, g.dx)

    e0 = energy(0)
    drift = max(abs(energy(k) - e0) for k in (250, 500, 750, 1000))
    assert drift / abs(e0) <= 1e-8


def test_free_gaussian_residuals_at_contract_resolution():
    # dx = 1/256, dt = 1/1024 on [-8, 8]
    traj = free_gaussian_trajectory()
    window = madelung_window(traj, 512)
    assert continuity_residual(window) <= 1e-3
    assert hj_residual(window) <= 1e-3
    lhs, rhs = entropy_rate_check(window)
    assert lhs > 0 and rhs > 0  # spreading packet produces entropy
    assert abs(lhs - rhs) <= 1e-3 * (abs(lhs) + abs(rhs))


def test_residual_second_order_convergence():
    # wall-truncation noise of the initial data dominates on [-8, 8];
    # the wider domain isolates the second-order truncation error
    coarse = free_gaussian_trajectory(xmax=10.0, n=5121, dtinv=1024)
    fine = free_gaussian_trajectory(xmax=10.0, n=10241, dtinv=2048)
    w_c = madelung_window(coarse, 512)
    w_f = madelung_window(fine, 1024)
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
        traj = evolve(madelung_psi(d), V, C, 1.0 / dtinv, dtinv)  # one time unit
        return hj_residual(madelung_window(traj, dtinv // 2))

    assert run(5121, 1024) / run(10241, 2048) >= 3.5


def test_entropy_rate_through_a_collision():
    # two packets (sigma = 1, centres -/+8, momenta +/-3) collide at
    # t = 8/3; at step 1365 of dt = 1/512 the fringes have near-nodes where
    # the S'P' form reads 2.4e-3 off the centered rate, while its by-parts
    # form reads 9.6e-5, within the entropy-rate tolerance of 1e-3
    g = Grid(-40.0, 40.0, 8193)
    psi0 = (np.exp(-((g.x + 8.0) ** 2) / 4.0 + 3j * g.x)
            + np.exp(-((g.x - 8.0) ** 2) / 4.0 - 3j * g.x))
    traj = evolve(psi0, g.zeros(), C, 1.0 / 512, 1366, keep=(1364, 1365, 1366))
    lhs, rhs = entropy_rate_check(madelung_window(traj, 1365))
    assert lhs == pytest.approx(0.2324862, abs=1e-7)
    assert abs(rhs - lhs) <= 1e-3 * abs(lhs)


def test_stationary_state_residuals():
    traj = stationary_trajectory(steps=32)
    window = madelung_window(traj, 16)
    assert continuity_residual(window) <= 1e-8
    assert hj_residual(window) <= 1e-6
    lhs, rhs = entropy_rate_check(window)
    assert abs(lhs) <= 1e-8 and abs(rhs) <= 1e-8


def test_stationary_hj_energy_balance():
    # dS/dt = -E0 while V + Q = E0 pointwise, so the HJ residual is tiny
    traj = stationary_trajectory(steps=32)
    window = madelung_window(traj, 16)
    mask = window.now.support_mask
    assert np.allclose(window.dsdt[mask], -0.5, atol=1e-5)


def test_requires_interior_index():
    traj = free_gaussian_trajectory(T=0.05)
    with pytest.raises(ValueError):
        madelung_window(traj, 0)
    with pytest.raises(ValueError):
        madelung_window(traj, len(traj) - 1)


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


def chained_phases(traj):
    """S of every step aligned against the whole previous phase field at
    the density peak, step by step from 0 before step 0: the alignment a
    trajectory dump must reproduce."""
    previous = np.zeros(traj.grid.n)
    out = []
    for k, psi in zip(traj.kept, traj.psis):
        density = traj.density(k)
        idx = np.flatnonzero(density.support_mask)
        theta = np.unwrap(np.angle(psi[idx]))
        anchor = int(np.argmax(density.values[idx]))
        theta += 2.0 * np.pi * np.round(
            (previous[idx[anchor]] / C.hbar - theta[anchor]) / (2.0 * np.pi)
        )
        s = np.empty(len(psi))
        s[idx] = C.hbar * theta
        s[: idx[0]] = s[idx[0]]
        s[idx[-1] + 1 :] = s[idx[-1]]
        out.append(s)
        previous = s
    return out


def dumped_phases(tmp_path, traj):
    """The S column of every step file of the trajectory dump."""
    out = dump_trajectory(traj, tmp_path / "traj")
    return [np.loadtxt(path, delimiter=",", skiprows=1, usecols=2)
            for path in sorted(out.glob("step_*.csv"))]


def test_factored_stepper_matches_solve_banded():
    # every step solves the reference Crank-Nicolson system to a normwise
    # backward error of at most 4 eps
    g = Grid(-10.0, 10.0, 2561)
    V = g.from_function(lambda x: 0.5 * x**2)
    run = evolve(madelung_psi(gaussian_density(g), 1.5 * g.x), V, C, 1.0 / 512, 64)
    ab, explicit = cn_system(g, V, 1.0 / 512)
    assert reduction_depth(ab[1], ab[0, 1:]) == 2
    assert run.kept == tuple(range(65))
    for psi, nxt in zip(run.psis, run.psis[1:]):
        assert nxt[0] == nxt[-1] == 0.0
        assert cn_backward_error(ab, nxt[1:-1], explicit(psi)) <= 4 * np.finfo(float).eps


def past_phase_wrap():
    """The discrete trap ground state, whose stationary phase -E0 t passes
    -pi at t = 2 pi, long before step 450 of 512 steps of 1/64."""
    g = Grid(-8.0, 8.0, 1025)
    psi0, V = discrete_ho_ground_state(g)
    return psi0, V, 1.0 / 64, 512, 450


def test_windowed_evolve_matches_full_past_phase_wrap():
    psi0, V, dt, steps, mid = past_phase_wrap()
    full = evolve(psi0, V, C, dt, steps)
    window = evolve(psi0, V, C, dt, steps, keep=(mid - 1, mid, mid + 1))
    assert window.kept == (mid - 1, mid, mid + 1)
    assert len(window) == len(full) == steps + 1
    assert np.array_equal(raw_norms(window), raw_norms(full)[mid - 1 : mid + 2])
    for k in window.kept:
        assert np.array_equal(window.psi(k), full.psi(k))
    w_window, w_full = madelung_window(window, mid), madelung_window(full, mid)
    assert continuity_residual(w_window) == continuity_residual(w_full)
    assert hj_residual(w_window) == hj_residual(w_full)
    assert entropy_rate_check(w_window) == entropy_rate_check(w_full)


def test_dump_aligns_the_phase_past_a_wrap(tmp_path):
    psi0, V, dt, steps, mid = past_phase_wrap()
    full = evolve(psi0, V, C, dt, steps)
    dumped = dumped_phases(tmp_path, full)
    assert all(np.array_equal(s, r) for s, r in zip(dumped, chained_phases(full)))
    assert dumped[mid][full.grid.n // 2] < -np.pi  # 2 pi offset carried


def test_dump_follows_a_moving_peak(tmp_path):
    # momentum 4: the peak moves one grid point per step and the phase
    # between its first and last position is 8 rad; the offset V = 20
    # turns the peak phase (8 - 20) t past -pi by t = 0.26
    g = Grid(-10.0, 10.0, 2561)
    V = ScalarField(g, np.full(g.n, 20.0))
    full = evolve(madelung_psi(gaussian_density(g), 4.0 * g.x), V, C, 1.0 / 512, 256)
    dumped = dumped_phases(tmp_path, full)
    assert len(dumped) == 257
    assert all(np.array_equal(s, r) for s, r in zip(dumped, chained_phases(full)))


def test_dump_anchors_step_0_at_the_density_peak(tmp_path):
    # centre 2, momentum 2: the start phase k x reads 4 > pi at the peak,
    # but the dump anchors step 0 to 0 there, not to the start phase
    g = Grid(-10.0, 10.0, 2561)
    d = gaussian_density(g, center=2.0)
    full = evolve(madelung_psi(d, 2.0 * g.x), g.zeros(), C, 1.0 / 512, 64)
    dumped = dumped_phases(tmp_path, full)
    peak = int(np.argmax(d.values))
    assert 2.0 * g.x[peak] > np.pi
    assert -np.pi * C.hbar < dumped[0][peak] <= np.pi * C.hbar
    assert all(np.array_equal(s, r) for s, r in zip(dumped, chained_phases(full)))


def test_dump_refuses_a_windowed_trajectory(tmp_path):
    g = Grid(-10.0, 10.0, 513)
    window = evolve(madelung_psi(gaussian_density(g)), g.zeros(), C, 1.0 / 512, 32,
                    keep=(15, 16, 17))
    with pytest.raises(ValueError, match="every step"):
        dump_trajectory(window, tmp_path / "traj")
    assert not (tmp_path / "traj").exists()


def test_collision_hj_residual():
    # two sigma = 1 packets from x = -8 and +8 with momenta +3 and -3 meet
    # at t = 8/3, where the density forms fringes with near-nodes; S = -3|x|
    # gives each packet its momentum (they do not overlap at t = 0)
    g = Grid(-40.0, 40.0, 8193)
    x = g.x
    d = density_from_samples(ScalarField(
        g, np.exp(-((x + 8.0) ** 2) / 2) + np.exp(-((x - 8.0) ** 2) / 2)))
    mid = 1365
    traj = evolve(madelung_psi(d, -3.0 * np.abs(x)), g.zeros(), C, 1.0 / 512, mid + 1,
                  keep=(mid - 1, mid, mid + 1))
    assert hj_residual(madelung_window(traj, mid)) <= 1e-3


def test_window_refuses_steps_it_did_not_keep():
    g = Grid(-10.0, 10.0, 513)
    psi0 = madelung_psi(gaussian_density(g))
    traj = evolve(psi0, g.zeros(), C, 1.0 / 512, 32, keep=(15, 16, 17))
    assert len(traj.psis) == 3
    with pytest.raises(ValueError, match="not kept"):
        madelung_window(traj, 20)
    with pytest.raises(ValueError, match="interior"):
        madelung_window(traj, 32)
    with pytest.raises(ValueError):
        evolve(psi0, g.zeros(), C, 1.0 / 512, 32, keep=(33,))


def test_norm_drift_reads_the_raw_norm():
    # a kept step's raw norm does not depend on which other steps are kept
    g = Grid(-10.0, 10.0, 2561)
    psi0 = madelung_psi(gaussian_density(g))
    traj = evolve(psi0, g.zeros(), C, 1.0 / 512, 32)
    assert np.max(np.abs(raw_norms(traj) - 1.0)) <= 1e-12
    run = evolve(psi0, g.zeros(), C, 1.0 / 512, 32, keep=(0, 16, 32))
    assert np.array_equal(raw_norms(run), raw_norms(traj)[[0, 16, 32]])
    run = evolve(psi0, g.zeros(), C, 1.0 / 512, 32, keep=())
    assert run.psis == [] and len(run) == 33


def test_evolve_refuses_a_start_off_the_potential_grid():
    g = Grid(-8.0, 8.0, 1025)
    psi0 = madelung_psi(gaussian_density(Grid(-8.0, 8.0, 513)))
    with pytest.raises(ValueError, match="513 points"):
        evolve(psi0, g.zeros(), C, 1.0 / 512, 4)
