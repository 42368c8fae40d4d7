import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from fisherqp import (
    BoundaryContact,
    Grid,
    MadelungState,
    PhysicalConstants,
    continuity_residual,
    density_from_samples,
    energy_expectation,
    entropy_rate_check,
    evolve,
    fisher_information,
    hj_residual,
    norm_drift,
    osmotic_entropy_rate,
)
from fisherqp.grid import ScalarField
from fisherqp.propagator import propagate_wavefunction

from conftest import cn_backward_error, gaussian_density

C = PhysicalConstants()


def free_gaussian_trajectory(xmax=8.0, n=4097, dtinv=1024, T=1.0):
    g = Grid(-xmax, xmax, n)
    state = MadelungState(gaussian_density(g), g.zeros(), C)
    return evolve(state, g.zeros(), 1.0 / dtinv, int(T * dtinv))


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
    return MadelungState(d, g.zeros(), C), ScalarField(g, V)


def stationary_trajectory(n=4097, dtinv=1024, steps=64):
    g = Grid(-8.0, 8.0, n)
    state, V = discrete_ho_ground_state(g)
    return evolve(state, V, 1.0 / dtinv, steps)


def test_unitarity():
    traj = free_gaussian_trajectory(T=0.25)
    assert norm_drift(traj) <= 1e-12


def test_ho_ground_state_density_invariant():
    # analytic Gaussian in the harmonic trap: density static over t in [0, 5]
    g = Grid(-8.0, 8.0, 16385)
    d = density_from_samples(g.from_function(lambda x: np.exp(-(x**2))))
    V = g.from_function(lambda x: 0.5 * x**2)
    # the wavefunction evolve starts from, stepped in chunks so that no
    # more than one chunk of states is held at a time
    psi = np.sqrt(d.values).astype(complex)
    psi[0] = psi[-1] = 0.0
    psi /= np.sqrt(np.trapezoid(np.abs(psi) ** 2, dx=g.dx))
    drift = 0.0
    for _ in range(5 * 1024 // 256):
        run = propagate_wavefunction(psi, g, V, C, 1.0 / 1024, 256)
        for snapshot in run.psis:
            p = density_from_samples(ScalarField(g, np.abs(snapshot) ** 2),
                                     truncation_check=False)
            drift = max(drift, np.max(np.abs(p.values - d.values)))
        psi = run.psis[-1]
    assert drift <= 1e-7


def test_free_gaussian_dispersion():
    traj = free_gaussian_trajectory()
    g = traj.grid
    P = traj.states[-1].density.values
    var = np.trapezoid(P * g.x**2, dx=g.dx) - np.trapezoid(P * g.x, dx=g.dx) ** 2
    assert var == pytest.approx(1.25, abs=1e-4)  # sigma0^2 (1 + (t/2)^2)


def test_potential_shift_is_pure_gauge():
    g = Grid(-10.0, 10.0, 2561)
    state = MadelungState(gaussian_density(g), g.zeros(), C)
    V = g.from_function(lambda x: 0.5 * x**2)
    Vc = ScalarField(g, V.values + 1.0)
    t1 = evolve(state, V, 1.0 / 2048, 128)
    t2 = evolve(state, Vc, 1.0 / 2048, 128)
    dev = max(
        np.max(np.abs(a.density.values - b.density.values))
        for a, b in zip(t1.states, t2.states)
    )
    assert dev <= 1e-9


def test_potential_shift_leaves_hj_residual_unchanged():
    # the extracted phase absorbs -c*t, so the residual is gauge-invariant
    g = Grid(-10.0, 10.0, 2561)
    state = MadelungState(gaussian_density(g), g.zeros(), C)
    V = g.from_function(lambda x: 0.5 * x**2)
    Vc = ScalarField(g, V.values + 1.0)
    r1 = hj_residual(evolve(state, V, 1.0 / 2048, 128), 64)
    r2 = hj_residual(evolve(state, Vc, 1.0 / 2048, 128), 64)
    # both sit at the stationary-state noise floor; the shift adds nothing
    assert abs(r2 - r1) <= 1e-8


def test_time_reversal():
    g = Grid(-10.0, 10.0, 2561)
    state = MadelungState(gaussian_density(g), g.zeros(), C)
    traj = evolve(state, g.zeros(), 1.0 / 512, 128)
    back = propagate_wavefunction(traj.psis[-1], g, g.zeros(), C, -1.0 / 512, 128)
    assert np.max(np.abs(back.psis[-1] - traj.psis[0])) <= 1e-8


def test_boundary_contact():
    g = Grid(-4.0, 4.0, 1025)
    d = density_from_samples(
        g.from_function(lambda x: np.exp(-(x**2))), truncation_check=False
    )
    state = MadelungState(d, ScalarField(g, 3.0 * g.x), C)  # momentum 3
    with pytest.raises(BoundaryContact):
        evolve(state, g.zeros(), 1.0 / 512, 512)


def test_energy_conservation_1000_steps():
    g = Grid(-10.0, 10.0, 2049)
    state = MadelungState(gaussian_density(g), g.zeros(), C)
    V = g.from_function(lambda x: 0.5 * x**2)
    traj = evolve(state, V, 1.0 / 1024, 1000)
    e0 = energy_expectation(traj, 0)
    drift = max(
        abs(energy_expectation(traj, k) - e0) for k in (250, 500, 750, 1000)
    )
    assert drift / abs(e0) <= 1e-8


def test_free_gaussian_residuals_at_contract_resolution():
    # dx = 1/256, dt = 1/1024 on [-8, 8]
    traj = free_gaussian_trajectory()
    mid = 512
    assert continuity_residual(traj, mid) <= 1e-3
    assert hj_residual(traj, mid) <= 1e-3
    lhs, rhs = entropy_rate_check(traj, mid)
    assert lhs > 0 and rhs > 0  # spreading packet produces entropy
    assert abs(lhs - rhs) <= 1e-3 * (abs(lhs) + abs(rhs))


def test_residual_second_order_convergence():
    # wall-truncation noise of the initial data dominates on [-8, 8];
    # the wider domain isolates the second-order truncation error
    coarse = free_gaussian_trajectory(xmax=10.0, n=5121, dtinv=1024)
    fine = free_gaussian_trajectory(xmax=10.0, n=10241, dtinv=2048)
    r_c = continuity_residual(coarse, 512)
    r_f = continuity_residual(fine, 1024)
    assert r_c / r_f >= 3.5
    lc = entropy_rate_check(coarse, 512)
    lf = entropy_rate_check(fine, 1024)
    e_c = abs(lc[0] - lc[1]) / (abs(lc[0]) + abs(lc[1]))
    e_f = abs(lf[0] - lf[1]) / (abs(lf[0]) + abs(lf[1]))
    assert e_c / e_f >= 3.5


def test_hj_convergence_on_coherent_state():
    def run(n, dtinv):
        g = Grid(-10.0, 10.0, n)
        d = density_from_samples(g.from_function(lambda x: np.exp(-((x - 1) ** 2))))
        state = MadelungState(d, g.zeros(), C)
        V = g.from_function(lambda x: 0.5 * x**2)
        traj = evolve(state, V, 1.0 / dtinv, dtinv)  # one time unit
        return hj_residual(traj, dtinv // 2)

    assert run(5121, 1024) / run(10241, 2048) >= 3.5


def test_stationary_state_residuals():
    traj = stationary_trajectory(steps=32)
    assert continuity_residual(traj, 16) <= 1e-8
    assert hj_residual(traj, 16) <= 1e-6
    lhs, rhs = entropy_rate_check(traj, 16)
    assert abs(lhs) <= 1e-8 and abs(rhs) <= 1e-8


def test_stationary_hj_energy_balance():
    # dS/dt = -E0 while V + Q = E0 pointwise, so the HJ residual is tiny
    traj = stationary_trajectory(steps=32)
    state = traj.states[16]
    dsdt = (traj.states[17].phase.values - traj.states[15].phase.values) / (
        2.0 * traj.dt
    )
    mask = state.density.support_mask
    assert np.allclose(dsdt[mask], -0.5, atol=1e-5)


def test_requires_interior_index():
    traj = free_gaussian_trajectory(T=0.05)
    with pytest.raises(ValueError):
        continuity_residual(traj, 0)
    with pytest.raises(ValueError):
        hj_residual(traj, len(traj) - 1)


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


def chained_phases(initial, traj):
    """S of every step aligned against the whole previous phase field at
    the density peak, step by step: the alignment a streamed trajectory
    must reproduce without holding the previous steps."""
    previous = initial.phase.values
    out = []
    for psi, state in zip(traj.psis, traj.states):
        idx = np.flatnonzero(state.density.support_mask)
        theta = np.unwrap(np.angle(psi[idx]))
        anchor = int(np.argmax(state.density.values[idx]))
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


def test_factored_stepper_matches_solve_banded():
    # every step solves the reference Crank-Nicolson system to a normwise
    # backward error of at most 4 eps
    g = Grid(-10.0, 10.0, 2561)
    state = MadelungState(gaussian_density(g), ScalarField(g, 1.5 * g.x), C)
    V = g.from_function(lambda x: 0.5 * x**2)
    run = propagate_wavefunction(state.wavefunction(), g, V, C, 1.0 / 512, 64)
    ab, explicit = cn_system(g, V, 1.0 / 512)
    assert run.kept == tuple(range(65))
    for psi, nxt in zip(run.psis, run.psis[1:]):
        assert nxt[0] == nxt[-1] == 0.0
        assert cn_backward_error(ab, nxt[1:-1], explicit(psi)) <= 4 * np.finfo(float).eps


def test_windowed_evolve_matches_full_past_phase_wrap():
    # the stationary phase -E0 t passes -pi at t = 2 pi, long before the window
    g = Grid(-8.0, 8.0, 1025)
    state, V = discrete_ho_ground_state(g)
    dt, steps, mid = 1.0 / 64, 512, 450
    full = evolve(state, V, dt, steps)
    window = evolve(state, V, dt, steps, keep=(mid - 1, mid, mid + 1))
    assert window.kept == (mid - 1, mid, mid + 1)
    assert len(window) == len(full) == steps + 1
    assert np.array_equal(window.norms, full.norms)
    for k in window.kept:
        assert np.array_equal(window.state(k).phase.values, full.state(k).phase.values)
        assert np.array_equal(window.psi(k), full.psi(k))
    assert window.state(mid).phase.values[g.n // 2] < -np.pi  # 2 pi offset carried
    assert continuity_residual(window, mid) == continuity_residual(full, mid)
    assert hj_residual(window, mid) == hj_residual(full, mid)
    assert entropy_rate_check(window, mid) == entropy_rate_check(full, mid)
    ref = chained_phases(state, full)
    assert all(np.array_equal(s.phase.values, r) for s, r in zip(full.states, ref))


def test_windowed_phase_follows_a_moving_peak():
    # momentum 4: the peak moves one grid point per step and the phase
    # between its first and last position is 8 rad; the offset V = 20
    # turns the peak phase (8 - 20) t past -pi by t = 0.26
    g = Grid(-10.0, 10.0, 2561)
    state = MadelungState(gaussian_density(g), ScalarField(g, 4.0 * g.x), C)
    V = ScalarField(g, np.full(g.n, 20.0))
    full = evolve(state, V, 1.0 / 512, 256)
    ref = chained_phases(state, full)
    assert all(np.array_equal(s.phase.values, r) for s, r in zip(full.states, ref))
    for mid in (37, 128, 255):
        window = evolve(state, V, 1.0 / 512, 256, keep=(mid - 1, mid, mid + 1))
        for k in window.kept:
            assert np.array_equal(window.state(k).phase.values, ref[k])


def test_window_refuses_steps_it_did_not_keep():
    g = Grid(-10.0, 10.0, 513)
    state = MadelungState(gaussian_density(g), g.zeros(), C)
    traj = evolve(state, g.zeros(), 1.0 / 512, 32, keep=(15, 16, 17))
    assert len(traj.states) == 3
    with pytest.raises(ValueError, match="not kept"):
        continuity_residual(traj, 20)
    with pytest.raises(ValueError, match="interior"):
        continuity_residual(traj, 32)
    with pytest.raises(ValueError):
        evolve(state, g.zeros(), 1.0 / 512, 32, keep=(33,))


def test_norm_drift_reads_the_raw_norm():
    # densities are renormalized, the raw psi is not: psi scaled by 1.01
    # carries 1.01^2 - 1 = 0.0201 at every step
    g = Grid(-10.0, 10.0, 2561)
    traj = evolve(MadelungState(gaussian_density(g), g.zeros(), C), g.zeros(),
                  1.0 / 512, 32)
    assert norm_drift(traj) <= 1e-12
    run = propagate_wavefunction(1.01 * traj.psis[0], g, g.zeros(), C, 1.0 / 512, 32,
                                 keep=())
    assert run.psis == [] and len(run.norms) == 33
    assert norm_drift(run) == pytest.approx(0.0201, rel=1e-9)
