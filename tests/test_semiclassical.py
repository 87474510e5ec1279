import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate._ivp import dop853_coefficients as dop853
from hypothesis import given, settings
from hypothesis import strategies as st

from qrhd import (
    BlowUpError,
    ConstantChart,
    CustomChart,
    DomainError,
    FlatChart,
    ParameterError,
    RandomInstance,
    Schedule,
    SphereStereographicChart,
    convergence_bound,
    detect_t_star,
    effective_potential_gradient,
    integrate_eom,
    lambert_w_minus1,
    quadratic_potential,
    run_instance_study,
    sphere_quadratic_potential,
)
from qrhd import semiclassical as sc
from qrhd.discretize import PotentialField
from qrhd.semiclassical import DormandPrince, make_sphere_study_problem

A1 = np.array([[1.0, -0.9], [-0.9, 1.0]])


# -- oracles -----------------------------------------------------------------

def lambert_bisection_oracle(z):
    """Bisect w e^w = z on the lower branch; w in [-60, -1]."""
    lo, hi = -60.0, -1.0    # f(w) = w e^w decreases from ~0^- to -1/e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * np.exp(mid) > z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def envelope_root_oracle(eps):
    """Bisect (1 + s) exp(-s) = eps for s > 1 (critically damped envelope)."""
    lo, hi = 1.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (1.0 + mid) * np.exp(-mid) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def damped_oracle(A, eta, gamma, x0, ts):
    """Matrix-exponential solution of xdd + 2 gamma xd + eta A x = 0."""
    n = x0.size
    M = np.block([[np.zeros((n, n)), np.eye(n)],
                  [-eta * A, -2 * gamma * np.eye(n)]])
    z0 = np.concatenate([x0, np.zeros(n)])
    return np.array([(scipy.linalg.expm(M * t) @ z0)[:n] for t in ts])


# -- Lambert W ----------------------------------------------------------------

def test_lambert_branch_point_and_reference_values():
    assert lambert_w_minus1(-1.0 / np.e) == -1.0
    z = -0.01 / np.e
    w = lambert_w_minus1(z)
    assert w == pytest.approx(lambert_bisection_oracle(z), abs=1e-10)
    assert -w - 1.0 == pytest.approx(6.6383520679938, abs=1e-10)


def test_lambert_residual_and_monotonicity_grid():
    zs = -np.exp(np.linspace(np.log(1e-6), np.log(1 / np.e - 1e-12), 1000))
    ws = np.array([lambert_w_minus1(z) for z in zs])
    resid = np.abs(ws * np.exp(ws) - zs)
    assert np.all(resid <= 1e-12 * np.abs(zs))
    # monotone decreasing in z on the branch
    order = np.argsort(zs)
    assert np.all(np.diff(ws[order]) < 0)
    assert np.all(ws <= -1.0)


def test_lambert_domain_errors():
    for z in (0.0, 0.5, -1.0, -2.0 / np.e):
        with pytest.raises(DomainError):
            lambert_w_minus1(z)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=np.log(1e-6), max_value=np.log(1 / np.e - 1e-9)))
def test_lambert_defining_identity(logmz):
    z = -np.exp(logmz)
    w = lambert_w_minus1(z)
    assert abs(w * np.exp(w) - z) <= 1e-12 * abs(z)


# -- convergence bound ----------------------------------------------------------

def test_convergence_bound_reference_values():
    t, g = convergence_bound(3.0, 1.0, 1.0, 0.01)
    assert t == pytest.approx(envelope_root_oracle(0.01) / np.sqrt(3.0), abs=1e-9)
    assert t == pytest.approx(3.8327, abs=1e-3)
    assert g == pytest.approx(np.sqrt(3.0), abs=1e-12)
    # epsilon = 1 collapses the bracket
    t1, _ = convergence_bound(3.0, 1.0, 1.0, 1.0)
    assert t1 == 0.0
    # the flat quadratic setup: lambda = 0.1 with eta = m = 0.1
    _, gopt = convergence_bound(0.1, 0.1, 0.1, 0.01)
    assert gopt == pytest.approx(np.sqrt(0.1), abs=1e-12)


def test_convergence_bound_envelope_consistency():
    # -W_{-1}(-eps/e) - 1 equals the root of (1 + s) e^{-s} = eps
    for eps in (0.3, 0.05, 0.01, 1e-4):
        factor = -lambert_w_minus1(-eps / np.e) - 1.0
        assert factor == pytest.approx(envelope_root_oracle(eps), abs=1e-9)


def test_convergence_bound_validation():
    with pytest.raises(ParameterError):
        convergence_bound(-1.0, 1.0, 1.0, 0.01)
    with pytest.raises(ParameterError):
        convergence_bound(1.0, 1.0, 1.0, 1.5)


# -- t* detection ----------------------------------------------------------------

def test_detect_t_star_basic_cases():
    times = np.linspace(0.0, 10.0, 101)
    never = 1.0 + 0.5 * np.sin(times)
    assert detect_t_star(times, never, 0.01) is None
    # already at or below epsilon_star at sample 0: the time is times[0]
    at_target = np.full(101, 0.01)
    assert detect_t_star(times, at_target, 0.01) == 0.0
    assert detect_t_star(times + 2.5, at_target, 0.01) == 2.5
    # crossing within the first sample interval interpolates inside it
    dropping = np.concatenate([[1.0], np.full(100, 1e-4)])
    t = detect_t_star(times, dropping, 0.01)
    assert 0.0 < t <= times[1]


def test_detect_t_star_critically_damped_envelope():
    omega = 1.7
    times = np.linspace(0.0, 12.0, 4001)
    ratio = (1 + omega * times) * np.exp(-omega * times)
    t_star = detect_t_star(times, ratio, 0.01)
    assert t_star * omega == pytest.approx(envelope_root_oracle(0.01), abs=2e-3)


def test_detect_t_star_sustained_vs_first():
    times = np.linspace(0.0, 10.0, 1001)
    # dips below the threshold at t ~ 2, settles for good after t ~ 6
    ratio = np.abs(np.cos(1.5 * times)) * np.exp(-0.5 * times) + 1e-4
    first = detect_t_star(times, ratio, 0.01)
    sustained = detect_t_star(times, ratio, 0.01, mode="sustained")
    assert first < sustained


def test_detect_t_star_validation():
    with pytest.raises(ParameterError):
        detect_t_star([0.0], np.ones(1), 1.5)
    # an unknown mode raises whether or not the curve reaches epsilon_star
    times = np.arange(3.0)
    for ratios in (np.ones(3), np.array([1.0, 0.5, 0.001])):
        with pytest.raises(ParameterError, match="unknown mode"):
            detect_t_star(times, ratios, 0.01, mode="bogus")


# -- trajectory integration -------------------------------------------------------

def test_equilibrium_stays_put():
    chart = FlatChart(2, domain=(-2 * np.ones(2), 2 * np.ones(2)))
    pot = quadratic_potential(A1, 0.1)
    sched = Schedule(gamma=0.5, eta=0.1, t_end=3.0, dt=1.0)
    traj = integrate_eom(chart, pot, sched, np.zeros(2), np.zeros(2),
                         np.linspace(0.0, 3.0, 301), corrections=True, log_measure=True,
                         mass=0.1)
    assert np.abs(traj.positions).max() == 0.0


def test_flat_matches_matrix_exponential_oracle():
    rng = np.random.default_rng(17)
    chart = FlatChart(2, domain=(-8 * np.ones(2), 8 * np.ones(2)))
    for _ in range(3):
        lam = rng.uniform(0.4, 3.0, 2)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        A = Q @ np.diag(lam) @ Q.T
        gamma = rng.uniform(0.4, 1.5)
        eta, m = rng.uniform(0.3, 1.5, 2)
        pot = quadratic_potential(A, m)
        sched = Schedule(gamma=gamma, eta=eta, t_end=10 / gamma, dt=1.0)
        x0 = rng.uniform(-0.8, 0.8, 2)
        traj = integrate_eom(chart, pot, sched, x0, np.zeros(2),
                             np.linspace(0.0, 10 / gamma, 101), corrections=True,
                             log_measure=True, mass=m)
        oracle = damped_oracle(A, eta, gamma, x0, traj.times)
        assert np.abs(traj.positions.real - oracle).max() < 1e-6


def test_critical_damping_of_the_slow_mode():
    # gamma = sqrt(eta lambda_min(Hess V) / m): the slow-mode deviation
    # follows the critically damped envelope (1 + w t) e^{-w t}
    chart = FlatChart(2, domain=(-4 * np.ones(2), 4 * np.ones(2)))
    eta = m = 0.1
    pot = quadratic_potential(A1, m)
    lam_min_hess = m * 0.1                          # Hess V = m A1
    omega = np.sqrt(eta * lam_min_hess / m)
    sched = Schedule(gamma=omega, eta=eta, t_end=40.0, dt=1.0)
    soft = np.array([1.0, 1.0]) / np.sqrt(2)        # eigenvector of lambda_min
    traj = integrate_eom(chart, pot, sched, 0.5 * soft, np.zeros(2),
                         0.1 * np.arange(401), mass=m)
    dev = np.linalg.norm(traj.positions.real, axis=1) / 0.5
    envelope = (1 + omega * traj.times) * np.exp(-omega * traj.times)
    assert np.abs(dev - envelope).max() < 1e-6


def test_gamma_eta_scaling_symmetry():
    # rescaling (gamma, eta) -> (c gamma, c^2 eta) contracts time by 1/c
    chart = FlatChart(2, domain=(-4 * np.ones(2), 4 * np.ones(2)))
    m = 1.0
    pot = quadratic_potential(np.diag([1.0, 2.0]), m)
    x0 = np.array([0.45, -0.1])
    c = 2.0
    results = []
    for gamma, eta in ((0.5, 0.5), (c * 0.5, c**2 * 0.5)):
        t_end = 25.0 / gamma
        sched = Schedule(gamma=gamma, eta=eta, t_end=t_end, dt=1.0)
        traj = integrate_eom(chart, pot, sched, x0, np.zeros(2),
                             np.linspace(0.0, t_end, int(round(t_end / 0.01)) + 1), mass=m)
        ratios = np.linalg.norm(traj.positions.real, axis=1) / np.linalg.norm(x0)
        results.append(detect_t_star(traj.times, ratios, 0.01, mode="sustained"))
    assert results[1] == pytest.approx(results[0] / c, rel=1e-2)


def test_domain_exit_is_reported_at_its_first_outside_sample():
    chart = FlatChart(1, domain=(-1.0 * np.ones(1), np.ones(1)))
    pot = quadratic_potential(-np.eye(1), 1.0)    # inverted well pushes out
    sched = Schedule(gamma=0.0, eta=1.0, t_end=10.0, dt=1.0)
    traj = integrate_eom(chart, pot, sched, np.array([0.5]), np.array([0.0]),
                         0.01 * np.arange(1001))
    k = int(traj.exit_sample)
    # x = 0.5 cosh t leaves the box at t = arccosh 2 = 1.317
    assert traj.times[k - 1] < np.arccosh(2.0) <= traj.times[k]
    assert np.abs(traj.positions[:k]).max() <= 1.0 < abs(traj.positions[k, 0])
    # frozen at the end of the step that left the box
    assert np.array_equal(traj.positions[-1], traj.positions[-2])


def test_start_outside_domain_exits_at_sample_0():
    chart = FlatChart(1)
    pot = quadratic_potential(np.eye(1), 1.0)
    sched = Schedule(gamma=0.5, eta=1.0, t_end=1.0, dt=0.5)
    traj = integrate_eom(chart, pot, sched, np.array([[3.0], [0.5]]), np.zeros((2, 1)),
                         np.linspace(0.0, 1.0, 11))
    assert traj.exit_sample.tolist() == [0, -1]
    assert np.all(traj.positions[0] == 3.0)


def test_given_schedule_a_is_rejected():
    # friction 2 gamma is a'/a only for a(t) = exp(2 gamma t); here a'/a = 1
    # but gamma = 0, which would run the equation without friction
    chart = FlatChart(1)
    pot = quadratic_potential(np.eye(1), 1.0)
    sched = Schedule(eta=1.0, t_end=2.0, dt=0.1, a=lambda t: np.exp(t))
    with pytest.raises(ParameterError, match="exp"):
        integrate_eom(chart, pot, sched, np.array([0.5]), np.zeros(1), np.array([0.0, 2.0]))


def test_box_exit_measures_im_p_from_the_real_axis():
    # Im p is a displacement, so a box that excludes 0 or is lopsided about
    # it must not count a small Im p as an exit
    pot = quadratic_potential(np.eye(1), 1.0)
    sched = Schedule(gamma=0.5, eta=1.0, t_end=1.0, dt=0.5)
    times = np.linspace(0.0, 0.2, 5)
    for lo, hi, x0 in ((1.0, 3.0, 2.0), (0.0, 8.0, 4.0 - 0.5j)):
        chart = FlatChart(1, domain=(lo * np.ones(1), hi * np.ones(1)))
        traj = integrate_eom(chart, pot, sched, np.array([x0]), np.zeros(1), times,
                             log_measure=True)
        assert traj.exit_sample == -1
        assert np.all(np.abs(traj.positions - x0) < 0.2)
    # |Im p| past the half-width (hi - lo) / 2 = 4 is an exit
    traj = integrate_eom(chart, pot, sched, np.array([4.0 + 4.5j]), np.zeros(1), times,
                         log_measure=True)
    assert traj.exit_sample == 0


def test_generic_chart_rejects_corrections():
    # g = 1 + x^2/2: no closed forms for the gradients of the corrections
    chart = CustomChart(1, lambda x: np.array([[1.0 + 0.5 * x[0] ** 2]]),
                        domain=(-2.0 * np.ones(1), 2.0 * np.ones(1)))
    pot = quadratic_potential(-np.eye(1), 1.0)      # inverted well
    sched = Schedule(gamma=0.5, eta=1.0, t_end=1.0, dt=0.1)
    x0, v0, times = np.array([0.3]), np.array([0.0]), np.array([0.0, 0.01])
    with pytest.raises(ParameterError, match="corrections"):
        integrate_eom(chart, pot, sched, x0, v0, times, corrections=True)
    with pytest.raises(ParameterError, match="log sqrt"):
        integrate_eom(chart, pot, sched, x0, v0, times, log_measure=True)
    with pytest.raises(ParameterError):
        effective_potential_gradient(chart, pot, np.array([0.3]), sched, 0.0, 1.0, True, True)
    traj = integrate_eom(chart, pot, sched, x0, v0, times)
    assert traj.times[-1] == 0.01 and traj.positions[-1, 0] > 0.3


# -- effective potential -----------------------------------------------------------

def test_effective_gradient_flat_reduces_to_plain_gradient():
    chart = FlatChart(2)
    pot = quadratic_potential(A1, 0.1)
    sched = Schedule(gamma=0.5, eta=0.1, t_end=1.0, dt=0.1)
    p = np.array([0.3, -0.4])
    g_on = effective_potential_gradient(chart, pot, p, sched, 0.7, 0.1, True, True)
    g_off = effective_potential_gradient(chart, pot, p, sched, 0.7, 0.1)
    expected = 0.1 * (A1 @ p)
    assert np.abs(g_on - expected).max() < 1e-12
    assert np.abs(g_off - expected).max() < 1e-12


def test_effective_gradient_requires_positive_eta_with_corrections():
    chart = SphereStereographicChart(3, 1.0, pole="south")
    pot = sphere_quadratic_potential(np.eye(3), 1.0, chart)
    sched = Schedule(eta=0.0, t_end=1.0, dt=0.1)
    from qrhd import ScheduleError

    with pytest.raises(ScheduleError):
        effective_potential_gradient(chart, pot, np.array([0.1, 0.2]), sched,
                                     0.0, 1.0, True, True)


def test_measure_term_decays_at_twice_gamma():
    # at a fixed point the imaginary measure term scales as 1/a = e^{-2 gamma t}
    chart = SphereStereographicChart(3, 1.0, pole="south")
    A2 = np.array([[1, 0, -1 / np.sqrt(2)], [0, 1, -1 / np.sqrt(2)],
                   [-1 / np.sqrt(2), -1 / np.sqrt(2), 1.0]])
    pot = sphere_quadratic_potential(A2, 1.0, chart)
    gamma = 0.7
    sched = Schedule(gamma=gamma, eta=1.0, t_end=10.0, dt=0.1)
    p = np.array([0.25, -0.15])
    base = np.abs(pot.gradient_at(p))
    ts = np.array([2.0, 3.0, 4.0, 5.0])
    ratios = []
    for t in ts:
        g = effective_potential_gradient(chart, pot, p, sched, t, 1.0, True, True)
        ratios.append(np.linalg.norm(g.imag) / np.linalg.norm(base))
    slope = np.polyfit(ts, np.log(ratios), 1)[0]
    assert slope == pytest.approx(-2 * gamma, rel=0.05)


# -- random instances and the study --------------------------------------------------

def test_random_instance_structure():
    rng = np.random.default_rng(9)
    inst = RandomInstance.draw(6, rng)
    evals = np.sort(np.linalg.eigvalsh(inst.matrix))
    assert np.abs(evals - np.arange(1, 7) ** 2).max() < 1e-10
    assert inst.x_star[-1] > 0
    assert np.abs(inst.matrix @ inst.x_star - inst.x_star).max() < 1e-10
    assert np.linalg.norm(inst.initial_position - inst.v_star) == pytest.approx(0.1)
    # deterministic draws
    again = RandomInstance.draw(6, np.random.default_rng(9))
    assert np.array_equal(inst.matrix, again.matrix)
    assert np.array_equal(inst.initial_position, again.initial_position)


def study_stack(v0, A, times, gamma, **kw):
    """integrate_eom on the study's sphere problem, as ``run_instance_study`` calls it."""
    chart, pot = make_sphere_study_problem(A)
    return integrate_eom(chart, pot, Schedule(gamma), v0, np.zeros_like(v0),
                         times, **kw)


def test_batched_complex_path_matches_generic(monkeypatch):
    inst = RandomInstance.draw(5, np.random.default_rng(3))
    times = 0.01 * np.arange(301)
    dense_used = []
    dense = DormandPrince.dense

    def counting_dense(self, ts):
        dense_used.append(len(ts) > 0)
        return dense(self, ts)

    monkeypatch.setattr(DormandPrince, "dense", counting_dense)
    batch = study_stack(inst.initial_position[None], inst.matrix[None], times, 1.0,
                        corrections=True, log_measure=True)
    stats = batch.stats
    assert batch.positions.dtype == complex and batch.exit_sample[0] == -1
    # 12 per attempt, 3 extra stages per step whose dense output is used, 2 to start
    assert len(dense_used) == stats.accepted
    assert stats.evaluations == (12 * (stats.accepted + stats.rejected)
                                 + 3 * sum(dense_used) + 2)
    # one instance through the unstacked potential of a single matrix
    traj = study_stack(inst.initial_position, inst.matrix, times, 1.0,
                       corrections=True, log_measure=True)
    assert np.array_equal(traj.times, times)
    assert np.abs(traj.positions - batch.positions[0]).max() < 1e-8


def test_point_state_equals_its_row_in_a_stack():
    chart = SphereStereographicChart(4, 1.0, pole="south", domain=(-4 * np.ones(3),
                                                                   4 * np.ones(3)))
    pot = sphere_quadratic_potential(np.diag([1.0, 4.0, 9.0, 16.0]), 1.0, chart)
    sched = Schedule(gamma=0.5)
    times = 0.05 * np.arange(101)
    pos = np.random.default_rng(4).uniform(-0.5, 0.5, (3, 3))
    vel = np.zeros_like(pos)
    stack = integrate_eom(chart, pot, sched, pos, vel, times, corrections=True)
    assert stack.positions.shape == (3, times.size, 3)
    assert stack.exit_sample.shape == (3,)
    for i in range(3):
        solo = integrate_eom(chart, pot, sched, pos[i], vel[i], times, corrections=True)
        assert solo.positions.shape == (times.size, 3) and solo.exit_sample.shape == ()
        # a one-row stack takes the same steps as the point
        one = integrate_eom(chart, pot, sched, pos[i:i + 1], vel[i:i + 1], times,
                            corrections=True)
        assert np.array_equal(one.positions[0], solo.positions)
        # the stack shares its steps, each row within the tolerance
        assert np.abs(stack.positions[i] - solo.positions).max() < 1e-8
    with pytest.raises(ParameterError, match="shape"):
        integrate_eom(chart, pot, sched, pos, vel[:, :2], times)


def test_batch_freezes_ejected_instances_and_matches_solo_runs():
    # at weak damping the ordering correction ejects some instances early
    kids = np.random.SeedSequence(42).spawn(16)
    draws = [RandomInstance.draw(5, np.random.default_rng(k)) for k in kids]
    A = np.stack([d.matrix for d in draws])
    v0 = np.stack([d.initial_position for d in draws])
    times = 0.01 * np.arange(501)
    kw = dict(corrections=True)
    batch = study_stack(v0, A, times, 0.1, **kw)
    positions, exit_sample = batch.positions, batch.exit_sample
    ejected = exit_sample >= 0
    assert 0 < ejected.sum() < len(draws)
    for i in range(len(draws)):
        solo = study_stack(v0[i:i + 1], A[i:i + 1], times, 0.1, **kw)
        assert solo.exit_sample[0] == exit_sample[i]
        if not ejected[i]:
            assert np.abs(solo.positions[0] - positions[i]).max() < 1e-8
        else:
            k = exit_sample[i]
            assert np.abs(solo.positions[0, :k] - positions[i, :k]).max() < 1e-8
            assert np.abs(positions[i, k]).max() > 4.0
            # frozen at the end of the step that left the box
            assert np.array_equal(positions[i, -1], positions[i, -2])


def test_study_ratios_match_the_positions_of_the_same_batch(monkeypatch):
    # the batch above, through the study: horizon 5 samples t = 0, 0.01, ..., 5
    monkeypatch.setattr(sc, "_study_horizon", lambda *args: 5.0)
    rep = run_instance_study(5, [0.1], 16, seed=42, corrections=True)
    times = max((r.times for r in rep.runs), key=len)
    assert times.size == 501 and 0 < rep.excluded_count < 16
    kids = np.random.SeedSequence(42).spawn(16)
    draws = [RandomInstance.draw(5, np.random.default_rng(k)) for k in kids]
    v0 = np.stack([d.initial_position for d in draws])
    ref = study_stack(v0, np.stack([d.matrix for d in draws]), times, 0.1,
                      corrections=True)
    for i, r in enumerate(rep.runs):
        dev = np.linalg.norm(ref.positions[i].real - draws[i].v_star, axis=-1)
        ratios = dev / dev[0]
        k = ref.exit_sample[i]
        assert r.excluded == (k >= 0)
        assert np.array_equal(r.ratios, ratios[: k + 1] if r.excluded else ratios)
        assert np.array_equal(r.times, times[: r.ratios.size])


def test_study_holds_distances_not_positions():
    tracemalloc.start()
    try:
        rep = run_instance_study(5, [1.0], 100, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (instances, samples, dim) float positions of the stack
    positions_bytes = 100 * rep.runs[0].times.size * 4 * 8
    assert peak < positions_bytes


def test_runaway_imaginary_part_leaves_the_box():
    # instance 7 of the seed-42 study: with the measure term its Im v grows
    # past the box while Re v stays inside
    kid = np.random.SeedSequence(42).spawn(8)[7]
    inst = RandomInstance.draw(5, np.random.default_rng(kid))
    times = 0.01 * np.arange(8490)          # the study's horizon at gamma = 0.1
    traj = study_stack(inst.initial_position[None], inst.matrix[None], times, 0.1,
                       corrections=True, log_measure=True)
    k = traj.exit_sample[0]
    assert k >= 0
    assert (np.abs(traj.positions[0, k].real).max() <= 4.0
            < np.abs(traj.positions[0, k].imag).max())
    # it ran for ~17k accepted steps over the whole horizon before the rule
    assert traj.stats.accepted < 10_000


@pytest.mark.slow
def test_study_excludes_runaway_imaginary_part():
    rep = run_instance_study(5, [0.1], 40, seed=42, corrections=True, log_measure=True)
    assert rep.runs[7].excluded and rep.runs[7].t_star is None
    assert rep.excluded_count == sum(r.excluded for r in rep.runs)


def test_corrections_vanish_once_a_overflows():
    # the study horizon at gamma = 10 is ~57, and a = exp(20 t) overflows past
    # t = 35.5: the corrections, weighted by 1/a and 1/a^2, are then zero
    rep = run_instance_study(5, [10.0], 1, seed=42, corrections=True)
    assert rep.excluded_count == 0 and rep.runs[0].satisfied


def test_non_finite_state_raises_blow_up():
    chart = FlatChart(1, domain=(-10.0 * np.ones(1), 10.0 * np.ones(1)))
    # inverted well whose force turns NaN past x = 0.6
    pot = PotentialField(lambda x: -0.5 * np.sum(x * x, axis=-1),
                         gradient_fn=lambda x: np.where(x.real > 0.6, np.nan, -x))
    sched = Schedule(gamma=0.0, eta=1.0, t_end=10.0, dt=1.0)
    with pytest.raises(BlowUpError):
        integrate_eom(chart, pot, sched, np.array([0.5]), np.array([0.0]),
                      np.array([0.0, 10.0]))


def test_study_checks_epsilon_star_before_it_integrates(monkeypatch):
    calls = []
    integrate = sc._integrate_samples
    monkeypatch.setattr(sc, "_integrate_samples",
                        lambda *args, **kw: calls.append(1) or integrate(*args, **kw))
    with pytest.raises(ParameterError, match="epsilon_star"):
        run_instance_study(3, [1.0, 5.0], 2, seed=1, epsilon_star=1.0)
    assert calls == []


def test_study_smoke_and_determinism():
    rep1 = run_instance_study(5, [1.0, 5.0], 3, seed=11)
    rep2 = run_instance_study(5, [1.0, 5.0], 3, seed=11)
    assert [r.t_star for r in rep1.runs] == [r.t_star for r in rep2.runs]
    assert all(r.t_star is not None for r in rep1.runs)
    assert rep1.bound == pytest.approx(3.8327, abs=1e-3)
    for r1, r2 in zip(rep1.runs, rep2.runs):
        assert np.array_equal(r1.ratios, r2.ratios)


def test_dop853_coefficients_are_hairers():
    assert np.array_equal(sc._DP_C, dop853.C)
    for i, row in enumerate(sc._DP_A, start=1):
        assert np.array_equal(row, dop853.A[i, :i])
    assert np.array_equal(sc._DP_E5, dop853.E5[:12]) and not dop853.E5[12]
    assert np.array_equal(sc._DP_E3, dop853.E3[:12]) and not dop853.E3[12]
    assert np.array_equal(sc._DP_D, dop853.D)


def test_dop853_tracks_tight_reference(monkeypatch):
    # weak damping oscillates for the whole ~85 time-unit horizon
    rep = run_instance_study(5, [0.1], 10, seed=5)
    monkeypatch.setattr(sc, "ODE_RTOL", 1e-13)
    monkeypatch.setattr(sc, "ODE_ATOL", 1e-15)
    ref = run_instance_study(5, [0.1], 10, seed=5)
    assert [r.satisfied for r in rep.runs] == [r.satisfied for r in ref.runs]
    assert all(r.t_star is not None for r in ref.runs)
    assert max(abs(a.t_star - b.t_star) for a, b in zip(rep.runs, ref.runs)) < 1e-8


def test_study_converges_below_epsilon():
    rep = run_instance_study(5, [1.0], 4, seed=2)
    for r in rep.runs:
        assert r.ratios[-1] <= 0.01
        assert r.ratios[0] == pytest.approx(1.0)
