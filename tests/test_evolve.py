import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from qrhd import (
    ConstantChart,
    CrankNicolsonStepper,
    FlatChart,
    Grid,
    ParameterError,
    PotentialField,
    Schedule,
    SolverError,
    SphereStereographicChart,
    assemble_laplace_beltrami,
    detect_t_star,
    evolve,
    init_state,
    quadratic_potential,
    quantum_corrections,
    sphere_quadratic_potential,
)

from qrhd.cli import BUILTIN_CONFIGS, build_chart, build_potential, build_schedule

from helpers import hamiltonian

A1 = np.array([[1.0, -0.9], [-0.9, 1.0]])


def flat_grid(dim=1, n=5, width=None):
    w = (n - 1.0) if width is None else width
    chart = FlatChart(dim, domain=(np.zeros(dim), w * np.ones(dim)))
    return chart, Grid.for_chart(chart, n)


def weights(chart, grid):
    """The measure sqrt(g) prod h of the weighted inner product, at the nodes."""
    return chart.sqrt_det_many(grid.nodes()) * grid.cell_volume


def weighted_norm(chart, grid, values):
    return float(np.sqrt(np.sum(weights(chart, grid) * np.abs(values) ** 2)))


def weighted_mean_position(chart, grid, values):
    p = weights(chart, grid) * np.abs(values) ** 2
    return (p @ grid.nodes()) / p.sum()


def test_uniform_state_amplitude():
    chart, grid = flat_grid(1, 5)          # h = 1, three interior nodes
    psi = init_state(grid, chart, "uniform")
    assert psi[0] == 0 and psi[-1] == 0
    assert np.allclose(psi[1:4], 1 / np.sqrt(3))
    assert weighted_norm(chart, grid, psi) == pytest.approx(1.0, abs=1e-12)


def test_random_state_deterministic_and_normalized():
    chart, grid = flat_grid(2, 9)
    a = init_state(grid, chart, "random", seed=7)
    b = init_state(grid, chart, "random", seed=7)
    assert np.array_equal(a, b)
    c = init_state(grid, chart, "random", seed=8)
    assert not np.array_equal(a, c)
    assert weighted_norm(chart, grid, a) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_state_weighted_norm_on_sphere():
    chart = SphereStereographicChart(3, 1.0, pole="south")
    grid = Grid.for_chart(chart, 33)
    psi = init_state(grid, chart, "gaussian", center=[0.1, -0.2], width=0.2)
    assert weighted_norm(chart, grid, psi) == pytest.approx(1.0, abs=1e-12)


def test_random_smooth_state_seeded():
    chart = SphereStereographicChart(3, 1.0, pole="south")
    grid = Grid.for_chart(chart, 33)
    a = init_state(grid, chart, "random-smooth", seed=3, smooth_length=0.25)
    b = init_state(grid, chart, "random-smooth", seed=3, smooth_length=0.25)
    assert np.array_equal(a, b)
    assert weighted_norm(chart, grid, a) == pytest.approx(1.0, abs=1e-12)


def test_init_state_validation():
    chart, grid = flat_grid(1, 5)
    with pytest.raises(ParameterError):
        init_state(grid, chart, "gaussian", width=0.0)
    with pytest.raises(ParameterError):
        init_state(grid, chart, "no-such-kind")
    for bad in (-0.3, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            init_state(grid, chart, "gaussian", width=bad)
        with pytest.raises(ParameterError):
            init_state(grid, chart, "random-smooth", seed=1, smooth_length=bad)
    # random-smooth needs its length, and no longer than the box's shortest edge (4 here)
    for bad in (None, 4.5):
        with pytest.raises(ParameterError, match="smooth_length"):
            init_state(grid, chart, "random-smooth", seed=1, smooth_length=bad)
    init_state(grid, chart, "random-smooth", seed=1, smooth_length=4.0)


@pytest.mark.parametrize("chart", [SphereStereographicChart(3, 1.0, pole="south"),
                                   ConstantChart(A1)], ids=["sphere", "constant"])
def test_kinetic_matrix_carries_the_crank_nicolson_pattern(chart):
    grid = Grid.for_chart(chart, 9)
    D = assemble_laplace_beltrami(chart, grid)
    rows = np.repeat(np.arange(grid.size), np.diff(D.indptr))
    assert np.all(np.diff(rows * grid.size + D.indices) > 0)   # sorted, no duplicates
    on_diag = D.indices == rows
    assert np.array_equal(rows[on_diag], np.arange(grid.size))  # one diagonal per row
    assert np.all(D.data[on_diag][grid.boundary_mask()] == 0)
    assert np.all(D.data[~on_diag] != 0)

    pot = quadratic_potential(np.eye(2), 0.1)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=1.0, dt=0.01)
    stepper = CrankNicolsonStepper(chart, grid, pot, sched, 0.1)
    stepper.step(init_state(grid, chart, "random", seed=1), 0.0, 0.01)
    assert np.array_equal(stepper._A.indptr, stepper.kinetic.indptr)
    assert np.array_equal(stepper._A.indices, stepper.kinetic.indices)


def test_stepper_step_matches_dense_cayley_solve():
    chart = SphereStereographicChart(3, 1.0, pole="south")
    grid = Grid.for_chart(chart, 17)
    pot = sphere_quadratic_potential(np.diag([1.0, 0.5, -1.0]), 0.1, chart)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=1.0, dt=0.01)
    stepper = CrankNicolsonStepper(chart, grid, pot, sched, 0.1,
                                   include_weyl_correction=True)
    psi = init_state(grid, chart, "random", seed=2)
    t, dt = 0.3, 0.05
    H = hamiltonian(stepper, t + 0.5 * dt).toarray()
    eye = np.eye(grid.size)
    expected = np.linalg.solve(eye + 0.5j * dt * H, (eye - 0.5j * dt * H) @ psi)
    out = stepper.step(psi, t, dt)
    assert np.abs(out - expected).max() <= 1e-10 * np.abs(expected).max()


def test_cn_ground_state_is_stationary():
    # discrete harmonic well; its ground state should only acquire phase
    chart = FlatChart(1, domain=(-6.0 * np.ones(1), 6.0 * np.ones(1)))
    grid = Grid.for_chart(chart, 129)
    pot = PotentialField(lambda x: 0.5 * x[..., 0] ** 2)
    sched = Schedule(eta=1.0, t_end=1.0, dt=0.01)
    stepper = CrankNicolsonStepper(chart, grid, pot, sched, 1.0)
    evals, evecs = np.linalg.eigh(hamiltonian(stepper, 0.0).toarray())
    psi0 = evecs[:, 0] / weighted_norm(chart, grid, evecs[:, 0])
    psi = psi0
    for k in range(100):
        psi = stepper.step(psi, k * 0.01, 0.01)
    overlap = np.sum(weights(chart, grid) * np.conj(psi0) * psi)
    assert abs(abs(overlap) - 1.0) < 1e-6


def test_time_reversal_with_frozen_hamiltonian():
    chart, grid = flat_grid(2, 17)
    pot = quadratic_potential(A1, 0.1)
    a = np.exp(2 * 0.25 * 0.4)  # the exponential schedule frozen at t = 0.4
    sched = Schedule(eta=0.1, t_end=1.0, dt=0.01, a=lambda t: a)
    stepper = CrankNicolsonStepper(chart, grid, pot, sched, 0.1)
    psi = init_state(grid, chart, "random", seed=11)
    fwd = stepper.step(psi, 0.0, 0.02)
    back = stepper.step(fwd, 0.02, -0.02)
    assert np.abs(back - psi).max() < 1e-9


@pytest.mark.parametrize("chart, weyl", [
    (FlatChart(2), False),
    (SphereStereographicChart(4, 1.0, pole="north"), True),  # dV varies on a 3-chart
], ids=["flat", "sphere-weyl"])
def test_evolve_matches_manual_stepping(chart, weyl):
    grid = Grid.for_chart(chart, 13 if chart.dim == 2 else 9)
    if weyl:
        pot = sphere_quadratic_potential(np.diag([1.0, 0.5, -1.0, 0.2]), 0.1, chart)
    else:
        pot = quadratic_potential(A1, 0.1)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=0.05, dt=0.01)
    initial = init_state(grid, chart, "random", seed=5)
    trace = evolve(chart, grid, pot, sched, initial, sample_times=[0.05],
                   include_weyl_correction=weyl, mass=0.1)
    # dense reference built point by point, sharing no code with the stepper:
    # H(t) = -D / (2 m a) + diag(a eta V + dV / a)
    D = assemble_laplace_beltrami(chart, grid).toarray()
    nodes = grid.nodes()
    V = np.array([pot.fn(p) for p in nodes])
    dV = np.zeros(grid.size)
    if weyl:
        interior = ~grid.boundary_mask()
        dV[interior] = [quantum_corrections(chart, p, 0.1)[0] for p in nodes[interior]]
    eye = np.eye(grid.size)
    psi = initial
    for k in range(5):
        a = np.exp(2 * 0.25 * (k * 0.01 + 0.005))
        H = -D / (2 * 0.1 * a) + np.diag(a * 0.1 * V + dV / a)
        psi = np.linalg.solve(eye + 0.005j * H, (eye - 0.005j * H) @ psi)
    expected = weighted_mean_position(chart, grid, psi)
    assert np.abs(trace.positions[-1] - expected).max() < 1e-10


@pytest.mark.parametrize("t_end, dt, requested, expected", [
    # the short last step is a step, so t_end is recorded at t_end
    (0.25, 0.1, [0.0, 0.125, 0.25], [0.0, 0.1, 0.25]),
    # 0.01 is a tie between the steps at 0 and 0.02 and goes to the earlier one
    (0.04, 0.02, [0.0, 0.005, 0.01, 0.015, 0.02], [0.0, 0.02]),
], ids=["short_last_step", "no_duplicate_rows"])
def test_each_requested_time_is_recorded_once_at_its_nearest_step(t_end, dt, requested,
                                                                  expected):
    chart = SphereStereographicChart(3, 1.0, pole="south")
    grid = Grid.for_chart(chart, 9)
    pot = sphere_quadratic_potential(np.eye(3), 1.0, chart)
    sched = Schedule(gamma=0.25, eta=1.0, t_end=t_end, dt=dt)
    trace = evolve(chart, grid, pot, sched, init_state(grid, chart, "random", seed=1),
                   sample_times=requested, frame_times=requested)
    assert trace.times == pytest.approx(expected, abs=1e-12)
    assert [t for t, _ in trace.frames] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("change", [
    {"frame_times": [1.5]},
    {"frame_times": [-0.5, 0.5]},
    {"frame_times": [float("nan")]},
    {"initial": np.zeros(80)},
], ids=["frame_after_t_end", "frame_before_0", "frame=nan", "initial_too_short"])
def test_evolve_rejects_times_outside_the_run_and_a_misshapen_state(change):
    chart, grid = flat_grid(2, 9)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=1.0, dt=0.1)
    args = {"initial": init_state(grid, chart, "random", seed=1), **change}
    with pytest.raises(ParameterError):
        evolve(chart, grid, quadratic_potential(A1, 0.1), sched, **args)


def test_norm_conservation_and_dissipation_proxy():
    chart = SphereStereographicChart(3, 1.0, pole="south")
    grid = Grid.for_chart(chart, 33)
    A2 = np.array([[1, 0, -1 / np.sqrt(2)], [0, 1, -1 / np.sqrt(2)],
                   [-1 / np.sqrt(2), -1 / np.sqrt(2), 1.0]])
    pot = sphere_quadratic_potential(A2, 1.0, chart)
    sched = Schedule(gamma=0.25, eta=1.0, t_end=6.0, dt=0.01)
    initial = init_state(grid, chart, "random-smooth", seed=4, smooth_length=0.3)
    trace = evolve(chart, grid, pot, sched, initial, mass=1.0)
    assert trace.norm_drift() < 1e-6
    nodes = grid.nodes()
    w = chart.sqrt_det_many(nodes) * grid.cell_volume

    def variance(density, center):
        p = w * density.ravel()
        p = p / p.sum()
        return float(p @ np.sum((nodes - center) ** 2, axis=1))

    # dissipative schedule concentrates the density over the run
    sched2 = Schedule(gamma=0.25, eta=1.0, t_end=6.0, dt=0.01)
    tr2 = evolve(chart, grid, pot, sched2, initial, sample_times=[0.0, 6.0],
                 frame_times=[0.0, 6.0], mass=1.0)
    v0 = variance(tr2.frames[0][1], tr2.positions[0])
    v1 = variance(tr2.frames[-1][1], tr2.positions[-1])
    assert v1 < v0


def test_no_force_keeps_centroid_and_norm():
    chart = FlatChart(2)
    grid = Grid.for_chart(chart, 33)
    pot = quadratic_potential(np.eye(2), 1.0)
    sched = Schedule(gamma=0.0, eta=0.0, t_end=0.5, dt=0.01)
    initial = init_state(grid, chart, "gaussian", center=[0.0, 0.0], width=0.22)
    trace = evolve(chart, grid, pot, sched, initial, mass=1.0)
    assert trace.norm_drift() < 1e-8
    assert np.abs(trace.positions - trace.positions[0]).max() < 1e-10


def test_dt_refinement_second_order():
    chart = FlatChart(2)
    grid = Grid.for_chart(chart, 33)
    initial = init_state(grid, chart, "gaussian", center=[0.3, -0.2], width=0.2)

    def changes(mass, dts):
        """|<x>(2)| moved by each halving of dt."""
        pot = quadratic_potential(A1, mass)
        finals = [evolve(chart, grid, pot, Schedule(gamma=0.25, eta=0.1, t_end=2.0, dt=dt),
                         initial, sample_times=[2.0], mass=mass).positions[-1]
                  for dt in dts]
        return [np.linalg.norm(a - b) for a, b in zip(finals, finals[1:])]

    # at mass 10 the initial energy spread is 0.6, so dt times it is small
    # and each halving cuts the change by the 4 of a second-order method
    d = changes(10.0, (0.04, 0.02, 0.01, 0.005))
    assert all(3.5 <= d[i] / d[i + 1] <= 4.5 for i in range(2))
    # at mass 0.1 it is 62, 2.5 per step of 0.04: CN is not in its asymptotic
    # regime, and only the first change shrinks (the next halving grows it)
    d1, d2 = changes(0.1, (0.04, 0.02, 0.01))
    assert d2 < d1


def test_ehrenfest_position_matches_the_damped_oscillator():
    """An exact reference for the CN layer: for a quadratic V on a constant
    chart, <x> obeys x'' + 2 gamma x' + eta G^{-1} A x = 0 (Ehrenfest), here
    from rest at the centre of a real Gaussian.  The error falls as h^2, and
    the step's share of it as dt^2."""
    import scipy.linalg

    c, s = np.cos(0.4), np.sin(0.4)
    rot = np.array([[c, -s], [s, c]])
    A = rot @ np.diag([2.0, 5.0]) @ rot.T
    mass, eta, gamma, t_end = 20.0, 1.0, 0.25, 4.0
    times = np.linspace(0.0, t_end, 41)

    def positions(chart, n, dt):
        grid = Grid.for_chart(chart, n)
        psi = init_state(grid, chart, "gaussian", center=[0.3, -0.2], width=0.12)
        return evolve(chart, grid, quadratic_potential(A, mass), Schedule(gamma, eta, t_end, dt),
                      psi, sample_times=times, mass=mass).positions

    for chart in (ConstantChart([[1.0, 0.3], [0.3, 1.0]]), FlatChart(2)):
        G = chart.metric_at(np.zeros(2))
        M = np.block([[np.zeros((2, 2)), np.eye(2)],
                      [-eta * np.linalg.solve(G, A), -2.0 * gamma * np.eye(2)]])
        exact = np.array([(scipy.linalg.expm(M * t) @ [0.3, -0.2, 0.0, 0.0])[:2]
                          for t in times])
        coarse, fine = (positions(chart, n, 0.01) for n in (48, 96))
        ratio = np.abs(coarse - exact).max() / np.abs(fine - exact).max()
        assert 3.5 <= ratio <= 4.5, (type(chart).__name__, ratio)
    # the flat chart's 96^2 run at dt 0.01 between dt 0.02 and 0.005
    x = [positions(chart, 96, 0.02), fine, positions(chart, 96, 0.005)]
    ratio = np.abs(x[0] - x[1]).max() / np.abs(x[1] - x[2]).max()
    assert 3.0 <= ratio <= 5.0, ratio


def test_expectation_position_special_states():
    chart = FlatChart(2)
    grid = Grid.for_chart(chart, 41)
    psi = init_state(grid, chart, "gaussian", center=[0.25, -0.125], width=0.08)
    assert np.abs(weighted_mean_position(chart, grid, psi) - [0.25, -0.125]).max() < 1e-10
    # delta-like state
    vals = np.zeros(grid.size, complex)
    k = np.ravel_multi_index((13, 27), grid.shape)
    vals[k] = 1.0
    delta = vals / weighted_norm(chart, grid, vals)
    assert np.allclose(weighted_mean_position(chart, grid, delta), grid.nodes()[k])
    assert weighted_norm(chart, grid, delta) == pytest.approx(1.0, abs=1e-12)


def test_first_crossing_interpolates():
    from qrhd.evolve import EvolutionTrace

    times = np.array([0.0, 1.0, 2.0])
    pos = np.array([[1.0, 0.0], [0.5, 0.0], [0.1, 0.0]])
    tr = EvolutionTrace(times, pos, np.ones(3))
    ratios = np.linalg.norm(tr.positions, axis=1) / np.linalg.norm(tr.positions[0])
    t = detect_t_star(tr.times, ratios, 0.3)
    assert 1.0 < t < 2.0
    assert detect_t_star(tr.times, ratios, 0.01) is None


def test_solver_error_is_exported_as_numeric_error():
    from qrhd import NumericError, SolverError

    err = SolverError("linear solve stalled", residual=1e-3)
    assert isinstance(err, NumericError) and err.residual == 1e-3


def test_stalled_solve_refreshes_once_then_raises(monkeypatch):
    chart, grid = flat_grid(2, 9)
    pot = quadratic_potential(A1, 0.1)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=1.0, dt=0.01)
    stepper = CrankNicolsonStepper(chart, grid, pot, sched, 0.1)
    psi = init_state(grid, chart, "random", seed=1)
    # every solve stops at relative residual 1e-3; count solves and factors
    mod = sys.modules["qrhd.evolve"]
    calls = {"solve": 0, "factor": 0}
    held = []     # did the stepper still hold a factor while the next was built?
    real_factor = mod._factor

    def bicgstab(A, b, x0, precond, rtol, maxiter=400):
        calls["solve"] += 1
        return x0, 1, 1e-3

    def factor(A):
        calls["factor"] += 1
        held.append(stepper._fac is not None)
        return real_factor(A)

    monkeypatch.setattr(mod, "_bicgstab", bicgstab)
    monkeypatch.setattr(mod, "_factor", factor)
    with pytest.raises(SolverError) as info:
        stepper.step(psi, 0.0, 0.01)
    assert info.value.residual == 1e-3
    # first factorization, one refresh after the failed solve, one retry
    assert calls == {"solve": 2, "factor": 2}
    assert held == [False, False]


def test_non_finite_solve_retries_from_the_previous_state(monkeypatch):
    chart, grid = flat_grid(2, 9)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=1.0, dt=0.01)
    psi = init_state(grid, chart, "random", seed=1)
    pot = quadratic_potential(A1, 0.1)
    ref = CrankNicolsonStepper(chart, grid, pot, sched, 0.1).step(psi, 0.0, 0.01)
    stepper = CrankNicolsonStepper(chart, grid, pot, sched, 0.1)
    mod = sys.modules["qrhd.evolve"]
    starts = []
    real_bicgstab = mod._bicgstab

    def bicgstab(A, b, x0, precond, rtol, maxiter=400):
        starts.append(x0)
        if len(starts) == 1:        # the first solve diverges to NaN
            return np.full_like(x0, np.nan), 3, np.nan
        return real_bicgstab(A, b, x0, precond, rtol, maxiter)

    monkeypatch.setattr(mod, "_bicgstab", bicgstab)
    x = stepper.step(psi, 0.0, 0.01)
    assert len(starts) == 2 and np.array_equal(starts[1], psi)
    assert np.array_equal(x, ref)


def test_window_refresh_releases_the_stale_factor(monkeypatch):
    chart, grid = flat_grid(2, 9)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=1.0, dt=0.1)
    stepper = CrankNicolsonStepper(chart, grid, quadratic_potential(A1, 0.1), sched, 0.1)
    psi = init_state(grid, chart, "random", seed=1)
    mod = sys.modules["qrhd.evolve"]
    held = []
    real_factor = mod._factor

    def factor(A):
        held.append(stepper._fac is not None)
        return real_factor(A)

    monkeypatch.setattr(mod, "_factor", factor)
    for k in range(10):             # one factor serves 0.125 of log a, three steps here
        psi = stepper.step(psi, 0.1 * k, 0.1)
    assert max(stepper.solve_iterations) < 6
    assert len(held) == 4 and not any(held)


def record_factors(monkeypatch):
    """Replace ``_factor`` by one that keeps a copy of each matrix it factors."""
    mod = sys.modules["qrhd.evolve"]
    factored = []
    real_factor = mod._factor

    def factor(A):
        factored.append(A.copy())
        return real_factor(A)

    monkeypatch.setattr(mod, "_factor", factor)
    return factored


def test_constant_schedule_factors_once(monkeypatch):
    chart, grid = flat_grid(2, 9)
    sched = Schedule(gamma=0.0, eta=0.1, t_end=1.0, dt=0.01)
    factored = record_factors(monkeypatch)
    evolve(chart, grid, quadratic_potential(A1, 0.1), sched,
           init_state(grid, chart, "random", seed=1), mass=0.1)
    assert len(factored) == 1


def test_first_factor_sits_half_a_band_ahead_of_the_step(monkeypatch):
    chart, grid = flat_grid(2, 9)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=1.0, dt=0.01)
    stepper = CrankNicolsonStepper(chart, grid, quadratic_potential(A1, 0.1), sched, 0.1)
    factored = record_factors(monkeypatch)
    stepper.step(init_state(grid, chart, "random", seed=1), 0.0, 0.01)
    # a(t) = e^{t/2}, so a(t_mid) e^{PRECOND_BAND/2} = a(t_mid + 0.125)
    centre = sp.identity(grid.size) + 0.005j * hamiltonian(stepper, 0.005 + 0.125)
    assert len(factored) == 1
    assert abs(factored[0] - centre).max() < 1e-12 * abs(centre).max()


def test_stepper_reads_a_only_at_zero_and_at_step_midpoints():
    # a band centred in time would ask for a(t_mid + 0.125), past t_end on the last band
    asked = []

    def a(t):
        asked.append(t)
        return np.exp(2.0 * t)

    chart, grid = flat_grid(2, 9)
    sched = Schedule(a=a, eta=0.1, t_end=1.0, dt=0.1)
    evolve(chart, grid, quadratic_potential(A1, 0.1), sched,
           init_state(grid, chart, "random", seed=1), mass=0.1)
    midpoints = (np.arange(10) + 0.5) * 0.1
    assert {0.0} < set(asked)
    assert all(t == 0.0 or np.abs(midpoints - t).min() < 1e-12 for t in asked)


def test_sweep_physics_holds_bicgstab_iterations_under_four():
    # the sweep_sphere64 benchmark's physics: one factor per band of a(t), centred
    cfg = BUILTIN_CONFIGS["sphere_demo"]
    chart = build_chart(cfg["charts"][1], cfg["domain"])
    grid = Grid.for_chart(chart, 64)
    sched = build_schedule(dict(cfg["schedule"], t_end=0.5))
    mass = cfg["mass"]
    stepper = CrankNicolsonStepper(chart, grid, build_potential(cfg["potential"], mass, chart),
                                   sched, mass, include_weyl_correction=True)
    psi = init_state(grid, chart, "random-smooth", seed=7,
                     smooth_length=cfg["initial"]["smooth_length"])
    for k in range(50):
        psi = stepper.step(psi, 0.01 * k, 0.01)
    assert np.mean(stepper.solve_iterations) <= 3.7
    assert max(stepper.solve_iterations) <= 4


def test_fresh_factor_holds_the_iteration_count_on_the_256_flat_chart():
    # the flat_demo physics at t = 0; a fill cap that truncated this factor took 36 iterations
    chart = FlatChart(2)
    grid = Grid.for_chart(chart, 256)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=24.0, dt=0.01)
    stepper = CrankNicolsonStepper(chart, grid, quadratic_potential(A1, 0.1), sched, 0.1)
    psi = init_state(grid, chart, "random-smooth", seed=42, smooth_length=0.35)
    stepper.step(psi, 0.0, 0.01)
    assert stepper.solve_iterations[0] <= 6


@pytest.mark.parametrize("shape, sigmas", [
    ((64, 64), (2.3, 2.3)),
    ((128, 128), (5.6, 5.6)),
    ((9, 9, 9), (1.1, 0.7, 2.0)),
    ((5, 40), (0.9, 3.1)),
    ((7, 7), (2.4, 2.4)),       # radius 10 is longer than the axis
    ((7, 7), (0.0, 3.0)),       # the first axis is skipped
])
def test_gaussian_filter_is_bitwise_scipy(shape, sigmas):
    import scipy.ndimage

    f = np.random.default_rng(len(shape)).standard_normal(shape)
    ours = sys.modules["qrhd.evolve"]._gaussian_filter(f, np.array(sigmas))
    assert np.array_equal(ours, scipy.ndimage.gaussian_filter(f, np.array(sigmas)))


def test_bicgstab_stops_at_half_step_with_exact_preconditioner():
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    chart, grid = flat_grid(2, 9)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=1.0, dt=0.01)
    stepper = CrankNicolsonStepper(chart, grid, quadratic_potential(A1, 0.1), sched, 0.1)
    psi = init_state(grid, chart, "random", seed=1)
    dt = 0.01
    H = hamiltonian(stepper, 0.5 * dt)
    A = (sp.identity(grid.size) + 0.5j * dt * H).tocsr()
    b = psi - 0.5j * dt * (H @ psi)
    lu = spla.splu(A.tocsc())
    calls = []

    def precond(v):
        calls.append(v)
        return lu.solve(v)

    # an exact preconditioner solves at the half step: one solve, no second
    x, it, res = sys.modules["qrhd.evolve"]._bicgstab(A, b, psi, precond, 1e-12)
    assert (len(calls), it) == (1, 1)
    assert res <= 1e-12
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
