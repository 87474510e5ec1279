import itertools

import numpy as np
import pytest

from qrhd import (
    ComplexityInputs,
    ConstantChart,
    CustomChart,
    FlatChart,
    Grid,
    ParameterError,
    Schedule,
    SphereStereographicChart,
    assemble_laplace_beltrami,
    convergence_bound,
    dyson_factor,
    kinetic_norm_bound,
    measured_sparsity,
    query_count,
    schedule_integral,
)

A1 = np.array([[1.0, -0.9], [-0.9, 1.0]])


def make_inputs(**over):
    base = dict(
        alpha_h=1.0e4,
        v_max=0.2,
        schedule=Schedule(gamma=0.3, eta=1.0, t_end=10.0, dt=0.1),
        T=5.0,
        sparsity=5,
        epsilon=1e-3,
        delta=0.05,
    )
    base.update(over)
    return ComplexityInputs(**base)


def test_schedule_integral_constant():
    sched = Schedule(gamma=0.0, eta=1.0, t_end=5.0, dt=0.1)
    assert schedule_integral(sched, 3.0) == pytest.approx(3.0, rel=1e-10)


def test_schedule_integral_closed_form_value():
    sched = Schedule(gamma=0.5, eta=1.0, t_end=5.0, dt=0.1)
    assert schedule_integral(sched, 2.0) == pytest.approx(np.e**2 - 1.0, rel=1e-12)


def test_schedule_integral_quadrature_matches_closed_form():
    gamma, eta = 0.4, 0.7
    exact = eta * (np.exp(2 * gamma * 3.0) - 1.0) / (2 * gamma)
    # a given a(t) takes the quadrature path
    sched = Schedule(eta=eta, t_end=5.0, dt=0.1, a=lambda t: np.exp(2 * gamma * t))
    assert schedule_integral(sched, 3.0) == pytest.approx(exact, rel=1e-8)


def test_schedule_integral_of_a_given_a_is_never_the_closed_form():
    # a(t) = e^t up to t = 1 and t e^t after: e^{2 gamma t} on [0, 1] only,
    # so the integral to 3 is (e - 1) + 2 e^3, not (e^3 - 1) / (2 gamma)
    sched = Schedule(gamma=0.5, eta=1.0, t_end=5.0, dt=0.1,
                     a=lambda t: np.exp(t) * (t if t > 1.0 else 1.0))
    assert schedule_integral(sched, 3.0) == pytest.approx(np.e - 1.0 + 2.0 * np.e**3, rel=1e-8)


def test_kinetic_norm_max_at_t_zero_and_mass_scaling():
    chart = FlatChart(2)
    grid = Grid.for_chart(chart, 17)
    sched = Schedule(gamma=0.5, eta=1.0, t_end=4.0, dt=0.1)
    a1 = kinetic_norm_bound(chart, grid, 1.0, sched, tol=1e-8)
    # max over t of e^{-2 gamma t} sits at t = 0
    sched0 = Schedule(gamma=0.5, eta=1.0, t_end=1e-9, dt=1e-9)
    a0 = kinetic_norm_bound(chart, grid, 1.0, sched0, tol=1e-8)
    assert a1 == pytest.approx(a0, rel=1e-9)
    a_half = kinetic_norm_bound(chart, grid, 2.0, sched, tol=1e-8)
    assert a_half == pytest.approx(a1 / 2.0, rel=1e-9)
    am = kinetic_norm_bound(chart, grid, 1.0, sched, representation="momentum")
    am_half = kinetic_norm_bound(chart, grid, 2.0, sched, representation="momentum")
    assert am_half == pytest.approx(am / 2.0, rel=1e-12)


def test_momentum_representation_ratio_is_inverse_min_eigenvalue():
    flat = FlatChart(2)
    metric = ConstantChart(A1)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=1.0, dt=0.1)
    grid_f = Grid.for_chart(flat, 48)
    grid_m = Grid.for_chart(metric, 48)
    af = kinetic_norm_bound(flat, grid_f, 0.1, sched, representation="momentum")
    am = kinetic_norm_bound(metric, grid_m, 0.1, sched, representation="momentum")
    assert am / af == pytest.approx(10.0, rel=1e-9)


@pytest.mark.parametrize("chart, n", [
    (SphereStereographicChart(3, 1.2, pole="north"), 91),   # over 4096 nodes: every 2nd
    (CustomChart(2, lambda x: np.array([[1.0 + x[0] ** 2, 0.3 * x[1]],
                                        [0.3 * x[1], 2.0 + np.sin(x[0])]])), 21),
])
def test_momentum_bound_matches_a_per_node_loop(chart, n):
    grid = Grid.for_chart(chart, n)
    sched = Schedule(gamma=0.3, eta=1.0, t_end=2.0, dt=0.1)
    kmax = np.pi / grid.spacing
    nodes = grid.nodes()
    worst = 0.0
    for p in nodes[::max(1, len(nodes) // 4096)]:
        ginv = np.linalg.inv(chart.metric_at(p))
        for signs in itertools.product((-1.0, 1.0), repeat=chart.dim):
            k = kmax * np.array(signs)
            worst = max(worst, k @ ginv @ k)
    # 1 / a(t) = exp(-2 gamma t) is largest at t = 0
    got = kinetic_norm_bound(chart, grid, 0.7, sched, representation="momentum")
    assert got == pytest.approx(worst / (2 * 0.7), rel=1e-12)


def test_stencil_representation_undershoots_momentum_for_mixed_metrics():
    # local stencils cannot track the mixed-derivative symbol at high k;
    # the assembled-operator norm ratio saturates near 5.26, not 10
    flat = FlatChart(2)
    metric = ConstantChart(A1)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=1.0, dt=0.1)
    grid_f = Grid.for_chart(flat, 48)
    grid_m = Grid.for_chart(metric, 48)
    af = kinetic_norm_bound(flat, grid_f, 0.1, sched, tol=1e-6)
    am = kinetic_norm_bound(metric, grid_m, 0.1, sched, tol=1e-6)
    assert am / af == pytest.approx(5.26, rel=0.02)


def test_measured_sparsity():
    chart = FlatChart(2)
    grid = Grid.for_chart(chart, 9)
    D = assemble_laplace_beltrami(chart, grid)
    assert measured_sparsity(D) == 5
    Dm = assemble_laplace_beltrami(ConstantChart(A1), Grid.for_chart(ConstantChart(A1), 9))
    assert measured_sparsity(Dm) == 9


def test_dyson_factor_precondition():
    with pytest.raises(ParameterError):
        dyson_factor(1.0)
    x = 50.0
    assert dyson_factor(x) == pytest.approx(np.log(x) / np.log(np.log(x)))


def test_query_report_identities_and_formula_scalings():
    rep = query_count(make_inputs())
    assert rep.n_query_total == pytest.approx(rep.n_query_a + rep.n_query_ub, rel=1e-14)
    assert rep.dyson_factor > 0 and rep.schedule_integral > 0
    # delta = 1/e makes the repetition factor exactly one
    rep_e = query_count(make_inputs(delta=1.0 / np.e))
    assert rep_e.log_delta == pytest.approx(1.0, rel=1e-14)
    # shrinking epsilon by 10x grows counts exactly per the formula
    a, b = make_inputs(), make_inputs(epsilon=1e-4)
    ra, rb = query_count(a), query_count(b)
    expect = (np.log(1e4) ** 2 / np.log(1e3) ** 2) * (
        dyson_factor(b.alpha_h * b.T / b.epsilon) / dyson_factor(a.alpha_h * a.T / a.epsilon)
    )
    assert rb.n_query_a / ra.n_query_a == pytest.approx(expect, rel=1e-12)


def test_query_count_monotonicity():
    base = query_count(make_inputs()).n_query_total
    assert query_count(make_inputs(T=6.0)).n_query_total > base
    assert query_count(make_inputs(alpha_h=2.0e4)).n_query_total > base
    assert query_count(make_inputs(v_max=0.4)).n_query_total > base
    assert query_count(make_inputs(epsilon=5e-4)).n_query_total > base
    assert query_count(make_inputs(delta=0.01)).n_query_total > base


def test_inputs_validation():
    with pytest.raises(ParameterError):
        make_inputs(epsilon=0.0)
    with pytest.raises(ParameterError):
        make_inputs(delta=1.0)
    with pytest.raises(ParameterError):
        make_inputs(T=-1.0)
    with pytest.raises(ParameterError):
        make_inputs(alpha_h=0.0)


def test_flat_pair_cancellation_with_bound_times():
    # alpha ratio 10 against t* ratio 1/sqrt(10): alpha T^2 cancels
    sched = Schedule(gamma=0.25, eta=0.1, t_end=1.0, dt=0.1)
    flat = FlatChart(2)
    metric = ConstantChart(A1)
    af = kinetic_norm_bound(flat, Grid.for_chart(flat, 48), 0.1, sched,
                            representation="momentum")
    am = kinetic_norm_bound(metric, Grid.for_chart(metric, 48), 0.1, sched,
                            representation="momentum")
    tf, _ = convergence_bound(0.01, 0.1, 0.1, 0.05)   # lambda_min(Hess V)
    tm, _ = convergence_bound(0.1, 0.1, 0.1, 0.05)    # lambda_min(g^-1 Hess V)
    assert (am / af) * (tm / tf) ** 2 == pytest.approx(1.0, rel=1e-9)
