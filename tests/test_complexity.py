import itertools

import numpy as np
import pytest

from qrhd import (
    ConstantChart,
    CustomChart,
    FlatChart,
    Grid,
    ParameterError,
    Schedule,
    ScheduleError,
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


def make_inputs(T=5.0, **over):
    """query_count's keyword arguments; T is the schedule's t_end."""
    base = dict(
        kinetic_norm=1.0e4,
        v_max=0.2,
        schedule=Schedule(gamma=0.3, eta=1.0, t_end=T, dt=0.1),
        sparsity=5,
        epsilon=1e-3,
        delta=0.05,
    )
    base.update(over)
    return base


def test_schedule_integral_constant():
    sched = Schedule(gamma=0.0, eta=1.0, t_end=3.0, dt=0.1)
    assert schedule_integral(sched) == pytest.approx(3.0, rel=1e-10)


def test_schedule_integral_closed_form_value():
    sched = Schedule(gamma=0.5, eta=1.0, t_end=2.0, dt=0.1)
    assert schedule_integral(sched) == pytest.approx(np.e**2 - 1.0, rel=1e-12)


def test_schedule_integral_quadrature_matches_closed_form():
    gamma, eta = 0.4, 0.7
    exact = eta * (np.exp(2 * gamma * 3.0) - 1.0) / (2 * gamma)
    # a given a(t) takes the quadrature path
    sched = Schedule(eta=eta, t_end=3.0, dt=0.1, a=lambda t: np.exp(2 * gamma * t))
    assert schedule_integral(sched) == pytest.approx(exact, rel=1e-8)


def test_schedule_integral_of_a_given_a_is_never_the_closed_form():
    # a(t) = e^t up to t = 1 and t e^t after: e^{2 gamma t} on [0, 1] only,
    # so the integral to 3 is (e - 1) + 2 e^3, not (e^3 - 1) / (2 gamma)
    sched = Schedule(gamma=0.5, eta=1.0, t_end=3.0, dt=0.1,
                     a=lambda t: np.exp(t) * (t if t > 1.0 else 1.0))
    assert schedule_integral(sched) == pytest.approx(np.e - 1.0 + 2.0 * np.e**3, rel=1e-8)


def test_kinetic_norm_mass_scaling():
    chart = FlatChart(2)
    grid = Grid.for_chart(chart, 17)
    a1 = kinetic_norm_bound(chart, grid, 1.0, representation="stencil")
    a_half = kinetic_norm_bound(chart, grid, 2.0, representation="stencil")
    assert a_half == pytest.approx(a1 / 2.0, rel=1e-9)
    am = kinetic_norm_bound(chart, grid, 1.0, representation="momentum")
    am_half = kinetic_norm_bound(chart, grid, 2.0, representation="momentum")
    assert am_half == pytest.approx(am / 2.0, rel=1e-12)


@pytest.mark.parametrize("gamma", [-0.3, 0.0, 0.5])
def test_alpha_h_is_the_kinetic_norm_over_the_smallest_a(gamma):
    # 1 / a(t) = e^{-2 gamma t} is largest at t = T for gamma < 0, else at t = 0
    rep = query_count(**make_inputs(schedule=Schedule(gamma=gamma, eta=1.0, t_end=5.0, dt=0.1)))
    expect = 1.0e4 * np.exp(-2.0 * gamma * 5.0) if gamma < 0 else 1.0e4
    assert rep["alpha_h"] == pytest.approx(expect, rel=1e-12)


def test_alpha_and_beta_take_their_extremes_over_the_same_129_times():
    # a(t) = 2 + sin(3 t) peaks at pi/6 and dips at pi/2, both between samples
    sched = Schedule(eta=0.5, t_end=5.0, dt=0.1, a=lambda t: 2.0 + np.sin(3.0 * t))
    a = 2.0 + np.sin(3.0 * np.linspace(0.0, 5.0, 129))
    a64 = 2.0 + np.sin(3.0 * np.linspace(0.0, 5.0, 64))
    assert 1.0 < a.min() != a64.min() and a64.max() != a.max() < 3.0
    rep = query_count(**make_inputs(schedule=sched))
    assert rep["alpha_h"] == pytest.approx(1.0e4 / a.min(), rel=1e-14)
    assert rep["beta_h"] == pytest.approx(0.5 * a.max() * 0.2, rel=1e-14)


def test_momentum_representation_ratio_is_inverse_min_eigenvalue():
    flat = FlatChart(2)
    metric = ConstantChart(A1)
    grid_f = Grid.for_chart(flat, 48)
    grid_m = Grid.for_chart(metric, 48)
    af = kinetic_norm_bound(flat, grid_f, 0.1, representation="momentum")
    am = kinetic_norm_bound(metric, grid_m, 0.1, representation="momentum")
    assert am / af == pytest.approx(10.0, rel=1e-9)


@pytest.mark.parametrize("chart, n", [
    (SphereStereographicChart(3, 1.2, pole="north"), 91),   # over 4096 nodes: every 2nd
    (CustomChart(2, lambda x: np.array([[1.0 + x[0] ** 2, 0.3 * x[1]],
                                        [0.3 * x[1], 2.0 + np.sin(x[0])]])), 21),
])
def test_momentum_bound_matches_a_per_node_loop(chart, n):
    grid = Grid.for_chart(chart, n)
    kmax = np.pi / grid.spacing
    nodes = grid.nodes()
    worst = 0.0
    for p in nodes[::max(1, len(nodes) // 4096)]:
        ginv = np.linalg.inv(chart.metric_at(p))
        for signs in itertools.product((-1.0, 1.0), repeat=chart.dim):
            k = kmax * np.array(signs)
            worst = max(worst, k @ ginv @ k)
    got = kinetic_norm_bound(chart, grid, 0.7, representation="momentum")
    assert got == pytest.approx(worst / (2 * 0.7), rel=1e-12)


def test_stencil_representation_undershoots_momentum_for_mixed_metrics():
    # local stencils cannot track the mixed-derivative symbol at high k;
    # the assembled-operator norm ratio saturates near 5.26, not 10
    flat = FlatChart(2)
    metric = ConstantChart(A1)
    grid_f = Grid.for_chart(flat, 48)
    grid_m = Grid.for_chart(metric, 48)
    af = kinetic_norm_bound(flat, grid_f, 0.1, representation="stencil")
    am = kinetic_norm_bound(metric, grid_m, 0.1, representation="stencil")
    assert am / af == pytest.approx(5.26, rel=0.02)


def test_stencil_norm_is_the_analytic_flat_value():
    # the top eigenvalue of the 46^2 interior 5-point Laplacian, mode (46, 46):
    # 2 (4 / h^2) sin^2(46 pi / 94), over 2 m with m = 1
    chart = FlatChart(2)
    grid = Grid.for_chart(chart, 48)
    h = grid.spacing[0]
    exact = 2.0 * (4.0 / h**2) * np.sin(46 * np.pi / 94) ** 2 / 2.0
    got = kinetic_norm_bound(chart, grid, 1.0, representation="stencil")
    assert got == pytest.approx(exact, rel=1e-10)


def test_stencil_norm_of_a_nonsymmetric_operator_is_its_largest_singular_value():
    chart = SphereStereographicChart(3, 1.0, pole="south")
    grid = Grid.for_chart(chart, 15)
    D = assemble_laplace_beltrami(chart, grid)
    assert abs(D - D.T).max() > 0
    dense = np.linalg.norm(D.toarray(), 2)
    got = kinetic_norm_bound(chart, grid, 0.5, representation="stencil")
    assert got == pytest.approx(dense, rel=1e-10)


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
    rep = query_count(**make_inputs())
    assert rep["n_query_total"] == pytest.approx(rep["n_query_a"] + rep["n_query_ub"], rel=1e-14)
    assert rep["dyson_factor"] > 0 and rep["schedule_integral"] > 0
    # delta = 1/e makes the repetition factor exactly one
    rep_e = query_count(**make_inputs(delta=1.0 / np.e))
    assert rep_e["log_delta"] == pytest.approx(1.0, rel=1e-14)
    # shrinking epsilon by 10x grows counts exactly per the formula
    a, b = make_inputs(), make_inputs(epsilon=1e-4)
    ra, rb = query_count(**a), query_count(**b)
    expect = (np.log(1e4) ** 2 / np.log(1e3) ** 2) * (
        dyson_factor(b["kinetic_norm"] * b["schedule"].t_end / b["epsilon"])
        / dyson_factor(a["kinetic_norm"] * a["schedule"].t_end / a["epsilon"])
    )
    assert rb["n_query_a"] / ra["n_query_a"] == pytest.approx(expect, rel=1e-12)


def test_query_count_monotonicity():
    base = query_count(**make_inputs())["n_query_total"]
    assert query_count(**make_inputs(T=6.0))["n_query_total"] > base
    assert query_count(**make_inputs(kinetic_norm=2.0e4))["n_query_total"] > base
    assert query_count(**make_inputs(v_max=0.4))["n_query_total"] > base
    assert query_count(**make_inputs(epsilon=5e-4))["n_query_total"] > base
    assert query_count(**make_inputs(delta=0.01))["n_query_total"] > base


def test_inputs_validation():
    with pytest.raises(ParameterError):
        query_count(**make_inputs(epsilon=0.0))
    with pytest.raises(ParameterError):
        query_count(**make_inputs(delta=1.0))
    with pytest.raises(ParameterError):
        query_count(**make_inputs(T=-1.0))
    with pytest.raises(ParameterError):
        query_count(**make_inputs(kinetic_norm=0.0))
    # a given a(t) that reaches zero inside [0, T] has no max 1/a
    with pytest.raises(ScheduleError):
        query_count(**make_inputs(schedule=Schedule(t_end=5.0, dt=0.1, a=lambda t: 1.0 - t)))


def test_flat_pair_cancellation_with_bound_times():
    # alpha ratio 10 against t* ratio 1/sqrt(10): alpha T^2 cancels
    flat = FlatChart(2)
    metric = ConstantChart(A1)
    af = kinetic_norm_bound(flat, Grid.for_chart(flat, 48), 0.1,
                            representation="momentum")
    am = kinetic_norm_bound(metric, Grid.for_chart(metric, 48), 0.1,
                            representation="momentum")
    tf, _ = convergence_bound(0.01, 0.1, 0.1, 0.05)   # lambda_min(Hess V)
    tm, _ = convergence_bound(0.1, 0.1, 0.1, 0.05)    # lambda_min(g^-1 Hess V)
    assert (am / af) * (tm / tf) ** 2 == pytest.approx(1.0, rel=1e-9)
