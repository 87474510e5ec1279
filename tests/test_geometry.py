import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrhd import (
    ConstantChart,
    CrankNicolsonStepper,
    CustomChart,
    DomainError,
    FlatChart,
    Grid,
    ParameterError,
    PoleSingularityError,
    PotentialField,
    Schedule,
    SingularMetricError,
    SphereStereographicChart,
    integrate_eom,
    kinetic_norm_bound,
    manifold_hessian,
    quadratic_potential,
    quantum_corrections,
    sphere_quadratic_potential,
)

A1 = np.array([[1.0, -0.9], [-0.9, 1.0]])
A2 = np.array([
    [1.0, 0.0, -1.0 / np.sqrt(2)],
    [0.0, 1.0, -1.0 / np.sqrt(2)],
    [-1.0 / np.sqrt(2), -1.0 / np.sqrt(2), 1.0],
])


@pytest.fixture(scope="module")
def south3():
    return SphereStereographicChart(3, 1.0, pole="south")


@pytest.fixture(scope="module")
def north4():
    return SphereStereographicChart(4, 2.0, pole="north")


def interior_points(chart, n, seed=0):
    rng = np.random.default_rng(seed)
    lo = chart.lo + 0.05 * (chart.hi - chart.lo)
    hi = chart.hi - 0.05 * (chart.hi - chart.lo)
    return lo + (hi - lo) * rng.uniform(size=(n, chart.dim))


@pytest.mark.parametrize("chart", [
    FlatChart(2),
    ConstantChart(A1),
    SphereStereographicChart(3, 1.0, pole="south"),
    SphereStereographicChart(4, 2.0, pole="north"),
])
def test_metric_inverse_identity(chart):
    for p in interior_points(chart, 100):
        g = chart.metric_at(p)
        ginv = chart.inverse_metric_at(p)
        assert np.abs(g @ ginv - np.eye(chart.dim)).max() < 1e-12


def test_flat_chart_is_trivial():
    ch = FlatChart(2)
    p = np.array([0.3, -0.5])
    assert np.array_equal(ch.christoffel_at(p), np.zeros((2, 2, 2)))
    assert ch.ricci_scalar_at(p) == 0.0
    assert np.array_equal(ch.metric_at(p), np.eye(2))


def test_constant_chart_flat_geometry():
    ch = ConstantChart(A1)
    p = np.array([0.2, 0.4])
    assert np.array_equal(ch.christoffel_at(p), np.zeros((2, 2, 2)))
    assert ch.ricci_scalar_at(p) == 0.0


def test_constant_chart_rejects_bad_matrices():
    with pytest.raises(ParameterError):
        ConstantChart(np.array([[1.0, 0.5], [0.3, 1.0]]))
    with pytest.raises(SingularMetricError):
        ConstantChart(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_sphere_christoffel_vanishes_at_origin(south3):
    gam = south3.christoffel_at(np.zeros(2))
    assert np.abs(gam).max() == 0.0


def test_sphere_christoffel_closed_form(south3):
    # conformal-factor form: Gamma^i_jk = (d^i_k b_j + d^i_j b_k - d_jk b^i)/2
    # with b = grad xi = -4 v / (R^2 (1 + |v|^2/R^2))
    v = np.array([0.3, 0.1])
    s = v @ v
    b = -4.0 * v / (1.0 + s)
    eye = np.eye(2)
    expected = 0.5 * (
        np.einsum('ik,j->ijk', eye, b)
        + np.einsum('ij,k->ijk', eye, b)
        - np.einsum('jk,i->ijk', eye, b)
    )
    assert np.abs(south3.christoffel_at(v) - expected).max() < 1e-14


@pytest.mark.parametrize("chart_name", ["south3", "north4"])
def test_christoffel_matches_finite_differences(chart_name, request):
    chart = request.getfixturevalue(chart_name)
    fd = CustomChart(chart.dim, chart.metric_at, domain=(chart.lo, chart.hi))
    for p in interior_points(chart, 10, seed=3):
        assert np.abs(chart.christoffel_at(p) - fd.christoffel_at(p)).max() < 1e-6


def test_christoffel_symmetric_lower_indices(south3, north4):
    for chart in (south3, north4):
        for p in interior_points(chart, 20, seed=4):
            gam = chart.christoffel_at(p)
            assert np.abs(gam - gam.transpose(0, 2, 1)).max() < 1e-12


def test_ricci_scalar_constant_on_sphere(south3, north4):
    for chart in (south3, north4):
        vals = np.array([chart.ricci_scalar_at(p) for p in interior_points(chart, 100, seed=5)])
        assert np.ptp(vals) <= 1e-8 * np.abs(vals).max()
        # positive-curvature convention; value d(d-1)/R^2 of the round sphere
        d, R = chart.dim, chart.radius
        assert vals[0] == pytest.approx(d * (d - 1) / R**2, rel=1e-12)


def test_ricci_scalar_matches_finite_differences(south3):
    fd = CustomChart(2, south3.metric_at, domain=(south3.lo, south3.hi))
    for p in interior_points(south3, 5, seed=6):
        assert abs(south3.ricci_scalar_at(p) - fd.ricci_scalar_at(p)) < 1e-6


def test_quantum_corrections_vanish_exactly_on_flat_and_constant():
    p = np.array([0.37, -0.21])
    assert quantum_corrections(FlatChart(2), p, 1.0) == (0.0, 0.0)
    assert quantum_corrections(ConstantChart(A1), p, 0.1) == (0.0, 0.0)


def test_quantum_corrections_sphere_against_finite_differences(south3):
    fd = CustomChart(2, south3.metric_at, domain=(south3.lo, south3.hi))
    for p in [np.zeros(2), np.array([0.3, 0.1]), np.array([-0.4, 0.55])]:
        dv, dvp = quantum_corrections(south3, p, 1.0)
        fdv, fdvp = quantum_corrections(fd, p, 1.0)
        assert abs(dv - fdv) < 1e-6
        assert abs(dvp - fdvp) < 1e-6


def test_corrections_difference_the_connection_once():
    # d = 3: g^-1 and Gamma cost 1 + (1 + 4 * 3) metric calls per point and one
    # difference of Gamma 4 * 3 * 13 = 156; the trace gradient reuses it
    sphere = SphereStereographicChart(4, 1.0)
    calls = []

    def metric(x):
        calls.append(x)
        return sphere.metric_at(x)

    chart = CustomChart(3, metric, domain=(sphere.lo, sphere.hi))
    pts = interior_points(chart, 4, seed=8)
    dv, dvp = quantum_corrections(chart, pts, 1.0)
    assert len(calls) == 170 * len(pts)
    ref = np.array(sphere.quantum_corrections_many(pts, 1.0))
    assert np.abs(np.array([dv, dvp]) - ref).max() < 1e-6


def test_quantum_corrections_sphere_two_dim_closed_form(south3):
    # on the 2-sphere chart both terms are constant: -1/(4 m R^2) each
    for p in interior_points(south3, 10, seed=7):
        dv, dvp = quantum_corrections(south3, p, 2.0)
        assert dv == pytest.approx(-1.0 / 8.0, abs=1e-13)
        assert dvp == pytest.approx(-1.0 / 8.0, abs=1e-13)


def test_quantum_corrections_requires_positive_mass(south3):
    with pytest.raises(ParameterError):
        quantum_corrections(south3, np.zeros(2), 0.0)
    with pytest.raises(ParameterError):
        quantum_corrections(south3, np.zeros((3, 2)), -1.0)


def _stepper(chart, mass):
    grid = Grid.for_chart(chart, 9)
    return CrankNicolsonStepper(chart, grid, quadratic_potential(np.eye(2), 1.0),
                                Schedule(0.25, 1.0, 0.1, 0.05), mass)


def _integrate(chart, mass):
    return integrate_eom(chart, quadratic_potential(np.eye(2), 1.0), Schedule(0.25),
                         np.array([0.3, -0.2]), np.zeros(2), np.array([0.0, 0.1]), mass=mass)


@pytest.mark.parametrize("entry", [
    _stepper,
    _integrate,
    lambda chart, mass: quantum_corrections(chart, np.zeros(2), mass),
    lambda chart, mass: kinetic_norm_bound(chart, Grid.for_chart(chart, 9), mass),
], ids=["CrankNicolsonStepper", "integrate_eom", "quantum_corrections", "kinetic_norm_bound"])
@pytest.mark.parametrize("mass", [np.nan, np.inf, 0.0, -1.0])
def test_every_entry_point_rejects_a_mass_that_is_not_finite_and_positive(south3, entry, mass):
    with pytest.raises(ParameterError, match="mass must be finite and positive"):
        entry(south3, mass)


@pytest.mark.parametrize("chart", [
    SphereStereographicChart(3, 1.0, pole="south"),
    SphereStereographicChart(3, 1.5, pole="north"),
    SphereStereographicChart(4, 1.0, pole="south"),
    SphereStereographicChart(4, 2.0, pole="north"),
    CustomChart(2, lambda x: np.array([[1.0 + x[0] ** 2, 0.3 * x[1]],
                                       [0.3 * x[1], 2.0 + np.sin(x[0])]])),
])
def test_quantum_corrections_stack_matches_pointwise(chart):
    custom = isinstance(chart, CustomChart)
    pts = interior_points(chart, 5 if custom else 40, seed=3)
    pts[0] = 0.0
    dv, dvp = quantum_corrections(chart, pts, 0.7)
    assert dv.shape == dvp.shape == (len(pts),)
    if custom:
        # the rows of a stack against the points on their own
        ref = np.array([quantum_corrections(chart, p, 0.7) for p in pts]).T
    else:
        # the sphere's closed forms against contracting the sphere's analytic
        # connection, Ricci scalar and trace gradient d_i Gamma_j = (d / 2) Hess xi,
        # Hess xi = c I + (c^2 / 2) v v^T
        ginv, gam = chart.inverse_metric_at(pts), chart.christoffel_at(pts)
        c = chart._xi_slope(pts)[:, None, None]
        outer = np.einsum('...i,...j->...ij', pts, pts)
        trace_grad = 0.5 * chart.dim * (c * np.eye(chart.dim) + 0.5 * c * c * outer)
        contraction = np.einsum('...ij,...kil,...ljk->...', ginv, gam, gam)
        ref = ((-chart.ricci_scalar_at(pts) + contraction) / (8.0 * 0.7),
               np.einsum('...ij,...ij->...', ginv, trace_grad) / (8.0 * 0.7))
    assert np.abs(dv - ref[0]).max() <= 1e-13
    assert np.abs(dvp - ref[1]).max() <= 1e-13
    single = quantum_corrections(chart, pts[1], 0.7)
    assert all(type(x) is float for x in single)
    assert single == (dv[1], dvp[1])


@pytest.mark.parametrize("chart", [FlatChart(2), ConstantChart(A1)])
def test_quantum_corrections_stack_is_exactly_zero_on_flat_and_constant(chart):
    dv, dvp = quantum_corrections(chart, interior_points(chart, 7), 0.1)
    assert np.array_equal(dv, np.zeros(7)) and np.array_equal(dvp, np.zeros(7))


@pytest.mark.parametrize("ambient, radius", [(3, 1.0), (4, 2.0), (6, 0.5)])
def test_quantum_corrections_stack_sums_to_semiclassical_correction(ambient, radius):
    # dV + dV' on the conformal sphere chart, linear in s = |v|^2 / R^2
    chart = SphereStereographicChart(ambient, radius, pole="north")
    pts = interior_points(chart, 20, seed=4)
    dv, dvp = quantum_corrections(chart, pts, 1.3)
    d, s = chart.dim, np.sum(pts**2, axis=1) / radius**2
    ref = (-6.0 * d * d + 4.0 * d + (8.0 - 2.0 * d * d) * s) / (32.0 * 1.3 * radius**2)
    assert np.abs(dv + dvp - ref).max() <= 1e-13


CUSTOM2 = CustomChart(2, lambda x: np.array([[1.0 + x[0] ** 2, 0.3 * x[1]],
                                             [0.3 * x[1], 2.0 + np.sin(x[0])]]))


@pytest.mark.parametrize("chart", [
    FlatChart(2),
    ConstantChart(A1),
    SphereStereographicChart(3, 1.0, pole="south"),
    SphereStereographicChart(4, 2.0, pole="north"),
    SphereStereographicChart(5, 0.7, pole="south"),
    SphereStereographicChart(6, 1.3, pole="north"),
    CUSTOM2,
])
def test_batched_equation_terms_match_pointwise(chart):
    pts = interior_points(chart, 5 if chart is CUSTOM2 else 30, seed=11)
    rng = np.random.default_rng(12)
    vel, cov = rng.standard_normal((2,) + pts.shape)

    def close(got, ref):
        return np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    ref = [np.einsum('ijk,j,k->i', chart.christoffel_at(p), v, v) for p, v in zip(pts, vel)]
    assert close(chart.geodesic_term_many(pts, vel), np.array(ref))
    ref = [np.linalg.solve(chart.metric_at(p), w) for p, w in zip(pts, cov)]
    assert close(chart.inverse_metric_apply_many(pts, cov), np.array(ref))
    if chart is CUSTOM2:
        with pytest.raises(ParameterError):
            chart.correction_gradient_many(pts, 1.0)
        with pytest.raises(ParameterError):
            chart.log_sqrt_g_gradient_many(pts)
        return
    # grad log sqrt(g) = -2 d v / (R^2 (1 + s)) on the sphere, zero on constant charts
    ref = np.zeros_like(pts)
    if isinstance(chart, SphereStereographicChart):
        R2 = chart.radius**2
        ref = -2.0 * chart.dim * pts / (R2 * (1.0 + np.sum(pts**2, axis=1) / R2))[:, None]
    assert close(chart.log_sqrt_g_gradient_many(pts), ref)
    grad = chart.correction_gradient_many(pts, 0.9)
    if not isinstance(chart, SphereStereographicChart):
        assert np.array_equal(grad, np.zeros_like(pts))
        return
    h = 1e-5 * chart.radius
    fd = np.stack([(sum(quantum_corrections(chart, pts + h * e, 0.9))
                    - sum(quantum_corrections(chart, pts - h * e, 0.9))) / (2 * h)
                   for e in np.eye(chart.dim)], axis=1)
    assert np.abs(grad - fd).max() <= 1e-6


def test_quantum_corrections_stack_checks_the_domain(south3):
    pts = interior_points(south3, 6, seed=5)
    pts[4] = [south3.hi[0], 0.2]                 # on the boundary
    with pytest.raises(DomainError):
        quantum_corrections(south3, pts, 1.0)
    with pytest.raises(ParameterError):
        quantum_corrections(south3, np.zeros((4, 3)), 1.0)


def test_manifold_hessian_flat_quadratic():
    ch = FlatChart(2)
    pot = quadratic_potential(A1, 0.1)
    H = manifold_hessian(ch, pot.gradient_at, np.array([0.3, -0.2]))
    assert np.abs(H - 0.1 * A1).max() < 1e-10


def test_manifold_hessian_constant_potential_zero(south3):
    constant = PotentialField(lambda x: 3.5)
    H = manifold_hessian(south3, constant.gradient_at, np.array([0.2, 0.1]))
    assert np.abs(H).max() < 1e-9


def test_manifold_hessian_symmetry(south3):
    pot = sphere_quadratic_potential(A2, 1.0, south3)
    for p in interior_points(south3, 10, seed=8):
        H = manifold_hessian(south3, pot.gradient_at, p)
        assert np.abs(H - H.T).max() < 1e-10


def test_manifold_hessian_value_branch_matches_gradient_branch(south3):
    pot = sphere_quadratic_potential(np.diag([1.0, 4.0, 9.0]), 1.0, south3)
    for p in (np.array([0.3, -0.2]), np.array([-0.5, 0.4])):
        # the difference gradient of the value, as without gradient_fn
        from_value = manifold_hessian(south3, PotentialField(pot.fn).gradient_at, p)
        from_gradient = manifold_hessian(south3, pot.gradient_at, p)
        assert np.abs(from_value - from_value.T).max() < 1e-10
        assert np.abs(from_value - from_gradient).max() < 1e-6


def test_manifold_hessian_eigenvalues_at_optimum(south3):
    # spectrum of g^{-1} Hess_g V at the stationary point is m (lam - lam_min)
    pot = sphere_quadratic_potential(A2, 1.0, south3)
    vstar = south3.project(np.array([0.5, 0.5, 1.0 / np.sqrt(2)]))
    H = manifold_hessian(south3, pot.gradient_at, vstar)
    M = south3.inverse_metric_at(vstar) @ H
    evals = np.sort(np.linalg.eigvals(M).real)
    assert np.allclose(evals, [1.0, 2.0], atol=1e-6)


def test_sphere_embed_project_special_points():
    north = SphereStereographicChart(3, 1.0, pole="north")
    south = SphereStereographicChart(3, 1.0, pole="south")
    assert np.allclose(north.embed(np.zeros(2)), [0, 0, -1.0])
    assert np.allclose(south.embed(np.zeros(2)), [0, 0, 1.0])
    xstar = np.array([0.5, 0.5, 1.0 / np.sqrt(2)])
    vstar = south.project(xstar)
    assert np.allclose(vstar, 0.5 / (1 + 1 / np.sqrt(2)) * np.ones(2), atol=1e-12)


def test_sphere_project_rejects_pole_and_off_sphere():
    south = SphereStereographicChart(3, 1.0, pole="south")
    with pytest.raises(PoleSingularityError):
        south.project(np.array([0.0, 0.0, -1.0]))
    with pytest.raises(ParameterError):
        south.project(np.array([0.0, 0.0, 1.5]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       st.sampled_from(["north", "south"]),
       st.floats(0.5, 2.0))
def test_sphere_embed_project_roundtrip(u, pole, radius):
    box = 4.0 * radius * np.ones(2)
    chart = SphereStereographicChart(3, radius, pole=pole, domain=(-box, box))
    u = np.asarray(u)
    x = chart.embed(u)
    assert abs(x @ x - radius**2) < 1e-12 * max(1.0, radius**2)
    assert np.abs(chart.project(x) - u).max() < 1e-12 * max(1.0, np.abs(u).max())


def test_domain_checks(south3):
    grad = quadratic_potential(np.eye(2), 1.0).gradient_at
    with pytest.raises(DomainError):
        manifold_hessian(south3, grad, np.array([1.5, 0.0]))
    with pytest.raises(DomainError):
        manifold_hessian(south3, grad, np.array([0.0, -2.0]))
    with pytest.raises(ParameterError):
        manifold_hessian(south3, grad, np.zeros(3))
    with pytest.raises(ParameterError):
        manifold_hessian(south3, grad, np.zeros((2, 2)))


def test_singular_custom_metric_fails_fast():
    def metric(p):
        return np.array([[p[0], 0.0], [0.0, 1.0]])  # singular at x = 0

    ch = CustomChart(2, metric, domain=(-np.ones(2), np.ones(2)))
    with pytest.raises(SingularMetricError):
        ch.inverse_metric_at(np.array([-0.5, 0.0]))


def test_north_south_ricci_agree():
    north = SphereStereographicChart(5, 1.3, pole="north")
    south = SphereStereographicChart(5, 1.3, pole="south")
    p = np.array([0.2, -0.1, 0.4, 0.05])
    assert north.ricci_scalar_at(p) == pytest.approx(south.ricci_scalar_at(p), rel=1e-14)


def test_curvature_bundle_zero_on_flat_charts(south3):
    for chart in (FlatChart(2), ConstantChart(A1)):
        p = np.array([0.1, -0.2])
        assert chart.ricci_scalar_at(p) == 0.0
        assert np.all(chart.log_sqrt_g_gradient_many(p) == 0.0)
        assert quantum_corrections(chart, p, 1.0) == (0.0, 0.0)
    v = np.array([0.3, 0.1])
    assert south3.ricci_scalar_at(v) == pytest.approx(2.0)
    assert quantum_corrections(south3, v, 2.0)[0] == pytest.approx(-1.0 / 8.0, abs=1e-12)
    # grad log sqrt(g) = -2 d v / (R^2 (1 + s)), s = |v|^2 / R^2, here d = 2 and R = 1
    grad_logsg = -2.0 * 2 * v / (1.0 + v @ v)
    assert np.allclose(south3.log_sqrt_g_gradient_many(v), grad_logsg)


STACK_CHARTS = [
    FlatChart(3),
    ConstantChart(A1),
    SphereStereographicChart(4, 1.3, pole="south"),
    SphereStereographicChart(4, 0.8, pole="north"),
    CUSTOM2,
]


@pytest.mark.parametrize("chart", STACK_CHARTS)
def test_every_chart_method_takes_a_point_or_a_stack(chart):
    # each method on a (dim,) point, an (n, dim) stack and a (2, 3, dim) stack:
    # the stack's leading axes come first and every row is that point's result
    rng = np.random.default_rng(21)
    calls = {
        "metric_at": lambda p, w: chart.metric_at(p),
        "inverse_metric_at": lambda p, w: chart.inverse_metric_at(p),
        "sqrt_det_many": lambda p, w: chart.sqrt_det_many(p),
        "volume_inverse_metric_many": lambda p, w: chart.volume_inverse_metric_many(p),
        "christoffel_at": lambda p, w: chart.christoffel_at(p),
        "ricci_scalar_at": lambda p, w: chart.ricci_scalar_at(p),
        "quantum_corrections_many":
            lambda p, w: np.stack(chart.quantum_corrections_many(p, 0.6), axis=-1),
        "geodesic_term_many": lambda p, w: chart.geodesic_term_many(p, w),
        "inverse_metric_apply_many": lambda p, w: chart.inverse_metric_apply_many(p, w),
    }
    if chart is CUSTOM2:
        for bad in (lambda p: chart.correction_gradient_many(p, 0.6),
                    chart.log_sqrt_g_gradient_many):
            for p in (interior_points(chart, 1)[0], interior_points(chart, 4)):
                with pytest.raises(ParameterError):
                    bad(p)
    else:
        calls["correction_gradient_many"] = lambda p, w: chart.correction_gradient_many(p, 0.6)
        calls["log_sqrt_g_gradient_many"] = lambda p, w: chart.log_sqrt_g_gradient_many(p)
    if isinstance(chart, SphereStereographicChart):
        calls["embed"] = lambda p, w: chart.embed(p)
        calls["project"] = lambda p, w: chart.project(chart.embed(p))
    for lead in ((5,), (2, 3)):
        pts = interior_points(chart, int(np.prod(lead)), seed=22).reshape(lead + (chart.dim,))
        w = rng.standard_normal(pts.shape)
        for name, call in calls.items():
            got = np.asarray(call(pts, w))
            rows = [np.asarray(call(p, q)) for p, q in zip(pts.reshape(-1, chart.dim),
                                                           w.reshape(-1, chart.dim))]
            assert got.shape == lead + rows[0].shape, name
            # to rounding: numpy's power and matmul take other kernels for one point
            err = np.abs(got.reshape((-1,) + rows[0].shape) - np.array(rows)).max()
            assert err <= 1e-14 * max(1.0, np.abs(rows).max()), name
