import numpy as np
import pytest
import scipy.sparse as sp

from qrhd import (
    ConstantChart,
    ConvergenceError,
    CrankNicolsonStepper,
    FlatChart,
    Grid,
    ParameterError,
    PotentialField,
    Schedule,
    ScheduleError,
    SphereStereographicChart,
    assemble_laplace_beltrami,
    quadratic_potential,
    spectral_norm,
    sphere_quadratic_potential,
)

A1 = np.array([[1.0, -0.9], [-0.9, 1.0]])


def unit_grid(dim, n):
    chart = FlatChart(dim, domain=(np.zeros(dim), (n - 1.0) * np.ones(dim)))
    return chart, Grid.for_chart(chart, n)


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid(np.zeros(2), np.ones(2), (2, 5))
    with pytest.raises(ParameterError):
        Grid(np.zeros(2), np.zeros(2), (5, 5))
    g = Grid(np.zeros(2), np.ones(2), (5, 9))
    assert g.size == 45
    assert np.allclose(g.spacing, [0.25, 0.125])
    # row-major linear index bijection
    idx = [g.ravel_index((i, j)) for i in range(5) for j in range(9)]
    assert sorted(idx) == list(range(45))


def test_schedule_validation():
    with pytest.raises(ParameterError):
        Schedule(gamma=0.5, t_end=1.0, dt=0.0)
    with pytest.raises(ParameterError):
        Schedule(gamma=0.5, t_end=0.001, dt=0.01)
    with pytest.raises(ScheduleError):
        Schedule(a=lambda t: -1.0, eta=1.0, t_end=1.0, dt=0.1)
    # eta is a constant: a function of t is not a number
    with pytest.raises(ParameterError):
        Schedule(eta=lambda t: 1.0, t_end=1.0, dt=0.1)


def test_flat_1d_second_difference_stencil():
    chart, grid = unit_grid(1, 5)
    D = assemble_laplace_beltrami(chart, grid).toarray()
    expected = np.zeros((5, 5))
    for i in (1, 2, 3):
        expected[i, i] = -2.0
        for j in (i - 1, i + 1):
            if 1 <= j <= 3:
                expected[i, j] = 1.0
    assert np.array_equal(D, expected)


def test_flat_nd_matches_standard_laplacian():
    chart, grid = unit_grid(2, 6)
    D = assemble_laplace_beltrami(chart, grid)
    n = 6
    e = np.ones(n)
    D1 = sp.diags([e[:-1], -2 * e, e[:-1]], [-1, 0, 1])
    I1 = sp.eye(n)
    K = (sp.kron(D1, I1) + sp.kron(I1, D1)).tolil()
    mask = np.zeros((n, n), bool)
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
    Z = sp.diags((~mask).ravel().astype(float))
    K = (Z @ K.tocsr() @ Z).toarray()
    assert np.array_equal(D.toarray(), K)


def test_constant_metric_cross_stencil():
    chart = ConstantChart(A1, domain=(np.zeros(2), 4.0 * np.ones(2)))
    grid = Grid.for_chart(chart, 5)
    D = assemble_laplace_beltrami(chart, grid)
    ginv = np.linalg.inv(A1)
    row = D.getrow(grid.ravel_index((2, 2))).toarray().reshape(5, 5)
    assert row[1, 2] == pytest.approx(ginv[0, 0])              # axis coupling
    assert row[2, 1] == pytest.approx(ginv[1, 1])
    assert row[1, 1] == pytest.approx(ginv[0, 1] / 2.0)        # (A1^{-1})_12 / (2 h1 h2)
    assert row[3, 3] == pytest.approx(ginv[0, 1] / 2.0)
    assert row[1, 3] == pytest.approx(-ginv[0, 1] / 2.0)
    assert row[2, 2] == pytest.approx(-2 * (ginv[0, 0] + ginv[1, 1]))


@pytest.mark.parametrize("chart", [
    SphereStereographicChart(3, 1.0, pole="south"),
    SphereStereographicChart(4, 1.0, pole="north"),
    ConstantChart(A1),
])
def test_weighted_symmetry(chart):
    grid = Grid.for_chart(chart, 24 if chart.dim == 2 else 12)
    D, sqrt_g = assemble_laplace_beltrami(chart, grid, return_weights=True)
    W = sp.diags(sqrt_g * grid.cell_volume)
    WD = (W @ D).tocoo()
    asym = abs(WD - WD.T).max()
    assert asym < 1e-10 * abs(WD).max()


def test_sphere_weighted_symmetry_64():
    chart = SphereStereographicChart(3, 1.0, pole="south")
    grid = Grid.for_chart(chart, 64)
    D, sqrt_g = assemble_laplace_beltrami(chart, grid, return_weights=True)
    W = sp.diags(sqrt_g * grid.cell_volume)
    WD = W @ D
    assert abs(WD - WD.T).max() < 1e-10 * abs(WD).max()


def test_refinement_order_against_analytic_laplace_beltrami():
    # 2-dim conformal chart: Delta_g f = exp(-xi) * (f_xx + f_yy)
    chart = SphereStereographicChart(3, 1.0, pole="south")

    def f(x, y):
        return np.exp(-((x - 0.1) ** 2 + (y + 0.2) ** 2) / (2 * 0.35**2))

    def flat_lap(x, y):
        r2 = (x - 0.1) ** 2 + (y + 0.2) ** 2
        return f(x, y) * (r2 / 0.35**4 - 2 / 0.35**2)

    errs = []
    ns = [17, 33, 65]
    for n in ns:
        grid = Grid.for_chart(chart, n)
        D = assemble_laplace_beltrami(chart, grid)
        nodes = grid.nodes()
        vals = f(nodes[:, 0], nodes[:, 1])
        s = np.sum(nodes**2, axis=1)
        exact = ((1 + s) / 2.0) ** 2 * flat_lap(nodes[:, 0], nodes[:, 1])
        approx = D @ vals
        # compare on deep-interior nodes only (boundary rows are clamped)
        inner = np.all(np.abs(nodes) < 0.7, axis=1)
        errs.append(np.abs(approx - exact)[inner].max())
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) >= 1.9


def test_hamiltonian_pure_kinetic_and_flat_demo_combination():
    chart, grid = unit_grid(2, 7)
    pot = quadratic_potential(A1, 0.1)
    D = assemble_laplace_beltrami(chart, grid)
    # eta = 0, a = 1: H = -D / (2 m)
    sched0 = Schedule(eta=0.0, t_end=1.0, dt=0.1)
    H = CrankNicolsonStepper(chart, grid, pot, sched0, 0.25).hamiltonian(0.3)
    assert abs(H - (-D) / 0.5).max() == 0.0
    # the quadratic-descent setup at t = 0: H = -D/(2*0.1) + 0.1 diag(V)
    sched = Schedule(gamma=0.25, eta=0.1, t_end=1.0, dt=0.1)
    H = CrankNicolsonStepper(chart, grid, pot, sched, 0.1).hamiltonian(0.0)
    Vd = pot.node_values(grid)
    expected = -D / 0.2 + sp.diags(0.1 * Vd)
    assert abs(H - expected).max() < 1e-14


@pytest.mark.parametrize("pole", ["south", "north"])
def test_stacked_sphere_potential_matches_single_instances(pole):
    rng = np.random.default_rng(21)
    chart = SphereStereographicChart(4, 1.3, pole=pole)
    G = rng.standard_normal((6, 4, 4))
    A = G + np.swapaxes(G, 1, 2)
    pts = rng.uniform(-1.2, 1.2, (6, 3))
    stacked = sphere_quadratic_potential(A, 0.8, chart)
    singles = [sphere_quadratic_potential(a, 0.8, chart) for a in A]
    for p in (pts, pts + 0.3j * rng.standard_normal(pts.shape)):
        grads = np.array([pot.gradient_at(q) for pot, q in zip(singles, p)])
        assert np.abs(stacked.gradient_at(p) - grads).max() <= 1e-13 * np.abs(grads).max()
        values = np.array([pot(q) for pot, q in zip(singles, p)])
        assert np.abs(stacked(p) - values).max() <= 1e-13 * np.abs(values).max()
    # the chain rule through the embedding, against differences of the value
    h = 1e-6
    for pot, q in zip(singles, pts):
        fd = [(pot(q + h * e) - pot(q - h * e)) / (2 * h) for e in np.eye(3)]
        assert np.abs(pot.gradient_at(q) - fd).max() < 1e-6


def test_gradient_by_differences_matches_analytic_gradient():
    A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 3.0]])
    pot = PotentialField(lambda x: 0.5 * np.sum(x * (x @ A), axis=-1) + np.sin(x[..., 0]))

    def exact(x):
        return x @ A + np.cos(x[..., 0])[..., None] * np.eye(3)[0]

    real = np.array([0.3, -0.7, 1.1])
    grad = pot.gradient_at(real)
    assert np.isrealobj(grad)
    assert np.abs(grad - exact(real)).max() < 1e-10
    point = real + 1j * np.array([0.2, -0.1, 0.4])
    assert np.abs(pot.gradient_at(point) - exact(point)).max() < 1e-10
    # one difference over a stack
    stack = np.stack([real, -real, 2.0 * real])
    assert np.abs(pot.gradient_at(stack) - exact(stack)).max() < 1e-10


def test_hamiltonian_weyl_correction_flag():
    chart = SphereStereographicChart(3, 1.0, pole="south")
    grid = Grid.for_chart(chart, 9)
    pot = sphere_quadratic_potential(np.eye(3), 1.0, chart)
    sched = Schedule(gamma=0.5, eta=1.0, t_end=1.0, dt=0.1)
    H0 = CrankNicolsonStepper(chart, grid, pot, sched, 1.0).hamiltonian(0.2)
    H1 = CrankNicolsonStepper(chart, grid, pot, sched, 1.0,
                              include_weyl_correction=True).hamiltonian(0.2)
    diff = (H1 - H0).toarray()
    assert np.abs(diff - np.diag(np.diagonal(diff))).max() == 0.0
    # 2-dim sphere chart: dV = -1/(4 m R^2), carried with the 1/a prefactor
    interior = ~grid.boundary_mask()
    a_t = np.exp(2 * 0.5 * 0.2)
    assert np.allclose(np.diagonal(diff)[interior], -0.25 / a_t, atol=1e-12)
    assert np.all(np.diagonal(diff)[~interior] == 0.0)


def test_hamiltonian_rejects_nonpositive_a():
    chart, grid = unit_grid(1, 5)
    pot = quadratic_potential(np.eye(1), 1.0)
    sched = Schedule(a=lambda t: 1.0 - t, eta=1.0, t_end=2.0, dt=0.1)
    with pytest.raises(ScheduleError):
        CrankNicolsonStepper(chart, grid, pot, sched, 1.0).hamiltonian(1.5)


def test_spectral_norm_diagonal():
    A = sp.diags([1.0, -3.0, 2.0]).tocsr()
    assert spectral_norm(A, tol=1e-12) == pytest.approx(3.0, rel=1e-9)


def test_spectral_norm_against_dense_eigensolve():
    chart, grid = unit_grid(1, 64)
    D = assemble_laplace_beltrami(chart, grid)
    dense = np.linalg.norm(D.toarray(), 2)
    assert dense == pytest.approx(4.0, rel=0.01)  # [1,-2,1] stencil limit
    assert spectral_norm(D, tol=1e-8) == pytest.approx(dense, rel=1e-2)


def test_spectral_norm_nonconvergence_carries_iterate():
    chart, grid = unit_grid(1, 32)
    D = assemble_laplace_beltrami(chart, grid)
    with pytest.raises(ConvergenceError) as err:
        spectral_norm(D, tol=1e-15, max_iterations=3)
    assert err.value.last_iterate is not None
    assert err.value.last_iterate > 0


def test_potential_field_requires_finite_node_values():
    chart, grid = unit_grid(1, 5)
    from qrhd import PotentialField

    pot = PotentialField(lambda x: np.where(x[..., 0] == 1.0, np.inf, x[..., 0]))
    with pytest.raises(ParameterError):
        pot.node_values(grid)
    # a callback that takes one point returns one value for the whole stack
    with pytest.raises(ParameterError):
        PotentialField(lambda x: np.sum(x ** 2)).node_values(grid)


def test_node_values_cache_is_keyed_by_grid_values():
    pot = quadratic_potential(np.eye(2), 1.0)
    for n in (5, 7, 9):
        grid = Grid(-np.ones(2), np.ones(2), (n, n))
        vals = pot.node_values(grid)
        assert vals.shape == (n * n,)
        assert np.allclose(vals, 0.5 * np.sum(grid.nodes() ** 2, axis=1))
        del grid, vals


@pytest.mark.parametrize("chart", [
    FlatChart(2),
    SphereStereographicChart(3, 1.0, pole="south"),
    SphereStereographicChart(4, 2.0, pole="north"),
])
def test_builtin_node_values_match_pointwise_values(chart):
    if isinstance(chart, FlatChart):
        pot = quadratic_potential(A1, 0.1)
    else:
        pot = sphere_quadratic_potential(np.eye(chart.ambient_dim) - 0.2, 1.3, chart)
    grid = Grid.for_chart(chart, 9)
    vals = pot.node_values(grid)
    ref = np.array([pot.value_at(p) for p in grid.nodes()])
    assert vals.shape == (grid.size,) and vals.dtype == float
    assert np.abs(vals - ref).max() <= 1e-14
    assert pot.node_values(Grid.for_chart(chart, 7)).shape == (7 ** chart.dim,)


def test_builtin_potential_must_be_finite_at_every_node():
    chart, grid = unit_grid(1, 5)
    with pytest.raises(ParameterError):
        quadratic_potential(np.array([[np.inf]]), 1.0).node_values(grid)


def test_grid_must_sit_inside_chart_domain():
    chart = FlatChart(1, domain=(np.zeros(1), np.ones(1)))
    grid = Grid(np.zeros(1), 2.0 * np.ones(1), (5,))
    with pytest.raises(ParameterError):
        assemble_laplace_beltrami(chart, grid)
