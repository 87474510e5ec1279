"""Query-cost arithmetic for interaction-picture Hamiltonian simulation.

Big-O constants are set to one, so every number below is a relative query
unit; only ratios between scenarios are meaningful.  The cost model splits
the simulation into the sparse block encoding of the kinetic term (n_A
accesses) and the controlled potential-phase walk (n_UB accesses), both
multiplied by the Dyson-series truncation factor and the repetition count
log(1/delta):

    n_query,A  = T sqrt(s alpha_H) log^2(1/eps) dyson log(1/delta)
    n_query,UB = alpha_H V_max [int_0^T a eta dt] T log^2(1/eps) dyson log(1/delta)
    dyson      = log(alpha_H T / eps) / log log(alpha_H T / eps)
"""

from __future__ import annotations

import numpy as np

from .discretize import assemble_laplace_beltrami
from .errors import NumericError, ParameterError, ScheduleError
from .geometry import check_mass


def kinetic_norm_bound(chart, grid, mass, representation="momentum"):
    """||Delta_g|| / (2 m), the norm of the kinetic operator at a(t) = 1.

    ``representation="momentum"`` takes the continuum symbol
    sup_k g^{ij} k_i k_j over the grid's Nyquist box (the norm of the
    momentum-basis kinetic term a QFT-based implementation simulates).
    ``representation="stencil"`` takes the largest singular value of the
    assembled finite-difference operator, from ARPACK (``svds``) with a
    seeded start vector.  The two differ for metrics with off-diagonal
    terms: local stencils cannot track the mixed-derivative symbol at high
    wavenumbers, so the stencil norm undershoots the momentum-basis norm.
    """
    check_mass(mass)
    if representation == "stencil":
        from scipy.sparse.linalg import svds  # deferred: `import qrhd` loads no scipy

        D = assemble_laplace_beltrami(chart, grid)
        v0 = np.random.default_rng(0).standard_normal(D.shape[1])
        return float(svds(D, k=1, return_singular_vectors=False, v0=v0)[0]) / (2.0 * mass)
    if representation != "momentum":
        raise ParameterError(f"unknown representation {representation!r}")
    kmax = np.pi / grid.spacing
    corners = kmax * np.array(
        [[(1 if (m_ >> i) & 1 else -1) for i in range(grid.dim)]
         for m_ in range(2 ** grid.dim)], dtype=float)
    nodes = grid.nodes()
    ginv = chart.inverse_metric_at(nodes[::max(1, nodes.shape[0] // 4096)])
    return float(np.einsum('ci,nij,cj->nc', corners, ginv, corners).max()) / (2.0 * mass)


def measured_sparsity(A):
    """Max number of stored nonzeros per row."""
    return int(np.diff(A.tocsr().indptr).max())


def schedule_integral(schedule):
    """int_0^T a(t) eta dt with T = ``schedule.t_end``; closed form for
    a(t) = exp(2 gamma t), composite Simpson's rule on 20,000 intervals for
    a given a(t)."""
    T, gamma, eta = schedule.t_end, schedule.gamma, schedule.eta
    if schedule.a is None:
        return float(eta * T if gamma == 0 else eta * (schedule.a_at(T) - 1.0) / (2.0 * gamma))
    ts = np.linspace(0.0, T, 20_001)
    vals = np.array([schedule.a_at(t) * eta for t in ts])
    h = T / 20_000
    return float(h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum()))


def dyson_factor(x):
    """log(x)/loglog(x); requires x > e so the double log is positive."""
    if x <= np.e:
        raise ParameterError("dyson factor requires alpha_H T / epsilon > e")
    lx = np.log(x)
    return float(lx / np.log(lx))


def query_count(kinetic_norm, v_max, schedule, sparsity, epsilon, delta):
    """Relative query counts per the interaction-picture cost model, as a dict.

    T is ``schedule.t_end``.  alpha_H = kinetic_norm max_t 1/a(t) and
    beta_H = eta V_max max_t a(t) take their maxima over the same 129
    times in [0, T], endpoints included.  A count or factor that is not
    finite (an epsilon or a schedule past the float range) raises
    ``NumericError``, so a report holds numbers only.
    """
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        raise ParameterError("epsilon and delta must lie in (0, 1)")
    if not (kinetic_norm > 0 and v_max > 0 and sparsity > 0):
        raise ParameterError("kinetic_norm, v_max and sparsity must be positive")
    T, eta = float(schedule.t_end), schedule.eta
    a = np.array([schedule.a_at(t) for t in np.linspace(0.0, T, 129)])
    if not np.all(a > 0):
        raise ScheduleError("a(t) must be positive on [0, T]")
    with np.errstate(all="ignore"):    # a non-finite result raises below
        alpha = float(kinetic_norm * (1.0 / a).max())
        beta = float((a * eta).max() * v_max)
        x = alpha * T / epsilon
        dy = dyson_factor(x)
        le2 = np.log(1.0 / epsilon) ** 2
        ld = np.log(1.0 / delta)
        integral = schedule_integral(schedule)
        n_a = T * np.sqrt(sparsity * alpha) * le2 * dy * ld
        n_ub = alpha * v_max * integral * T * le2 * dy * ld
    report = dict(
        alpha_h=alpha, beta_h=beta, v_max=float(v_max), T=T, sparsity=int(sparsity),
        epsilon=float(epsilon), delta=float(delta), schedule_integral=float(integral),
        dyson_factor=float(dy), log_eps_sq=float(le2), log_delta=float(ld),
        n_query_a=float(n_a), n_query_ub=float(n_ub), n_query_total=float(n_a + n_ub),
        alpha_beta_t2=alpha * beta * T * T,   # the scale of the T ~ 1/gamma regime
    )
    bad = [key for key, v in report.items() if not np.isfinite(v)]
    if bad:
        raise NumericError(f"query count not finite: {', '.join(bad)}")
    return report
