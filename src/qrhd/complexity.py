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

from dataclasses import dataclass, asdict

import numpy as np

from .discretize import assemble_laplace_beltrami
from .errors import NumericError, ParameterError


@dataclass
class ComplexityInputs:
    alpha_h: float          # max_t norm of the kinetic term
    v_max: float            # max of the potential over the domain
    schedule: object        # Schedule (gamma, eta, a)
    T: float                # simulation time
    sparsity: int           # max nonzeros per row of the kinetic matrix
    epsilon: float          # evolution error
    delta: float            # failure probability

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0) or not (0.0 < self.delta < 1.0):
            raise ParameterError("epsilon and delta must lie in (0, 1)")
        if self.T <= 0:
            raise ParameterError("simulation time must be positive")
        if self.alpha_h <= 0 or self.v_max <= 0 or self.sparsity <= 0:
            raise ParameterError("alpha_h, v_max and sparsity must be positive")


@dataclass
class QueryReport:
    alpha_h: float
    beta_h: float
    v_max: float
    T: float
    sparsity: int
    epsilon: float
    delta: float
    schedule_integral: float
    dyson_factor: float
    log_eps_sq: float
    log_delta: float
    n_query_a: float
    n_query_ub: float
    n_query_total: float
    alpha_beta_t2: float    # the alpha_H beta_H T^2 scale of the T ~ 1/gamma regime

    def to_dict(self):
        return asdict(self)


def kinetic_norm_bound(chart, grid, mass, schedule, representation="momentum"):
    """alpha_H = max_t (1/a(t)) ||Delta_g|| / (2 m), the max over 64 times in [0, t_end].

    ``representation="momentum"`` takes the continuum symbol
    sup_k g^{ij} k_i k_j over the grid's Nyquist box (the norm of the
    momentum-basis kinetic term a QFT-based implementation simulates).
    ``representation="stencil"`` takes the largest singular value of the
    assembled finite-difference operator, from ARPACK (``svds``) with a
    seeded start vector.  The two differ for metrics with off-diagonal
    terms: local stencils cannot track the mixed-derivative symbol at high
    wavenumbers, so the stencil norm undershoots the momentum-basis norm.
    """
    if mass <= 0:
        raise ParameterError("mass must be positive")
    if representation == "stencil":
        from scipy.sparse.linalg import svds  # deferred: `import qrhd` loads no scipy

        D = assemble_laplace_beltrami(chart, grid)
        v0 = np.random.default_rng(0).standard_normal(D.shape[1])
        base = float(svds(D, k=1, return_singular_vectors=False, v0=v0)[0]) / (2.0 * mass)
    elif representation == "momentum":
        kmax = np.pi / grid.spacing
        corners = kmax * np.array(
            [[(1 if (m_ >> i) & 1 else -1) for i in range(grid.dim)]
             for m_ in range(2 ** grid.dim)], dtype=float)
        nodes = grid.nodes()
        ginv = chart.inverse_metric_at(nodes[::max(1, nodes.shape[0] // 4096)])
        base = float(np.einsum('ci,nij,cj->nc', corners, ginv, corners).max()) / (2.0 * mass)
    else:
        raise ParameterError(f"unknown representation {representation!r}")
    ts = np.linspace(0.0, schedule.t_end, 64)
    inv_a = np.array([1.0 / schedule.a_at(t) for t in ts])
    return float(base * inv_a.max())


def measured_sparsity(A):
    """Max number of stored nonzeros per row."""
    return int(np.diff(A.tocsr().indptr).max())


def schedule_integral(schedule, T):
    """int_0^T a(t) eta dt; closed form for a(t) = exp(2 gamma t), composite
    Simpson's rule on 20,000 intervals for a given a(t)."""
    if T <= 0:
        raise ParameterError("T must be positive")
    gamma, eta = schedule.gamma, schedule.eta
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


def query_count(inputs):
    """Relative query counts per the interaction-picture cost model.

    A count or factor that is not finite (an epsilon or a schedule past the
    float range) raises ``NumericError``, so a report holds numbers only.
    """
    alpha, T, eps, delta = inputs.alpha_h, inputs.T, inputs.epsilon, inputs.delta
    with np.errstate(all="ignore"):    # a non-finite result raises below
        x = alpha * T / eps
        dy = dyson_factor(x)
        le2 = np.log(1.0 / eps) ** 2
        ld = np.log(1.0 / delta)
        integral = schedule_integral(inputs.schedule, T)
        n_a = T * np.sqrt(inputs.sparsity * alpha) * le2 * dy * ld
        n_ub = alpha * inputs.v_max * integral * T * le2 * dy * ld
        n_total = n_a + n_ub
    ts = np.linspace(0.0, T, 129)
    beta = float(max(inputs.schedule.a_at(t) * inputs.schedule.eta for t in ts) * inputs.v_max)
    report = QueryReport(
        alpha_h=float(alpha),
        beta_h=beta,
        v_max=float(inputs.v_max),
        T=float(T),
        sparsity=int(inputs.sparsity),
        epsilon=float(eps),
        delta=float(delta),
        schedule_integral=float(integral),
        dyson_factor=float(dy),
        log_eps_sq=float(le2),
        log_delta=float(ld),
        n_query_a=float(n_a),
        n_query_ub=float(n_ub),
        n_query_total=float(n_total),
        alpha_beta_t2=float(alpha * beta * T * T),
    )
    bad = [key for key, v in report.to_dict().items() if not np.isfinite(v)]
    if bad:
        raise NumericError(f"query count not finite: {', '.join(bad)}")
    return report
