"""Metric charts and derived geometric quantities.

A chart supplies the metric tensor on an axis-aligned box of coordinates,
plus everything the discretizer and the semiclassical integrator derive from
it: inverse metric, volume factor sqrt(det g), Christoffel symbols, Ricci
scalar, and the ordering corrections to the potential.  Built-in charts
(flat, constant, stereographic sphere) carry analytic formulas; arbitrary
user metrics fall back to nested central finite differences.

All evaluations are pure functions of ``(chart, point)``; charts are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ParameterError,
    PoleSingularityError,
    SingularMetricError,
)

# Relative finite-difference step: multiplied by the box edge length per axis.
FD_STEP_FRACTION = 1e-5


def _as_point(point, dim):
    p = np.asarray(point, dtype=float)
    if p.shape != (dim,):
        raise ParameterError(f"expected a point of dimension {dim}, got shape {p.shape}")
    return p


class MetricChart:
    """Base chart: a metric field over an axis-aligned coordinate box.

    Subclasses must implement ``metric_at``.  Every derived quantity has a
    finite-difference default here, so a chart defined by a bare metric
    callback still provides Christoffel symbols, curvature and the quantum
    corrections (at reduced accuracy).  The gradients of the corrections and
    of log sqrt(g) that the semiclassical equation continues to complex
    points exist only on charts with closed forms.
    """

    def __init__(self, dim, domain=None):
        if dim < 1:
            raise ParameterError("chart dimension must be >= 1")
        self.dim = int(dim)
        if domain is None:
            lo = -np.ones(dim)
            hi = np.ones(dim)
        else:
            lo, hi = (np.asarray(side, dtype=float) for side in domain)
            if lo.shape != (dim,) or hi.shape != (dim,) or np.any(hi <= lo):
                raise ParameterError("domain must be a (lo, hi) box with hi > lo per axis")
        self.lo = lo
        self.hi = hi
        self.fd_step = FD_STEP_FRACTION * (hi - lo)

    # -- domain ---------------------------------------------------------

    def contains(self, point):
        p = np.asarray(point, dtype=float)
        return bool(np.all(p > self.lo) and np.all(p < self.hi))

    def require_inside(self, point):
        p = _as_point(point, self.dim)
        if not self.contains(p):
            raise DomainError(f"point {p} outside chart domain [{self.lo}, {self.hi}]")
        return p

    # -- metric and derived fields ---------------------------------------

    def metric_at(self, point):
        raise NotImplementedError

    def inverse_metric_at(self, point):
        g = self.metric_at(point)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise SingularMetricError(f"metric not positive definite at {point}")
        return np.linalg.inv(g)

    def sqrt_det_at(self, point):
        g = self.metric_at(point)
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise SingularMetricError(f"metric not positive definite at {point}")
        return float(np.prod(np.diagonal(chol)))

    def _metric_derivatives(self, point):
        """dg[k, i, j] = d g_ij / d x^k by central differences."""
        p = np.asarray(point, dtype=float)
        dg = np.empty((self.dim, self.dim, self.dim))
        for k in range(self.dim):
            h = self.fd_step[k]
            ep = p.copy(); ep[k] += h
            em = p.copy(); em[k] -= h
            dg[k] = (self.metric_at(ep) - self.metric_at(em)) / (2 * h)
        return dg

    def christoffel_at(self, point):
        """Levi-Civita connection Gamma^i_{jk} (symmetric in jk)."""
        ginv = self.inverse_metric_at(point)
        dg = self._metric_derivatives(point)
        # Gamma^i_jk = 1/2 g^{il} (d_j g_lk + d_k g_jl - d_l g_jk)
        term = np.einsum('jlk->ljk', dg) + np.einsum('klj->ljk', dg) - dg
        return 0.5 * np.einsum('il,ljk->ijk', ginv, term)

    def christoffel_trace_at(self, point):
        """Gamma_i = sum_j Gamma^j_{ij} = d_i log sqrt(g)."""
        gam = self.christoffel_at(point)
        return np.einsum('jij->i', gam)

    def christoffel_trace_grad_at(self, point):
        """Matrix d_i Gamma_j by central differences on the trace."""
        p = np.asarray(point, dtype=float)
        out = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            h = self.fd_step[i]
            ep = p.copy(); ep[i] += h
            em = p.copy(); em[i] -= h
            out[i] = (self.christoffel_trace_at(ep) - self.christoffel_trace_at(em)) / (2 * h)
        return out

    def _christoffel_derivatives(self, point):
        """dGamma[m, i, j, k] = d_m Gamma^i_{jk} by central differences."""
        p = np.asarray(point, dtype=float)
        out = np.empty((self.dim, self.dim, self.dim, self.dim))
        for m in range(self.dim):
            h = self.fd_step[m]
            ep = p.copy(); ep[m] += h
            em = p.copy(); em[m] -= h
            out[m] = (self.christoffel_at(ep) - self.christoffel_at(em)) / (2 * h)
        return out

    def ricci_scalar_at(self, point):
        """Scalar curvature from the R_{ki}^k_j contraction of the connection."""
        ginv = self.inverse_metric_at(point)
        gam = self.christoffel_at(point)
        dgam = self._christoffel_derivatives(point)
        # R_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_km Gamma^m_ij
        #        - Gamma^k_im Gamma^m_kj
        ricci = (
            np.einsum('kkij->ij', dgam)
            - np.einsum('ikkj->ij', dgam)
            + np.einsum('kkm,mij->ij', gam, gam)
            - np.einsum('kim,mkj->ij', gam, gam)
        )
        return float(np.einsum('ij,ij->', ginv, ricci))

    # -- vectorized variants used by operator assembly --------------------

    def sqrt_det_many(self, points):
        pts = np.asarray(points, dtype=float)
        return np.array([self.sqrt_det_at(p) for p in pts])

    def volume_inverse_metric_many(self, points):
        """sqrt(g) g^{ij} stacked over points, shape (n, dim, dim)."""
        pts = np.asarray(points, dtype=float)
        return np.array([self.sqrt_det_at(p) * self.inverse_metric_at(p) for p in pts])

    def quantum_corrections_many(self, points, mass):
        """(delta_v, delta_v_prime) arrays over checked interior points."""
        out = np.array([quantum_corrections(self, p, mass) for p in points])
        return out[:, 0], out[:, 1]

    # -- terms of the semiclassical equation over an (n, dim) stack ---------
    # The connection and the inverse metric are taken at the points as given
    # (the integrator passes Re p); the two gradients are continued to
    # complex points, so only charts with closed forms provide them.

    def geodesic_term_many(self, points, velocities):
        """Gamma^i_jk(p) v^j v^k per row."""
        return np.array([np.einsum('ijk,j,k->i', self.christoffel_at(p), v, v)
                         for p, v in zip(points, velocities)])

    def inverse_metric_apply_many(self, points, covectors):
        """g^{ij}(p) w_j per row."""
        return np.array([self.inverse_metric_at(p) @ w for p, w in zip(points, covectors)])

    def correction_gradient_many(self, points, mass):
        """Gradient of delta_v + delta_v_prime per row."""
        raise ParameterError(
            f"{type(self).__name__} has no closed-form gradient of the ordering "
            "corrections: differencing their nested finite differences gives noise "
            "that stalls the adaptive integrator; integrate with corrections off")

    def log_sqrt_g_gradient_many(self, points):
        """Gradient of log sqrt(g) per row."""
        raise ParameterError(
            f"{type(self).__name__} has no closed-form log sqrt(g) to continue to "
            "complex points; integrate with corrections off")


class ConstantChart(MetricChart):
    """Constant symmetric positive-definite metric G."""

    def __init__(self, matrix, domain=None):
        G = np.asarray(matrix, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ParameterError("constant metric must be a square matrix")
        if not np.allclose(G, G.T, atol=1e-12):
            raise ParameterError("constant metric must be symmetric")
        super().__init__(G.shape[0], domain)
        try:
            chol = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise SingularMetricError("constant metric must be positive definite")
        self._g = G
        self._ginv = np.linalg.inv(G)
        self._sqrt_det = float(np.prod(np.diagonal(chol)))

    def metric_at(self, point):
        return self._g.copy()

    def inverse_metric_at(self, point):
        return self._ginv.copy()

    def sqrt_det_at(self, point):
        return self._sqrt_det

    def christoffel_at(self, point):
        return np.zeros((self.dim,) * 3)

    def christoffel_trace_at(self, point):
        return np.zeros(self.dim)

    def christoffel_trace_grad_at(self, point):
        return np.zeros((self.dim, self.dim))

    def ricci_scalar_at(self, point):
        return 0.0

    def sqrt_det_many(self, points):
        return np.full(len(points), self._sqrt_det)

    def volume_inverse_metric_many(self, points):
        return np.broadcast_to(self._sqrt_det * self._ginv,
                               (len(points), self.dim, self.dim)).copy()

    def quantum_corrections_many(self, points, mass):
        return np.zeros(len(points)), np.zeros(len(points))

    def geodesic_term_many(self, points, velocities):
        return np.zeros_like(velocities)

    def inverse_metric_apply_many(self, points, covectors):
        return covectors @ self._ginv.T

    def correction_gradient_many(self, points, mass):
        return np.zeros_like(points)

    def log_sqrt_g_gradient_many(self, points):
        return np.zeros_like(points)


class FlatChart(ConstantChart):
    """Euclidean metric: the constant chart with G = I, so every geometric
    quantity vanishes identically."""

    def __init__(self, dim, domain=None):
        super().__init__(np.eye(dim), domain)


class SphereStereographicChart(MetricChart):
    """Stereographic chart of the sphere |x| = R in ambient dimension N.

    The chart has dimension N-1 and the conformally flat metric
    g_ij = (2 / (1 + |v|^2/R^2))^2 delta_ij.  ``pole='north'`` projects from
    the north pole x_N = +R (the usual u coordinates, origin maps to the
    south pole); ``pole='south'`` projects from x_N = -R (the v coordinates,
    origin maps to the north pole).  Default domain is the box [-R, R] per
    coordinate.
    """

    def __init__(self, ambient_dim, radius=1.0, pole="south", domain=None):
        if ambient_dim < 2:
            raise ParameterError("ambient dimension must be >= 2")
        if radius <= 0:
            raise ParameterError("sphere radius must be positive")
        if pole not in ("north", "south"):
            raise ParameterError("pole must be 'north' or 'south'")
        dim = ambient_dim - 1
        if domain is None:
            domain = (-radius * np.ones(dim), radius * np.ones(dim))
        super().__init__(dim, domain)
        self.ambient_dim = int(ambient_dim)
        self.radius = float(radius)
        self.pole = pole

    # conformal factor bookkeeping: metric = exp(xi) * I with
    # xi = 2 log(2 / (1 + s)), s = |v|^2 / R^2
    def _s(self, point):
        v = np.asarray(point, dtype=float)
        return float(v @ v) / self.radius**2

    def conformal_exponent_at(self, point):
        return 2.0 * (np.log(2.0) - np.log1p(self._s(point)))

    def conformal_exponent_grad_at(self, point):
        v = np.asarray(point, dtype=float)
        return -4.0 * v / (self.radius**2 * (1.0 + self._s(point)))

    def conformal_exponent_hess_at(self, point):
        v = np.asarray(point, dtype=float)
        R2 = self.radius**2
        s = self._s(point)
        return (-4.0 / (R2 * (1.0 + s))) * np.eye(self.dim) + (
            8.0 / (R2**2 * (1.0 + s) ** 2)
        ) * np.outer(v, v)

    def metric_at(self, point):
        return np.exp(self.conformal_exponent_at(point)) * np.eye(self.dim)

    def inverse_metric_at(self, point):
        return np.exp(-self.conformal_exponent_at(point)) * np.eye(self.dim)

    def sqrt_det_at(self, point):
        return float(np.exp(0.5 * self.dim * self.conformal_exponent_at(point)))

    def christoffel_at(self, point):
        b = self.conformal_exponent_grad_at(point)
        d = self.dim
        eye = np.eye(d)
        # Gamma^i_jk = 1/2 (delta^i_j b_k + delta^i_k b_j - delta_jk b_i)
        return 0.5 * (
            np.einsum('ij,k->ijk', eye, b)
            + np.einsum('ik,j->ijk', eye, b)
            - np.einsum('jk,i->ijk', eye, b)
        )

    def christoffel_trace_at(self, point):
        return 0.5 * self.dim * self.conformal_exponent_grad_at(point)

    def christoffel_trace_grad_at(self, point):
        return 0.5 * self.dim * self.conformal_exponent_hess_at(point)

    def ricci_scalar_at(self, point):
        # constant positive curvature of the (N-1)-sphere of radius R
        return self.dim * (self.dim - 1) / self.radius**2

    def sqrt_det_many(self, points):
        pts = np.asarray(points, dtype=float)
        s = np.sum(pts**2, axis=-1) / self.radius**2
        return (2.0 / (1.0 + s)) ** self.dim

    def volume_inverse_metric_many(self, points):
        pts = np.asarray(points, dtype=float)
        s = np.sum(pts**2, axis=-1) / self.radius**2
        scal = (2.0 / (1.0 + s)) ** (self.dim - 2)
        return scal[:, None, None] * np.eye(self.dim)

    def quantum_corrections_many(self, points, mass):
        # closed forms of the contractions for a conformally flat sphere chart
        d = self.dim
        s = np.sum(points**2, axis=-1) / self.radius**2
        mR2 = mass * self.radius**2
        delta_v = (-d * (d - 1) + (2 - d) * s) / (8.0 * mR2)
        delta_v_prime = d * (-d + (2 - d) * s) / (16.0 * mR2)
        return delta_v, delta_v_prime

    def _s_many(self, points):
        return np.einsum('...i,...i->...', points, points) / self.radius**2

    def geodesic_term_many(self, points, velocities):
        # Gamma^i_jk v^j v^k = (b.v) v^i - |v|^2 b^i / 2 with b = grad xi
        b = (-4.0 / (self.radius**2 * (1.0 + self._s_many(points))))[..., None] * points
        return (np.einsum('...i,...i->...', b, velocities)[..., None] * velocities
                - 0.5 * np.einsum('...i,...i->...', velocities, velocities)[..., None] * b)

    def inverse_metric_apply_many(self, points, covectors):
        return ((0.5 * (1.0 + self._s_many(points))) ** 2)[..., None] * covectors

    def correction_gradient_many(self, points, mass):
        # delta_v + delta_v_prime = (-6 d^2 + 4 d + (8 - 2 d^2) s) / (32 m R^2)
        d = self.dim
        return ((4.0 - d * d) / (8.0 * mass * self.radius**4)) * points

    def log_sqrt_g_gradient_many(self, points):
        # log sqrt(g) = d xi / 2
        s = self._s_many(points)
        return (-2.0 * self.dim / (self.radius**2 * (1.0 + s)))[..., None] * points

    # -- embedding --------------------------------------------------------

    def embed(self, chart_point):
        """Map chart coordinates to the ambient sphere point (|x| = R)."""
        v = np.asarray(chart_point, dtype=float)
        if v.shape != (self.dim,):
            raise ParameterError(f"expected chart point of dimension {self.dim}")
        R = self.radius
        s = (v @ v) / R**2
        x = np.empty(self.ambient_dim)
        x[: self.dim] = 2.0 * v / (1.0 + s)
        xN = R * (1.0 - s) / (1.0 + s)
        x[self.dim] = xN if self.pole == "south" else -xN
        return x

    def project(self, ambient_point):
        """Map an ambient sphere point into chart coordinates."""
        x = np.asarray(ambient_point, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise ParameterError(f"expected ambient point of dimension {self.ambient_dim}")
        R = self.radius
        r = np.linalg.norm(x)
        if abs(r - R) > 1e-9 * R:
            raise ParameterError(f"|x| = {r} is not on the sphere of radius {R}")
        sign = 1.0 if self.pole == "south" else -1.0
        denom = 1.0 + sign * x[self.dim] / R
        if abs(denom) < 1e-9:
            raise PoleSingularityError("projection evaluated at its pole")
        return x[: self.dim] / denom


class CustomChart(MetricChart):
    """Chart built from a user metric callback; derivatives by differences."""

    def __init__(self, dim, metric_fn, domain=None):
        super().__init__(dim, domain)
        self._metric_fn = metric_fn

    def metric_at(self, point):
        g = np.asarray(self._metric_fn(np.asarray(point, dtype=float)), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise ParameterError(f"metric callback returned shape {g.shape}")
        return g


# -- operations over charts ------------------------------------------------

def christoffel(chart, point):
    """Gamma^i_{jk} at a point strictly inside the chart domain."""
    p = chart.require_inside(point)
    return chart.christoffel_at(p)


def ricci_scalar(chart, point):
    """Scalar curvature at a point strictly inside the chart domain."""
    p = chart.require_inside(point)
    return chart.ricci_scalar_at(p)


@dataclass(frozen=True)
class CurvatureBundle:
    """Pointwise curvature data: Ricci scalar, Christoffel trace, and the
    two ordering corrections.  All fields are exactly zero on flat and
    constant-metric charts."""

    ricci_scalar: float
    christoffel_trace: np.ndarray
    delta_v: float
    delta_v_prime: float


def curvature_bundle(chart, point, mass):
    """Collect the curvature quantities and corrections at one point."""
    p = chart.require_inside(point)
    dv, dvp = quantum_corrections(chart, p, mass)
    return CurvatureBundle(
        ricci_scalar=float(chart.ricci_scalar_at(p)),
        christoffel_trace=np.asarray(chart.christoffel_trace_at(p)),
        delta_v=dv,
        delta_v_prime=dvp,
    )


def quantum_corrections(chart, point, mass):
    """Ordering corrections (delta_v, delta_v_prime) to the potential.

    delta_v       = (1/8m) (-Ricci + g^{ij} Gamma^k_{il} Gamma^l_{jk})
    delta_v_prime = (1/8m) g^{ij} d_i Gamma_j,  Gamma_j the Christoffel trace

    ``point`` is one point ``(dim,)``, giving two floats, or an ``(n, dim)``
    stack strictly inside the domain, giving two length-n arrays.  Both
    terms vanish identically on flat and constant-metric charts.  A stack on
    the stereographic sphere chart of dimension d uses the closed forms,
    with s = |v|^2 / R^2,

        delta_v       = (-d (d - 1) + (2 - d) s) / (8 m R^2)
        delta_v_prime = d (-d + (2 - d) s) / (16 m R^2)

    A single point, and a stack on any other chart, takes the contractions
    above point by point.
    """
    if mass <= 0:
        raise ParameterError("mass must be positive")
    pts = np.asarray(point, dtype=float)
    if pts.ndim == 2:
        if pts.shape[1] != chart.dim:
            raise ParameterError(f"expected points of dimension {chart.dim}, got shape {pts.shape}")
        if not chart.contains(pts):
            raise DomainError(f"a point lies outside chart domain [{chart.lo}, {chart.hi}]")
        return chart.quantum_corrections_many(pts, mass)
    p = chart.require_inside(pts)
    ginv = chart.inverse_metric_at(p)
    gam = chart.christoffel_at(p)
    ric = chart.ricci_scalar_at(p)
    contraction = np.einsum('ij,kil,ljk->', ginv, gam, gam)
    delta_v = (-ric + contraction) / (8.0 * mass)
    trace_grad = chart.christoffel_trace_grad_at(p)
    delta_v_prime = np.einsum('ij,ij->', ginv, trace_grad) / (8.0 * mass)
    return float(delta_v), float(delta_v_prime)


def fd_gradient(fn, point, step):
    p = np.asarray(point, dtype=float)
    out = np.empty(p.size)
    for i in range(p.size):
        ep = p.copy(); ep[i] += step[i]
        em = p.copy(); em[i] -= step[i]
        out[i] = (fn(ep) - fn(em)) / (2 * step[i])
    return out


def fd_hessian(fn, point, step):
    p = np.asarray(point, dtype=float)
    n = p.size
    out = np.empty((n, n))
    f0 = fn(p)
    for i in range(n):
        hi = step[i]
        for j in range(i, n):
            hj = step[j]
            if i == j:
                ep = p.copy(); ep[i] += hi
                em = p.copy(); em[i] -= hi
                out[i, i] = (fn(ep) - 2 * f0 + fn(em)) / hi**2
            else:
                pp = p.copy(); pp[i] += hi; pp[j] += hj
                pm = p.copy(); pm[i] += hi; pm[j] -= hj
                mp = p.copy(); mp[i] -= hi; mp[j] += hj
                mm = p.copy(); mm[i] -= hi; mm[j] -= hj
                out[i, j] = out[j, i] = (fn(pp) - fn(pm) - fn(mp) + fn(mm)) / (4 * hi * hj)
    return out


def manifold_hessian(chart, potential, point, gradient=None, hessian=None):
    """Covariant Hessian (Hess_g V)_ij = d_i d_j V - Gamma^k_ij d_k V.

    ``potential`` is a scalar callback V(point).  The flat Hessian comes
    from the analytic ``hessian`` callback when given, else from central
    differences of the analytic ``gradient`` when given, else from second
    differences of the value with a step proportional to the edge length.
    """
    p = chart.require_inside(point)
    if gradient is not None:
        grad = np.asarray(gradient(p), dtype=float)
    else:
        grad = fd_gradient(potential, p, chart.fd_step)
    if hessian is not None:
        hess = np.asarray(hessian(p), dtype=float)
    elif gradient is not None:
        rows = np.stack([
            (np.asarray(gradient(_shift(p, i, chart.fd_step[i])), dtype=float)
             - np.asarray(gradient(_shift(p, i, -chart.fd_step[i])), dtype=float))
            / (2 * chart.fd_step[i])
            for i in range(chart.dim)
        ])
        hess = 0.5 * (rows + rows.T)
    else:
        step = np.sqrt(FD_STEP_FRACTION) * (chart.hi - chart.lo)
        hess = fd_hessian(potential, p, step)
    gam = chart.christoffel_at(p)
    return hess - np.einsum('kij,k->ij', gam, grad)


def _shift(p, axis, delta):
    q = np.asarray(p, dtype=float).copy()
    q[axis] += delta
    return q


def sphere_embed(chart, chart_point):
    """Ambient coordinates of a stereographic chart point; |result| = R."""
    if not isinstance(chart, SphereStereographicChart):
        raise ParameterError("sphere_embed requires a stereographic sphere chart")
    return chart.embed(chart_point)


def sphere_project(chart, ambient_point):
    """Chart coordinates of an ambient sphere point (away from the pole)."""
    if not isinstance(chart, SphereStereographicChart):
        raise ParameterError("sphere_project requires a stereographic sphere chart")
    return chart.project(ambient_point)
