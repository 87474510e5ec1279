"""Metric charts and derived geometric quantities.

A chart supplies the metric tensor on an axis-aligned box of coordinates,
plus everything the discretizer and the semiclassical integrator derive from
it: inverse metric, volume factor sqrt(det g), Christoffel symbols, Ricci
scalar, and the ordering corrections to the potential.  Built-in charts
(flat, constant, stereographic sphere) carry analytic formulas; arbitrary
user metrics fall back to fourth-order central differences
(``central_difference``), nested for the curvature.

Every chart method takes one point ``(dim,)`` or a stack ``(..., dim)`` and
returns its quantity over the stack's leading axes, so a point and a stack
share one formula.  All evaluations are pure functions of ``(chart, point)``;
charts are immutable after construction.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DomainError,
    ParameterError,
    PoleSingularityError,
    SingularMetricError,
)

# Difference step: a chart multiplies it by its box edge per axis; a
# potential, whose points carry no box, takes it as an absolute step.
FD_STEP = 1e-3


def central_difference(fn, point, step):
    """d_k fn by the fourth-order five-point central stencil
    (8 (f(+h) - f(-h)) - (f(+2h) - f(-2h))) / 12h along the last axis of
    ``point``, one ``(dim,)`` point or an ``(..., dim)`` stack.  The axis k
    comes right after the stack axes; ``step`` is a scalar or one per axis.
    The points keep their dtype, so complex points are differenced too.
    """
    p = np.asarray(point)
    steps = np.broadcast_to(step, p.shape[-1:])
    parts = []
    for k, h in enumerate(steps):
        e = np.zeros(p.shape[-1])
        e[k] = h
        parts.append((8.0 * (fn(p + e) - fn(p - e)) - (fn(p + 2 * e) - fn(p - 2 * e)))
                     / (12.0 * h))
    return np.stack(parts, axis=p.ndim - 1)


def _cholesky(g, point):
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise SingularMetricError(f"metric not positive definite at {point}") from None


class MetricChart:
    """Base chart: a metric field over an axis-aligned coordinate box.

    Subclasses must implement ``metric_at`` over ``(..., dim)`` stacks.  Every
    derived quantity has a default here, written once over stacks: the
    inverse and volume factor from the metric, and the connection, curvature
    and corrections from fourth-order central differences
    (``central_difference``), so a chart defined by a bare metric callback
    still provides them.  Each difference evaluates the metric four times per
    point and axis, twice as often as a second-order one would.  The
    gradients of the corrections and of log sqrt(g) that the semiclassical
    equation continues to complex points exist only on charts with closed
    forms.
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
        self.fd_step = FD_STEP * (hi - lo)

    # -- domain ---------------------------------------------------------

    def contains(self, point):
        """True when the point, or every point of a stack, is strictly inside."""
        p = np.asarray(point, dtype=float)
        return bool(np.all(p > self.lo) and np.all(p < self.hi))

    # -- metric and derived fields ---------------------------------------

    def metric_at(self, point):
        raise NotImplementedError

    def inverse_metric_at(self, point):
        g = self.metric_at(point)
        _cholesky(g, point)
        return np.linalg.inv(g)

    def sqrt_det_many(self, points):
        """sqrt(det g)."""
        chol = _cholesky(self.metric_at(points), points)
        return np.prod(np.diagonal(chol, axis1=-2, axis2=-1), axis=-1)

    def volume_inverse_metric_many(self, points):
        """sqrt(g) g^{ij}, the flux coefficient of the operator assembly."""
        return self.sqrt_det_many(points)[..., None, None] * self.inverse_metric_at(points)

    def christoffel_at(self, point):
        """Levi-Civita connection Gamma^i_{jk} (symmetric in jk)."""
        ginv = self.inverse_metric_at(point)
        dg = central_difference(self.metric_at, point, self.fd_step)  # d_k g_ij at [..., k, i, j]
        # Gamma^i_jk = 1/2 g^{il} (d_j g_lk + d_k g_jl - d_l g_jk)
        term = np.einsum('...jlk->...ljk', dg) + np.einsum('...klj->...ljk', dg) - dg
        return 0.5 * np.einsum('...il,...ljk->...ijk', ginv, term)

    def _curvature(self, point):
        """(g^{ij}, Gamma^i_jk, dgam, scalar curvature) with dgam[..., m, i, j, k]
        = d_m Gamma^i_jk, from one difference of the connection."""
        ginv = self.inverse_metric_at(point)
        gam = self.christoffel_at(point)
        dgam = central_difference(self.christoffel_at, point, self.fd_step)
        # R_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_km Gamma^m_ij
        #        - Gamma^k_im Gamma^m_kj
        ricci = (
            np.einsum('...kkij->...ij', dgam)
            - np.einsum('...ikkj->...ij', dgam)
            + np.einsum('...kkm,...mij->...ij', gam, gam)
            - np.einsum('...kim,...mkj->...ij', gam, gam)
        )
        return ginv, gam, dgam, np.einsum('...ij,...ij->...', ginv, ricci)

    def ricci_scalar_at(self, point):
        """Scalar curvature from the R_{ki}^k_j contraction of the connection."""
        return self._curvature(point)[3]

    def quantum_corrections_many(self, points, mass):
        """(delta_v, delta_v_prime) by contracting the connection; see
        ``quantum_corrections``."""
        ginv, gam, dgam, ricci = self._curvature(points)
        contraction = np.einsum('...ij,...kil,...ljk->...', ginv, gam, gam)
        delta_v = (-ricci + contraction) / (8.0 * mass)
        # d_i Gamma_j = d_i Gamma^k_jk: differencing commutes with the trace
        trace_grad = np.einsum('...ikjk->...ij', dgam)
        delta_v_prime = np.einsum('...ij,...ij->...', ginv, trace_grad) / (8.0 * mass)
        return delta_v, delta_v_prime

    # -- terms of the semiclassical equation ------------------------------
    # The connection and the inverse metric are taken at the points as given
    # (the integrator passes Re p); the two gradients are continued to
    # complex points, so only charts with closed forms provide them.

    def geodesic_term_many(self, points, velocities):
        """Gamma^i_jk(p) v^j v^k."""
        return np.einsum('...ijk,...j,...k->...i', self.christoffel_at(points),
                         velocities, velocities)

    def inverse_metric_apply_many(self, points, covectors):
        """g^{ij}(p) w_j."""
        return np.einsum('...ij,...j->...i', self.inverse_metric_at(points), covectors)

    def correction_gradient_many(self, points, mass):
        """Gradient of delta_v + delta_v_prime."""
        raise ParameterError(
            f"{type(self).__name__} has no closed-form gradient of the ordering "
            "corrections: differencing their nested finite differences gives noise "
            "that stalls the adaptive integrator; integrate with corrections off")

    def log_sqrt_g_gradient_many(self, points):
        """Gradient of log sqrt(g)."""
        raise ParameterError(
            f"{type(self).__name__} has no closed-form log sqrt(g) to continue to "
            "complex points; integrate with corrections off")


class ConstantChart(MetricChart):
    """Constant symmetric positive-definite metric G: the connection, the
    curvature, the corrections and their gradients are exact zeros."""

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

    def _repeat(self, points, value):
        """``value`` at every point: an array over the points' leading axes."""
        value = np.asarray(value, dtype=float)
        return np.broadcast_to(value, np.shape(points)[:-1] + value.shape).copy()

    def metric_at(self, point):
        return self._repeat(point, self._g)

    def inverse_metric_at(self, point):
        return self._repeat(point, self._ginv)

    def sqrt_det_many(self, points):
        return self._repeat(points, self._sqrt_det)

    def volume_inverse_metric_many(self, points):
        return self._repeat(points, self._sqrt_det * self._ginv)

    def christoffel_at(self, point):
        return self._repeat(point, np.zeros((self.dim,) * 3))

    def log_sqrt_g_gradient_many(self, points):
        return self._repeat(points, np.zeros(self.dim))

    def ricci_scalar_at(self, point):
        return self._repeat(point, 0.0)

    def quantum_corrections_many(self, points, mass):
        return self._repeat(points, 0.0), self._repeat(points, 0.0)

    def geodesic_term_many(self, points, velocities):
        return np.zeros_like(velocities)

    def inverse_metric_apply_many(self, points, covectors):
        return covectors @ self._ginv.T

    def correction_gradient_many(self, points, mass):
        return self._repeat(points, np.zeros(self.dim))


class FlatChart(ConstantChart):
    """Euclidean metric: the constant chart with G = I, so every geometric
    quantity vanishes identically."""

    def __init__(self, dim, domain=None):
        super().__init__(np.eye(dim), domain)


class SphereStereographicChart(MetricChart):
    """Stereographic chart of the sphere |x| = R in ambient dimension N.

    The chart has dimension d = N-1 and the conformally flat metric
    g_ij = exp(xi) delta_ij, xi = 2 log(2 / (1 + s)), s = |v|^2/R^2.
    ``pole='north'`` projects from the north pole x_N = +R (the usual u
    coordinates, origin maps to the south pole); ``pole='south'`` projects
    from x_N = -R (the v coordinates, origin maps to the north pole).
    Default domain is the box [-R, R] per coordinate.

    Every quantity is written once from s and from grad xi = c v with
    c = -4 / (R^2 (1 + s)).  Complex points continue the formulas
    analytically (s = sum v_i^2, not |v|^2), as the semiclassical equation
    needs.
    """

    def __init__(self, ambient_dim, radius=1.0, pole="south", domain=None):
        if ambient_dim < 2:
            raise ParameterError("ambient dimension must be >= 2")
        # NaN fails as well; s = |v|^2 / R^2 needs R^2 to be a normal float
        if not (0 < radius < np.inf and radius * radius >= np.finfo(float).tiny):
            raise ParameterError(f"sphere radius must be finite and positive with a normal "
                                 f"square, got {radius}")
        if pole not in ("north", "south"):
            raise ParameterError("pole must be 'north' or 'south'")
        dim = ambient_dim - 1
        if domain is None:
            domain = (-radius * np.ones(dim), radius * np.ones(dim))
        super().__init__(dim, domain)
        self.ambient_dim = int(ambient_dim)
        self.radius = float(radius)
        self.pole = pole

    def _s(self, points):
        return np.einsum('...i,...i->...', points, points) / self.radius**2

    def _xi_slope(self, points):
        """c in grad xi = c v."""
        return -4.0 / (self.radius**2 * (1.0 + self._s(points)))

    def _grad_xi(self, points):
        v = np.asarray(points)
        return self._xi_slope(v)[..., None] * v

    def _times_eye(self, scale):
        return scale[..., None, None] * np.eye(self.dim)

    def metric_at(self, point):
        return self._times_eye((2.0 / (1.0 + self._s(point))) ** 2)

    def _inverse_factor(self, points):
        """exp(-xi) = ((1 + s) / 2)^2."""
        return (0.5 * (1.0 + self._s(points))) ** 2

    def inverse_metric_at(self, point):
        return self._times_eye(self._inverse_factor(point))

    def inverse_metric_apply_many(self, points, covectors):
        return self._inverse_factor(points)[..., None] * covectors

    def sqrt_det_many(self, points):
        return (2.0 / (1.0 + self._s(points))) ** self.dim

    def volume_inverse_metric_many(self, points):
        return self._times_eye((2.0 / (1.0 + self._s(points))) ** (self.dim - 2))

    def christoffel_at(self, point):
        b = self._grad_xi(point)
        eye = np.eye(self.dim)
        # Gamma^i_jk = 1/2 (delta^i_j b_k + delta^i_k b_j - delta_jk b_i)
        return 0.5 * (
            np.einsum('ij,...k->...ijk', eye, b)
            + np.einsum('ik,...j->...ijk', eye, b)
            - np.einsum('jk,...i->...ijk', eye, b)
        )

    def geodesic_term_many(self, points, velocities):
        # Gamma^i_jk v^j v^k = (b.v) v^i - |v|^2 b^i / 2 with b = grad xi
        b = self._grad_xi(points)
        return (np.einsum('...i,...i->...', b, velocities)[..., None] * velocities
                - 0.5 * np.einsum('...i,...i->...', velocities, velocities)[..., None] * b)

    def log_sqrt_g_gradient_many(self, points):
        # d_i log sqrt(g) = Gamma^j_ij = (d / 2) d_i xi
        v = np.asarray(points)
        return (0.5 * self.dim * self._xi_slope(v))[..., None] * v

    def ricci_scalar_at(self, point):
        # constant positive curvature of the (N-1)-sphere of radius R
        return np.full(np.shape(point)[:-1], self.dim * (self.dim - 1) / self.radius**2)

    def quantum_corrections_many(self, points, mass):
        # closed forms of the contractions for a conformally flat sphere chart
        d = self.dim
        s = self._s(points)
        mR2 = mass * self.radius**2
        delta_v = (-d * (d - 1) + (2 - d) * s) / (8.0 * mR2)
        delta_v_prime = d * (-d + (2 - d) * s) / (16.0 * mR2)
        return delta_v, delta_v_prime

    def correction_gradient_many(self, points, mass):
        # delta_v + delta_v_prime = (-6 d^2 + 4 d + (8 - 2 d^2) s) / (32 m R^2)
        d = self.dim
        return ((4.0 - d * d) / (8.0 * mass * self.radius**4)) * points

    # -- embedding --------------------------------------------------------

    def embed(self, chart_point):
        """Map chart coordinates to ambient sphere points (|x| = R for real ones).

        Complex coordinates continue the map analytically.
        """
        v = np.asarray(chart_point)
        if v.shape[-1:] != (self.dim,):
            raise ParameterError(f"expected chart points of dimension {self.dim}")
        s = self._s(v)[..., None]
        xN = self.radius * (1.0 - s) / (1.0 + s)
        return np.concatenate([2.0 * v / (1.0 + s), xN if self.pole == "south" else -xN],
                              axis=-1)

    def project(self, ambient_point):
        """Map ambient sphere points into chart coordinates."""
        x = np.asarray(ambient_point, dtype=float)
        if x.shape[-1:] != (self.ambient_dim,):
            raise ParameterError(f"expected ambient points of dimension {self.ambient_dim}")
        R = self.radius
        r = np.linalg.norm(x, axis=-1)
        off = np.abs(r - R) > 1e-9 * R
        if np.any(off):
            raise ParameterError(f"|x| = {r[off].flat[0]} is not on the sphere of radius {R}")
        sign = 1.0 if self.pole == "south" else -1.0
        denom = 1.0 + sign * x[..., self.dim] / R
        if np.any(np.abs(denom) < 1e-9):
            raise PoleSingularityError("projection evaluated at its pole")
        return x[..., :self.dim] / denom[..., None]


class CustomChart(MetricChart):
    """Chart built from a user metric callback of one point.

    ``metric_at`` calls it once per point of a stack, the only per-point
    loop; everything else comes from the ``MetricChart`` differences.
    """

    def __init__(self, dim, metric_fn, domain=None):
        super().__init__(dim, domain)
        self._metric_fn = metric_fn

    def metric_at(self, point):
        p = np.asarray(point, dtype=float)
        if p.shape[-1:] != (self.dim,):
            raise ParameterError(f"expected points of dimension {self.dim}, got shape {p.shape}")
        rows = p.reshape(-1, self.dim)
        g = np.empty((len(rows), self.dim, self.dim))
        for n, q in enumerate(rows):
            gq = np.asarray(self._metric_fn(q), dtype=float)
            if gq.shape != (self.dim, self.dim):
                raise ParameterError(f"metric callback returned shape {gq.shape}")
            g[n] = gq
        return g.reshape(p.shape[:-1] + (self.dim, self.dim))


# -- operations over charts ------------------------------------------------

def check_mass(mass):
    """A mass that is not finite and positive (NaN included) is a ``ParameterError``."""
    if not (0.0 < mass < np.inf):
        raise ParameterError("mass must be finite and positive")


def quantum_corrections(chart, point, mass):
    """Ordering corrections (delta_v, delta_v_prime) to the potential.

    delta_v       = (1/8m) (-Ricci + g^{ij} Gamma^k_{il} Gamma^l_{jk})
    delta_v_prime = (1/8m) g^{ij} d_i Gamma_j,  Gamma_j the Christoffel trace

    ``point`` is one point ``(dim,)``, giving two floats, or a ``(..., dim)``
    stack strictly inside the domain, giving two arrays over its leading
    axes.  Both terms vanish identically on flat and constant-metric charts.
    The stereographic sphere chart of dimension d uses the closed forms,
    with s = |v|^2 / R^2,

        delta_v       = (-d (d - 1) + (2 - d) s) / (8 m R^2)
        delta_v_prime = d (-d + (2 - d) s) / (16 m R^2)

    and any other chart contracts its connection as above
    (``MetricChart.quantum_corrections_many``).
    """
    check_mass(mass)
    pts = np.asarray(point, dtype=float)
    if pts.shape[-1:] != (chart.dim,):
        raise ParameterError(f"expected points of dimension {chart.dim}, got shape {pts.shape}")
    if not chart.contains(pts):
        raise DomainError(f"a point lies outside chart domain [{chart.lo}, {chart.hi}]")
    delta_v, delta_v_prime = chart.quantum_corrections_many(pts, mass)
    if pts.ndim == 1:
        return float(delta_v), float(delta_v_prime)
    return delta_v, delta_v_prime


def manifold_hessian(chart, gradient, point):
    """Covariant Hessian (Hess_g V)_ij = d_i d_j V - Gamma^k_ij d_k V.

    ``gradient`` is the callback dV(point), such as
    ``PotentialField.gradient_at``; the flat Hessian is its central
    difference.  ``point`` is one point strictly inside the chart domain.
    """
    p = np.asarray(point, dtype=float)
    if p.shape != (chart.dim,):
        raise ParameterError(f"expected a point of dimension {chart.dim}, got shape {p.shape}")
    if not chart.contains(p):
        raise DomainError(f"point {p} outside chart domain [{chart.lo}, {chart.hi}]")
    grad = np.asarray(gradient(p), dtype=float)
    rows = central_difference(lambda q: np.asarray(gradient(q), dtype=float), p, chart.fd_step)
    hess = 0.5 * (rows + rows.T)
    gam = chart.christoffel_at(p)
    return hess - np.einsum('kij,k->ij', gam, grad)
