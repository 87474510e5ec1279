"""Grids and sparse discrete operators.

The kinetic operator is the divergence-form finite-difference
Laplace-Beltrami operator

    (D psi)(x) = (1/sqrt(g)) sum_ij d_i ( sqrt(g) g^{ij} d_j psi )

with homogeneous Dirichlet boundary (psi clamped to zero on the boundary
nodes and outside).  Every flux coefficient F^{ij} = sqrt(g) g^{ij} is
evaluated at the midpoint of the two nodes it couples, which makes the
assembled matrix D satisfy the weighted-symmetry identity W D = (W D)^T
with W = diag(sqrt(g) * prod h).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ParameterError, ScheduleError, SingularMetricError


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid over a box, row-major linear indexing."""

    lo: np.ndarray
    hi: np.ndarray
    shape: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, 'lo', lo)
        object.__setattr__(self, 'hi', hi)
        object.__setattr__(self, 'shape', tuple(int(n) for n in self.shape))
        if len(self.shape) != lo.size or lo.size != hi.size:
            raise ParameterError("grid shape and box dimensions disagree")
        if any(n < 3 for n in self.shape):
            raise ParameterError("need at least 3 nodes per axis")
        if np.any(hi <= lo):
            raise ParameterError("grid box must have hi > lo")

    @classmethod
    def for_chart(cls, chart, nodes_per_axis):
        if np.isscalar(nodes_per_axis):
            shape = (int(nodes_per_axis),) * chart.dim
        else:
            shape = tuple(int(n) for n in nodes_per_axis)
        return cls(chart.lo, chart.hi, shape)

    @property
    def dim(self):
        return len(self.shape)

    @property
    def size(self):
        return int(np.prod(self.shape))

    @property
    def spacing(self):
        return (self.hi - self.lo) / (np.array(self.shape) - 1)

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def axes(self):
        return [np.linspace(self.lo[i], self.hi[i], self.shape[i]) for i in range(self.dim)]

    def nodes(self):
        """All node coordinates as an (M, dim) array in row-major order."""
        mesh = np.meshgrid(*self.axes(), indexing='ij')
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def boundary_mask(self):
        """Boolean length-M mask of boundary nodes."""
        mask = np.zeros(self.shape, dtype=bool)
        for ax in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[ax] = 0
            mask[tuple(sl)] = True
            sl[ax] = -1
            mask[tuple(sl)] = True
        return mask.ravel()


@dataclass
class PotentialField:
    """Scalar potential with optional analytic gradient.

    ``fn`` and ``gradient_fn`` take one point ``(dim,)`` or a stack
    ``(..., dim)`` and return over its leading axes, so ``node_values`` and
    ``gradient_at`` make one call.  Without ``gradient_fn`` the gradient is
    the central difference of ``fn`` over the stack.
    """

    fn: object
    gradient_fn: object = None

    def gradient_at(self, point):
        p = np.asarray(point)
        if self.gradient_fn is not None:
            return np.asarray(self.gradient_fn(p))
        out = geometry.central_difference(self.fn, p, geometry.FD_STEP)
        return out.real if np.all(out.imag == 0) else out

    def node_values(self, grid):
        # a value that is not finite raises below, so numpy need not warn
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            vals = np.asarray(np.real(self.fn(grid.nodes())), dtype=float)
        if vals.shape != (grid.size,) or not np.all(np.isfinite(vals)):
            raise ParameterError("potential needs one finite value per grid node")
        return vals


def quadratic_potential(matrix, mass):
    """V(x) = (mass/2) x^T A x with analytic gradient."""
    A = np.asarray(matrix, dtype=float)
    if not np.allclose(A, A.T, atol=1e-12):
        raise ParameterError("quadratic potential matrix must be symmetric")

    def value(x):
        return 0.5 * mass * np.sum(x * (x @ A), axis=-1)

    def grad(x):
        return mass * (x @ A.T)

    return PotentialField(value, grad)


def sphere_quadratic_potential(matrix, mass, chart):
    """Ambient quadratic V(x) = (mass/2) x^T A x pulled back to a sphere chart.

    ``matrix`` is one A of shape (N, N) or a stack (n, N, N), one per row of
    the ``(n, N - 1)`` chart points it is then evaluated at.  The value goes
    through ``chart.embed``; the gradient is the chain rule through the
    embedding x(v), continued to complex v, in its own operation order.
    """
    A = np.asarray(matrix, dtype=float)
    if not np.allclose(A, np.swapaxes(A, -1, -2), atol=1e-12):
        raise ParameterError("quadratic potential matrix must be symmetric")

    R = chart.radius
    sign = 1.0 if chart.pole == "south" else -1.0
    mA = mass * A

    def value(v):
        x = chart.embed(v)
        xa = x @ A if A.ndim == 2 else (x[..., None, :] @ A)[..., 0, :]
        return 0.5 * mass * np.sum(x * xa, axis=-1)

    def grad(v):
        v = np.asarray(v)
        d = v.shape[-1]
        s = chart._s(v)
        den = 1.0 + s
        x = np.concatenate([(2.0 / den)[..., None] * v,
                            (sign * R * (1.0 - s) / den)[..., None]], axis=-1)
        ax = np.matmul(mA, x[..., None])[..., 0]
        # d x^i / d v^j = 2 delta_ij / den - 4 v^i v^j / (R den)^2 for i < d;
        # d x^d / d v^j = -sign 4 v^j / (R den^2)
        radial = np.einsum('...i,...i->...', v, ax[..., :d]) / R + sign * ax[..., d]
        return ((2.0 / den)[..., None] * ax[..., :d]
                - (4.0 * radial / (R * den * den))[..., None] * v)

    return PotentialField(value, grad)


_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


@dataclass
class Schedule:
    """The dissipation schedule of H(t): friction gamma, constant eta, a(t).

    a(t) = exp(2 gamma t), the form whose friction a'/a is 2 gamma, unless a
    function ``a`` is given.  A gamma or eta that is not a finite number, and
    a non-finite dt, t_end or step count t_end / dt, are a
    ``ParameterError``; every comparison is written so NaN fails it.
    """

    gamma: float = 0.0
    eta: float = 1.0
    t_end: float = 1.0
    dt: float = 1e-2
    a: object = None

    def __post_init__(self):
        if not (0 < self.dt < np.inf):
            raise ParameterError(f"dt must be finite and positive, got {self.dt}")
        if not (self.dt <= self.t_end < np.inf and np.isfinite(self.t_end / self.dt)):
            raise ParameterError(f"t_end must be at least dt and a finite number of steps "
                                 f"of dt = {self.dt}, got {self.t_end}")
        if not all(isinstance(v, numbers.Real) and np.isfinite(v) for v in (self.gamma, self.eta)):
            raise ParameterError(f"gamma and eta must be finite numbers, "
                                 f"got {self.gamma!r} and {self.eta!r}")
        if not (0 < self.a_at(0.0) < np.inf):
            raise ScheduleError("a(0) must be finite and positive")

    def a_at(self, t):
        if self.a is not None:
            return float(self.a(t))
        # past the largest float a(t) is inf, without numpy's overflow warning
        x = 2.0 * self.gamma * t
        return np.inf if x > _LOG_FLOAT_MAX else float(np.exp(x))


def node_sqrt_g(chart, nodes):
    """sqrt(det g) at the nodes; ``SingularMetricError`` unless positive and finite."""
    sqrt_g = chart.sqrt_det_many(nodes)
    if not np.all((sqrt_g > 0) & (sqrt_g < np.inf)):   # NaN fails as well
        raise SingularMetricError("sqrt(det g) must be positive and finite on the grid")
    return sqrt_g


def assemble_laplace_beltrami(chart, grid):
    """Divergence-form Laplace-Beltrami operator on the grid.

    Every coupling between a node pair carries the flux coefficient
    sqrt(g) g^{ij} evaluated at the arithmetic mean of the two node
    coordinates; mixed derivatives are discretized as flux differences along
    the two diagonals of each axis pair.  Boundary rows and columns are zero
    (homogeneous Dirichlet; the wave function is clamped to zero outside).

    Returns the real CSR matrix D, canonical with sorted indices.  It stores
    no zero coupling, but every row stores its diagonal (0 on boundary rows),
    so H(t) = ck (-D) + diag(...) has D's sparsity pattern.  With
    W = diag(sqrt(g) * prod h) the product W D is symmetric.
    """
    import scipy.sparse as sp  # deferred: `import qrhd` loads no scipy

    if grid.dim != chart.dim:
        raise ParameterError("grid and chart dimensions disagree")
    if np.any(grid.lo < chart.lo - 1e-12) or np.any(grid.hi > chart.hi + 1e-12):
        raise ParameterError("grid box must lie inside the chart domain")
    shape = grid.shape
    dim = grid.dim
    h = grid.spacing
    nodes = grid.nodes()
    sqrt_g = node_sqrt_g(chart, nodes)

    nodes_nd = nodes.reshape(shape + (dim,))
    interior = ~grid.boundary_mask().reshape(shape)
    lin = np.arange(grid.size).reshape(shape)

    rows = []
    cols = []
    vals = []
    center = np.zeros(grid.size)

    def slab(offset):
        """Index arrays (A, B) of all node pairs separated by `offset`."""
        src = tuple(slice(None, -o) if o > 0 else (slice(-o, None) if o < 0 else slice(None))
                    for o in offset)
        dst = tuple(slice(o, None) if o > 0 else (slice(None, o) if o < 0 else slice(None))
                    for o in offset)
        return src, dst

    def add_edges(offset, i, j, scale):
        src, dst = slab(offset)
        A = lin[src].ravel()
        B = lin[dst].ravel()
        mids = 0.5 * (nodes_nd[src].reshape(-1, dim) + nodes_nd[dst].reshape(-1, dim))
        F = chart.volume_inverse_metric_many(mids)
        if not np.all(np.isfinite(F)):
            raise SingularMetricError("metric singular at a cell face")
        C = scale * F[:, i, j]
        mA = interior.ravel()[A]
        mB = interior.ravel()[B]
        both = mA & mB & (C != 0)
        rows.append(A[both]); cols.append(B[both]); vals.append(C[both])
        rows.append(B[both]); cols.append(A[both]); vals.append(C[both])
        np.subtract.at(center, A[mA], C[mA])
        np.subtract.at(center, B[mB], C[mB])

    for i in range(dim):
        offset = [0] * dim
        offset[i] = 1
        add_edges(offset, i, i, 1.0 / h[i] ** 2)
    for i in range(dim):
        for j in range(i + 1, dim):
            denom = 2.0 * h[i] * h[j]
            offset = [0] * dim
            offset[i] = 1; offset[j] = 1
            add_edges(offset, i, j, 1.0 / denom)
            offset[j] = -1
            add_edges(offset, i, j, -1.0 / denom)

    rows.append(lin.ravel()); cols.append(lin.ravel()); vals.append(center)
    D = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.size, grid.size),
    ).tocsr()
    D.data *= np.repeat(1.0 / sqrt_g, np.diff(D.indptr))
    return D

