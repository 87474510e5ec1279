"""Semiclassical equations of motion, convergence times, and bounds.

The position expectation obeys a damped second-order equation with the
Levi-Civita connection, friction 2 gamma, and the natural gradient of an
effective potential

    V_eff = V + (dV + dV') / (eta a^2) - i log(sqrt g) / (eta a),

whose geometric corrections decay with the dissipation schedule.  The
imaginary measure term makes the state complex; connection and inverse
metric are evaluated at Re(position), scalar force fields are continued to
the complex position.

Convergence is summarized by the first time the distance ratio to the
optimum drops below epsilon_star.  For a quadratic mode of stiffness
lambda_eff the critically damped envelope gives the lower bound

    t >= (-W_{-1}(-eps/e) - 1) / sqrt(eta lambda_eff / m),

with W_{-1} the lower Lambert branch.  The sign of the argument -eps/e is a
deliberate correction: the lower branch is only defined on [-1/e, 0), and
this choice reproduces the envelope root (1 + s) e^{-s} = eps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .discretize import Schedule, sphere_quadratic_potential
from .errors import (
    BlowUpError,
    DomainError,
    DomainExitError,
    ParameterError,
    ScheduleError,
)
from .geometry import (
    ConstantChart,
    FlatChart,
    SphereStereographicChart,
    quantum_corrections,
)


@dataclass
class SemiclassicalState:
    position: np.ndarray
    velocity: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.position = np.atleast_1d(np.asarray(self.position, dtype=complex))
        self.velocity = np.atleast_1d(np.asarray(self.velocity, dtype=complex))
        if self.position.shape != self.velocity.shape:
            raise ParameterError("position and velocity must have the same shape")


@dataclass
class Trajectory:
    times: np.ndarray
    positions: np.ndarray   # (T, dim) complex
    velocities: np.ndarray  # (T, dim) complex

    def deviation_ratio(self, target, chart=None, norm="euclid"):
        """|Re pos(t) - target| / |pos(0) - target| in the chosen norm."""
        dev = _deviation(self.positions, target, chart, norm)
        if dev[0] == 0:
            raise ParameterError("trajectory starts exactly at the target")
        return dev / dev[0]


def _deviation(positions, target, chart=None, norm="euclid"):
    target = np.asarray(target, dtype=float)
    delta = positions.real - target
    if norm == "euclid":
        return np.linalg.norm(delta, axis=-1)
    if norm == "weighted_at_target":
        if chart is None:
            raise ParameterError("weighted norm needs the chart")
        g = chart.metric_at(target)
        return np.sqrt(np.einsum('...i,ij,...j->...', delta, g, delta))
    raise ParameterError(f"unknown norm {norm!r}")


# -- effective potential -----------------------------------------------------

def _sphere_ordering_correction(v, R, d, mass):
    """dV + dV' on the conformal sphere chart, analytic in v (complex ok)."""
    s = np.sum(np.asarray(v) ** 2) / R**2
    return (-6.0 * d * d + 4.0 * d + (8.0 - 2.0 * d * d) * s) / (32.0 * mass * R**2)


def ordering_correction_field(chart, mass):
    """Callable v -> dV(v) + dV'(v) for the chart; complex-safe for built-ins."""
    if isinstance(chart, (FlatChart, ConstantChart)):
        return lambda v: 0.0
    if isinstance(chart, SphereStereographicChart):
        R, d = chart.radius, chart.dim
        return lambda v: _sphere_ordering_correction(v, R, d, mass)

    def generic(v):
        dv, dvp = quantum_corrections(chart, np.asarray(v).real, mass)
        return dv + dvp

    return generic


def _log_sqrt_g_gradient(chart, point):
    """grad log sqrt(g) = Christoffel trace; complex-continued for the sphere."""
    if isinstance(chart, (FlatChart, ConstantChart)):
        return np.zeros(chart.dim)
    if isinstance(chart, SphereStereographicChart):
        v = np.asarray(point)
        s = np.sum(v**2) / chart.radius**2
        return 0.5 * chart.dim * (-4.0 * v / (chart.radius**2 * (1.0 + s)))
    return chart.christoffel_trace_at(np.asarray(point).real)


def effective_potential_gradient(chart, potential, point, schedule, t, mass,
                                 corrections=True):
    """Gradient of V_eff at a (possibly complex) chart point.

    With ``corrections`` off this is just grad V.  With corrections on, the
    ordering-correction term is differentiated by central differences on the
    analytic correction field, and the measure term contributes
    -i/(eta a) grad log sqrt(g).
    """
    pt = np.atleast_1d(np.asarray(point))
    grad = np.asarray(potential.gradient_at(pt), dtype=complex)
    if not corrections:
        return grad
    eta = schedule.eta_at(t)
    if eta <= 0:
        raise ScheduleError("corrections require eta(t) > 0")
    a = schedule.a_at(t)
    corr = ordering_correction_field(chart, mass)
    cgrad = np.zeros(chart.dim, dtype=complex)
    for i in range(chart.dim):
        h = chart.fd_step[i]
        ep = pt.astype(complex).copy(); ep[i] += h
        em = pt.astype(complex).copy(); em[i] -= h
        cgrad[i] = (corr(ep) - corr(em)) / (2.0 * h)
    grad = grad + cgrad / (eta * a * a)
    grad = grad - 1j * np.asarray(_log_sqrt_g_gradient(chart, pt)) / (eta * a)
    return grad


# -- adaptive integrator --------------------------------------------------------

ODE_METHOD = "dopri5"
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12
_STEP_FLOOR = 1e-12          # smallest step, relative to the integration span

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.4-6).  Row
# i - 1 of _DP_A builds the point of stage i; the last row is the 5th-order
# solution, whose derivative (stage 6) starts the next step.  _DP_E weights
# the embedded error estimate, _DP_D the free 4th-order continuous extension.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
_DP_D = np.array([-12715105075 / 11282082432, 0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])


@dataclass
class OdeStats:
    """Accepted and rejected steps and right-hand-side evaluations of one run."""

    accepted: int = 0
    rejected: int = 0
    evaluations: int = 0


class DormandPrince:
    """Adaptive Dormand-Prince 5(4) steps for y' = f(t, y), y of shape (rows, n).

    Error control is per row: a step is accepted when every live row's RMS
    of err / (ODE_ATOL + ODE_RTOL |y|) is at most one, so each trajectory of a batch
    meets the tolerance however many rows share the step.  ``freeze`` stops
    rows for good: their derivative is zero from then on and they leave the
    error norm.  A non-finite error norm, or a step below the floor, raises
    ``BlowUpError``.
    """

    def __init__(self, f, t0, y0, t_end):
        self.f = f
        self.t, self.y, self.t_end = float(t0), y0, float(t_end)
        self.h_min = _STEP_FLOOR * (self.t_end - self.t)
        self.h = None
        self.frozen = np.zeros(y0.shape[0], dtype=bool)
        self.stats = OdeStats()
        self.k = np.empty((7,) + y0.shape, dtype=y0.dtype)
        self.f0 = self._eval(self.t, y0)

    def freeze(self, rows):
        self.frozen |= rows
        self.f0[self.frozen] = 0

    def _eval(self, t, y):
        self.stats.evaluations += 1
        dy = self.f(t, y)
        if self.frozen.any():
            dy[self.frozen] = 0
        return dy

    def _norm(self, x, scale):
        with np.errstate(invalid="ignore"):     # non-finite norms raise in step()
            rms = np.sqrt(np.mean(np.abs(x / scale) ** 2, axis=1))
        rms[self.frozen] = 0.0
        return float(rms.max())

    def _initial_step(self):
        """Hairer's starting-step heuristic for a 5th-order method."""
        scale = ODE_ATOL + ODE_RTOL * np.abs(self.y)
        d0, d1 = self._norm(self.y, scale), self._norm(self.f0, scale)
        h0 = 1e-6 if min(d0, d1) < 1e-5 else 0.01 * d0 / d1
        f1 = self._eval(self.t + h0, self.y + h0 * self.f0)
        dmax = max(d1, self._norm(f1 - self.f0, scale) / h0)
        h1 = max(1e-6, 1e-3 * h0) if dmax <= 1e-15 else (0.01 / dmax) ** 0.2
        return min(100 * h0, h1)

    def step(self):
        """Take one accepted step; its start stays in ``t_prev``, ``y_prev``."""
        t, y, k = self.t, self.y, self.k
        flat = k.reshape(7, -1)
        k[0] = self.f0
        h = self.h if self.h is not None else self._initial_step()
        rejected = False
        while True:
            last = t + h >= self.t_end
            if last:
                h = self.t_end - t
            for i in range(1, 7):
                point = y + h * (_DP_A[i - 1, :i] @ flat[:i]).reshape(y.shape)
                k[i] = self._eval(t + _DP_C[i] * h, point)
            err = h * (_DP_E @ flat).reshape(y.shape)
            scale = ODE_ATOL + ODE_RTOL * np.maximum(np.abs(y), np.abs(point))
            err_norm = self._norm(err, scale)
            if not np.isfinite(err_norm):
                raise BlowUpError(f"state became non-finite near t={t + h}")
            if err_norm <= 1.0:
                break
            self.stats.rejected += 1
            rejected = True
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            if h < self.h_min:
                raise BlowUpError(f"step size {h:.3e} fell below the floor at t={t}")
        self.stats.accepted += 1
        grow = 10.0 if err_norm == 0.0 else min(10.0, 0.9 * err_norm ** -0.2)
        self.h = h * max(0.2, min(grow, 1.0) if rejected else grow)
        self.t_prev, self.y_prev = t, y
        self.t, self.y = (self.t_end if last else t + h), point
        self.f0 = k[6].copy()

    def dense(self, times, cols=slice(None)):
        """Continuous extension of the last step at ``times`` in [t_prev, t].

        Returns an array of shape (rows, len(times), columns).
        """
        y0, k = self.y_prev[:, cols], self.k[:, :, cols]
        h = self.t - self.t_prev
        dy = self.y[:, cols] - y0
        r3 = h * k[0] - dy
        r4 = dy - h * k[6] - r3
        r5 = h * np.tensordot(_DP_D, k, axes=1)
        s = ((np.asarray(times) - self.t_prev) / h)[None, :, None]
        s1 = 1.0 - s
        return y0[:, None] + s * (dy[:, None] + s1 * (
            r3[:, None] + s * (r4[:, None] + s1 * r5[:, None])))

    def samples(self, times, cols=slice(None)):
        """Step to ``times[-1]``, starting at ``times[0]``.

        After every accepted step yields (i, j, values at times[i:j]), the
        samples that step covers (possibly none).  Between yields the caller
        may ``freeze`` rows or stop.
        """
        i = 1
        while self.t < times[-1]:
            self.step()
            j = int(np.searchsorted(times, self.t, side="right"))
            yield i, j, self.dense(times[i:j], cols)
            i = j


# -- trajectory integration ---------------------------------------------------

def integrate_eom(chart, potential, schedule, initial, t_end, corrections=True,
                  dt_ode=None, record_stride=1, mass=1.0):
    """Adaptive integration of the damped geodesic-descent equation.

    Dormand-Prince 5(4) at ``ODE_RTOL``/``ODE_ATOL``; the trajectory is
    sampled by dense output at the multiples of ``dt_ode * record_stride``
    below ``t_end`` and at ``t_end``.  The state is complex; Gamma and the
    inverse metric are evaluated at the real part of the position.  Raises
    ``DomainExitError`` (carrying the state at the start of the accepted
    step that left the chart box) and ``BlowUpError`` on non-finite state.
    """
    gamma = schedule.gamma
    if dt_ode is None:
        dt_ode = min(1e-3, 0.05 / gamma) if gamma > 0 else 1e-3
    pos = initial.position.astype(complex)
    vel = initial.velocity.astype(complex)
    if not chart.contains(pos.real):
        raise DomainError("initial position outside the chart domain")
    dim = pos.size

    def rhs(t, y):
        p, v = y[0, :dim], y[0, dim:]
        w = p.real
        gam_term = np.einsum('ijk,j,k->i', chart.christoffel_at(w), v, v)
        grad = effective_potential_gradient(chart, potential, p, schedule,
                                            t, mass, corrections)
        acc = -(gam_term + 2.0 * gamma * v
                + (schedule.eta_at(t) / mass) * (chart.inverse_metric_at(w) @ grad))
        return np.concatenate([v, acc])[None]

    n_steps = int(np.ceil(t_end / dt_ode - 1e-12))
    times = np.append(dt_ode * record_stride * np.arange(-(-n_steps // record_stride)),
                      float(t_end))
    solver = DormandPrince(rhs, 0.0, np.concatenate([pos, vel])[None], times[-1])
    states = np.empty((times.size, 2 * dim), dtype=complex)
    states[0] = solver.y[0]
    for i, j, block in solver.samples(times):
        if not chart.contains(solver.y[0, :dim].real):
            start = solver.y_prev[0]
            raise DomainExitError(
                f"trajectory left the chart domain at t={solver.t}",
                last_state=SemiclassicalState(start[:dim], start[dim:], solver.t_prev),
                time=solver.t,
            )
        states[i:j] = block[0]
    return Trajectory(times, states[:, :dim], states[:, dim:])


def _sphere_rhs(A, R, mass, eta, gamma, corrections, log_measure):
    """Batched right-hand side on y = (v, v'), shape (n, 2d), south chart.

    Closed-form conformal-chart geometry: metric exp(xi) I with
    xi = 2 log(2/(1+s)), s = |v|^2/R^2.  Connection and e^{-xi} are
    evaluated at Re(v); the pulled-back quadratic V(v) = (m/2) x^T A x is
    continued to complex v.  The ordering correction for this chart is the
    linear function of s

        dV + dV' = (-6 d^2 + 4 d + (8 - 2 d^2) s) / (32 m R^2),

    so its gradient is (4 - d^2) v / (8 m R^4).  With ``log_measure`` the
    state is complex; otherwise it stays real.
    """
    d = A.shape[1] - 1
    R2 = R * R
    mA = mass * A
    slope = (4.0 - d * d) / (8.0 * mass * R2 * R2)

    def rhs(t, y):
        pos, vel = y[:, :d], y[:, d:]
        w = pos.real
        sw = np.einsum('ni,ni->n', w, w) / R2
        b = (-4.0 / (R2 * (1.0 + sw)))[:, None] * w       # grad xi at Re(v)
        einv = (0.5 * (1.0 + sw)) ** 2                      # e^{-xi} at Re(v)
        gam_term = (np.einsum('ni,ni->n', b, vel)[:, None] * vel
                    - 0.5 * np.einsum('ni,ni->n', vel, vel)[:, None] * b)

        sc = np.einsum('ni,ni->n', pos, pos) / R2 if log_measure else sw
        den = 1.0 + sc
        x = np.empty((pos.shape[0], d + 1), dtype=y.dtype)
        x[:, :d] = (2.0 / den)[:, None] * pos
        x[:, d] = R * (1.0 - sc) / den
        ax = np.matmul(mA, x[:, :, None])[:, :, 0]
        axtop = ax[:, :d]
        radial = np.einsum('ni,ni->n', pos, axtop) / R + ax[:, d]
        grad = (2.0 / den)[:, None] * axtop - (4.0 * radial / (R * den * den))[:, None] * pos

        a_t = np.exp(2.0 * gamma * t)
        if corrections:
            grad += (slope / (eta * a_t * a_t)) * pos
        if log_measure:
            grad += ((2j * d / (eta * a_t * R2)) / den)[:, None] * pos

        out = np.empty_like(y)
        out[:, :d] = vel
        out[:, d:] = -(gam_term + 2.0 * gamma * vel + (eta / mass) * einv[:, None] * grad)
        return out

    return rhs


def integrate_sphere_batch(pos0, vel0, A, times, gamma, R=1.0, mass=1.0, eta=1.0,
                           corrections=False, log_measure=False):
    """Integrate a batch of south-chart sphere trajectories, sampled at ``times``.

    Returns (positions, exit_sample, stats): positions of shape
    (n_instances, len(times), dim), complex only with ``log_measure``; the
    index of each instance's first sample outside the study box (or
    non-finite), -1 if none; and the integrator's ``OdeStats``.  An instance
    is frozen at the end of the accepted step that leaves the box: a
    component of Re v or of Im v beyond the half-width.
    """
    dtype = complex if log_measure else float
    pos0 = np.asarray(pos0, dtype=dtype)
    n, d = pos0.shape
    halfwidth = STUDY_DOMAIN_HALFWIDTH * R
    times = np.asarray(times, dtype=float)
    y0 = np.concatenate([pos0, np.asarray(vel0, dtype=dtype)], axis=1)
    rhs = _sphere_rhs(np.asarray(A, dtype=float), float(R), float(mass), float(eta),
                      float(gamma), corrections, log_measure)
    solver = DormandPrince(rhs, times[0], y0, times[-1])
    positions = np.empty((n, times.size, d), dtype=dtype)
    exit_sample = np.full(n, -1, dtype=np.int64)

    def outside(p):
        # a runaway Im v leaves the box as surely as Re v does
        return ~((np.abs(p.real) <= halfwidth) & (np.abs(p.imag) <= halfwidth)).all(axis=-1)

    def record(i, j, block):
        positions[:, i:j] = block
        if j > i:
            bad = outside(block)
            hit = (exit_sample < 0) & bad.any(axis=1)
            exit_sample[hit] = i + np.argmax(bad[hit], axis=1)

    record(0, 1, pos0[:, None])
    solver.freeze(outside(pos0))
    for i, j, block in solver.samples(times, slice(0, d)):
        record(i, j, block)
        solver.freeze(outside(solver.y[:, :d]))
    return positions, exit_sample, solver.stats


def detect_t_star(times, positions, target, epsilon_star, chart=None,
                  norm="euclid", mode="first"):
    """Time at which |Re pos - target| / |pos(0) - target| <= epsilon_star.

    ``mode="first"`` returns the first crossing (linear interpolation
    between the bracketing samples); ``mode="sustained"`` returns the
    crossing after which the ratio never rises above epsilon_star again
    within the observed window.  Oscillatory trajectories can dip through
    the ball long before they settle into it, so the sustained variant is
    the one comparable with envelope-based bounds.  ``None`` when the
    trajectory never (or, for sustained, does not finally) enter the ball.
    """
    if not (0.0 < epsilon_star < 1.0):
        raise ParameterError("epsilon_star must lie in (0, 1)")
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions)
    dev = _deviation(positions, target, chart, norm)
    if dev[0] == 0:
        return 0.0
    ratio = dev / dev[0]
    below = ratio <= epsilon_star
    if not below.any():
        return None
    if mode == "first":
        k = int(np.argmax(below))
    elif mode == "sustained":
        if not below[-1]:
            return None
        above = np.where(~below)[0]
        k = int(above[-1] + 1) if above.size else 0
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    if k == 0:
        return 0.0
    r0, r1 = ratio[k - 1], ratio[k]
    frac = (r0 - epsilon_star) / (r0 - r1) if r0 != r1 else 1.0
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))


# -- Lambert W lower branch ----------------------------------------------------

_BRANCH_POINT = -1.0 / np.e


def lambert_w_minus1(z):
    """Lower real branch W_{-1}(z) on [-1/e, 0), via Halley iteration.

    Seeded by the asymptotic form log(-z) - log(-log(-z)) away from the
    branch point and by the square-root branch series near it; converges to
    |W e^W - z| <= 1e-12 |z|.
    """
    z = float(z)
    if not (_BRANCH_POINT <= z < 0.0):
        raise DomainError(f"W_-1 is defined on [-1/e, 0); got {z}")
    if z == _BRANCH_POINT:
        return -1.0
    p2 = 2.0 * (1.0 + np.e * z)
    if p2 < 1e-6:
        p = np.sqrt(p2)
        w = -1.0 - p - p2 / 6.0 - 11.0 * p * p2 / 72.0
    else:
        L1 = np.log(-z)
        L2 = np.log(-L1)
        w = L1 - L2
        if w > -1.0:
            w = -1.0 - np.sqrt(p2)
    tol = 1e-12 * abs(z)
    for _ in range(200):
        ew = np.exp(w)
        f = w * ew - z
        if abs(f) <= tol:
            break
        fp = (1.0 + w) * ew
        fpp = (2.0 + w) * ew
        denom = fp - 0.5 * f * fpp / fp
        step = f / denom if denom != 0 else f / fp
        w_new = w - step
        if w_new >= -1.0:
            w_new = 0.5 * (w - 1.0)  # stay on the lower branch
        w = w_new
    return float(w)


def convergence_bound(lambda_eff, eta, mass, epsilon_star):
    """Damped-oscillator lower bound on the convergence time.

    Returns (t_bound, gamma_opt) with t_bound = (-W_{-1}(-eps/e) - 1)/omega
    and gamma_opt = omega = sqrt(eta lambda_eff / mass).
    """
    if lambda_eff <= 0:
        raise ParameterError("lambda_eff must be positive")
    if eta <= 0 or mass <= 0:
        raise ParameterError("eta and mass must be positive")
    if not (0.0 < epsilon_star <= 1.0):
        raise ParameterError("epsilon_star must lie in (0, 1]")
    omega = np.sqrt(eta * lambda_eff / mass)
    factor = -lambert_w_minus1(-epsilon_star / np.e) - 1.0
    return float(factor / omega), float(omega)


# -- random-instance study ------------------------------------------------------

STUDY_EPSILON = 0.01
STUDY_LAMBDA_EFF = 3.0      # gap between the two smallest eigenvalues 1, 4
STUDY_DOMAIN_HALFWIDTH = 4.0   # chart box half-width, in units of R


@dataclass
class RandomInstance:
    """One quadratic sphere problem: A = Q^T diag(1,4,...,N^2) Q."""

    dim: int
    matrix: np.ndarray
    x_star: np.ndarray
    v_star: np.ndarray
    initial_position: np.ndarray

    @classmethod
    def draw(cls, dim, rng, radius=1.0, offset=0.1):
        if dim < 2:
            raise ParameterError("instance dimension must be >= 2")
        G = rng.standard_normal((dim, dim))
        Q, Rf = np.linalg.qr(G)
        Q = Q * np.sign(np.diagonal(Rf))[None, :]
        eigs = np.arange(1, dim + 1, dtype=float) ** 2
        A = Q.T @ np.diag(eigs) @ Q
        x_star = Q[0, :].copy()
        if x_star[-1] <= 0:
            x_star = -x_star
        v_star = radius * x_star[:-1] / (1.0 + x_star[-1])
        direction = rng.standard_normal(dim - 1)
        direction /= np.linalg.norm(direction)
        v0 = v_star + offset * radius * direction
        return cls(dim, A, x_star, v_star, v0)


@dataclass
class StudyRun:
    instance: int
    gamma: float
    t_star: float          # None if not detected
    bound: float
    satisfied: bool        # None when excluded / undetected
    excluded: bool
    times: np.ndarray = field(repr=False, default=None)
    ratios: np.ndarray = field(repr=False, default=None)


@dataclass
class StudyReport:
    runs: list
    bound: float
    gamma_opt: float
    excluded_count: int
    fraction_satisfied: float
    params: dict
    integrator: dict = field(default_factory=dict)   # method, tolerances, counts

    def all_satisfied(self):
        checked = [r.satisfied for r in self.runs if r.satisfied is not None]
        return bool(checked) and all(checked)


def _study_horizon(gamma, lambda_eff, epsilon_star):
    """Integration horizon covering the slowest damped mode's crossing."""
    if gamma * gamma > lambda_eff:
        rate = gamma - np.sqrt(gamma * gamma - lambda_eff)
    else:
        rate = gamma
    return 1.8 * np.log(1.0 / epsilon_star) / rate + 2.0


def run_instance_study(dim, gammas, instances, seed, epsilon_star=STUDY_EPSILON,
                       lambda_eff=STUDY_LAMBDA_EFF, radius=1.0, mass=1.0, eta=1.0,
                       corrections=False, log_measure=False, slack=0.02):
    """Random-instance convergence study on the south stereographic chart.

    Draws seeded instances, integrates the damped natural-gradient equation
    for every (instance, gamma) pair with m = R = eta = 1 defaults, detects
    t_star at ``epsilon_star`` and compares with the damped-oscillator
    bound.  Domain-exit runs are flagged, excluded from the satisfied
    fraction, and counted.

    The ordering-correction and measure terms of the effective potential
    are OFF by default here: at weak damping their early-time (not yet
    suppressed) contribution overturns the bounded chart potential and
    ejects a large share of trajectories, which is incompatible with the
    smooth 100-curve convergence this study is meant to exhibit.  Both
    remain available as flags.
    """
    if dim < 2:
        raise ParameterError("study dimension must be >= 2")
    seed_seq = np.random.SeedSequence(seed)
    children = seed_seq.spawn(instances)
    draws = [RandomInstance.draw(dim, np.random.default_rng(s), radius) for s in children]
    A = np.stack([d.matrix for d in draws])
    v0 = np.stack([d.initial_position for d in draws])
    vstar = np.stack([d.v_star for d in draws])
    vel0 = np.zeros_like(v0)

    bound, gamma_opt = convergence_bound(lambda_eff, eta, mass, epsilon_star)
    runs = []
    excluded_count = 0
    ode_steps = []
    for gamma in gammas:
        # samples every dt * stride (0.01 up to gamma = 50) to the horizon
        dt = min(1e-3, 0.05 / gamma)
        n_steps = int(np.ceil(_study_horizon(gamma, lambda_eff, epsilon_star) / dt))
        stride = max(1, int(round(0.01 / dt)))
        times = dt * stride * np.arange(n_steps // stride + 1)
        positions, exit_sample, stats = integrate_sphere_batch(
            v0, vel0, A, times, gamma, radius, mass, eta,
            corrections=corrections, log_measure=log_measure,
        )
        ode_steps.append(dict(gamma=float(gamma), **asdict(stats)))
        for i in range(instances):
            dev = np.linalg.norm(positions[i].real - vstar[i], axis=-1)
            ratios = dev / dev[0]
            if exit_sample[i] >= 0:
                excluded_count += 1
                runs.append(StudyRun(i, float(gamma), None, bound, None, True,
                                     times[: exit_sample[i] + 1],
                                     ratios[: exit_sample[i] + 1]))
                continue
            t_star = detect_t_star(times, positions[i], vstar[i], epsilon_star,
                                   mode="sustained")
            satisfied = None if t_star is None else bool(t_star >= bound * (1.0 - slack))
            runs.append(StudyRun(i, float(gamma), t_star, bound, satisfied,
                                 False, times, ratios))
    checked = [r for r in runs if r.satisfied is not None]
    fraction = (sum(r.satisfied for r in checked) / len(checked)) if checked else 0.0
    return StudyReport(
        runs=runs,
        bound=bound,
        gamma_opt=gamma_opt,
        excluded_count=excluded_count,
        fraction_satisfied=float(fraction),
        params=dict(dim=dim, gammas=list(map(float, gammas)), instances=instances,
                    seed=seed, epsilon_star=epsilon_star, lambda_eff=lambda_eff,
                    radius=radius, mass=mass, eta=eta, corrections=corrections,
                    log_measure=log_measure, slack=slack),
        integrator=dict(method=ODE_METHOD, rtol=ODE_RTOL, atol=ODE_ATOL,
                        steps=ode_steps),
    )


def make_sphere_study_problem(instance, radius=1.0, mass=1.0):
    """Chart and potential matching one study instance (for cross-checks)."""
    chart = SphereStereographicChart(
        instance.dim, radius, pole="south",
        domain=(-STUDY_DOMAIN_HALFWIDTH * radius * np.ones(instance.dim - 1),
                STUDY_DOMAIN_HALFWIDTH * radius * np.ones(instance.dim - 1)),
    )
    potential = sphere_quadratic_potential(instance.matrix, mass, chart)
    return chart, potential
