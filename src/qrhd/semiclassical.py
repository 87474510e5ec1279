"""Semiclassical equations of motion, convergence times, and bounds.

The position expectation obeys a damped second-order equation with the
Levi-Civita connection, friction 2 gamma, and the natural gradient of an
effective potential

    V_eff = V + (dV + dV') / (eta a^2) - i log(sqrt g) / (eta a),

whose geometric corrections decay with the dissipation schedule.  The
imaginary measure term makes the state complex; connection and inverse
metric are evaluated at Re(position), scalar force fields are continued to
the complex position.  One driver, ``integrate_eom``, integrates one
state or a stack of them on any chart with one right-hand side, built from
the chart's batched geometry and a ``Schedule``, and one adaptive
integrator, Dormand-Prince 8(5,3) (Hairer's DOP853) with its 7th-order
dense output.  The random-instance study integrates one such stack on the
sphere and keeps only each sample's distance to the optimum.
The correction terms need a chart with closed forms for their gradients
(flat, constant, sphere).

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
from .errors import BlowUpError, DomainError, ParameterError, ScheduleError
from .geometry import SphereStereographicChart, check_mass


# -- effective potential -----------------------------------------------------

def effective_potential_gradient(chart, potential, p, schedule, t, mass,
                                 corrections=False, log_measure=False):
    """Gradient of V_eff at a (possibly complex) chart point or (..., dim) stack.

    With both flags off this is just grad V.  ``corrections`` adds the
    chart's gradient of the ordering correction dV + dV' over eta a^2, and
    ``log_measure`` the measure term -i/(eta a) grad log sqrt(g), both
    continued to complex points; a chart without closed forms for them
    raises ``ParameterError``.
    """
    grad = potential.gradient_at(p)
    if not (corrections or log_measure):
        return grad
    eta = schedule.eta
    if eta <= 0:
        raise ScheduleError("corrections require eta > 0")
    a = schedule.a_at(t)
    if corrections:
        grad = grad + chart.correction_gradient_many(p, mass) / (eta * a * a)
    if log_measure:
        grad = grad - 1j * chart.log_sqrt_g_gradient_many(p) / (eta * a)
    return grad


def _eom_rhs(chart, potential, schedule, mass, corrections, log_measure):
    """Right-hand side of the damped geodesic-descent equation on y = (p, v).

    y is an (n, 2 dim) stack and

        v' = -(Gamma(Re p)[v, v] + 2 gamma v + (eta / m) g^{-1}(Re p) grad V_eff(p)).

    The friction 2 gamma is a'/a of the schedule's a(t) = exp(2 gamma t).
    The state stays real unless ``log_measure`` adds the imaginary term.
    """
    dim, gamma, eta = chart.dim, schedule.gamma, schedule.eta

    def rhs(t, y):
        p, v = y[:, :dim], y[:, dim:]
        w = p.real
        grad = effective_potential_gradient(chart, potential, p, schedule, t, mass,
                                            corrections, log_measure)
        out = np.empty_like(y)
        out[:, :dim] = v
        out[:, dim:] = -(chart.geodesic_term_many(w, v) + 2.0 * gamma * v
                         + (eta / mass) * chart.inverse_metric_apply_many(w, grad))
        return out

    return rhs


# -- adaptive integrator --------------------------------------------------------

ODE_METHOD = "dop853"
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12
_STEP_FLOOR = 1e-12          # smallest step, relative to the integration span

# Dormand-Prince 8(5,3), Hairer's dop853.f (Hairer, Norsett & Wanner, Solving
# ODEs I, II.10), with the values of scipy's dop853_coefficients.py (BSD-3).
# _DP_A[i - 1] weights stages 0..i-1 into the point of stage i, taken at
# t + _DP_C[i] h.  Stage 12 is the derivative at the 8th-order solution
# (_DP_A[11]) and starts the next step; stages 13-15 exist only for the
# 7th-order dense output, whose higher coefficients are _DP_D.  _DP_E5 and
# _DP_E3 weight the 5th- and 3rd-order error estimates.
_DP_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_DP_A = [np.array(row) for row in (
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
     0.20136540080403034, 0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987],
)]
_DP_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294])
_DP_E3 = _DP_A[11].copy()                # b minus Hairer's bhh1..bhh3
_DP_E3[0] -= 0.2440944881889764
_DP_E3[8] -= 0.7338466882816118
_DP_E3[11] -= 0.022058823529411766
_DP_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727,
     -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])


@dataclass
class OdeStats:
    """Accepted and rejected steps and right-hand-side evaluations of one run."""

    accepted: int = 0
    rejected: int = 0
    evaluations: int = 0


class DormandPrince:
    """Adaptive Dormand-Prince 8(5,3) steps for y' = f(t, y), y of shape (rows, n).

    Error control is per row: a step is accepted when every live row's
    combined 5th/3rd-order error norm (Hairer's, with the RMS of
    err / (ODE_ATOL + ODE_RTOL |y|)) is at most one, so each trajectory of a
    batch meets the tolerance however many rows share the step.  ``freeze``
    stops rows for good: their derivative is zero from then on and they
    leave the error norm.  A non-finite error norm, or a step below the
    floor, raises ``BlowUpError``.  A step costs 12 evaluations per attempt,
    and 3 more if its dense output is asked for.
    """

    def __init__(self, f, t0, y0, t_end):
        self.f = f
        self.t, self.y, self.t_end = float(t0), y0, float(t_end)
        self.h_min = _STEP_FLOOR * (self.t_end - self.t)
        self.h = None
        self.frozen = np.zeros(y0.shape[0], dtype=bool)
        self.stats = OdeStats()
        self.k = np.empty((16,) + y0.shape, dtype=y0.dtype)
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

    def _stages(self, t, y, h, stages):
        """Evaluate ``stages`` of the step (t, y, h) into ``self.k``."""
        flat = self.k.reshape(16, -1)
        for i in stages:
            point = y + h * (_DP_A[i - 1] @ flat[:i]).reshape(y.shape)
            self.k[i] = self._eval(t + _DP_C[i] * h, point)
        return point

    def _norm(self, x, scale):
        with np.errstate(invalid="ignore"):     # non-finite norms raise in step()
            rms = np.sqrt(np.mean(np.abs(x / scale) ** 2, axis=1))
        rms[self.frozen] = 0.0
        return float(rms.max())

    def _error_norm(self, h, scale):
        """Largest live-row norm of the combined 5th/3rd-order error estimate."""
        flat = self.k[:12].reshape(12, -1)
        with np.errstate(invalid="ignore", divide="ignore"):
            e5 = np.sum(np.abs((_DP_E5 @ flat).reshape(scale.shape) / scale) ** 2, axis=1)
            e3 = np.sum(np.abs((_DP_E3 @ flat).reshape(scale.shape) / scale) ** 2, axis=1)
            den = e5 + 0.01 * e3
            norm = h * e5 / np.sqrt(den * scale.shape[1])
        # only an exact zero estimate reads as zero: a NaN must reach step()
        norm[(den == 0) | self.frozen] = 0.0
        return float(norm.max())

    def _initial_step(self):
        """Hairer's starting-step heuristic for an 8th-order method."""
        scale = ODE_ATOL + ODE_RTOL * np.abs(self.y)
        d0, d1 = self._norm(self.y, scale), self._norm(self.f0, scale)
        h0 = 1e-6 if min(d0, d1) < 1e-5 else 0.01 * d0 / d1
        f1 = self._eval(self.t + h0, self.y + h0 * self.f0)
        dmax = max(d1, self._norm(f1 - self.f0, scale) / h0)
        h1 = max(1e-6, 1e-3 * h0) if dmax <= 1e-15 else (0.01 / dmax) ** 0.125
        return min(100 * h0, h1)

    def step(self):
        """Take one accepted step; its start stays in ``t_prev``, ``y_prev``."""
        t, y = self.t, self.y
        self.k[0] = self.f0
        h = self.h if self.h is not None else self._initial_step()
        rejected = False
        while True:
            last = t + h >= self.t_end
            if last:
                h = self.t_end - t
            point = self._stages(t, y, h, range(1, 13))
            scale = ODE_ATOL + ODE_RTOL * np.maximum(np.abs(y), np.abs(point))
            err_norm = self._error_norm(h, scale)
            if not np.isfinite(err_norm):
                raise BlowUpError(f"state became non-finite near t={t + h}")
            if err_norm <= 1.0:
                break
            self.stats.rejected += 1
            rejected = True
            h *= max(0.2, 0.9 * err_norm ** -0.125)
            if h < self.h_min:
                raise BlowUpError(f"step size {h:.3e} fell below the floor at t={t}")
        self.stats.accepted += 1
        grow = 10.0 if err_norm == 0.0 else min(10.0, 0.9 * err_norm ** -0.125)
        self.h = h * max(0.2, min(grow, 1.0) if rejected else grow)
        self.t_prev, self.y_prev, self.h_prev = t, y, h
        self.t, self.y = (self.t_end if last else t + h), point
        self.f0 = self.k[12].copy()

    def dense(self, times):
        """7th-order continuous extension of the last step at ``times`` in [t_prev, t].

        Covers the position half of the state, its first n/2 columns, in an
        array of shape (rows, len(times), n/2).  The three extra stages are
        evaluated only when ``times`` is not empty.
        """
        times = np.asarray(times, dtype=float)
        half = self.y.shape[1] // 2
        y0 = self.y_prev[:, :half]
        if times.size == 0:
            return np.empty((y0.shape[0], 0, half), dtype=y0.dtype)
        h = self.h_prev
        self._stages(self.t_prev, self.y_prev, h, range(13, 16))
        k = self.k[:, :, :half]
        dy = self.y[:, :half] - y0
        r = h * np.tensordot(_DP_D, k, axes=1)
        coeffs = (dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0]), *r)
        # y0 + s (c0 + (1 - s) (c1 + s (c2 + (1 - s) (c3 + ...)))), innermost first
        s = ((times - self.t_prev) / h)[None, :, None]
        out = 0.0
        for n, c in enumerate(reversed(coeffs)):
            out = (out + c[:, None]) * (s if n % 2 == 0 else 1.0 - s)
        return y0[:, None] + out

    def samples(self, times):
        """Step to ``times[-1]``, starting at ``times[0]``.

        After every accepted step yields (i, j, positions at times[i:j]),
        the samples that step covers (possibly none).  Between yields the
        caller may ``freeze`` rows or stop.
        """
        i = 1
        while self.t < times[-1]:
            self.step()
            j = int(np.searchsorted(times, self.t, side="right"))
            yield i, j, self.dense(times[i:j])
            i = j


# -- trajectory integration ---------------------------------------------------

@dataclass
class Trajectory:
    """Samples of ``integrate_eom``; arrays put the state's leading axes first."""

    times: np.ndarray
    positions: np.ndarray    # (..., len(times), dim)
    exit_sample: np.ndarray  # (...) first sample outside the box, -1 if none
    stats: OdeStats


def integrate_eom(chart, potential, schedule, position, velocity, times,
                  corrections=False, log_measure=False, mass=1.0):
    """Adaptive integration of the damped geodesic-descent equation.

    ``position`` and ``velocity`` are one ``(dim,)`` state or a stack
    ``(..., dim)`` of them; the state is complex only with ``log_measure``.
    Dormand-Prince 8(5,3) at ``ODE_RTOL``/``ODE_ATOL`` steps every row,
    each error-controlled on its own, from ``times[0]`` to ``times[-1]``,
    and its 7th-order dense output fills the positions at ``times``.

    A row is frozen at the end of the accepted step in which a component of
    Re p leaves the chart box [lo, hi] or one of |Im p| exceeds the box's
    half-width (hi - lo) / 2, or at the start if it starts outside;
    ``exit_sample`` is its first sample outside the box (or non-finite), -1
    if none.  A non-finite live row raises ``BlowUpError``.  A schedule with
    a given a(t) is a ``ParameterError``: the friction 2 gamma is a'/a only
    for a(t) = exp(2 gamma t).
    """
    return Trajectory(*_integrate_samples(chart, potential, schedule, position, velocity,
                                          times, corrections, log_measure, mass,
                                          store=lambda block: block))


def _integrate_samples(chart, potential, schedule, position, velocity, times,
                       corrections, log_measure, mass, store):
    """``integrate_eom``'s integration, keeping ``store(block)`` of each sample block.

    ``store`` maps a ``(rows, k, dim)`` block of positions at k samples to a
    ``(rows, k, ...)`` array, so only what it returns is held for the whole
    run.  Returns (times, stored values, exit_sample, stats), the arrays with
    the state's leading axes first.
    """
    if schedule.a is not None:
        raise ParameterError("integrate_eom needs the schedule a(t) = exp(2 gamma t)")
    check_mass(mass)
    dtype = complex if log_measure else float
    pos = np.asarray(position, dtype=dtype)
    vel = np.asarray(velocity, dtype=dtype)
    d = chart.dim
    if pos.shape != vel.shape or pos.shape[-1:] != (d,):
        raise ParameterError(f"position and velocity must both have shape (..., {d}), "
                             f"got {pos.shape} and {vel.shape}")
    lead = pos.shape[:-1]
    y0 = np.concatenate([pos, vel], axis=-1).reshape(-1, 2 * d)
    times = np.asarray(times, dtype=float)
    rhs = _eom_rhs(chart, potential, schedule, mass, corrections, log_measure)
    solver = DormandPrince(rhs, times[0], y0, times[-1])
    first = store(y0[:, None, :d])
    stored = np.empty((y0.shape[0], times.size) + first.shape[2:], dtype=first.dtype)
    exit_sample = np.full(y0.shape[0], -1, dtype=np.int64)

    def outside(p):
        # Im p is a displacement from the real axis, held to the box's half-width
        inside = ((chart.lo <= p.real) & (p.real <= chart.hi)
                  & (np.abs(p.imag) <= 0.5 * (chart.hi - chart.lo)))
        return ~inside.all(axis=-1)

    stored[:, :1] = first
    exit_sample[outside(y0[:, :d])] = 0
    solver.freeze(exit_sample == 0)
    for i, j, block in solver.samples(times):
        if j > i:
            stored[:, i:j] = store(block)
            bad = outside(block)
            hit = (exit_sample < 0) & bad.any(axis=1)
            exit_sample[hit] = i + np.argmax(bad[hit], axis=1)
        solver.freeze(outside(solver.y[:, :d]))
    return (times, stored.reshape(lead + stored.shape[1:]), exit_sample.reshape(lead),
            solver.stats)


def detect_t_star(times, ratios, epsilon_star, mode="first"):
    """Time at which the sampled distance ``ratios`` fall to ``epsilon_star``.

    ``ratios`` is |x(t) - x*| / |x(0) - x*| at ``times``.  ``mode="first"``
    takes the first sample at or below ``epsilon_star``; ``mode="sustained"``
    the first one after which no sample rises above it again within the
    observed window.  Oscillatory trajectories can dip through the ball
    long before they settle into it, so the sustained variant is the one
    comparable with envelope-based bounds.  The time is interpolated
    linearly between that sample and the one before it, and is ``times[0]``
    for a crossing at sample 0.  ``None`` when the ratios never (or, for
    sustained, do not finally) reach ``epsilon_star``.
    """
    if not (0.0 < epsilon_star < 1.0):
        raise ParameterError("epsilon_star must lie in (0, 1)")
    if mode not in ("first", "sustained"):
        raise ParameterError(f"unknown mode {mode!r}")
    below = np.asarray(ratios) <= epsilon_star
    if not below.any():
        return None
    if mode == "first":
        k = int(np.argmax(below))
    elif not below[-1]:
        return None
    else:
        above = np.where(~below)[0]
        k = int(above[-1] + 1) if above.size else 0
    if k == 0:
        return float(times[0])
    r0, r1 = ratios[k - 1], ratios[k]
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
    if not all(0.0 < v < np.inf for v in (lambda_eff, eta, mass)):
        raise ParameterError(f"lambda_eff, eta and mass must be finite and positive, "
                             f"got {lambda_eff}, {eta}, {mass}")
    if not (0.0 < epsilon_star <= 1.0):
        raise ParameterError("epsilon_star must lie in (0, 1]")
    omega = np.sqrt(eta * lambda_eff / mass)
    factor = -lambert_w_minus1(-epsilon_star / np.e) - 1.0
    return float(factor / omega), float(omega)


# -- random-instance study ------------------------------------------------------

STUDY_EPSILON = 0.01
STUDY_SLACK = 0.02             # a run satisfies the bound at t* >= (1 - slack) bound
STUDY_LAMBDA_EFF = 3.0      # gap between the two smallest eigenvalues 1, 4
STUDY_DOMAIN_HALFWIDTH = 4.0   # chart box half-width on the unit sphere
STUDY_OFFSET = 0.1             # chart distance of the start from the optimum


@dataclass
class RandomInstance:
    """One quadratic problem on the unit sphere: A = Q^T diag(1,4,...,N^2) Q."""

    dim: int
    matrix: np.ndarray
    x_star: np.ndarray
    v_star: np.ndarray
    initial_position: np.ndarray

    @classmethod
    def draw(cls, dim, rng):
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
        v_star = x_star[:-1] / (1.0 + x_star[-1])
        direction = rng.standard_normal(dim - 1)
        direction /= np.linalg.norm(direction)
        v0 = v_star + STUDY_OFFSET * direction
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
    integrator: dict = field(default_factory=dict)   # method, tolerances, counts


def _study_horizon(gamma, lambda_eff, epsilon_star):
    """Integration horizon covering the slowest damped mode's crossing."""
    if gamma * gamma > lambda_eff:
        rate = gamma - np.sqrt(gamma * gamma - lambda_eff)
    else:
        rate = gamma
    return 1.8 * np.log(1.0 / epsilon_star) / rate + 2.0


def run_instance_study(dim, gammas, instances, seed, epsilon_star=STUDY_EPSILON,
                       lambda_eff=STUDY_LAMBDA_EFF, corrections=False, log_measure=False):
    """Random-instance convergence study on the south stereographic chart.

    Draws seeded instances, integrates the damped natural-gradient equation
    for every (instance, gamma) pair on the unit sphere with m = eta = 1,
    detects t_star at ``epsilon_star`` and compares with the damped-oscillator
    bound; a run satisfies it when t_star >= (1 - ``STUDY_SLACK``) bound.
    Domain-exit runs are flagged, excluded from the satisfied fraction, and
    counted.

    The ordering-correction and measure terms of the effective potential
    are OFF by default here: at weak damping their early-time (not yet
    suppressed) contribution overturns the bounded chart potential and
    ejects a large share of trajectories, which is incompatible with the
    smooth 100-curve convergence this study is meant to exhibit.  Both
    remain available as flags.
    """
    if dim < 2:
        raise ParameterError("study dimension must be >= 2")
    if not (len(gammas) and all(np.isfinite(gamma) and gamma > 0 for gamma in gammas)):
        raise ParameterError(f"need gammas, each finite and positive, got {list(gammas)}")
    if instances < 1:
        raise ParameterError(f"need at least one instance, got {instances}")
    if not (0.0 < epsilon_star < 1.0):
        raise ParameterError(f"epsilon_star must lie in (0, 1), got {epsilon_star}")
    seed_seq = np.random.SeedSequence(seed)
    children = seed_seq.spawn(instances)
    draws = [RandomInstance.draw(dim, np.random.default_rng(s)) for s in children]
    A = np.stack([d.matrix for d in draws])
    v0 = np.stack([d.initial_position for d in draws])
    vstar = np.stack([d.v_star for d in draws])
    chart, potential = make_sphere_study_problem(A)

    def distance(block):        # |Re p - v*| of each instance at each sample
        return np.linalg.norm(block.real - vstar[:, None], axis=-1)

    bound, gamma_opt = convergence_bound(lambda_eff, 1.0, 1.0, epsilon_star)
    runs = []
    excluded_count = 0
    ode_steps = []
    for gamma in gammas:
        # samples every dt * stride (0.01 up to gamma = 50) to the horizon
        dt = min(1e-3, 0.05 / gamma)
        n_steps = int(np.ceil(_study_horizon(gamma, lambda_eff, epsilon_star) / dt))
        stride = max(1, int(round(0.01 / dt)))
        times = dt * stride * np.arange(n_steps // stride + 1)
        _, distances, exit_sample, stats = _integrate_samples(
            chart, potential, Schedule(gamma), v0, np.zeros_like(v0), times,
            corrections, log_measure, 1.0, store=distance)
        ode_steps.append(dict(gamma=float(gamma), **asdict(stats)))
        for i, dev in enumerate(distances):
            ratios = dev / dev[0]
            if exit_sample[i] >= 0:
                excluded_count += 1
                runs.append(StudyRun(i, float(gamma), None, bound, None, True,
                                     times[: exit_sample[i] + 1],
                                     ratios[: exit_sample[i] + 1]))
                continue
            t_star = detect_t_star(times, ratios, epsilon_star, mode="sustained")
            satisfied = (None if t_star is None
                         else bool(t_star >= bound * (1.0 - STUDY_SLACK)))
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
        integrator=dict(method=ODE_METHOD, rtol=ODE_RTOL, atol=ODE_ATOL,
                        steps=ode_steps),
    )


def make_sphere_study_problem(matrix):
    """Chart and potential of the study: the south chart on the study box.

    The sphere has radius 1 and the quadratic potential mass 1.  ``matrix``
    is one A of shape (N, N) or a stack of shape (n, N, N) that poses n
    instances at once, one per row of the ``(n, N - 1)`` points the
    potential is then evaluated at.
    """
    A = np.asarray(matrix, dtype=float)
    dim = A.shape[-1] - 1
    box = STUDY_DOMAIN_HALFWIDTH * np.ones(dim)
    chart = SphereStereographicChart(A.shape[-1], 1.0, pole="south", domain=(-box, box))
    return chart, sphere_quadratic_potential(A, 1.0, chart)
