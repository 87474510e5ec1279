"""Crank-Nicolson integration of the time-dependent Schrodinger equation.

``CrankNicolsonStepper`` is the one place H(t) is formed: the
Laplace-Beltrami operator and the potential diagonal, assembled once, with
time-dependent scalar prefactors.  Each step solves

    (I + i dt/2 H(t + dt/2)) psi' = (I - i dt/2 H(t + dt/2)) psi

by BiCGSTAB preconditioned with a lazily refreshed incomplete LU of the
left-hand matrix.  Because W H is Hermitian for W = diag(sqrt(g) prod h),
the step preserves the weighted norm up to the solver residual.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .discretize import Grid, assemble_laplace_beltrami
from .errors import ParameterError, ScheduleError, SolverError
from .semiclassical import crossing_time

SOLVER_TARGET_RTOL = 1e-12     # aimed-for residual; must land under 1e-10
SOLVER_REQUIRED_RTOL = 1e-10
PRECOND_REFRESH_WINDOW = 0.25  # schedule-time window one factorization serves
PRECOND_REFRESH_ITERS = 6      # refresh early if solves get slower than this


class _Lazy:
    """Stands in for a module and imports it on first attribute access."""

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


# a module global that `_factor` looks up at call time, so it can be replaced
# from outside; `import qrhd` loads no scipy
spla = _Lazy("scipy.sparse.linalg")


@dataclass
class WaveFunction:
    """Complex amplitudes on a grid with the sqrt(g)-weighted inner product."""

    values: np.ndarray
    grid: Grid
    chart: object
    sqrt_g: np.ndarray = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.size,):
            raise ParameterError("wave function length must equal the grid size")
        if self.sqrt_g is None:
            self.sqrt_g = self.chart.sqrt_det_many(self.grid.nodes())

    @property
    def weights(self):
        return self.sqrt_g * self.grid.cell_volume

    def weighted_norm(self):
        return float(np.sqrt(np.sum(self.weights * np.abs(self.values) ** 2)))

    def normalized(self):
        n = self.weighted_norm()
        if n == 0:
            raise ParameterError("cannot normalize the zero state")
        return WaveFunction(self.values / n, self.grid, self.chart, self.sqrt_g)

    def expectation_position(self):
        p = self.weights * np.abs(self.values) ** 2
        total = p.sum()
        return (p @ self.grid.nodes()) / total

    def density(self):
        """|psi|^2 reshaped to the grid."""
        return (np.abs(self.values) ** 2).reshape(self.grid.shape)


def init_state(grid, chart, kind="uniform", seed=None, center=None, width=None,
               smooth_length=None):
    """Build a normalized initial state with zero boundary values.

    kinds:
      - ``uniform``: constant amplitude.
      - ``gaussian``: exp(-|x - center|^2 / (4 width^2)).
      - ``random``: independent uniform magnitudes in [0, 1) and uniform
        phases per node, from a seeded generator.
      - ``random-smooth``: the ``random`` field convolved with a Gaussian
        kernel of physical length ``smooth_length`` (default 1/16 of the
        shortest box edge), reflected at the box ends and truncated at
        4 sigma, then renormalized.  This is the package's
        "random distribution" for the bundled experiments: it keeps the
        randomness while leaving the state in the low-energy sector the
        descent dynamics can actually funnel.
    """
    for key, v in (("width", width), ("smooth_length", smooth_length)):
        if v is not None and not (0 < v < np.inf):   # NaN fails as well
            raise ParameterError(f"{key} must be finite and positive, got {v}")
    boundary = grid.boundary_mask()
    if kind == "uniform":
        values = np.ones(grid.size, dtype=complex)
    elif kind == "gaussian":
        if width is None:
            raise ParameterError("gaussian init requires width > 0")
        c = np.zeros(grid.dim) if center is None else np.asarray(center, dtype=float)
        d2 = np.sum((grid.nodes() - c) ** 2, axis=1)
        values = np.exp(-d2 / (4.0 * width**2)).astype(complex)
    elif kind in ("random", "random-smooth"):
        rng = np.random.default_rng(seed)
        mag = rng.uniform(0.0, 1.0, grid.size)
        phase = rng.uniform(0.0, 2.0 * np.pi, grid.size)
        values = mag * np.exp(1j * phase)
        if kind == "random-smooth":
            if smooth_length is None:
                smooth_length = np.min(grid.hi - grid.lo) / 16.0
            sigmas = smooth_length / grid.spacing
            f = values.reshape(grid.shape)
            values = (_gaussian_filter(f.real, sigmas)
                      + 1j * _gaussian_filter(f.imag, sigmas)).ravel()
    else:
        raise ParameterError(f"unknown initial state kind: {kind!r}")
    values[boundary] = 0.0
    psi = WaveFunction(values, grid, chart)
    return psi.normalized()


def _gaussian_filter(f, sigmas):
    """Gaussian filter of a real array, reflected at the ends, cut at 4 sigma.

    The weights and the order of summation, x_0 w_0 + sum_{j=r..1}
    (x_{-j} + x_j) w_j, are those of ``scipy.ndimage.gaussian_filter`` with
    its defaults, so the result is bitwise equal; sigma <= 1e-15 skips an axis.
    """
    for axis, sigma in enumerate(sigmas):
        if sigma <= 1e-15:
            continue
        r = int(4.0 * float(sigma) + 0.5)
        w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
        w = (w / w.sum())[r:]
        g = np.moveaxis(f, axis, 0)
        n = g.shape[0]
        g = np.pad(g, [(r, r)] + [(0, 0)] * (g.ndim - 1), mode="symmetric")
        out = g[r:r + n] * w[0]
        for j in range(r, 0, -1):
            out += (g[r - j:r - j + n] + g[r + j:r + j + n]) * w[j]
        f = np.moveaxis(out, 0, axis)
    return f


@np.errstate(all="ignore")   # non-finite arithmetic surfaces as a non-finite residual
def _bicgstab(A, b, x0, precond, rtol, maxiter=400):
    """Right-preconditioned BiCGSTAB; returns (x, iterations, rel_residual)."""
    x = x0.copy()
    r = b - A @ x
    bn = np.linalg.norm(b)
    if bn == 0.0:
        return np.zeros_like(b), 0, 0.0
    rhat = r.copy()
    rho = alpha = omega = 1.0 + 0.0j
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    it = 0
    rn = np.linalg.norm(r)
    while rn > rtol * bn and it < maxiter:
        rho_new = np.vdot(rhat, r)
        if rho_new == 0 or omega == 0:
            break  # breakdown; caller refreshes the preconditioner
        if it > 0:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        else:
            p = r.copy()
        phat = precond(p)
        v = A @ phat
        denom = np.vdot(rhat, v)
        if denom == 0:
            break
        alpha = rho_new / denom
        s = r - alpha * v
        sn = np.linalg.norm(s)
        if sn <= rtol * bn:   # converged at the half step
            return x + alpha * phat, it + 1, sn / bn
        shat = precond(s)
        t = A @ shat
        tt = np.vdot(t, t)
        if tt == 0:
            return x + alpha * phat, it + 1, sn / bn
        omega = np.vdot(t, s) / tt
        x = x + alpha * phat + omega * shat
        r = s - omega * t
        rho = rho_new
        it += 1
        rn = np.linalg.norm(r)
    return x, it, rn / bn


def _factor(A):
    """Preconditioner for the CN matrix A: incomplete LU, exact LU if ILU fails.

    The minimum-degree ordering keeps the triangular factors lean; the mild
    drop tolerance halves the solve cost at no iteration penalty.
    """
    Acsc = A.tocsc()
    try:
        return spla.spilu(Acsc, drop_tol=1e-4, fill_factor=8, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:
        return spla.splu(Acsc, permc_spec="MMD_AT_PLUS_A")


class CrankNicolsonStepper:
    """Forms H(t) and takes Crank-Nicolson steps, reusing factorizations.

    The kinetic matrix and potential diagonal are fixed; only their scalar
    prefactors move with t, so "re-assembling H" per step is two scalar
    multiplies.  The ILU preconditioner is refreshed when the schedule has
    drifted past ``PRECOND_REFRESH_WINDOW`` or BiCGSTAB slows down.
    """

    def __init__(self, chart, grid, potential, schedule, mass,
                 include_weyl_correction=False):
        if mass <= 0:
            raise ParameterError("mass must be positive")
        self.chart = chart
        self.grid = grid
        self.schedule = schedule
        self.mass = mass
        D, sqrt_g = assemble_laplace_beltrami(chart, grid, return_weights=True)
        self.kinetic = -D  # -Delta_g, scaled by ck/(…) later
        self.sqrt_g = sqrt_g
        self.v_nodes = potential.node_values(grid)
        # the ordering correction delta_v at the interior nodes, zero on the
        # clamped boundary
        self.weyl_nodes = None
        if include_weyl_correction:
            interior = ~grid.boundary_mask()
            self.weyl_nodes = np.zeros(grid.size)
            self.weyl_nodes[interior], _ = geometry.quantum_corrections(
                chart, grid.nodes()[interior], mass)
        # CN left-hand matrix: K stores every diagonal, so H(t) has K's
        # pattern and per-step assembly writes .data in place
        self._A = self.kinetic.astype(complex)
        rows = np.repeat(np.arange(grid.size), np.diff(self.kinetic.indptr))
        self._diag_pos = np.flatnonzero(self.kinetic.indices == rows)
        self._fac = None
        self._fac_time = -np.inf
        self.solve_iterations = []

    def hamiltonian_parts(self, t):
        """(ck, diag) with H(t) = ck K + diag(diag), K = -Delta_g.

        ck = 1/(2 m a(t)) and diag = a eta V, plus (1/a) dV when the ordering
        correction is on.  It is off by default: K is already the full
        Laplace-Beltrami operator, and dV belongs to its momentum-ordered form.
        """
        a = self.schedule.a_at(t)
        if not (0 < a < np.inf):
            raise ScheduleError(f"a({t}) = {a} must be finite and positive")
        ck = 1.0 / (a * 2.0 * self.mass)
        diag = (a * self.schedule.eta) * self.v_nodes
        if self.weyl_nodes is not None:
            diag = diag + (ck * 2.0 * self.mass) * self.weyl_nodes
        return ck, diag

    def hamiltonian(self, t):
        """H(t) as a CSR matrix; W H is symmetric."""
        import scipy.sparse as sp

        ck, diag = self.hamiltonian_parts(t)
        return (ck * self.kinetic + sp.diags(diag)).tocsr()

    @np.errstate(all="ignore")   # an H(t) past the float range surfaces as a non-finite residual
    def step(self, values, t, dt):
        """Advance the raw amplitude vector from t to t + dt."""
        t_mid = t + 0.5 * dt
        ck, diag = self.hamiltonian_parts(t_mid)
        theta = 0.5j * dt
        A = self._A
        np.multiply(self.kinetic.data, theta * ck, out=A.data)
        A.data[self._diag_pos] += 1.0 + theta * diag
        b = values - theta * (ck * (self.kinetic @ values) + diag * values)
        # each refresh drops the stale factor first, so one factor is alive at a time
        if self._fac is None or (t_mid - self._fac_time) > PRECOND_REFRESH_WINDOW:
            self._fac = None
            self._fac, self._fac_time = _factor(A), t_mid
        x, it, res = _bicgstab(A, b, values, self._fac.solve, SOLVER_TARGET_RTOL)
        if not res <= SOLVER_REQUIRED_RTOL:     # a NaN residual fails as well
            self._fac = None
            self._fac, self._fac_time = _factor(A), t_mid
            start = x if np.isfinite(res) else values
            x, it2, res = _bicgstab(A, b, start, self._fac.solve, SOLVER_TARGET_RTOL)
            it += it2
            if not res <= SOLVER_REQUIRED_RTOL:
                raise SolverError(
                    f"linear solve stalled at t={t_mid}: relative residual {res:.3e}",
                    residual=res,
                )
        if it >= PRECOND_REFRESH_ITERS:
            self._fac = None  # force refresh next step
        self.solve_iterations.append(it)
        return x


@dataclass
class EvolutionTrace:
    """Sampled observables of one evolution run."""

    times: np.ndarray
    positions: np.ndarray          # (n_samples, dim) expectation of position
    norms: np.ndarray              # weighted norm at each sample
    frames: list = field(default_factory=list)   # (time, |psi|^2 array) pairs

    def norm_drift(self):
        return float(np.max(np.abs(self.norms - 1.0)))

    def first_crossing(self, threshold):
        """First sampled time with |<x>| <= threshold (linear interpolation)."""
        return crossing_time(self.times, np.linalg.norm(self.positions, axis=1), threshold)


def evolve(chart, grid, potential, schedule, initial, sample_times=None,
           frame_times=(), include_weyl_correction=False, mass=1.0):
    """Crank-Nicolson evolution; records <x>(t), norm(t) and density frames.

    ``sample_times`` defaults to every ``max(1, n_steps // 400)``-th step
    (every step below 800 steps) plus the endpoint; all requested times are
    snapped to step boundaries.
    """
    dt = schedule.dt
    t_end = schedule.t_end
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        n_steps = int(np.ceil(t_end / dt - 1e-12))
    if sample_times is None:
        stride = max(1, n_steps // 400)
        sample_times = [k * dt for k in range(0, n_steps + 1, stride)]
        if sample_times[-1] < t_end:
            sample_times.append(t_end)
    sample_times = np.asarray(sorted(sample_times), dtype=float)
    if sample_times.size and (sample_times[0] < -1e-12 or sample_times[-1] > t_end + 1e-9):
        raise ParameterError("sample times must lie within [0, t_end]")
    frame_times = np.asarray(sorted(frame_times), dtype=float)

    stepper = CrankNicolsonStepper(
        chart, grid, potential, schedule, mass,
        include_weyl_correction=include_weyl_correction,
    )
    psi = initial.values.copy()
    sqrt_g = stepper.sqrt_g

    times, positions, norms, frames = [], [], [], []
    si = fi = 0

    def record(t_now, values):
        nonlocal si, fi
        state = WaveFunction(values, grid, chart, sqrt_g)
        while si < sample_times.size and sample_times[si] <= t_now + dt / 2:
            times.append(t_now)
            positions.append(state.expectation_position())
            norms.append(state.weighted_norm())
            si += 1
        while fi < frame_times.size and frame_times[fi] <= t_now + dt / 2:
            frames.append((t_now, state.density()))
            fi += 1

    record(0.0, psi)
    t = 0.0
    for k in range(n_steps):
        step_dt = min(dt, t_end - t)
        psi = stepper.step(psi, t, step_dt)
        t += step_dt
        record(t, psi)

    return EvolutionTrace(
        times=np.asarray(times),
        positions=np.asarray(positions).reshape(len(times), grid.dim),
        norms=np.asarray(norms),
        frames=frames,
    )
