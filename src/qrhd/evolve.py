"""Crank-Nicolson integration of the time-dependent Schrodinger equation.

``CrankNicolsonStepper`` is the one place H(t) is formed: the
Laplace-Beltrami operator and the potential diagonal, assembled once, with
time-dependent scalar prefactors.  Each step solves

    (I + i dt/2 H(t + dt/2)) psi' = (I - i dt/2 H(t + dt/2)) psi

by BiCGSTAB preconditioned with an incomplete LU of the left-hand matrix,
one factor per band of log a(t).  Because W H is Hermitian for W =
diag(sqrt(g) prod h), the step preserves the weighted norm up to the solver residual.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .discretize import assemble_laplace_beltrami, node_sqrt_g
from .errors import ParameterError, ScheduleError, SolverError

SOLVER_TARGET_RTOL = 3e-13     # aimed-for residual; must land under 1e-10
SOLVER_REQUIRED_RTOL = 1e-10
PRECOND_BAND = 0.125           # width in log a(t) of the band one factorization serves


class _Lazy:
    """Stands in for a module and imports it on first attribute access."""

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


# a module global that `_factor` looks up at call time, so it can be replaced
# from outside; `import qrhd` loads no scipy
spla = _Lazy("scipy.sparse.linalg")


def init_state(grid, chart, kind="uniform", seed=None, center=None, width=None,
               smooth_length=None):
    """Initial amplitudes: zero on the boundary, of unit sqrt(g) prod h-weighted norm.

    kinds:
      - ``uniform``: constant amplitude.
      - ``gaussian``: exp(-|x - center|^2 / (4 width^2)).
      - ``random``: independent uniform magnitudes in [0, 1) and uniform
        phases per node, from a seeded generator.
      - ``random-smooth``: the ``random`` field convolved with a Gaussian
        kernel of physical length ``smooth_length`` (required, at most the
        shortest box edge), reflected at the box ends and truncated at
        4 sigma, then renormalized.  This is the package's
        "random distribution" for the bundled experiments: it keeps the
        randomness while leaving the state in the low-energy sector the
        descent dynamics can actually funnel.

    A sqrt(g) that is not positive and finite at a node raises ``SingularMetricError``.
    """
    for key, v in (("width", width), ("smooth_length", smooth_length)):
        if v is not None and not (0 < v < np.inf):   # NaN fails as well
            raise ParameterError(f"{key} must be finite and positive, got {v}")
    nodes = grid.nodes()
    if kind == "uniform":
        values = np.ones(grid.size, dtype=complex)
    elif kind == "gaussian":
        if width is None:
            raise ParameterError("gaussian init requires width > 0")
        c = np.zeros(grid.dim) if center is None else np.asarray(center, dtype=float)
        d2 = np.sum((nodes - c) ** 2, axis=1)
        values = np.exp(-d2 / (4.0 * width**2)).astype(complex)
    elif kind in ("random", "random-smooth"):
        rng = np.random.default_rng(seed)
        mag = rng.uniform(0.0, 1.0, grid.size)
        phase = rng.uniform(0.0, 2.0 * np.pi, grid.size)
        values = mag * np.exp(1j * phase)
        if kind == "random-smooth":
            # the filter's radius grows as smooth_length / h, so the box bounds its cost
            edge = float(np.min(grid.hi - grid.lo))
            if smooth_length is None or smooth_length > edge:
                raise ParameterError(f"random-smooth init requires smooth_length in (0, {edge}], "
                                     f"the box's shortest edge; got {smooth_length}")
            sigmas = smooth_length / grid.spacing
            f = values.reshape(grid.shape)
            values = (_gaussian_filter(f.real, sigmas)
                      + 1j * _gaussian_filter(f.imag, sigmas)).ravel()
    else:
        raise ParameterError(f"unknown initial state kind: {kind!r}")
    values[grid.boundary_mask()] = 0.0
    w = node_sqrt_g(chart, nodes) * grid.cell_volume
    norm = np.sqrt(np.sum(w * np.abs(values) ** 2))
    if norm == 0:
        raise ParameterError("cannot normalize the zero state")
    return values / norm


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
    drop tolerance halves the solve cost at no iteration penalty, and the
    fill cap leaves the flat chart's factor untruncated up to 256^2 nodes.
    """
    Acsc = A.tocsc()
    try:
        return spla.spilu(Acsc, drop_tol=1e-4, fill_factor=12, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:
        return spla.splu(Acsc, permc_spec="MMD_AT_PLUS_A")


class CrankNicolsonStepper:
    """Forms H(t) and takes Crank-Nicolson steps, reusing factorizations.

    The kinetic matrix and potential diagonal are fixed; only their scalar
    prefactors move with a(t), so "re-assembling H" per step is two scalar
    multiplies.  One ILU factor serves a band of ``PRECOND_BAND`` in log a; the
    next is built at its band's centre a(t + dt/2) e^{+-PRECOND_BAND/2}, on the
    side a moved to from the last factor's a (from a(0) when there is none).
    """

    def __init__(self, chart, grid, potential, schedule, mass,
                 include_weyl_correction=False):
        geometry.check_mass(mass)
        self.schedule = schedule
        self.mass = mass
        self.kinetic = -assemble_laplace_beltrami(chart, grid)  # -Delta_g, scaled by ck later
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
        self._fac, self._fac_a = None, schedule.a_at(0.0)   # a(0) sides the first band
        self.solve_iterations = []

    def hamiltonian_parts(self, t):
        """(ck, diag) with H(t) = ck K + diag(diag), K = -Delta_g.

        ck = 1/(2 m a(t)) and diag = a eta V, plus (1/a) dV when the ordering
        correction is on.  It is off by default: K is already the full
        Laplace-Beltrami operator, and dV belongs to its momentum-ordered form.
        """
        return self._parts(self.schedule.a_at(t), f"a({t})")

    def _parts(self, a, name):
        if not (0 < a < np.inf):
            raise ScheduleError(f"{name} = {a} must be finite and positive")
        ck = 1.0 / (a * 2.0 * self.mass)
        diag = (a * self.schedule.eta) * self.v_nodes
        if self.weyl_nodes is not None:
            diag = diag + (ck * 2.0 * self.mass) * self.weyl_nodes
        return ck, diag

    def _write(self, theta, ck, diag):
        """Write the CN matrix I + theta (ck K + diag(diag)) into A's values."""
        np.multiply(self.kinetic.data, theta * ck, out=self._A.data)
        self._A.data[self._diag_pos] += 1.0 + theta * diag

    @np.errstate(all="ignore")   # an H(t) past the float range surfaces as a non-finite residual
    def step(self, values, t, dt):
        """Advance the raw amplitude vector from t to t + dt."""
        t_mid = t + 0.5 * dt
        a, theta, A = self.schedule.a_at(t_mid), 0.5j * dt, self._A
        parts = self._parts(a, f"a({t_mid})")
        x, it, res = values, 0, 0.0
        for _ in range(2):      # a failed solve drops the factor and retries once
            if self._fac is None or abs(np.log(a / self._fac_a)) > PRECOND_BAND / 2:
                a_fac = a * np.exp(np.sign(a - self._fac_a) * (PRECOND_BAND / 2))
                self._fac = None    # the stale factor goes first, so one is alive
                self._write(theta, *self._parts(a_fac, "the preconditioner's band centre a"))
                self._fac, self._fac_a = _factor(A), a_fac
            self._write(theta, *parts)
            b = 2.0 * values - A @ values
            x, n, res = _bicgstab(A, b, x if np.isfinite(res) else values, self._fac.solve,
                                  SOLVER_TARGET_RTOL)
            it += n
            if res <= SOLVER_REQUIRED_RTOL:     # a NaN residual fails
                break
            self._fac, self._fac_a = None, self.schedule.a_at(0.0)
        else:
            raise SolverError(f"linear solve stalled at t={t_mid}: relative residual {res:.3e}",
                              residual=res)
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


def evolve(chart, grid, potential, schedule, initial, sample_times=None,
           frame_times=(), include_weyl_correction=False, mass=1.0):
    """Crank-Nicolson evolution of the amplitudes ``initial`` (see ``init_state``).

    Records <x>(t) and the weighted norm at ``sample_times`` and |psi|^2 at
    ``frame_times``.  Each requested time is recorded once, at the step whose
    time is nearest it (the earlier one on a tie; the last step may be
    short), and each step at most once.  A time outside [0, t_end] is a
    ``ParameterError``.  ``sample_times`` defaults to every
    ``max(1, n_steps // 400)``-th step (every step below 800 steps) and t_end.
    """
    dt, t_end = schedule.dt, schedule.t_end
    n_steps = int(np.ceil(t_end / dt - 1e-9))
    if sample_times is None:
        sample_times = [k * dt for k in range(0, n_steps, max(1, n_steps // 400))] + [t_end]
    requested = [np.sort(np.asarray(ts, dtype=float).ravel()) for ts in (sample_times, frame_times)]
    if not all(np.all((ts >= -1e-12) & (ts <= t_end + 1e-9)) for ts in requested):
        raise ParameterError(f"sample and frame times must lie within [0, t_end = {t_end}]")
    psi = np.asarray(initial, dtype=complex)
    if psi.shape != (grid.size,):
        raise ParameterError("the initial state needs one amplitude per grid node")

    stepper = CrankNicolsonStepper(
        chart, grid, potential, schedule, mass,
        include_weyl_correction=include_weyl_correction,
    )
    nodes = grid.nodes()
    w = node_sqrt_g(chart, nodes) * grid.cell_volume
    times, positions, norms, frames = [], [], [], []
    n_recorded = [0, 0]    # sample and frame times recorded so far
    t, step_dt = 0.0, dt
    for k in range(n_steps + 1):
        if k:   # step 0 records the initial state
            psi = stepper.step(psi, t, step_dt)
            t += step_dt
            step_dt = min(dt, t_end - t)
        # the requested times up to the midpoint of the next step are nearest this one
        cut = t + step_dt / 2 if k < n_steps else np.inf
        n_due = [np.searchsorted(ts, cut, side="right") for ts in requested]
        if n_due[0] > n_recorded[0]:
            p = w * np.abs(psi) ** 2
            total = p.sum()
            times.append(t)
            positions.append((p @ nodes) / total)
            norms.append(np.sqrt(total))
        if n_due[1] > n_recorded[1]:
            frames.append((t, (np.abs(psi) ** 2).reshape(grid.shape)))
        n_recorded = n_due
    return EvolutionTrace(np.asarray(times), np.asarray(positions).reshape(len(times), grid.dim),
                          np.asarray(norms), frames)
