"""Outside-in hooks on qrhd's public functions, installed by ``child.py``.

Every hook patches a name where its caller looks it up, so the program runs
unmodified.  ``SetupClock`` is the only hook of an untraced run: it
keeps two timestamps per Crank-Nicolson run (stepper construction entry and
the first step) or, for the instance study, the entry into
``run_instance_study``.  ``Tracer`` wraps the public functions of every
layer, records one span per call (name, start, end, parent) and checks each
CN step's residual from the stepper's public ``kinetic`` and
``hamiltonian_parts``.

Both refuse to run silently: a missing name fails at install time, and a
wrapper that never fired fails the run (``missing_hooks``), so a renamed
entry point shows up as an absent metric, never as a zero.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

RESIDUAL_LIMIT = 1e-10   # the CN contract, recomputed here independently

# Span name -> workloads on which it must fire at least once.
EXPECTED = {
    "cli.main": ("evolve_flat128", "study_n5"),
    "evolve.evolve": ("evolve_flat128", "sweep_sphere64"),
    "evolve.stepper_init": ("evolve_flat128", "sweep_sphere64"),
    "evolve.step": ("evolve_flat128", "sweep_sphere64"),
    "evolve.ilu": ("evolve_flat128", "sweep_sphere64"),
    "evolve.precond": ("evolve_flat128", "sweep_sphere64"),
    "discretize.assemble": ("evolve_flat128", "sweep_sphere64"),
    "discretize.node_values": ("evolve_flat128", "sweep_sphere64"),
    "discretize.grid_nodes": ("evolve_flat128", "sweep_sphere64"),
    "geometry.metric_many": ("evolve_flat128", "sweep_sphere64"),
    "geometry.quantum_corrections": ("sweep_sphere64",),
    "semiclassical.study": ("study_n5",),
    "semiclassical.draw": ("study_n5",),
    "semiclassical.detect": ("study_n5",),
}


class HookError(RuntimeError):
    """A name the benchmark hooks is gone or no longer resolves to the hook."""


def _patch(patches, owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)``; remember how to undo it."""
    try:
        original = getattr(owner, attr)
    except AttributeError:
        raise HookError(f"{getattr(owner, '__name__', owner)}.{attr} not found") from None
    replacement = make(original)
    setattr(owner, attr, replacement)
    if getattr(owner, attr) is not replacement:
        raise HookError(f"{owner.__name__}.{attr} did not take the hook")
    patches.append((owner, attr, original))
    return original


def _evolve_module():
    # qrhd.evolve is shadowed by the function of the same name on the
    # package, so the module must come from sys.modules.
    return sys.modules["qrhd.evolve"]


class SetupClock:
    """Per-run timestamps that delimit set-up; the untraced runs' only hook."""

    def __init__(self):
        self.runs = []          # [construction entry, first step] per stepper
        self.study_entry = None
        self.patches = []

    def install(self, workload):
        import qrhd.cli

        clock = self
        if workload == "study_n5":
            def make_study(original):
                def run_instance_study(*args, **kwargs):
                    clock.study_entry = time.time()
                    return original(*args, **kwargs)
                return run_instance_study
            _patch(self.patches, qrhd.cli, "run_instance_study", make_study)
            return
        stepper_cls = _evolve_module().CrankNicolsonStepper

        def make_init(original):
            def __init__(stepper, *args, **kwargs):
                clock.runs.append([time.time(), None])
                return original(stepper, *args, **kwargs)
            return __init__

        def make_step(original):
            def step(stepper, *args, **kwargs):
                run = clock.runs[-1]
                if run[1] is None:
                    run[1] = time.time()
                return original(stepper, *args, **kwargs)
            return step

        _patch(self.patches, stepper_cls, "__init__", make_init)
        _patch(self.patches, stepper_cls, "step", make_step)

    def missing(self, workload):
        if workload == "study_n5":
            return [] if self.study_entry is not None else ["semiclassical.study"]
        if not self.runs or any(first is None for _, first in self.runs):
            return ["evolve.step"]
        return []

    def setup_s(self, spawn_time, run_begins=None):
        """Interpreter start to the first CN step, summed over the runs.

        Run k > 1 starts at ``run_begins[k]`` when the caller builds each
        run's inputs itself, else at its stepper's construction.
        """
        if self.study_entry is not None:
            return self.study_entry - spawn_time
        total = 0.0
        for k, (init, first) in enumerate(self.runs):
            begin = spawn_time if k == 0 else (run_begins[k] if run_begins else init)
            total += first - begin
        return total


class _FactorProxy:
    """Stands in for the ILU factor so that each ``.solve`` is one span."""

    def __init__(self, factor, tracer):
        self._factor = factor
        self._tracer = tracer

    def solve(self, rhs, *args):
        return self._tracer.call("evolve.precond", self._factor.solve, (rhs, *args), {})

    def __getattr__(self, name):
        return getattr(self._factor, name)


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``qrhd.evolve``."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def _factorize(self, fn, matrix, kwargs):
        factor = self._tracer.call("evolve.ilu", fn, (matrix,), kwargs)
        self._tracer.fill.append((factor.nnz, matrix.nnz))
        return _FactorProxy(factor, self._tracer)

    def spilu(self, matrix, **kwargs):
        return self._factorize(self._real.spilu, matrix, kwargs)

    def splu(self, matrix, **kwargs):
        return self._factorize(self._real.splu, matrix, kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Spans around every layer's public functions, kept in memory."""

    def __init__(self):
        self.spans = []                  # (name, start, end, parent index)
        self.durations = defaultdict(list)
        self.self_time = defaultdict(float)
        self.stack = []                  # [name, span index, child time]
        self.fill = []                   # (nnz of L+U, nnz of A) per factorization
        self.residuals = []
        self.check_s = 0.0               # time spent in the residual check
        self.largest_kinetic = None
        self.iterations = []             # each stepper's solve_iterations list
        self.patches = []

    def call(self, name, fn, args, kwargs):
        if any(frame[0] == name for frame in self.stack):
            return fn(*args, **kwargs)   # re-entry: the outer span covers it
        parent = self.stack[-1][1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [name, index, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            self.spans[index] = (name, start, end, parent)
            self.durations[name].append(duration)
            self.self_time[name] += duration - frame[2]
            if self.stack:
                self.stack[-1][2] += duration

    def _wrap(self, owner, attr, name):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs)
            return wrapper

        _patch(self.patches, owner, attr, make)

    def install(self):
        import qrhd
        import qrhd.cli
        import qrhd.discretize
        import qrhd.geometry
        import qrhd.semiclassical

        evolve_mod = _evolve_module()
        stepper_cls = evolve_mod.CrankNicolsonStepper
        self._wrap(qrhd.cli, "main", "cli.main")
        self._wrap(qrhd.cli, "evolve", "evolve.evolve")
        self._wrap(qrhd, "evolve", "evolve.evolve")
        self._wrap(qrhd.cli, "run_instance_study", "semiclassical.study")
        self._wrap(evolve_mod, "assemble_laplace_beltrami", "discretize.assemble")
        _patch(self.patches, evolve_mod, "spla", lambda real: _SplaProxy(real, self))
        self._wrap(qrhd.geometry, "quantum_corrections", "geometry.quantum_corrections")
        charts = [c for c in vars(qrhd.geometry).values()
                  if isinstance(c, type) and issubclass(c, qrhd.geometry.MetricChart)]
        for chart_cls in charts:
            for attr in ("sqrt_det_many", "volume_inverse_metric_many"):
                if attr in vars(chart_cls):
                    self._wrap(chart_cls, attr, "geometry.metric_many")
        self._wrap(qrhd.discretize.PotentialField, "node_values", "discretize.node_values")
        self._wrap(qrhd.discretize.Grid, "nodes", "discretize.grid_nodes")
        self._wrap(qrhd.semiclassical.RandomInstance, "draw", "semiclassical.draw")
        self._wrap(qrhd.semiclassical, "detect_t_star", "semiclassical.detect")

        tracer = self

        def make_init(original):
            def __init__(stepper, *args, **kwargs):
                tracer.call("evolve.stepper_init", original, (stepper, *args), kwargs)
                tracer.iterations.append(stepper.solve_iterations)
                nnz = stepper.kinetic.nnz
                if tracer.largest_kinetic is None or nnz > tracer.largest_kinetic.nnz:
                    tracer.largest_kinetic = stepper.kinetic
            return __init__

        def make_step(original):
            def step(stepper, values, t, dt):
                x = tracer.call("evolve.step", original, (stepper, values, t, dt), {})
                tracer._check_residual(stepper, values, t, dt, x)
                return x
            return step

        _patch(self.patches, stepper_cls, "__init__", make_init)
        _patch(self.patches, stepper_cls, "step", make_step)

    def _check_residual(self, stepper, values, t, dt, x):
        """Relative residual of (I + i dt/2 H) x = (I - i dt/2 H) values."""
        start = time.perf_counter()
        ck, diag = stepper.hamiltonian_parts(t + 0.5 * dt)

        def apply_h(v):
            return ck * (stepper.kinetic @ v) + diag * v

        b = values - 0.5j * dt * apply_h(values)
        r = x + 0.5j * dt * apply_h(x) - b
        self.residuals.append(float(np.linalg.norm(r) / np.linalg.norm(b)))
        spent = time.perf_counter() - start
        self.check_s += spent
        if self.stack:
            self.stack[-1][2] += spent   # not the caller's own work

    def missing(self, workload):
        return sorted(name for name, workloads in EXPECTED.items()
                      if workload in workloads and not self.durations[name])

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def cli_write_s(self):
        """Gaps from each integration entry's return to the next entry or exit."""
        gaps = 0.0
        for main_index, main in enumerate(self.spans):
            if main[0] != "cli.main":
                continue
            entries = [s for s in self.spans if s[3] == main_index
                       and s[0] in ("evolve.evolve", "semiclassical.study")]
            for k, entry in enumerate(entries):
                nxt = entries[k + 1][1] if k + 1 < len(entries) else main[2]
                gaps += nxt - entry[2]
        return gaps

    def matvec(self, repeats=200):
        """Median seconds of one ``kinetic @ psi`` on the largest stepper."""
        K = self.largest_kinetic
        if K is None:
            return None, 0, 0
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(K.shape[1]) + 1j * rng.standard_normal(K.shape[1])
        K @ psi
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            K @ psi
            times.append(time.perf_counter() - start)
        # computed bytes: CSR arrays read once, psi read, result written
        nbytes = (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
                  + psi.nbytes + K.shape[0] * psi.itemsize)
        return float(np.median(times)), int(K.nnz), int(nbytes)
