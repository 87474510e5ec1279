"""One qrhd run in a fresh interpreter; ``run.py`` starts it and times it.

    python perfbench/child.py WORKLOAD SEED WORK_DIR TRACE SPAWN_TIME

The run's own results (set-up timestamps, hashes of in-memory arrays, and
with TRACE=1 the per-layer figures) go to ``WORK_DIR/result.json``; the
files the program writes go to ``WORK_DIR/out``.  ``SPAWN_TIME`` is the
parent's ``time.time()`` just before it started this interpreter.
``python perfbench/child.py --host`` prints the host facts instead.
"""

import copy
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import qrhd
import qrhd.cli
from hooks import RESIDUAL_LIMIT, HookError, SetupClock, Tracer

FLAT_T_END = 0.75     # three 0.25 preconditioner-refresh windows per chart
SWEEP_T_END = 0.5     # short: this workload is about per-run set-up
SWEEP_GRID = 64
SWEEP_SEEDS = 5


def flat_config(seed):
    """The flat_demo physics at 128^2 with the horizon cut to FLAT_T_END."""
    cfg = copy.deepcopy(qrhd.cli.BUILTIN_CONFIGS["flat_demo"])
    cfg["schedule"]["t_end"] = FLAT_T_END
    cfg["frame_times"] = [0.0, FLAT_T_END / 2, FLAT_T_END]
    cfg["initial"]["seed"] = seed
    return cfg


def run_flat(seed, work):
    path = work / "flat128.json"
    path.write_text(json.dumps(flat_config(seed)))
    rc = qrhd.cli.main(["evolve", "--config", str(path), "--seed", str(seed),
                        "--out", str(work / "out")])
    return {"exit": rc}, None


def run_sweep(seed, work):
    """Five seeds x both sphere charts, each built fresh like the criterion-2 fixture."""
    cfg = qrhd.cli.BUILTIN_CONFIGS["sphere_demo"]
    sched_cfg = dict(cfg["schedule"], t_end=SWEEP_T_END)
    n_samples = int(round(SWEEP_T_END / cfg["sample_every"]))
    sample_times = [k * SWEEP_T_END / n_samples for k in range(n_samples + 1)]
    begins, traces = [], []
    for s in range(seed, seed + SWEEP_SEEDS):
        for chart_spec in cfg["charts"]:
            begins.append(time.time())
            chart = qrhd.cli.build_chart(chart_spec, cfg["domain"])
            grid = qrhd.Grid.for_chart(chart, SWEEP_GRID)
            potential = qrhd.cli.build_potential(cfg["potential"], cfg["mass"], chart)
            schedule = qrhd.cli.build_schedule(sched_cfg)
            initial = qrhd.init_state(grid, chart, cfg["initial"]["kind"], seed=s,
                                      smooth_length=cfg["initial"]["smooth_length"])
            traces.append(qrhd.evolve(chart, grid, potential, schedule, initial,
                                      sample_times=sample_times,
                                      include_weyl_correction=True, mass=cfg["mass"]))
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(np.ascontiguousarray(trace.positions).tobytes())
        digest.update(np.ascontiguousarray(trace.norms).tobytes())
    return {"exit": 0, "array_hash": digest.hexdigest(),
            "norm_drift": max(trace.norm_drift() for trace in traces)}, begins


def run_study(seed, work):
    rc = qrhd.cli.main(["semiclassical", "--dim", "5", "--gammas", "1.0",
                        "--instances", "100", "--seed", str(seed),
                        "--out", str(work / "out")])
    return {"exit": rc}, None


WORKLOADS = {"evolve_flat128": run_flat, "sweep_sphere64": run_sweep,
             "study_n5": run_study}


def layer_metrics(tracer):
    """Per-layer figures from the spans of one traced run."""
    from run import tail   # kept out of the untraced runs' imports

    durations, self_time = tracer.durations, tracer.self_time

    def calls(name):
        return len(durations[name])

    def total(name):
        return sum(durations[name])

    steps_ms = [d * 1e3 for d in durations["evolve.step"]]
    step_tail = tail(steps_ms) or (100.0, max(steps_ms, default=0.0))
    matvec_s, nnz, nbytes = tracer.matvec()
    iters = [it for per_stepper in tracer.iterations for it in per_stepper] or [0]
    m = {
        "geometry.quantum_corrections.calls": calls("geometry.quantum_corrections"),
        "geometry.quantum_corrections.s": total("geometry.quantum_corrections"),
        "geometry.metric_many.s": total("geometry.metric_many"),
        "discretize.assemble.calls": calls("discretize.assemble"),
        "discretize.assemble.s": total("discretize.assemble"),
        "discretize.node_values.calls": calls("discretize.node_values"),
        "discretize.node_values.s": total("discretize.node_values"),
        "discretize.grid_nodes.calls": calls("discretize.grid_nodes"),
        "discretize.kinetic_nnz": nnz,
        "discretize.matvec_us": (matvec_s or 0.0) * 1e6,
        "discretize.matvec_bytes": nbytes,
        "evolve.stepper_init.s": self_time["evolve.stepper_init"],
        "evolve.step.calls": calls("evolve.step"),
        "evolve.step_ms.p50": median_or_zero(steps_ms),
        "evolve.step_ms.tail": step_tail[1],
        "evolve.bicgstab_iters.mean": float(np.mean(iters)),
        "evolve.bicgstab_iters.max": int(np.max(iters)),
        "evolve.precond.calls": calls("evolve.precond"),
        "evolve.precond_us": median_or_zero(durations["evolve.precond"]) * 1e6,
        "evolve.ilu.calls": calls("evolve.ilu"),
        "evolve.ilu_ms": median_or_zero(durations["evolve.ilu"]) * 1e3,
        "evolve.ilu_fill": (sum(f for f, _ in tracer.fill) / sum(a for _, a in tracer.fill)
                            if tracer.fill else 0.0),
        # evolve() outside stepper construction and steps: the recording
        "evolve.record.s": max(0.0, total("evolve.evolve") - total("evolve.stepper_init")
                               - total("evolve.step") - tracer.check_s),
        "evolve.max_residual": max(tracer.residuals, default=0.0),
        "semiclassical.study.s": total("semiclassical.study"),
        "semiclassical.integrate.s": self_time["semiclassical.study"],
        "semiclassical.draw.s": total("semiclassical.draw"),
        "semiclassical.detect.calls": calls("semiclassical.detect"),
        "semiclassical.detect.s": total("semiclassical.detect"),
        "cli.write.s": tracer.cli_write_s(),
    }
    notes = {"evolve.step_ms.tail": f"p{step_tail[0]:g} of {len(steps_ms)} steps"}
    return m, notes


def median_or_zero(values):
    return float(np.median(values)) if len(values) else 0.0


def host_facts():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "qrhd": qrhd.__file__,
    }


def main(argv):
    if argv == ["--host"]:
        print(json.dumps(host_facts()))
        return 0
    workload, seed, work, trace, spawn_time = argv
    seed, work, trace, spawn_time = int(seed), Path(work), trace == "1", float(spawn_time)
    imported = time.time()
    result = {"import_s": imported - spawn_time}
    hooks = Tracer() if trace else SetupClock()
    try:
        if trace:
            hooks.install()
        else:
            hooks.install(workload)
    except HookError as exc:
        result["hook_error"] = str(exc)
        (work / "result.json").write_text(json.dumps(result))
        return 1
    outcome, begins = WORKLOADS[workload](seed, work)
    done = time.time()
    result.update(outcome)
    result["missing_hooks"] = hooks.missing(workload)
    if not trace:
        if not result["missing_hooks"]:
            result["setup_s"] = hooks.setup_s(spawn_time, begins)
    else:
        hooks.uninstall()
        layers, notes = layer_metrics(hooks)
        result["layers"] = layers
        result["notes"] = notes
        result["residual_limit"] = RESIDUAL_LIMIT
        result["spans"] = len(hooks.spans)
        result["check_s"] = hooks.check_s
        result["post_s"] = time.time() - done
    (work / "result.json").write_text(json.dumps(result))
    return 0 if result.get("exit") == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
