"""The benchmark's hook points exist and fire on short runs of both workloads.

``perfbench/hooks.py`` patches qrhd's names where their callers look them
up (the charts' ``sqrt_det_many`` and ``volume_inverse_metric_many``,
``geometry.quantum_corrections``, ``evolve.assemble_laplace_beltrami`` and
``evolve.spla`` among them).  A refactor that moves one of them fails here
rather than as a ``HookError`` of a later benchmark run.
"""

import importlib.util
import math
import time
from pathlib import Path

import pytest

import qrhd
import qrhd.cli

HOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_evolve():
    """A few CN steps of the sweep_sphere64 physics on a 9^2 grid."""
    cfg = qrhd.cli.BUILTIN_CONFIGS["sphere_demo"]
    chart = qrhd.cli.build_chart(cfg["charts"][1], cfg["domain"])
    grid = qrhd.Grid.for_chart(chart, 9)
    potential = qrhd.cli.build_potential(cfg["potential"], cfg["mass"], chart)
    schedule = qrhd.cli.build_schedule(dict(cfg["schedule"], t_end=0.03))
    initial = qrhd.init_state(grid, chart, cfg["initial"]["kind"], seed=1,
                              smooth_length=cfg["initial"]["smooth_length"])
    qrhd.evolve(chart, grid, potential, schedule, initial,
                include_weyl_correction=True, mass=cfg["mass"])


def tiny_study(out):
    assert qrhd.cli.main(["semiclassical", "--dim", "5", "--gammas", "1.0",
                          "--instances", "2", "--seed", "3", "--out", str(out)]) == 0


def test_benchmark_hooks_fire_on_both_workloads(tmp_path):
    tracer = load_hooks().Tracer()
    tracer.install()
    try:
        tiny_evolve()
        tiny_study(tmp_path)
        assert tracer.missing("sweep_sphere64") == []
        assert tracer.missing("study_n5") == []
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", ["sweep_sphere64", "study_n5"])
def test_setup_clock_times_both_workloads(tmp_path, workload):
    """The untraced runs' only hook fires and reads a finite set-up time."""
    clock = load_hooks().SetupClock()
    spawn_time = time.time()
    clock.install(workload)
    try:
        if workload == "sweep_sphere64":
            tiny_evolve()
        else:
            tiny_study(tmp_path)
        assert clock.missing(workload) == []
        assert math.isfinite(clock.setup_s(spawn_time))
    finally:
        for owner, attr, original in reversed(clock.patches):
            setattr(owner, attr, original)
