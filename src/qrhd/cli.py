"""Experiment runner: the bundled studies as subcommands.

Subcommands: ``evolve``, ``semiclassical``, ``bound``, ``complexity``,
``geometry-check``.  Configs are JSON; a few experiment configurations ship
as builtins addressable by name (``flat_demo``, ``sphere_demo``,
``study_n5``, ``study_n9``).  All outputs are plain CSV/JSON.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import copy
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .complexity import (
    ComplexityInputs,
    kinetic_norm_bound,
    measured_sparsity,
    query_count,
)
from .discretize import (
    Grid,
    Schedule,
    assemble_laplace_beltrami,
    quadratic_potential,
    sphere_quadratic_potential,
)
from .errors import NumericError, ParameterError, ScheduleError
from .evolve import evolve, init_state
from .geometry import (
    ConstantChart,
    CustomChart,
    FlatChart,
    SphereStereographicChart,
    manifold_hessian,
    quantum_corrections,
)
from .semiclassical import convergence_bound, lambert_w_minus1, run_instance_study

OUT_DIR_ENV = "QRHD_OUT_DIR"
FLOAT_FMT = "%.17g"

_INV_SQRT2 = 0.7071067811865475

BUILTIN_CONFIGS = {
    # two-dimensional quadratic descent, flat metric vs the Hessian metric
    "flat_demo": {
        "experiment": "evolve",
        "mass": 0.1,
        "potential": {"kind": "quadratic", "matrix": [[1.0, -0.9], [-0.9, 1.0]]},
        "charts": [
            {"name": "qhd_flat", "kind": "flat", "dim": 2},
            {"name": "qrhd_metric", "kind": "constant",
             "matrix": [[1.0, -0.9], [-0.9, 1.0]]},
        ],
        "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "grid": 128,
        "schedule": {"gamma": 0.25, "eta": 0.1, "t_end": 24.0, "dt": 0.01},
        "initial": {"kind": "random-smooth", "seed": 42, "smooth_length": 0.35},
        "sample_every": 0.1,
        "frame_times": [0.0, 6.0, 12.0, 18.0, 24.0],
        "weyl_correction": False,
    },
    # Rayleigh-quotient descent on the 2-sphere in both stereographic charts
    "sphere_demo": {
        "experiment": "evolve",
        "mass": 1.0,
        "potential": {"kind": "sphere_quadratic",
                      "matrix": [[1.0, 0.0, -_INV_SQRT2],
                                 [0.0, 1.0, -_INV_SQRT2],
                                 [-_INV_SQRT2, -_INV_SQRT2, 1.0]]},
        "charts": [
            {"name": "north_u", "kind": "sphere", "ambient_dim": 3,
             "radius": 1.0, "pole": "north"},
            {"name": "south_v", "kind": "sphere", "ambient_dim": 3,
             "radius": 1.0, "pole": "south"},
        ],
        "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "grid": 128,
        "schedule": {"gamma": 0.25, "eta": 1.0, "t_end": 12.0, "dt": 0.01},
        "initial": {"kind": "random-smooth", "seed": 42, "smooth_length": 0.35},
        "sample_every": 0.1,
        "frame_times": [0.0, 3.0, 6.0, 9.0, 12.0],
        "weyl_correction": False,
    },
    "study_n5": {
        "experiment": "semiclassical",
        "dim": 5, "gammas": [0.1, 1.0, 5.0], "instances": 100, "seed": 42,
        "epsilon_star": 0.01, "lambda_eff": 3.0,
        "corrections": False, "log_measure": False,
    },
    "study_n9": {
        "experiment": "semiclassical",
        "dim": 9, "gammas": [0.1, 1.0, 5.0], "instances": 100, "seed": 42,
        "epsilon_star": 0.01, "lambda_eff": 3.0,
        "corrections": False, "log_measure": False,
    },
}


# sections that must be JSON objects wherever a config has them
_OBJECT_SECTIONS = ("domain", "schedule", "potential", "initial", "t_star")


def load_config(spec, experiment, required=(), overrides=None):
    """The one front door for configs: resolve ``spec`` (builtin name, JSON
    path, or None for flags alone), apply the flag ``overrides`` and check."""
    if spec is None:
        cfg, name = {"experiment": experiment}, "study"
    elif spec in BUILTIN_CONFIGS:
        cfg, name = copy.deepcopy(BUILTIN_CONFIGS[spec]), spec
    elif not Path(spec).is_file():
        raise ParameterError(f"config {spec!r} is neither a builtin name nor a file")
    else:
        try:
            with open(spec) as fh:
                cfg, name = json.load(fh), Path(spec).stem
        except (OSError, ValueError, RecursionError) as exc:
            raise ParameterError(f"malformed config {spec}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterError("config must be a JSON object")
    cfg.update(overrides or {})
    if cfg.get("experiment") != experiment:
        raise ParameterError(f"config is not a {experiment!r} experiment")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ParameterError(f"{experiment} config missing {missing}")
    for key in _OBJECT_SECTIONS:
        if not isinstance(cfg.get(key, {}), dict):
            raise ParameterError(f"{key} must be a JSON object")
    charts = cfg.get("charts")
    if "charts" in cfg and not (isinstance(charts, list) and charts
                                and all(isinstance(c, dict) for c in charts)):
        raise ParameterError("charts must be a non-empty list of JSON objects")
    return cfg, name


@contextlib.contextmanager
def _reading(section):
    """A wrong type, shape or size met while reading ``section`` is a ParameterError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{section}: {type(exc).__name__}: {exc}") from exc


def _check_types(cfg, counts=(), flags=()):
    for key in counts:
        if type(cfg[key]) is not int or cfg[key] < 0:
            raise ParameterError(f"{key} must be a non-negative integer, got {cfg[key]!r}")
    for key in flags:
        if not isinstance(cfg[key], bool):
            raise ParameterError(f"{key} must be true or false, got {cfg[key]!r}")


def build_chart(spec, domain=None):
    kind = spec.get("kind")
    box = None
    if domain is not None:
        box = (np.asarray(domain["lo"], dtype=float), np.asarray(domain["hi"], dtype=float))
    if kind == "flat":
        return FlatChart(int(spec["dim"]), domain=box)
    if kind == "constant":
        return ConstantChart(np.asarray(spec["matrix"], dtype=float), domain=box)
    if kind == "sphere":
        return SphereStereographicChart(
            int(spec["ambient_dim"]), float(spec.get("radius", 1.0)),
            pole=spec.get("pole", "south"), domain=box)
    raise ParameterError(f"unknown chart kind {kind!r}")


def build_potential(spec, mass, chart):
    kind = spec.get("kind")
    sphere = kind == "sphere_quadratic"
    if not (sphere or kind == "quadratic"):
        raise ParameterError(f"unknown potential kind {kind!r}")
    if sphere and not isinstance(chart, SphereStereographicChart):
        raise ParameterError("sphere_quadratic potential needs a sphere chart")
    matrix = np.asarray(spec["matrix"], dtype=float)
    n = chart.ambient_dim if sphere else chart.dim
    if matrix.shape != (n, n):
        raise ParameterError(f"{kind} potential needs an {n}x{n} matrix, got shape {matrix.shape}")
    if sphere:
        return sphere_quadratic_potential(matrix, mass, chart)
    return quadratic_potential(matrix, mass)


_EXPR_FUNCTIONS = {"exp": np.exp, "cosh": np.cosh, "sqrt": np.sqrt, "log": np.log}
_EXPR_CONSTANTS = {"e": np.e, "pi": np.pi}
_EXPR_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Load,
               ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub)


def _compile_schedule_expr(expr):
    """Compile a(t) from a config after checking every node of its syntax tree.

    Allowed: numbers, ``t``, ``e``, ``pi``, + - * / **, unary minus and calls
    of the listed functions by name.  Anything else (attributes, subscripts,
    keywords, other names) is a ``ParameterError``, so a config cannot reach
    Python objects.
    """
    if not isinstance(expr, str):
        raise ParameterError("a_expr must be a string")
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ParameterError(f"a_expr does not parse: {type(exc).__name__}") from None
    callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            ok = (node.id in _EXPR_FUNCTIONS if id(node) in callees
                  else node.id == "t" or node.id in _EXPR_CONSTANTS)
        elif isinstance(node, ast.Constant):
            ok = type(node.value) in (int, float)
        else:
            ok = isinstance(node, _EXPR_NODES) and id(node) not in callees
        if not ok:
            what = ast.unparse(node) or type(node).__name__
            raise ParameterError(f"a_expr may not contain {what!r}")
    return compile(tree, "<a_expr>", "eval")


def build_schedule(spec):
    if "gamma" not in spec and "a_expr" not in spec:
        raise ParameterError("schedule needs either 'gamma' or 'a_expr'")
    a_fn = None
    if "gamma" not in spec:
        code = _compile_schedule_expr(spec["a_expr"])

        def a_fn(t, _code=code):
            # numpy stays silent: a non-finite a(t) is rejected where it is used
            try:
                with np.errstate(all="ignore"):
                    a = eval(_code, {"__builtins__": {}},
                             dict(_EXPR_FUNCTIONS, **_EXPR_CONSTANTS, t=t))
            except ArithmeticError as exc:
                raise ScheduleError(f"a_expr raises {type(exc).__name__} at t={t}") from None
            if isinstance(a, complex):
                raise ScheduleError(f"a_expr is not real at t={t}: {a}")
            return float(a)

    return Schedule(float(spec.get("gamma", 0.0)), float(spec.get("eta", 1.0)),
                    float(spec["t_end"]), float(spec.get("dt", 0.005)), a_fn)


def _resolve_out(args, default_name):
    if args.out:
        return Path(args.out)
    base = os.environ.get(OUT_DIR_ENV, "qrhd_out")
    return Path(base) / default_name


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, columns):
    """Write equal-length columns as CSV with one bulk format.

    Floats are written as FLOAT_FMT and anything else as str(v); numpy
    arrays are read as Python scalars, and a float array needs no scan.
    """
    cols, fmts = [], []
    for col in columns:
        is_float_array = isinstance(col, np.ndarray) and col.dtype.kind == "f"
        col = col.tolist() if isinstance(col, np.ndarray) else list(col)
        if is_float_array or all(isinstance(v, float) for v in col):
            fmts.append(FLOAT_FMT)
        else:
            fmts.append("%s")
            col = [FLOAT_FMT % v if isinstance(v, float) else v for v in col]
        cols.append(col)
    n_rows = len(cols[0]) if cols else 0
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(((",".join(fmts) + "\n") * n_rows)
                 % tuple(v for row in zip(*cols) for v in row))


def _effective_evolve_config(cfg):
    out = {"sample_every": 0.1, "frame_times": [], "weyl_correction": False, **cfg}
    init = out["initial"] = {"kind": "random-smooth", "seed": 42, **out.get("initial", {})}
    if init["kind"] == "random-smooth":
        lo = np.asarray(out["domain"]["lo"], dtype=float)
        hi = np.asarray(out["domain"]["hi"], dtype=float)
        init.setdefault("smooth_length", float(np.min(hi - lo) / 16.0))
    out["schedule"] = {"dt": 0.005, **out["schedule"]}
    return out


def _read_charts(cfg):
    """The mass and every chart's (name, chart, grid, potential), read from cfg."""
    with _reading("mass"):
        mass = float(cfg["mass"])
    if not (np.isfinite(mass) and mass > 0):
        raise ParameterError("mass must be finite and positive")
    # each evolve run writes out_dir / name, so a name that is not a plain file
    # name escapes out_dir and a repeated one overwrites an earlier run
    names = [spec.get("name", spec.get("kind")) for spec in cfg["charts"]]
    plain = all(isinstance(n, str) and n not in ("", ".", "..") and not set(n) & set("/\\\0")
                for n in names)
    if not (plain and len(set(names)) == len(names)):
        raise ParameterError(f"charts need unique plain file names, got {names}")
    runs = []
    for run_name, chart_spec in zip(names, cfg["charts"]):
        with _reading(f"chart {run_name!r} or domain"):
            chart = build_chart(chart_spec, cfg["domain"])
        with _reading("grid"):
            grid = Grid.for_chart(chart, cfg["grid"])
        with _reading("potential"):
            potential = build_potential(cfg["potential"], mass, chart)
        runs.append((run_name, chart, grid, potential))
    return mass, runs


def cmd_evolve(args):
    cfg, name = load_config(args.config, "evolve",
                            ("charts", "domain", "grid", "schedule", "potential", "mass"))
    with _reading("domain"):
        cfg = _effective_evolve_config(cfg)
    init = cfg["initial"]
    if args.seed is not None:
        init["seed"] = args.seed
    _check_types(init, counts=["seed"])
    _check_types(cfg, flags=["weyl_correction"])
    with _reading("schedule"):
        schedule = build_schedule(cfg["schedule"])
    t_end = schedule.t_end
    with _reading("sample_every and frame_times"):
        sample_every = float(cfg["sample_every"])
        frame_times = [float(t) for t in cfg["frame_times"]]
    # at least dt, so the sample list is no longer than the step count
    if not (schedule.dt <= sample_every < np.inf):
        raise ParameterError(f"sample_every must be finite and at least dt = {schedule.dt}, "
                             f"got {sample_every}")
    if not all(0.0 <= t <= t_end for t in frame_times):
        raise ParameterError(f"frame times must lie within [0, t_end = {t_end}]")
    n_samp = max(1, int(round(t_end / sample_every)))
    sample_times = [k * t_end / n_samp for k in range(n_samp + 1)]

    # read everything before creating outputs so bad configs leave no trace
    mass, charts = _read_charts(cfg)
    runs = []
    for run_name, chart, grid, potential in charts:
        with _reading("initial"):
            initial = init_state(grid, chart, init["kind"], seed=init["seed"],
                                 center=init.get("center"), width=init.get("width"),
                                 smooth_length=init.get("smooth_length"))
        runs.append((run_name, chart, grid, potential, initial))

    out_dir = _resolve_out(args, name)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for run_name, chart, grid, potential, initial in runs:
        trace = evolve(chart, grid, potential, schedule, initial,
                       sample_times=sample_times, frame_times=frame_times,
                       include_weyl_correction=cfg["weyl_correction"], mass=mass)
        rdir = out_dir / run_name
        rdir.mkdir(exist_ok=True)
        dim = grid.dim
        header = ["t"] + [f"x_{i + 1}" for i in range(dim)] + ["norm"]
        _write_csv(rdir / "trace.csv", header,
                   [trace.times, *trace.positions.T, trace.norms])
        for t_frame, density in trace.frames:
            fpath = rdir / f"frame_{t_frame:.6f}.csv"
            np.savetxt(fpath, density, delimiter=",", fmt=FLOAT_FMT)
        summary[run_name] = {
            "final_position": [float(v) for v in trace.positions[-1]],
            "norm_drift": trace.norm_drift(),
            "samples": int(trace.times.size),
        }

    meta = {
        "version": __version__,
        "config_name": name,
        "config": cfg,
        "results": summary,
    }
    _write_json(out_dir / "metadata.json", meta)
    print(f"evolve: wrote {out_dir}")
    for run_name, info in summary.items():
        print(f"  {run_name}: final <x> = {info['final_position']}, "
              f"norm drift = {info['norm_drift']:.3e}")
    return 0


def cmd_semiclassical(args):
    flags = {"dim": args.dim, "instances": args.instances, "seed": args.seed}
    if args.gammas is not None:
        with _reading("--gammas"):
            flags["gammas"] = [float(g) for g in args.gammas.split(",")]
    cfg, name = load_config(args.config, "semiclassical", ("dim", "gammas", "instances", "seed"),
                            {key: v for key, v in flags.items() if v is not None})
    cfg = {"epsilon_star": 0.01, "lambda_eff": 3.0, "corrections": False, "log_measure": False,
           **cfg}
    _check_types(cfg, counts=["dim", "instances", "seed"], flags=["corrections", "log_measure"])
    with _reading("gammas, epsilon_star and lambda_eff"):
        gammas = [float(g) for g in cfg["gammas"]]
        epsilon_star, lambda_eff = float(cfg["epsilon_star"]), float(cfg["lambda_eff"])

    report = run_instance_study(
        cfg["dim"], gammas, cfg["instances"], cfg["seed"],
        epsilon_star=epsilon_star, lambda_eff=lambda_eff,
        corrections=cfg["corrections"], log_measure=cfg["log_measure"])

    out_dir = _resolve_out(args, name)
    (out_dir / "curves").mkdir(parents=True, exist_ok=True)
    rows = []
    for r in report.runs:
        status = "excluded" if r.excluded else (
            "" if r.t_star is None else str(bool(r.satisfied)).lower())
        rows.append((r.instance, r.gamma, "" if r.t_star is None else r.t_star,
                     r.bound, status))
        _write_csv(out_dir / "curves" / f"{r.instance}_{r.gamma:g}.csv",
                   ["t", "ratio"], [r.times, r.ratios])
    _write_csv(out_dir / "study.csv",
               ["instance", "gamma", "t_star", "bound", "satisfied"], zip(*rows))
    _write_json(out_dir / "study.json", {
        "version": __version__,
        "config": cfg,
        "integrator": report.integrator,
        "bound": report.bound,
        "gamma_opt": report.gamma_opt,
        "fraction_satisfied": report.fraction_satisfied,
        "excluded_count": report.excluded_count,
    })
    print(f"semiclassical: wrote {out_dir}")
    print(f"  bound = {report.bound:.6f}, fraction satisfied = "
          f"{report.fraction_satisfied:.4f}, excluded = {report.excluded_count}")
    return 0


def cmd_bound(args):
    t_bound, gamma_opt = convergence_bound(args.lambda_eff, args.eta, args.mass,
                                           args.epsilon_star)
    print(f"t_bound = {t_bound:.6f}")
    print(f"gamma_opt = {gamma_opt:.6f}")
    return 0


def cmd_complexity(args):
    cfg, name = load_config(args.config, "complexity",
                            ("charts", "domain", "grid", "mass", "schedule", "potential",
                             "epsilon", "delta", "t_star"))
    src = cfg["t_star"].get("source")
    if src not in ("bound", "measured"):
        raise ParameterError("t_star source must be 'bound' or 'measured'")
    with _reading("epsilon, delta, schedule eta and t_star epsilon_star"):
        epsilon, delta = float(cfg["epsilon"]), float(cfg["delta"])
        eta = float(cfg["schedule"].get("eta", 1.0))
        eps_star = float(cfg["t_star"].get("epsilon_star", 0.05))
    if not 0.0 < eps_star <= 1.0:
        raise ParameterError("t_star epsilon_star must lie in (0, 1]")
    representation = cfg.get("alpha_representation", "momentum")
    mass, charts = _read_charts(cfg)
    key = "lambda_eff" if src == "bound" else "values"   # each keyed by chart name
    with _reading(f"t_star {key}"):
        t_star_inputs = [float(cfg["t_star"][key][cname]) for cname, *_ in charts]
    if not all(0.0 < v < np.inf for v in t_star_inputs):
        raise ParameterError(f"t_star inputs must be finite and positive, got {t_star_inputs}")

    factor = -lambert_w_minus1(-eps_star / np.e) - 1.0
    reports = {}
    for (cname, chart, grid, potential), value in zip(charts, t_star_inputs):
        if src == "bound":
            T, gamma_used = convergence_bound(value, eta, mass, eps_star)
        else:
            # the T ~ 1/gamma regime of the cost model: match the schedule
            # to the measured time scale
            T, gamma_used = value, factor / value
        sched = Schedule(gamma_used, eta, max(T, 1e-6), 1e-3)
        alpha = kinetic_norm_bound(chart, grid, mass, sched, representation=representation)
        D = assemble_laplace_beltrami(chart, grid)
        v_max = float(np.max(np.abs(potential.node_values(grid))))
        inputs = ComplexityInputs(alpha_h=alpha, v_max=v_max, schedule=sched,
                                  T=T, sparsity=measured_sparsity(D),
                                  epsilon=epsilon, delta=delta)
        rep = query_count(inputs)
        reports[cname] = dict(rep.to_dict(), t_star_source=src, gamma_used=gamma_used,
                              alpha_representation=representation)

    out = {
        "version": __version__,
        "config": cfg,
        "reports": reports,
    }
    names = list(reports)
    if len(names) == 2:
        out["total_ratio"] = reports[names[1]]["n_query_total"] / reports[names[0]]["n_query_total"]
        out["alpha_ratio"] = reports[names[1]]["alpha_h"] / reports[names[0]]["alpha_h"]
    out_dir = _resolve_out(args, name)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", out)
    print(f"complexity: wrote {out_dir / 'report.json'}")
    if "total_ratio" in out:
        print(f"  query ratio {names[1]}/{names[0]} = {out['total_ratio']:.4f}")
    return 0


def _geometry_checks(chart):
    rng = np.random.default_rng(1234)
    lo = chart.lo + 0.05 * (chart.hi - chart.lo)
    hi = chart.hi - 0.05 * (chart.hi - chart.lo)
    pts = lo + (hi - lo) * rng.uniform(size=(100, chart.dim))
    checks = []

    g = chart.metric_at(pts)
    np.linalg.cholesky(g)
    worst = np.abs(g @ chart.inverse_metric_at(pts) - np.eye(chart.dim)).max()
    checks.append(("metric_inverse_identity", float(worst), 1e-12))

    gam = chart.christoffel_at(pts[:20])
    checks.append(("christoffel_symmetry", float(np.abs(gam - np.swapaxes(gam, -1, -2)).max()),
                   1e-10))

    # the reference takes the points one at a time, so it checks the stacked
    # evaluation of the chart as well
    fd = CustomChart(chart.dim, chart.metric_at, domain=(chart.lo, chart.hi))

    def worst_vs_fd(method, n):
        ref = np.array([getattr(fd, method)(p) for p in pts[:n]])
        return float(np.abs(getattr(chart, method)(pts[:n]) - ref).max())

    checks.append(("christoffel_vs_finite_difference", worst_vs_fd("christoffel_at", 10), 1e-6))

    ric = chart.ricci_scalar_at(pts)
    if isinstance(chart, SphereStereographicChart):
        spread = float(np.ptp(ric) / max(1.0, np.abs(ric).max()))
        checks.append(("ricci_constancy", spread, 1e-8))
        checks.append(("ricci_vs_finite_difference", worst_vs_fd("ricci_scalar_at", 5), 1e-6))
    else:
        checks.append(("ricci_zero", float(np.abs(ric).max()), 1e-10))

    if isinstance(chart, ConstantChart):
        worst = np.abs(quantum_corrections(chart, pts[:10], 1.0)).max()
        checks.append(("corrections_vanish", float(worst), 0.0))
    else:
        ref = np.array([quantum_corrections(fd, p, 1.0) for p in pts[:5]]).T
        worst = np.abs(np.array(quantum_corrections(chart, pts[:5], 1.0)) - ref).max()
        checks.append(("corrections_vs_finite_difference", float(worst), 1e-6))

    if isinstance(chart, SphereStereographicChart):
        x = chart.embed(pts[:50])
        worst_n = np.abs(np.einsum('...i,...i->...', x, x) - chart.radius**2).max()
        checks.append(("embed_norm", float(worst_n), 1e-12))
        checks.append(("embed_project_roundtrip", float(np.abs(chart.project(x) - pts[:50]).max()),
                       1e-12))

    A = np.diag(np.arange(1.0, chart.dim + 1))
    pot = quadratic_potential(A, 1.0)
    worst = 0.0
    for p in pts[:10]:
        H = manifold_hessian(chart, pot.value_at, p, gradient=pot.gradient_at)
        worst = max(worst, float(np.abs(H - H.T).max()))
    checks.append(("manifold_hessian_symmetry", worst, 1e-10))
    return checks


def cmd_geometry_check(args):
    flag = "--matrix" if args.kind == "constant" else "--dim"
    if getattr(args, flag[2:]) is None:
        raise ParameterError(f"{args.kind} chart needs {flag}")
    spec = dict(kind=args.kind, dim=args.dim, ambient_dim=args.dim, radius=args.radius,
                pole=args.pole)
    with _reading(flag):
        if args.kind == "constant":
            spec["matrix"] = json.loads(args.matrix)
        chart = build_chart(spec)
    checks = _geometry_checks(chart)
    failed = 0
    print(f"{'check':36s} {'worst':>12s} {'tolerance':>10s}  status")
    for cname, worst, tol in checks:
        ok = worst <= tol
        failed += 0 if ok else 1
        print(f"{cname:36s} {worst:12.3e} {tol:10.0e}  {'PASS' if ok else 'FAIL'}")
    if failed:
        raise NumericError(f"{failed} geometry check(s) failed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="qrhd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="run a wave-function evolution experiment")
    p.add_argument("--config", required=True, help="builtin name or JSON path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("semiclassical", help="random-instance convergence study")
    p.add_argument("--config", default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--gammas", default=None, help="comma-separated values")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_semiclassical)

    p = sub.add_parser("bound", help="damped-oscillator convergence-time bound")
    p.add_argument("epsilon_star", type=float)
    p.add_argument("eta", type=float)
    p.add_argument("mass", type=float)
    p.add_argument("lambda_eff", type=float)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("complexity", help="query-cost report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_complexity)

    p = sub.add_parser("geometry-check", help="chart invariant table")
    p.add_argument("--kind", required=True, choices=["flat", "constant", "sphere"])
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--pole", choices=["north", "south"], default="south")
    p.add_argument("--matrix", default=None, help="JSON matrix for constant charts")
    p.set_defaults(fn=cmd_geometry_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParameterError, NumericError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        residual = getattr(exc, "residual", None)
        if residual:
            # JSON has no NaN or Infinity: a non-finite residual is written as null
            error["residual"] = residual if np.isfinite(residual) else None
        print(json.dumps(error), file=sys.stderr)
        return 2 if isinstance(exc, ParameterError) else 3


if __name__ == "__main__":
    sys.exit(main())
