import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrhd.cli
import qrhd.errors
from qrhd import EvolutionTrace, ParameterError
from qrhd.cli import BUILTIN_CONFIGS, _write_csv, build_schedule, load_config, main

SMALL_EVOLVE = {
    "experiment": "evolve",
    "mass": 1.0,
    "potential": {"kind": "sphere_quadratic",
                  "matrix": [[1.0, 0.0, -0.7071067811865475],
                             [0.0, 1.0, -0.7071067811865475],
                             [-0.7071067811865475, -0.7071067811865475, 1.0]]},
    "charts": [{"name": "south_v", "kind": "sphere", "ambient_dim": 3,
                "radius": 1.0, "pole": "south"}],
    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    "grid": 24,
    "schedule": {"gamma": 0.25, "eta": 1.0, "t_end": 1.0, "dt": 0.02},
    "initial": {"kind": "random-smooth", "seed": 7, "smooth_length": 0.3},
    "sample_every": 0.25,
    "frame_times": [0.0, 1.0],
}

SMALL_COMPLEXITY = {
    "experiment": "complexity",
    "mass": 0.1,
    "grid": 9,
    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    "potential": {"kind": "quadratic", "matrix": [[1.0, -0.9], [-0.9, 1.0]]},
    "charts": [
        {"name": "qhd_flat", "kind": "flat", "dim": 2},
        {"name": "qrhd_metric", "kind": "constant",
         "matrix": [[1.0, -0.9], [-0.9, 1.0]]},
    ],
    "schedule": {"eta": 0.1, "t_end": 24.0},
    "epsilon": 0.001,
    "delta": 0.05,
    "t_star": {"source": "bound", "epsilon_star": 0.05,
               "lambda_eff": {"qhd_flat": 0.01, "qrhd_metric": 0.1}},
}

SMALL_STUDY = {"experiment": "semiclassical", "dim": 3, "gammas": [5.0], "instances": 2,
               "seed": 1}


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_builtin_configs_resolve_and_roundtrip():
    for name in ("flat_demo", "sphere_demo", "study_n5", "study_n9"):
        cfg, resolved = load_config(name, BUILTIN_CONFIGS[name]["experiment"])
        assert resolved == name
        # emit -> parse -> identical
        assert json.loads(json.dumps(cfg)) == cfg
    assert BUILTIN_CONFIGS["sphere_demo"]["schedule"]["t_end"] == 12.0


def test_evolve_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path, SMALL_EVOLVE)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["evolve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["evolve", "--config", cfg, "--out", str(out2)]) == 0
    t1 = (out1 / "south_v" / "trace.csv").read_bytes()
    t2 = (out2 / "south_v" / "trace.csv").read_bytes()
    assert t1 == t2
    f1 = (out1 / "south_v" / "frame_1.000000.csv").read_bytes()
    f2 = (out2 / "south_v" / "frame_1.000000.csv").read_bytes()
    assert f1 == f2
    meta = json.loads((out1 / "metadata.json").read_text())
    # effective config echoes defaults the user did not set
    assert meta["config"]["weyl_correction"] is False
    assert meta["config"]["initial"]["seed"] == 7
    assert "results" in meta and "south_v" in meta["results"]
    assert "numba" not in meta
    header = t1.decode().splitlines()[0]
    assert header == "t,x_1,x_2,norm"
    frame = np.loadtxt(out1 / "south_v" / "frame_1.000000.csv", delimiter=",")
    assert frame.shape == (24, 24)


def test_evolve_seed_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, SMALL_EVOLVE)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["evolve", "--config", cfg, "--out", str(out1), "--seed", "9"]) == 0
    assert main(["evolve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "south_v" / "trace.csv").read_bytes() != \
        (out2 / "south_v" / "trace.csv").read_bytes()
    meta = json.loads((out1 / "metadata.json").read_text())
    assert meta["config"]["initial"]["seed"] == 9


def test_malformed_config_exits_2_without_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "never"
    assert main(["evolve", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error" in err
    # structurally valid JSON but missing required keys
    half = write_config(tmp_path, {"experiment": "evolve", "mass": 1.0}, "half.json")
    out2 = tmp_path / "never2"
    assert main(["evolve", "--config", half, "--out", str(out2)]) == 2
    assert not out2.exists()


def test_unknown_config_name_exits_2(tmp_path):
    assert main(["evolve", "--config", "no_such_builtin",
                 "--out", str(tmp_path / "x")]) == 2


def strict_json(line):
    """Parse one line as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(line, parse_constant=reject)


def assert_one_json_error(capsys, kind="ParameterError"):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert strict_json(lines[0])["error"] == kind


@pytest.mark.parametrize("case", [
    *(pytest.param(["--gammas", g, "--instances", "2"], id=g)
      for g in ("0", "-1", "1,inf", "nan")),
    *(pytest.param(["--gammas", "1", "--instances", n], id=f"instances={n}")
      for n in ("-2", "0")),
    # values the flags cannot carry, from a config
    pytest.param(dict(SMALL_STUDY, gammas=[]), id="gammas=[]"),
    pytest.param(dict(SMALL_STUDY, seed=None), id="seed=null"),
])
def test_semiclassical_rejects_gammas_that_are_not_finite_and_positive(tmp_path, capsys, case):
    args = (["--config", write_config(tmp_path, case)] if isinstance(case, dict)
            else ["--dim", "5", "--seed", "1", *case])
    out = tmp_path / "never"
    assert main(["semiclassical", *args, "--out", str(out)]) == 2
    assert_one_json_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("change", [
    # 0.005 is finer than dt = 0.02, so samples would repeat
    *(pytest.param({"sample_every": v}, id=str(v)) for v in (0, -0.25, 0.005)),
    *(pytest.param({"mass": m}, id=f"mass={m}") for m in (0, -1)),
    # R^2 underflows to 0
    pytest.param({"charts": [dict(SMALL_EVOLVE["charts"][0], radius=1e-308)]},
                 id="radius=1e-308"),
    pytest.param({"frame_times": [100.0]}, id="frame_after_t_end"),
    pytest.param({"frame_times": [-0.5, 1.0]}, id="frame_before_0"),
    *(pytest.param({"schedule": dict(SMALL_EVOLVE["schedule"], **{key: v})},
                   id=f"{key}={v}")
      for key, v in (("eta", float("nan")), ("gamma", float("nan")),
                     ("gamma", float("inf")), ("dt", float("nan")),
                     ("t_end", float("inf")), ("t_end", 1e308))),
    pytest.param({"charts": []}, id="no_charts"),
    *(pytest.param({"charts": [dict(SMALL_EVOLVE["charts"][0], name=n) for n in names]},
                   id=f"chart_names={label}")
      for label, names in (("escaping", ["../escaped"]), ("dotdot", [".."]), ("dot", ["."]),
                           ("empty", [""]), ("slash", ["a/b"]), ("backslash", ["a\\b"]),
                           ("repeated", ["a", "a"]))),
    *(pytest.param({"initial": dict(SMALL_EVOLVE["initial"], smooth_length=v)},
                   id=f"smooth_length={v}") for v in (-0.3, float("inf"), float("nan"))),
    pytest.param({"initial": {"kind": "gaussian", "width": float("nan")}}, id="width=nan"),
    pytest.param({"initial": dict(SMALL_EVOLVE["initial"], seed=None)}, id="seed=null"),
])
def test_evolve_rejects_a_non_positive_sample_interval(tmp_path, capsys, change):
    cfg = write_config(tmp_path, {**SMALL_EVOLVE, **change})
    out = tmp_path / "never"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert_one_json_error(capsys)
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def a_expr_schedule(a_expr, dt):
    # one sample interval: sample_every may not be finer than dt
    return {"schedule": {"a_expr": a_expr, "t_end": 1.5, "dt": dt}, "sample_every": 1.5}


@pytest.mark.parametrize("change, kind", [
    # 1/t fails at t = 0; the others in one step, whose midpoint t = 0.75 is past
    # the overflow of a(t), or past t = 0.5, where a(t) turns complex
    *(pytest.param(a_expr_schedule(a, 1.5), "ScheduleError", id=a)
      for a in ("1/t", "2**(2000*t)", "exp(1000*t)", "(0.5 - t)**0.5 + 1")),
    # at t = 0.365, a(t) = 3e158 is finite, but the norms of the CN vectors overflow
    pytest.param(a_expr_schedule("exp(1000*t)", 0.01), "SolverError",
                 id="exp(1000*t)-small-steps"),
    # 1 / (2 m a) = 5e307 times the stencil overflows in the first step
    pytest.param({"mass": 1e-308}, "SolverError", id="mass=1e-308"),
])
def test_evolve_schedule_that_divides_by_zero_or_overflows_exits_3(tmp_path, capsys,
                                                                  change, kind):
    cfg = {**SMALL_EVOLVE, **change}
    out = tmp_path / "run"
    assert main(["evolve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
    assert_one_json_error(capsys, kind)


def test_semiclassical_flags_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["semiclassical", "--dim", "5", "--gammas", "1,5",
            "--instances", "2", "--seed", "42"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "study.csv").read_bytes() == (out2 / "study.csv").read_bytes()
    lines = (out1 / "study.csv").read_text().splitlines()
    assert lines[0] == "instance,gamma,t_star,bound,satisfied"
    assert len(lines) == 5
    curves = sorted(p.name for p in (out1 / "curves").iterdir())
    assert curves == ["0_1.csv", "0_5.csv", "1_1.csv", "1_5.csv"]
    assert (out1 / "curves" / "0_1.csv").read_bytes() == \
        (out2 / "curves" / "0_1.csv").read_bytes()
    assert (out1 / "study.json").read_bytes() == (out2 / "study.json").read_bytes()
    study = json.loads((out1 / "study.json").read_text())
    assert study["bound"] == pytest.approx(3.8327, abs=1e-3)
    assert study["config"]["epsilon_star"] == 0.01
    integrator = study["integrator"]
    assert integrator["method"] == "dop853" and integrator["rtol"] == 1e-10
    assert [s["gamma"] for s in integrator["steps"]] == [1.0, 5.0]
    assert all(s["evaluations"] > 12 * (s["accepted"] + s["rejected"])
               for s in integrator["steps"])
    assert "numba" not in study


def test_schedule_expression_is_whitelisted(tmp_path, capsys):
    sched = build_schedule({"a_expr": "exp(2*0.25*t) * cosh(-t) / sqrt(pi) + log(e)",
                            "t_end": 1.0})
    assert sched.a_at(0.5) == pytest.approx(np.exp(0.25) * np.cosh(0.5) / np.sqrt(np.pi) + 1)
    escape = "().__class__.__bases__[0].__subclasses__()"
    for expr in (escape, "__import__('os')", "exp(x=t)", "t if t else 1", "exp",
                 "t +", "+".join(["t"] * 100000)):
        with pytest.raises(ParameterError):
            build_schedule({"a_expr": expr, "t_end": 1.0})
    cfg = dict(SMALL_EVOLVE, schedule={"a_expr": escape, "t_end": 1.0, "dt": 0.02})
    out = tmp_path / "never"
    assert main(["evolve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "ParameterError" in capsys.readouterr().err


def test_bound_command(capsys):
    assert main(["bound", "0.01", "1.0", "1.0", "3.0"]) == 0
    out = capsys.readouterr().out
    assert "t_bound = 3.832654" in out
    assert "gamma_opt = 1.732051" in out
    assert main(["bound", "1.0", "1.0", "1.0", "3.0"]) == 0
    assert "t_bound = 0.000000" in capsys.readouterr().out
    for args in (["0.01", "1.0", "1.0", "-3.0"], ["0.01", "nan", "1.0", "3.0"],
                 ["0.01", "1.0", "inf", "3.0"], ["0.01", "1.0", "1.0", "inf"]):
        assert main(["bound", *args]) == 2
        assert_one_json_error(capsys)


def test_complexity_command(tmp_path):
    path = write_config(tmp_path, dict(SMALL_COMPLEXITY, grid=32))
    out = tmp_path / "cx"
    assert main(["complexity", "--config", path, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["alpha_ratio"] == pytest.approx(10.0, rel=1e-6)
    assert 0.5 <= rep["total_ratio"] <= 2.0
    r = rep["reports"]["qhd_flat"]
    for key in ("alpha_h", "beta_h", "schedule_integral", "dyson_factor",
                "n_query_a", "n_query_ub", "n_query_total", "log_delta"):
        assert key in r


@pytest.mark.parametrize("change, code, kind", [
    pytest.param({"charts": []}, 2, "ParameterError", id="no_charts"),
    # alpha T / epsilon overflows, so the Dyson factor is inf / inf
    pytest.param({"epsilon": 1e-308}, 3, "NumericError", id="epsilon=1e-308"),
    # t* ~ 1420 / (2 gamma): a(t*) = e^1420 and the schedule integral overflow
    pytest.param({"t_star": dict(SMALL_COMPLEXITY["t_star"], epsilon_star=1e-308)},
                 3, "NumericError", id="epsilon_star=1e-308"),
])
def test_complexity_rejects_with_one_typed_error(tmp_path, capsys, change, code, kind):
    out = tmp_path / "never"
    cfg = write_config(tmp_path, {**SMALL_COMPLEXITY, **change})
    assert main(["complexity", "--config", cfg, "--out", str(out)]) == code
    assert_one_json_error(capsys, kind)
    assert not out.exists()


FUZZ_VALUES = [None, "x", "", -1, 0, 0.5, 3, [], [1], {}, {"a": 1}, float("nan"), True]


def field_paths(cfg, prefix=()):
    """Every field of a config: the keys of each object, and each chart entry."""
    items = (cfg.items() if isinstance(cfg, dict)
             else enumerate(cfg) if isinstance(cfg, list) and cfg and isinstance(cfg[0], dict)
             else ())
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


FUZZ_FIELDS = [(command, base, path)
               for command, base in (("evolve", dict(SMALL_EVOLVE, grid=9, frame_times=[0.0],
                                                     schedule=dict(SMALL_EVOLVE["schedule"],
                                                                   t_end=0.04))),
                                     ("complexity", SMALL_COMPLEXITY),
                                     ("semiclassical", SMALL_STUDY))
               for path in field_paths(base)]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from(FUZZ_FIELDS), st.sampled_from(FUZZ_VALUES))
def test_one_field_mutations_exit_0_2_or_3_with_a_typed_error(field, value):
    command, base, path = field
    cfg = json.loads(json.dumps(base))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", write_config(Path(tmp), cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 2:
            assert not out.exists()
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        error = getattr(qrhd.errors, strict_json(lines[0])["error"])
        assert issubclass(error, qrhd.errors.QrhdError)


def test_geometry_check_commands(capsys):
    assert main(["geometry-check", "--kind", "flat", "--dim", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    # construction rejected for a non-symmetric constant metric
    assert main(["geometry-check", "--kind", "constant",
                 "--matrix", "[[1,0.5],[0.3,1]]"]) == 2


@pytest.mark.parametrize("args", [
    ["--dim", "4", "--radius", "2.0", "--pole", "north"],
    ["--dim", "4"],
    ["--dim", "5"],
    ["--dim", "6", "--radius", "0.7"],
    ["--dim", "10", "--pole", "north"],
    ["--dim", "10", "--pole", "south"],
], ids=["N4-R2-north", "N4", "N5", "N6-R0.7", "N10-north", "N10-south"])
def test_geometry_check_passes_on_higher_dimensional_spheres(args, capsys):
    # the nested-difference references of the Ricci scalar and of the
    # corrections must stay within 1e-6 up to ambient dimension 10
    assert main(["geometry-check", "--kind", "sphere", *args]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_out_dir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QRHD_OUT_DIR", str(tmp_path / "env_out"))
    assert main(["semiclassical", "--dim", "5", "--gammas", "5",
                 "--instances", "1", "--seed", "1"]) == 0
    assert (tmp_path / "env_out" / "study" / "study.csv").exists()


def test_evolve_exits_3_on_stalled_solve(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, {**SMALL_EVOLVE, "grid": 9, "frame_times": [0.0],
                                  "schedule": {**SMALL_EVOLVE["schedule"], "t_end": 0.04}})
    monkeypatch.setattr(sys.modules["qrhd.evolve"], "_bicgstab",
                        lambda A, b, x0, precond, rtol: (x0, 1, 1e-3))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = strict_json(lines[0])
    assert err["error"] == "SolverError" and err["residual"] == 1e-3


def test_import_and_scipy_free_commands_load_no_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import qrhd.cli\n"
        "print(scipy_loaded())\n"
        "assert qrhd.cli.main(['semiclassical', '--dim', '5', '--gammas', '1,5',\n"
        f"    '--instances', '5', '--seed', '3', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert qrhd.cli.main(['bound', '0.01', '1', '1', '3']) == 0\n"
        "assert qrhd.cli.main(['geometry-check', '--kind', 'sphere', '--dim', '3']) == 0\n"
        "print(scipy_loaded())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[0] == "[]"
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "study.csv").is_file()


def per_value_csv(header, rows):
    """The CSV rule value by value: FLOAT_FMT for floats, str() otherwise."""
    return ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows)


def test_write_csv_matches_the_per_value_rule(tmp_path):
    nan = float("nan")
    header = ["instance", "gamma", "t_star", "bound", "satisfied"]
    columns = [[0, 1, 2, 3], [0.1, 1.0, 5.0, 1 / 3],
               ["", 1.2345678901234567, nan, 2.0], [3.8327, nan, 1e-300, -0.0],
               ["true", "", "excluded", "false"]]
    _write_csv(tmp_path / "study.csv", header, columns)
    assert (tmp_path / "study.csv").read_text() == per_value_csv(header, zip(*columns))
    t = np.linspace(0.0, 3.0, 301)
    ratio = np.exp(-t) * np.cos(7 * t)
    _write_csv(tmp_path / "curve.csv", ["t", "ratio"], [t, ratio])
    assert (tmp_path / "curve.csv").read_text() == \
        per_value_csv(["t", "ratio"], zip(t.tolist(), ratio.tolist()))
    wide = np.array([0.1, -0.0, np.nan, np.inf, 1e-300, 2.0 / 3.0])
    narrow = wide.astype(np.float32)
    _write_csv(tmp_path / "arrays.csv", ["a", "b"], [wide, narrow])
    assert (tmp_path / "arrays.csv").read_text() == \
        per_value_csv(["a", "b"], zip(wide.tolist(), narrow.tolist()))
    _write_csv(tmp_path / "empty.csv", ["t"], [[]])
    assert (tmp_path / "empty.csv").read_text() == "t\n"


def test_trace_csv_matches_the_per_value_rule(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    trace = EvolutionTrace(times=np.linspace(0.0, 1.0, 5),
                           positions=rng.standard_normal((5, 2)),
                           norms=1.0 + 1e-13 * rng.standard_normal(5))
    trace.positions[2, 1] = np.nan
    monkeypatch.setattr(qrhd.cli, "evolve", lambda *args, **kwargs: trace)
    cfg = write_config(tmp_path, {**SMALL_EVOLVE, "grid": 9, "frame_times": []})
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = [(trace.times[k], *trace.positions[k], trace.norms[k]) for k in range(5)]
    assert (tmp_path / "out" / "south_v" / "trace.csv").read_text() == \
        per_value_csv(["t", "x_1", "x_2", "norm"], rows)
