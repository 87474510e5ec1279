"""qrhd benchmark: end-to-end and per-layer figures for three user workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qrhd checkout; it imports the package from
``src/``.  Each measured run is a fresh interpreter (``child.py``) started
only after the previous one has exited: a closed loop with one client.  Runs
repeat at the same seed for about ``--seconds``; every repeat must produce
byte-identical outputs.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics (medians over the runs); with ``--trace 1`` it carries
the per-layer metrics of one traced run plus the tracing overhead against
the untraced median.  Details of every run go to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.  See README.md.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("evolve_flat128", "sweep_sphere64", "study_n5")
DRIFT_LIMIT = 1e-6            # criterion-1 bound on | ||psi|| - 1 |
MIN_RUNS = 3                  # untraced repeats per invocation, at least
TRACED_COST = 1.3             # a traced run's wall time over an untraced one
CHILD_TIMEOUT_S = 100.0
TOTAL_BUDGET_S = 170.0        # the whole invocation stays under 180 s

# Metric names and units come from BENCHMARK.json, so the two cannot drift.
SPEC_FILE = ROOT / "BENCHMARK.json"

# Layers each workload reaches; a per-layer metric of another layer reads 0.
REACHES = {
    "evolve_flat128": ("geometry.metric_many", "discretize", "evolve", "cli", "proc", "trace"),
    "sweep_sphere64": ("geometry", "discretize", "evolve", "proc", "trace"),
    "study_n5": ("semiclassical", "cli", "proc", "trace"),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env():
    env = dict(os.environ)
    # OpenBLAS's second thread only spins in level-1 calls here (twice the
    # CPU time, no wall-time gain) and doubles the exposure to other load
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unknown"


def spawn(args, work, timeout, pass_spawn_time=True):
    """Run one child to its exit; return (exit code, wall seconds, rusage).

    The child gets the parent's clock just before the start as its last
    argument, so that it can date its own timestamps from interpreter start.
    """
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        spawn_time = time.time()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd + [str(spawn_time)] if pass_spawn_time else cmd,
                                cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage


def hash_csvs(out):
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*.csv")):
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_outputs(workload, out, result):
    """Outside-in checks on what the run wrote; returns (facts, problems)."""
    facts, problems = {}, []
    files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
    facts["output_files"] = len(files)
    facts["output_bytes"] = sum(p.stat().st_size for p in files)
    if workload == "sweep_sphere64":
        facts["hash"] = result.get("array_hash")
        facts["norm_drift"] = result.get("norm_drift", float("inf"))
    elif workload == "evolve_flat128":
        facts["hash"] = hash_csvs(out)
        traces = sorted(out.glob("*/trace.csv"))
        if len(traces) != 2:
            problems.append(f"expected 2 chart traces, found {len(traces)}")
        drifts = []
        for trace in traces:
            with open(trace) as fh:
                drifts += [abs(float(row[-1]) - 1.0) for row in list(csv.reader(fh))[1:]]
            if len(list(trace.parent.glob("frame_*.csv"))) != 3:
                problems.append(f"{trace.parent.name}: expected 3 frames")
        facts["norm_drift"] = max(drifts, default=float("inf"))
    else:
        facts["hash"] = hash_csvs(out)
        study = out / "study.csv"
        rows = list(csv.DictReader(open(study))) if study.is_file() else []
        if len(rows) != 100:
            problems.append(f"study.csv has {len(rows)} rows, expected 100")
        undetected = [r["instance"] for r in rows
                      if r["satisfied"] != "excluded" and not r["t_star"]]
        if undetected:
            problems.append(f"no t* detected for instances {undetected[:5]}")
        if len(list(out.glob("curves/*.csv"))) != len(rows):
            problems.append("curve count differs from study rows")
        verdicts = Counter(r["satisfied"] for r in rows)
        checked = verdicts["true"] + verdicts["false"]
        facts["fraction_satisfied"] = verdicts["true"] / checked if checked else 0.0
        facts["excluded"] = verdicts["excluded"]
    if "norm_drift" in facts and not facts["norm_drift"] < DRIFT_LIMIT:
        problems.append(f"norm drift {facts['norm_drift']:.3e} >= {DRIFT_LIMIT:g}")
    return facts, problems


def run_once(workload, seed, work, trace, timeout):
    shutil.rmtree(work, ignore_errors=True)
    code, wall, usage = spawn([workload, str(seed), str(work), str(int(trace))],
                              work, timeout)
    sample = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "cpu_s": usage.ru_utime + usage.ru_stime, "exit": code, "problems": []}
    try:
        result = json.loads((work / "result.json").read_text())
    except (OSError, ValueError):
        result = {}
    if code != 0:
        last = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        sample["problems"].append(f"exit code {code}: {' | '.join(last)}")
    if result.get("hook_error"):
        sample["problems"].append(f"hook: {result['hook_error']}")
    if result.get("missing_hooks"):
        sample["problems"].append(f"hooks never fired: {result['missing_hooks']}")
    facts, problems = check_outputs(workload, work / "out", result)
    sample["problems"] += problems
    sample.update(facts)
    sample["import_s"] = result.get("import_s")
    sample["setup_s"] = result.get("setup_s")
    if trace and "layers" in result:
        residual = result["layers"]["evolve.max_residual"]
        if not residual < result["residual_limit"]:
            sample["problems"].append(f"CN residual {residual:.3e} not below "
                                      f"{result['residual_limit']:g}")
        for key in ("layers", "notes", "check_s", "post_s", "spans"):
            sample[key] = result.get(key)
    elif not trace and sample["setup_s"] is None and code == 0:
        sample["problems"].append("set-up clock did not fire")
    shutil.rmtree(work / "out", ignore_errors=True)
    return sample


def tail(values):
    """Highest of p99.9/p99/p95/p90 with at least ten samples beyond it, or None."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10 - 1e-9:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return p, cuts[round(p * 10) - 1]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begin = time.perf_counter()
    if not (ROOT / "src" / "qrhd" / "__init__.py").is_file():
        return fail(f"no qrhd sources under {ROOT / 'src'}; run from a qrhd checkout")

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # first interpreter: host facts, and compiles the bytecode the
        # measured runs then reuse
        code, _, _ = spawn(["--host"], scratch / "host", CHILD_TIMEOUT_S,
                           pass_spawn_time=False)
        if code != 0:
            err = (scratch / "host" / "stderr.txt").read_text(errors="replace")
            return fail(f"cannot import qrhd from {ROOT / 'src'}: {err.strip()[-300:]}")
        host = json.loads((scratch / "host" / "stdout.txt").read_text())
        if not Path(host["qrhd"]).resolve().is_relative_to(ROOT / "src"):
            return fail(f"qrhd resolves to {host['qrhd']}, outside this checkout")
        host["git_sha"] = git_sha()
        samples, traced = measure(args, scratch, begin)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    return report(args, host, samples, traced)


def measure(args, scratch, begin):
    """Closed loop of untraced runs for about --seconds, then the traced run."""
    samples = []
    loop_start = time.perf_counter()
    while True:
        remaining = TOTAL_BUDGET_S - (time.perf_counter() - begin)
        samples.append(run_once(args.workload, args.seed, scratch / f"run{len(samples)}",
                                False, min(CHILD_TIMEOUT_S, remaining)))
        typical = statistics.median(s["wall_s"] for s in samples)
        reserve = TRACED_COST * typical if args.trace else 0.0
        elapsed = time.perf_counter() - loop_start
        enough = len(samples) >= (2 if args.trace else MIN_RUNS)
        if enough and elapsed + typical + reserve > args.seconds:
            break
        if time.perf_counter() - begin + typical + reserve > TOTAL_BUDGET_S - 10:
            break
    traced = None
    if args.trace:
        remaining = TOTAL_BUDGET_S - (time.perf_counter() - begin)
        traced = run_once(args.workload, args.seed, scratch / "traced", True,
                          min(CHILD_TIMEOUT_S, remaining))
    return samples, traced


def report(args, host, samples, traced):
    runs = samples + ([traced] if traced else [])
    hashes = Counter(s.get("hash") for s in samples if not s["problems"])
    reference = hashes.most_common(1)[0][0] if hashes else None
    for s in runs:
        if s.get("hash") != reference and reference is not None:
            s["problems"].append("output hash differs from the other repeats")
    failed = sum(1 for s in runs if s["problems"])
    good = [s for s in samples if not s["problems"]]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runs)} runs, closed loop, 1 client")
    print("host " + json.dumps(host, sort_keys=True))
    for k, s in enumerate(runs):
        if s["problems"]:
            print(f"run {k} FAILED: {'; '.join(s['problems'])}")

    spec = json.loads(SPEC_FILE.read_text())
    metrics = {}
    lines = []
    if not args.trace:
        for entry in spec["end_to_end"]:
            name, unit = entry["name"], entry["unit"]
            values = [s[name] for s in good if s.get(name) is not None]
            if not values:
                lines.append(f"{name:<12} absent: no run passed its checks")
                continue
            median, high = statistics.median(values), tail(values)
            metrics[name] = {"value": median, "unit": unit}
            tail_text = f"p{high[0]:g} {high[1]:.4f}" if high else "tail n/a (needs >= 11)"
            lines.append(f"{name:<12} median {median:.4f} {unit:<3} {tail_text}  "
                         f"n={len(values)}")
    elif traced and not traced["problems"] and good:
        layers = dict(traced["layers"])
        layers["evolve.norm_drift"] = traced.get("norm_drift", 0.0)
        layers["semiclassical.fraction_satisfied"] = traced.get("fraction_satisfied", 0.0)
        layers["semiclassical.excluded"] = traced.get("excluded", 0)
        layers["cli.output_bytes"] = traced["output_bytes"]
        layers["cli.output_files"] = traced["output_files"]
        layers["proc.import_s"] = statistics.median(s["import_s"] for s in good)
        layers["proc.cpu_s"] = statistics.median(s["cpu_s"] for s in good)
        layers["trace.overhead_s"] = (traced["wall_s"] - traced["post_s"] - traced["check_s"]
                                      - statistics.median(s["wall_s"] for s in good))
        reached = REACHES[args.workload]
        for entry in spec["per_layer"]:
            name, unit = entry["name"], entry["unit"]
            if name not in layers:
                lines.append(f"{name:<36} absent: not produced by this benchmark version")
                continue
            metrics[name] = {"value": layers[name], "unit": unit}
            note = (traced.get("notes") or {}).get(name, "")
            if not name.startswith(reached):
                note = f"absent: {args.workload} does not reach this layer"
            lines.append(f"{name:<36} {layers[name]:<14.6g} {unit:<10} {note}")
        lines.append(f"(traced run: {traced['spans']} spans; the residual check, "
                     f"{traced['check_s']:.3f} s, is left out of the overhead)")
    for line in lines:
        print(line)

    details = {"args": vars(args), "host": host, "untraced": samples, "traced": traced,
               "metrics": metrics}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
