"""pottstree benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  Each workload pass runs in a fresh process
(``perfbench/pass_main.py``) on the sources under ``src/``; passes repeat until
``--seconds`` have elapsed and there are at least ``MIN_PASSES`` of them, one
caller at a time (a closed loop).

``--trace 0`` reports the end-to-end metrics, each the median over the passes
of the run: ``wall_s`` (time to solution of one pass), ``cpu_s`` (user+sys
of the pass), ``setup_s`` (spawn to first timed operation, over at least
``SETUP_SAMPLES`` processes) and ``peak_rss_mb``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the spans of the traced ones (see ``spans.py``),
``trace.overhead_frac`` from the two kinds of pass, and on ``certify`` the
thread speed-up of the alpha=1 grid.  A traced pass must produce outputs
byte-identical to the untraced pass of the same seed.

Every run prints a record (machine, versions, load, each metric's median and
high percentile with its sample count, and each operation's verdict) and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` (operations
with a wrong output) and ``metrics``.  ``--smoke`` runs every workload at a
tiny size and checks that every metric in ``BENCHMARK.json`` is emitted with
its unit and that tracing leaves the outputs unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from pass_main import monotonic  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up is sampled in at least this many processes per run.
SETUP_SAMPLES = 15
#: An untraced run makes at least this many passes, so that its median is
#: not the mean of two and one slow pass does not move it.
MIN_PASSES = 3
#: Every process of a run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0
GRID_THREAD_REPEATS = 2

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class PassError(RuntimeError):
    pass


class Runner:
    """Spawns passes for one run and keeps them within the run's time limit."""

    def __init__(self, work: Path, seed: int, scale: str = "full"):
        self.work, self.seed, self.scale = work, seed, scale
        self.started = monotonic()

    def elapsed(self) -> float:
        return monotonic() - self.started

    def spawn(self, workload: str, trace=False, setup_only=False, grid_threads=0,
              record=False) -> dict:
        cmd = [sys.executable, str(HERE / "pass_main.py"), "--workload", workload,
               "--seed", str(self.seed), "--scale", self.scale, "--work", str(self.work)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--record"] * record
        if grid_threads:
            cmd += ["--grid-threads", str(grid_threads)]
        timeout = RUN_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise PassError("run time limit reached")
        try:
            spawned = monotonic()
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise PassError(f"{workload} pass exceeded the run time limit")
        if proc.returncode != 0:
            raise PassError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ statistics ----

def summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    out = {"n": len(v), "median": statistics.median(v)}
    if len(v) >= 11:
        out[f"p{100 * (len(v) - 10) // len(v)}"] = v[len(v) - 11]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(s: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass from its span summary."""
    def get(name, key):
        return s.get(name, {}).get(key, 0.0)

    def rate(name, key):
        return _ratio(get(name, key), get(name, "s"))

    m = {}
    for fn in ("log_ratio_map", "two_step_map"):
        name = f"maps.{fn}"
        m[f"{name}.rows"] = (get(name, "rows"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
        m[f"{name}.rows_per_s"] = (rate(name, "rows"), "1/s")
    m["maps.log_ratio_map.unique_row_frac"] = (
        _ratio(get("maps.log_ratio_map", "distinct_rows"), get("maps.log_ratio_map", "rows")),
        "ratio")
    pre = "maps.log_ratio_map_preimage"
    m[f"{pre}.rows"] = (get(pre, "rows"), "count")
    m[f"{pre}.self_s"] = (get(pre, "self_s"), "s")
    m[f"{pre}.valid_frac"] = (_ratio(get(pre, "valid"), get(pre, "rows")), "ratio")
    for fn in ("sample_fundamental", "sample_polytope", "level"):
        m[f"polytope.{fn}.rows_per_s"] = (rate(f"polytope.{fn}", "rows"), "1/s")
    m["polytope.convexity_probe.s"] = (get("polytope.convexity_probe", "s"), "s")
    ws = "polytope.convexity_witness_search"
    scanned = get("polytope._midpoint_pullback_levels", f"pairs@{ws}")
    m[f"{ws}.s"] = (get(ws, "s"), "s")
    m[f"{ws}.pairs_scanned"] = (scanned, "count")
    m[f"{ws}.scan_ratio"] = (_ratio(scanned, get(ws, "pairs_requested")), "ratio")
    m["certify.two_step_level.calls"] = (get("certify.two_step_level", "calls"), "count")
    m["certify.two_step_level.s"] = (get("certify.two_step_level", "s"), "s")
    m["certify.contraction_sequence.steps"] = (get("certify.contraction_sequence", "steps"), "count")
    m["certify.contraction_sequence.s"] = (get("certify.contraction_sequence", "s"), "s")
    m["certify.convergence_experiment.s"] = (get("certify.convergence_experiment", "s"), "s")
    m["oracle.dp_log_Z.vertices_per_s"] = (rate("oracle.dp_log_Z", "vertices"), "1/s")
    for fn in ("root_log_ratios", "conditional_root_distribution",
               "recursion_root_log_ratios", "enumerate_log_ratio_sets"):
        m[f"oracle.{fn}.s"] = (get(f"oracle.{fn}", "s"), "s")
    m["oracle.brute_force_Z.colorings_per_s"] = (rate("oracle.brute_force_Z", "colorings"), "1/s")
    m["oracle.dp_passes_per_query"] = (
        _ratio(get("oracle._dp_tables", "calls"), get("oracle._dp_tables", "queries")), "count")
    for name in ("trees.TreeSpec.regular", "trees.TreeSpec.topological_order",
                 "trees.BoundaryCondition.random"):
        m[f"{name}.s"] = (get(name, "s"), "s")
    m["gradients.positivity_sweep.trials_per_s"] = (
        rate("gradients.positivity_sweep", "trials"), "1/s")
    m["gradients.gradient_identity_sweep.s"] = (get("gradients.gradient_identity_sweep", "s"), "s")
    pcm = "reporting.parallel_chunk_map"
    m[f"{pcm}.calls"] = (get(pcm, "calls"), "count")
    m[f"{pcm}.chunks"] = (get(pcm, "chunks"), "count")
    m[f"{pcm}.s"] = (get(pcm, "s"), "s")
    m["reporting.write_csv_atomic.s"] = (get("reporting.write_csv_atomic", "s"), "s")
    m["reporting.code_version.calls"] = (get("reporting.code_version", "calls"), "count")
    m["reporting.code_version.s"] = (get("reporting.code_version", "s"), "s")
    for sub in ("certify", "recursion", "lemmas", "oracle"):
        m[f"cli.main.{sub}.self_s"] = (get(f"cli.main.{sub}", "self_s"), "s")
    return m


def op_summary(passes: list[dict]) -> tuple[dict, int, int, int]:
    """Per-operation verdict counts; returns (table, attempted, wrong, not ok)."""
    table = defaultdict(lambda: {"n": 0, "seconds": [], "verdicts": defaultdict(int),
                                 "causes": set()})
    for p in passes:
        for op in p["ops"]:
            rec = table[op["name"]]
            rec["n"] += 1
            rec["seconds"].append(op["seconds"])
            rec["verdicts"][op["verdict"]] += 1
            rec["causes"].add(f"{op['verdict']}: {op['cause']}")
    attempted = sum(r["n"] for r in table.values())
    wrong = sum(r["verdicts"]["wrong"] for r in table.values())
    not_ok = attempted - sum(r["verdicts"]["ok"] for r in table.values())
    return table, attempted, wrong, not_ok


def environment() -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), platform.processor())
    except OSError:
        model = platform.processor()
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
        describe = git.stdout.strip() if git.returncode == 0 else "unavailable (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        describe = "unavailable (git not found)"
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "git_describe": describe, "loadavg_at_start": list(os.getloadavg())}


# ------------------------------------------------------------------ runs ----

def run_untraced(runner: Runner, workload: str, seconds: float):
    passes = []
    while True:
        passes.append(runner.spawn(workload))
        last = passes[-1]["setup_s"] + passes[-1]["wall_s"]
        if runner.elapsed() + 1.5 * last > RUN_LIMIT_S - 20:
            break
        if runner.elapsed() >= seconds and len(passes) >= MIN_PASSES:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(workload, setup_only=True)["setup_s"])
    series = {k: [p[k] for p in passes] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    series["setup_s"] = setups
    metrics = {k: (statistics.median(series[k]), E2E_UNITS[k]) for k in E2E_UNITS}
    return passes, [], series, metrics, []


def run_traced(runner: Runner, workload: str, seconds: float):
    untraced, traced, problems = [], [], []
    while True:
        untraced.append(runner.spawn(workload))
        traced.append(runner.spawn(workload, trace=True))
        pair = sum(p["setup_s"] + p["wall_s"] for p in (untraced[-1], traced[-1]))
        if runner.elapsed() >= seconds or runner.elapsed() + 1.5 * pair > RUN_LIMIT_S - 30:
            break
    for u, t in zip(untraced, traced):
        if u["outputs_sha256"] != t["outputs_sha256"]:
            problems.append("a traced pass changed the outputs of the untraced pass")
    per_pass = [layer_metrics(t["spans"]) for t in traced]
    series = {k: [m[k][0] for m in per_pass] for k in per_pass[0]}
    units = {k: u for k, (_, u) in per_pass[0].items()}
    series["trace.overhead_frac"] = [
        statistics.median(t["wall_s"] for t in traced)
        / statistics.median(u["wall_s"] for u in untraced) - 1.0]
    units["trace.overhead_frac"] = "ratio"
    probes = []
    if workload == "certify":
        timings = defaultdict(list)
        for _ in range(GRID_THREAD_REPEATS):
            for threads in (1, 2):
                probes.append(runner.spawn(workload, grid_threads=threads))
                timings[threads].append(probes[-1]["wall_s"])
        series["reporting.thread_speedup"] = [
            statistics.median(timings[1]) / statistics.median(timings[2])]
    else:
        series["reporting.thread_speedup"] = [0.0]
    units["reporting.thread_speedup"] = "ratio"
    _, attempted, _, not_ok = op_summary(untraced + traced)
    series["ops_failed_frac"] = [not_ok / attempted]
    units["ops_failed_frac"] = "ratio"
    metrics = {k: (statistics.median(v), units[k]) for k, v in series.items()}
    return untraced + traced, probes, series, metrics, problems


def report(workload, seed, trace, env, passes, probes, series, metrics, problems) -> dict:
    """Print the human-readable record and return the result object.

    ``attempted`` and ``failed`` cover the workload passes and the thread
    probes; ``ops_failed_frac`` covers the workload passes only.
    """
    table, attempted, wrong, _ = op_summary(passes + probes)
    _, workload_ops, _, not_ok = op_summary(passes)
    env = dict(env, numpy=passes[0]["numpy"])
    print(f"# pottstree benchmark: workload={workload} seed={seed} trace={trace} "
          f"passes={len(passes)} thread_probes={len(probes)}")
    print("# environment: " + json.dumps(env))
    for name, rec in table.items():
        verdicts = ", ".join(f"{k}={v}" for k, v in sorted(rec["verdicts"].items()))
        print(f"op {name}: n={rec['n']} median_s={statistics.median(rec['seconds']):.4f} "
              f"{verdicts}")
        for cause in sorted(rec["causes"]):
            if not cause.startswith("ok"):
                print(f"    {cause}")
    print(f"ops: attempted={attempted} wrong={wrong} "
          f"ops_failed_frac={not_ok / workload_ops:.4f} (workload passes only)")
    for name, vals in series.items():
        s = summary(vals)
        extra = " ".join(f"{k}={v:.6g}" for k, v in s.items() if k not in ("n", "median"))
        print(f"metric {name} = {metrics[name][0]:.6g} {metrics[name][1]} "
              f"(samples: n={s['n']} median={s['median']:.6g}{' ' + extra if extra else ''})")
    for problem in problems:
        print(f"problem: {problem}")
    print("record: " + json.dumps({
        "workload": workload, "seed": seed, "trace": trace, "environment": env,
        "series": {k: summary(v) for k, v in series.items()},
        "ops": {k: {"n": r["n"], "median_s": statistics.median(r["seconds"]),
                    "verdicts": dict(r["verdicts"]), "causes": sorted(r["causes"])}
                for k, r in table.items()},
        "ops_failed_frac": not_ok / workload_ops}))
    return {"correct": wrong == 0 and not problems, "attempted": attempted, "failed": wrong,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def smoke(work: Path) -> int:
    """Tiny passes of every workload: metric names and units, traced == untraced."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runner = Runner(work, seed=1, scale="tiny")
            run = run_traced if trace else run_untraced
            passes, probes, series, metrics, problems = run(runner, workload, 0.0)
            errors += [f"{workload}: {p}" for p in problems]
            errors += [f"{workload}: {op['name']} wrong: {op['cause']}"
                       for p in passes + probes for op in p["ops"] if op["verdict"] == "wrong"]
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: u for k, (_, u) in metrics.items()}
            if got != want:
                errors.append(f"{workload} trace={trace}: emitted {sorted(set(got) ^ set(want))} "
                              f"or units differ from BENCHMARK.json")
        print(f"smoke {workload}: done")
    for e in dict.fromkeys(errors):
        print(f"smoke error: {e}")
    print("smoke: " + ("PASS" if not errors else "FAIL"))
    return 0 if not errors else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "pottstree" / "__init__.py").is_file():
        print(f"error: no pottstree sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.smoke:
            return smoke(work)
        env = environment()
        runner = Runner(work, args.seed)
        run = run_traced if args.trace else run_untraced
        result = report(args.workload, args.seed, args.trace, env,
                        *run(runner, args.workload, args.seconds))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
