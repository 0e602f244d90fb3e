"""One workload pass in a fresh process; prints one JSON line.

    python3 perfbench/pass_main.py --workload certify --seed 0 --work DIR \\
        --spawned-at <CLOCK_MONOTONIC before spawn> [--trace] [--setup-only]

``perfbench/run.py`` starts this.  Set-up runs from the spawn to the first
timed operation: interpreter start, ``import pottstree`` and input
generation.  The pass then times its operations one after another, reads its
own CPU time and peak RSS, and only afterwards checks the outputs (with the
tracer suspended), so checks cost the pass nothing.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"


def monotonic() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--grid-threads", type=int, default=0,
                    help="run only the certify grid at this thread count")
    ap.add_argument("--record", action="store_true",
                    help="emit each seed-keyed output for the golden record")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import pottstree.cli  # noqa: F401  (the package itself does not import its CLI)

    import workloads

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    work = Path(args.work)
    if args.grid_threads:
        ops = workloads.certify_grid(args.seed, args.scale, work, args.grid_threads)
    else:
        ops = workloads.SETUPS[args.workload](args.seed, args.scale, work)

    t_first = monotonic()
    result = {"setup_s": t_first - args.spawned_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    outcomes = {}
    for op in ops:
        start = time.perf_counter()
        outcomes[op.name] = op.call()
        outcomes[op.name].seconds = time.perf_counter() - start
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:
        tracer.suspended = True
    golden = {}
    if GOLDEN.exists():
        recorded = json.loads(GOLDEN.read_text()).get(args.scale, {})
        golden = recorded.get(str(args.seed % workloads.GOLDEN_SEEDS), {})
    records = []
    for op in ops:
        outcome = outcomes[op.name]
        verdict, cause = op.check(outcome, outcomes, golden.get(op.golden))
        rec = {"name": op.name, "seconds": outcome.seconds, "verdict": verdict, "cause": cause}
        if args.record and op.golden:
            rec["golden"] = {"key": op.golden,
                             "sha256": workloads.sha256(op.view(outcome).digest_text())}
        records.append(rec)

    result.update({
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "ops": records,
        "outputs_sha256": workloads.sha256(
            "\n".join(outcomes[op.name].digest_text() for op in ops)),
        "numpy": numpy.__version__,
    })
    if tracer is not None:
        result["spans"] = spans.summarize(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
