"""Record the seed-keyed outputs that the benchmark's checks compare against.

    python3 perfbench/record_golden.py

Runs every workload once per program seed ``0..GOLDEN_SEEDS-1`` at both
scales and writes ``perfbench/golden.json``: the SHA-256 of each output.  A
check passes only on a byte-identical output.  Re-record only when a change
is meant to alter these outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from pass_main import GOLDEN  # noqa: E402
from workloads import GOLDEN_SEEDS, WORKLOADS  # noqa: E402


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    golden: dict = {}
    try:
        for scale in ("full", "tiny"):
            for seed in range(GOLDEN_SEEDS):
                entries = golden.setdefault(scale, {}).setdefault(str(seed), {})
                runner = run.Runner(work, seed, scale)
                passes = [runner.spawn(w, record=True) for w in WORKLOADS]
                passes.append(runner.spawn("certify", grid_threads=2, record=True))
                for p in passes:
                    for op in p["ops"]:
                        if "golden" in op:
                            g = op["golden"]
                            entries[g["key"]] = {"sha256": g["sha256"]}
                print(f"recorded scale={scale} seed={seed}: {sorted(entries)}", flush=True)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
