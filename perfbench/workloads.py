"""The four benchmark workloads, their operations and correctness checks.

An operation is one CLI invocation or one top-level library call.  Each
workload's ``setup`` builds every input from the benchmark seed (CLI argv,
trees, boundaries, parameters) and returns the list of operations; nothing
in an operation reads the seed itself.

Library functions are looked up on their modules at call time, so a traced
pass sees the wrapped versions.

Each operation's check returns one of three verdicts:

* ``ok``     -- the output is correct;
* ``defect`` -- the operation failed in the known way recorded below; it
  counts in ``ops_failed_frac`` but the output is not wrong;
* ``wrong``  -- the output failed its check, or the operation failed in an
  unrecorded way.  This is what the benchmark's ``failed`` count reports.

Known defects at the commit that defined the benchmark:

* the README ``certify --alpha 1 ... --contract-to 1e-2`` exits 2: the
  contraction sequence stops near c = 0.479 after 200 steps;
* ``oracle --q 3 --d 3 --n 8 --check-recursion`` raises ``OverflowError``
  in ``oracle.dp_Z`` once ``log Z > 709``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: Seed-keyed outputs are recorded for program seeds ``0..GOLDEN_SEEDS-1``;
#: the benchmark seed ``s`` runs the program with seed ``s % GOLDEN_SEEDS``.
GOLDEN_SEEDS = 8


@dataclass
class Outcome:
    """What one operation produced."""

    value: object = None
    stdout: str = ""
    files: dict = field(default_factory=dict)
    error: str | None = None      # "<ExceptionType>: <message>"
    seconds: float = 0.0

    def digest_text(self) -> str:
        parts = [self.stdout] + [f"--- {k}\n{v}" for k, v in sorted(self.files.items())]
        if self.value is not None:
            parts.append(canonical(self.value))
        if self.error is not None:
            parts.append(f"error {self.error}")
        return "\n".join(parts)


@dataclass
class Op:
    name: str
    call: Callable[[], Outcome]
    #: check(outcome, outcomes_by_name, golden_entry) -> (verdict, cause)
    check: Callable
    #: key into the golden record when the output is seed-keyed
    golden: str | None = None
    #: the part of the outcome compared with the golden record
    view: Callable[[Outcome], Outcome] = lambda outcome: outcome


def canonical(value) -> str:
    """Deterministic text of a result (numpy scalars and arrays included)."""
    def plain(v):
        if isinstance(v, dict):
            return {str(k): plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple, np.ndarray)):
            return [plain(x) for x in v]
        if isinstance(v, (np.floating, float)):
            return float(v)
        if isinstance(v, (np.integer, int)):
            return int(v)
        return v
    return json.dumps(plain(value), sort_keys=True)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pt():
    return sys.modules["pottstree"]


def run_cli(argv: list[str], outputs: list[Path] = ()) -> Outcome:
    """Run ``pottstree.cli.main(argv)`` in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    result = Outcome()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result.value = sys.modules["pottstree.cli"].main(argv)
        except Exception as exc:  # the operation's failure is its outcome
            result.error = f"{type(exc).__name__}: {exc}"
    result.stdout = out.getvalue()
    for path in outputs:
        if path.exists():
            result.files[path.name] = path.read_text()
            path.unlink()
        # the manifest holds wall time and code version, so it is not checked
        for manifest in path.parent.glob("*.manifest.txt"):
            manifest.unlink()
    return result


def run_call(fn: Callable[[], object]) -> Outcome:
    result = Outcome()
    try:
        result.value = fn()
    except Exception as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result


# ---------------------------------------------------------------- checks ----

def golden_verdict(outcome: Outcome, entry: dict | None) -> tuple[str, str]:
    """Compare an output's SHA-256 with the recorded one."""
    if entry is None:
        return "wrong", "no golden output recorded for this seed"
    if sha256(outcome.digest_text()) != entry["sha256"]:
        return "wrong", "output differs from the recorded output"
    return "ok", "byte-identical to the recorded output"


def _fail_lines(stdout: str) -> list[str]:
    return [ln for ln in stdout.splitlines() if "FAIL" in ln]


def check_cli_clean(outcome, outcomes, golden):
    """Exit 0, no FAIL line, output equal to the recorded one."""
    if outcome.error:
        return "wrong", outcome.error
    if outcome.value != 0 or _fail_lines(outcome.stdout):
        return "wrong", f"exit {outcome.value}: " + "; ".join(_fail_lines(outcome.stdout))
    return golden_verdict(outcome, golden)


def csv_only(outcome: Outcome) -> Outcome:
    return Outcome(files=outcome.files)


def check_certify_threshold(outcome, outcomes, golden):
    """README alpha=1 certify: grid CSV as recorded; contraction may fail (known)."""
    if outcome.error:
        return "wrong", outcome.error
    verdict, cause = golden_verdict(csv_only(outcome), golden)
    if verdict != "ok":
        return verdict, cause
    fails = _fail_lines(outcome.stdout)
    if outcome.value == 0 and not fails:
        return "ok", cause
    if outcome.value == 2 and fails and all(ln.startswith("contraction_sequence") for ln in fails):
        return "defect", f"exit 2: {fails[0]}"
    return "wrong", f"exit {outcome.value}: " + "; ".join(fails)


def check_oracle_cli(outcome, outcomes, golden):
    """``oracle --check-recursion``: PASS, or the known OverflowError in dp_Z."""
    if outcome.error:
        if outcome.error.startswith("OverflowError"):
            return "defect", f"uncaught {outcome.error} (oracle.dp_Z: exp of log Z > 709)"
        return "wrong", outcome.error
    ok = outcome.value == 0 and not _fail_lines(outcome.stdout) and \
        "recursion_vs_dp_max_abs_diff=" in outcome.stdout
    return ("ok", "recursion matches dp") if ok else ("wrong", f"exit {outcome.value}")


def check_witness(outcome, outcomes, golden):
    """Criterion 06's assertions on the witness, and the recorded result."""
    if outcome.error:
        return "wrong", outcome.error
    w = outcome.value
    if w is not None:
        x, y = np.asarray(w["x"]), np.asarray(w["y"])
        level = pt().polytope.level
        if not (level(x) <= w["c"] * (1 + 1e-12) and level(y) <= w["c"] * (1 + 1e-12)):
            return "wrong", "witness endpoints lie outside P_c"
        if not w["violation"] > 1e-6:
            return "wrong", f"witness violation {w['violation']} <= 1e-6"
    return golden_verdict(outcome, golden)


def check_finite(outcome, outcomes, golden):
    if outcome.error:
        return "wrong", outcome.error
    if not np.isfinite(np.asarray(outcome.value, dtype=float)).all():
        return "wrong", "non-finite result"
    return "ok", "finite"


def check_finite_golden(outcome, outcomes, golden):
    """Finite, and equal to the recorded result."""
    verdict, cause = check_finite(outcome, outcomes, golden)
    return golden_verdict(outcome, golden) if verdict == "ok" else (verdict, cause)


def _check_conditional(n):
    def check(outcome, outcomes, golden):
        if outcome.error:
            return "wrong", outcome.error
        p, ratios = np.asarray(outcome.value), outcomes[f"root_log_ratios.n{n}"].value
        if abs(p.sum() - 1.0) > 1e-12 or ratios is None:
            return "wrong", f"distribution sums to {p.sum()!r}"
        diff = float(np.abs(np.log(p[:-1] / p[-1]) - ratios).max())
        return ("ok" if diff <= 1e-9 else "wrong"), f"log(p_i/p_q) vs ratios {diff:.3g} (tol 1e-9)"
    return check


def _check_recursion(n):
    def check(outcome, outcomes, golden):
        if outcome.error:
            return "wrong", outcome.error
        ratios = outcomes[f"root_log_ratios.n{n}"].value
        if ratios is None:
            return "wrong", "no dp ratios to compare"
        diff = float(np.abs(np.asarray(outcome.value) - ratios).max())
        return ("ok" if diff <= 1e-9 else "wrong"), f"recursion vs dp {diff:.3g} (tol 1e-9)"
    return check


def _check_brute(outcome, outcomes, golden):
    if outcome.error:
        return "wrong", outcome.error
    log_z = outcomes["dp_log_Z.brute_tree"].value
    if log_z is None:
        return "wrong", "no dp value to compare"
    rel = abs(outcome.value - math.exp(log_z)) / max(abs(outcome.value), 1e-300)
    return ("ok" if rel <= 1e-9 else "wrong"), f"brute vs dp rel err {rel:.3g} (tol 1e-9)"


def _check_enumeration(reference):
    def check(outcome, outcomes, golden):
        if outcome.error:
            return "wrong", outcome.error
        rec = reference()
        dist = float(np.abs(np.asarray(outcome.value) - rec).max(axis=1).min())
        return ("ok" if dist <= 1e-9 else "wrong"), \
            f"{len(outcome.value)} vectors; a random boundary's recursion is {dist:.3g} from the set"
    return check


# ------------------------------------------------------------- workloads ----

SCALES = {
    # certify: samples/pairs and level grid; witness: pairs_per_c;
    # oracle: depths and recursion size; lemmas: q_max/trials/points
    "full": {"samples": "100000", "grid": "0.5:6.0:0.5", "pairs_per_c": 20_000,
             "depths": range(6, 11), "rec": ["--n-max", "12", "--trials", "50"],
             "lemmas": ["--q-max", "8", "--trials", "100000"]},
    "tiny": {"samples": "2000", "grid": "0.5:6.0:2.75", "pairs_per_c": 500,
             "depths": range(3, 6), "rec": ["--n-max", "6", "--trials", "5"],
             "lemmas": ["--q-max", "4", "--trials", "2000", "--gradient-points", "100"]},
}


def _certify_argv(size, pseed, extra):
    return ["certify", "--q", "5", *extra, "--samples", size["samples"],
            "--pairs", size["samples"], "--seed", str(pseed)]


def certify(seed: int, scale: str, work: Path) -> list[Op]:
    """The two README certify runs and the alpha=0.5 grid, at ``--threads 2``."""
    size, pseed, t = SCALES[scale], seed % GOLDEN_SEEDS, ["--threads", "2"]
    grid = ["--d", "1000", "--c-grid", size["grid"]]
    a1 = _certify_argv(size, pseed, grid) + ["--contract-to", "1e-2",
                                             "--out-prefix", str(work / "cert")] + t
    inf = _certify_argv(size, pseed, ["--d", "inf", "--c", "4.0"]) + t
    a05 = _certify_argv(size, pseed, ["--alpha", "0.5", *grid]) + [
        "--contract-to", "1e-2", "--out-prefix", str(work / "cert05")] + t
    return [
        Op("certify.alpha1", lambda: run_cli(a1, [work / "cert.csv"]),
           check_certify_threshold, "certify.alpha1", csv_only),
        Op("certify.dinf", lambda: run_cli(inf), check_cli_clean, "certify.dinf"),
        Op("certify.alpha05", lambda: run_cli(a05, [work / "cert05.csv"]),
           check_cli_clean, "certify.alpha05"),
    ]


def certify_grid(seed: int, scale: str, work: Path, threads: int) -> list[Op]:
    """The README alpha=1 grid without contraction: the thread-scaling probe."""
    size, pseed = SCALES[scale], seed % GOLDEN_SEEDS
    argv = _certify_argv(size, pseed, ["--d", "1000", "--c-grid", size["grid"]]) + [
        "--threads", str(threads)]
    return [Op(f"certify.grid.threads{threads}", lambda: run_cli(argv), check_cli_clean,
               "certify.grid")]


def witness(seed: int, scale: str, work: Path) -> list[Op]:
    """Criterion 06's low-degree witness search."""
    pairs, pseed = SCALES[scale]["pairs_per_c"], seed % GOLDEN_SEEDS
    params = pt().ModelParams(3, 3, 1.0)
    call = lambda: run_call(lambda: pt().polytope.convexity_witness_search(
        params, [6.0, 8.0, 12.0], pairs_per_c=pairs, seed=pseed))
    return [Op("convexity_witness_search", call, check_witness, "witness")]


def lemmas(seed: int, scale: str, work: Path) -> list[Op]:
    """The README lemmas run."""
    size, pseed = SCALES[scale], seed % GOLDEN_SEEDS
    argv = ["lemmas", *size["lemmas"], "--seed", str(pseed), "--out", str(work / "lemmas.csv")]
    return [Op("lemmas", lambda: run_cli(argv, [work / "lemmas.csv"]), check_cli_clean,
               "lemmas")]


def oracle(seed: int, scale: str, work: Path) -> list[Op]:
    """Exact oracles on d=3, q=3, alpha=1 trees with random boundaries, and two CLI runs."""
    size, pseed = SCALES[scale], seed % GOLDEN_SEEDS
    p, rng = pt(), np.random.default_rng([pseed, 7])
    q, d = 3, 3
    w = p.ModelParams(q, d, 1.0).w
    o, ops = p.oracle, []
    for n in size["depths"]:
        tree = p.TreeSpec.regular(d, n)
        boundary = p.BoundaryCondition.random(tree, q, rng)
        leaf_colors = [boundary.colors[v] for v in tree.leaves()]
        ops += [
            Op(f"dp_log_Z.n{n}", lambda t=tree, b=boundary: run_call(
                lambda: o.dp_log_Z(t, q, w, b)), check_finite_golden, f"dp_log_Z.n{n}"),
            Op(f"root_log_ratios.n{n}", lambda t=tree, b=boundary: run_call(
                lambda: o.root_log_ratios(t, q, w, b)), check_finite_golden,
               f"root_log_ratios.n{n}"),
            Op(f"conditional_root_distribution.n{n}", lambda t=tree, b=boundary: run_call(
                lambda: o.conditional_root_distribution(t, q, w, b)), _check_conditional(n)),
            Op(f"recursion_root_log_ratios.n{n}", lambda n=n, c=leaf_colors: run_call(
                lambda: o.recursion_root_log_ratios(q, d, n, w, c)), _check_recursion(n)),
        ]
    # brute force vs dp on a 15-vertex tree at q=5 (5^7 colorings)
    w_b, w_e = rng.uniform(0.2, 0.9, size=2)
    small = p.TreeSpec.regular(2, 3)
    b_small = p.BoundaryCondition.random(small, 5, rng)
    ops += [
        Op("brute_force_Z", lambda: run_call(
            lambda: o.brute_force_Z(small, 5, w_b, b_small)), _check_brute),
        Op("dp_log_Z.brute_tree", lambda: run_call(
            lambda: o.dp_log_Z(small, 5, w_b, b_small)), check_finite),
    ]
    # every depth-3 log-ratio vector of the binary tree at q=3
    colors = rng.integers(1, q + 1, size=2**3)
    reference = lambda: o.recursion_root_log_ratios(3, 2, 3, w_e, colors)
    ops.append(Op("enumerate_log_ratio_sets", lambda: run_call(
        lambda: o.enumerate_log_ratio_sets(3, 2, 3, w_e)), _check_enumeration(reference)))
    rec = ["recursion", "--q", "5", "--d", "200", "--alpha", "0.5", *size["rec"],
           "--boundary", "random", "--seed", str(pseed), "--out", str(work / "conv.csv")]
    ops += [
        Op("cli.recursion", lambda: run_cli(rec, [work / "conv.csv"]), check_cli_clean,
           "recursion"),
        Op("cli.oracle.n8", lambda: run_cli(["oracle", "--q", "3", "--d", "3", "--n", "8",
                                             "--check-recursion"]), check_oracle_cli),
    ]
    return ops


SETUPS = {"certify": certify, "witness": witness, "oracle": oracle, "lemmas": lemmas}
WORKLOADS = tuple(SETUPS)
