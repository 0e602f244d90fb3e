"""Command-line interface.

Four subcommands mirror the library's main entry points:

* ``recursion`` — depth-by-depth convergence measurements on regular trees;
* ``certify``   — two-step level estimates and midpoint convexity probes
                  over a grid of polytope levels;
* ``lemmas``    — positivity and identity sweeps for the gradient-ordering
                  machinery;
* ``oracle``    — exact partition functions / root distributions for a given
                  boundary condition, with an optional recursion cross-check.

This module owns every output format: the CSV layouts, the oracle report
and the ``<output>.manifest.txt`` that every file-writing run also writes
(command, code version, each parsed argument in parser order, wall time).
CSV outputs are byte-identical for a fixed seed regardless of ``--threads``.

Exit codes: 0 = success, 1 = usage or domain error, 2 = a check failed.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .certify import (check_contraction_target, contraction_sequence, convergence_experiment,
                      two_step_level)
from .errors import BudgetError, CertificationError, DomainError, ParseError
from .gradients import check_sweep_sizes, gradient_identity_sweep, positivity_sweep
from .oracle import (_check_regular_dp_budget, brute_force_Z,
                     recursion_root_log_ratios, root_summary)
from .params import INFINITY, ModelParams
from .polytope import convexity_probe
from .reporting import (check_seed, code_version, format_value, parse_grid, spawn_rng,
                        write_csv_atomic, write_text_atomic)
from .trees import BoundaryCondition, TreeSpec, read_boundary_file

PASS, FAIL = "PASS", "FAIL"


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _degree(text: str):
    if text.lower() in ("inf", "infinity"):
        return INFINITY
    try:
        d = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"degree must be an integer or 'inf', got {text!r}")
    if d < 2:
        raise argparse.ArgumentTypeError(f"degree must be >= 2, got {d}")
    return d


def _fmt_d(d) -> str:
    return "inf" if d == INFINITY else str(int(d))


def build_parser() -> _Parser:
    parser = _Parser(prog="pottstree", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recursion", help="convergence of the recursion toward uniform")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=_degree, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--boundary", choices=["mono", "random"], default="mono")
    p.add_argument("--color", type=int, default=1)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("certify", help="two-step invariance and convexity probes")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=_degree, required=True,
                   help="integer degree or 'inf' for the limit family")
    p.add_argument("--alpha", type=float, default=1.0)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--c", type=float, help="single polytope level")
    group.add_argument("--c-grid", help="inclusive level grid start:stop:step")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--pairs", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--contract-to", type=float, default=None, metavar="EPS",
                   help="also certify the contraction sequence down to EPS")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--out-prefix", help="write <prefix>.csv and <prefix>.manifest.txt")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("lemmas", help="gradient ordering and positivity sweeps")
    p.add_argument("--q-max", type=int, default=8)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--gradient-points", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("oracle", help="exact partition function for one boundary condition")
    p.add_argument("--boundary-file", help="path to a 'q d n' + leaf colors file")
    p.add_argument("--q", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    wgroup = p.add_mutually_exclusive_group()
    wgroup.add_argument("--w", type=float, help="interaction weight in (0, 1]")
    wgroup.add_argument("--alpha", type=float, help="sets w = 1 - alpha*q/(d+1)")
    p.add_argument("--boundary", choices=["mono", "random"], default="mono")
    p.add_argument("--color", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pin-root", type=int, default=None)
    p.add_argument("--brute-check", action="store_true",
                   help="cross-check against direct enumeration")
    p.add_argument("--check-recursion", action="store_true",
                   help="cross-check dp log-ratios against the recursion pipeline")
    p.add_argument("--out", help="also write the text report to this path")
    return parser


def _write_manifest(path: str, args, started: float) -> None:
    """Write ``<path>.manifest.txt``: the run's command, version, arguments and wall time."""
    lines = [f"command={args.command}", f"code_version={code_version()}"]
    lines += [f"{k}={format_value(v)}" for k, v in vars(args).items() if k != "command"]
    lines.append(f"wall_time_s={format_value(time.time() - started)}")
    write_text_atomic(f"{path}.manifest.txt", "\n".join(lines) + "\n")


def _cmd_recursion(args) -> int:
    started = time.time()
    report = convergence_experiment(args.q, args.d, args.alpha, args.n_max,
                                    boundary=args.boundary, trials=args.trials,
                                    seed=args.seed, color=args.color)
    p, rows = report.parameters, []
    for n, dev, ratio in zip(p["depths"], p["max_deviations"], p["two_step_ratios"]):
        rows.append([n, p["boundary"], report.sample_count, dev, ratio])
        extra = f" ratio_vs_n-2={format_value(ratio)}" if ratio is not None else ""
        print(f"depth={n} max_deviation={format_value(dev)}{extra}")
    print(f"fitted_rate={format_value(p['fitted_rate'])} "
          f"rate_bound={format_value(p['rate_bound'])} "
          f"{PASS if report.passed else FAIL}")
    if args.out:
        write_csv_atomic(args.out, ["depth", "boundary", "trials", "max_deviation",
                                    "two_step_ratio"], rows)
        _write_manifest(args.out, args, started)
    return 0 if report.passed else 2


def _check_levels(levels, q: int) -> None:
    for c in levels:
        if not 0.0 < c <= q + 1.0 + 1e-12:
            raise DomainError(f"certification levels must lie in (0, q+1]; got {c}")


def _cmd_certify(args) -> int:
    started = time.time()
    params = ModelParams(args.q, args.d, args.alpha)
    if not params.alpha > 0.0:
        raise DomainError(f"certification requires alpha > 0, got {args.alpha}")
    if params.w < 0.0:
        raise DomainError(f"certification requires w >= 0, i.e. alpha*q <= d+1; got "
                          f"w={format_value(params.w)} at alpha*q={args.alpha * args.q}, "
                          f"d+1={args.d + 1}")
    if args.c is not None:
        levels = [args.c]
        _check_levels(levels, args.q)
    else:  # a grid's first and last points bound all of it; checked before it is expanded
        levels = parse_grid(args.c_grid, lambda ends: _check_levels(ends, args.q))
    check_contraction_target(args.contract_to, args.max_iters)
    if args.contract_to is not None and params.w == 0.0 and args.q > args.d + 1:
        # proper colourings with q >= Delta+1 are unique (Jonasson 2002), so an entry
        # FAIL would report the design's limit as the model's
        raise DomainError(f"--contract-to cannot certify w = 0 at q={args.q} > d+1="
                          f"{_fmt_d(args.d + 1)}: its entry level c1 = d*log(1/w) is infinite, "
                          "so the contraction chain has no start; run without --contract-to")
    for flag, count in (("--samples", args.samples), ("--pairs", args.pairs)):
        if count < 0:
            raise DomainError(f"{flag} must be >= 0, got {count}")

    invs = two_step_level(levels, params, args.samples, seed=args.seed, threads=args.threads)
    probes = convexity_probe(levels, params, args.pairs, seed=args.seed, threads=args.threads)
    rows, all_passed = [], True
    for c, inv, probe in zip(levels, invs, probes):
        estimate = inv.parameters["estimate"]
        rows.append(["two_step_level", args.q, _fmt_d(args.d), args.alpha, c,
                     inv.sample_count, args.seed, estimate,
                     inv.parameters["diagonal_bound"], inv.min_margin, "",
                     PASS if inv.passed else FAIL])
        print(f"two_step_level c={format_value(c)} estimate={format_value(estimate)} "
              f"margin={format_value(inv.min_margin)} {PASS if inv.passed else FAIL}")
        witness = ""
        if probe.witness is not None:
            witness = "x=" + "|".join(format_value(v) for v in probe.witness["x"]) + \
                      ";y=" + "|".join(format_value(v) for v in probe.witness["y"]) + \
                      ";level=" + format_value(probe.witness["pullback_level"])
        rows.append(["midpoint_convexity", args.q, _fmt_d(args.d), args.alpha, c,
                     probe.sample_count, args.seed, c - probe.min_margin, "",
                     probe.min_margin, witness, PASS if probe.passed else FAIL])
        print(f"midpoint_convexity c={format_value(c)} min_margin={format_value(probe.min_margin)} "
              f"{PASS if probe.passed else FAIL}")
        all_passed &= inv.passed and probe.passed

    if args.contract_to is not None and params.w == 0.0:
        # q = d+1 (alpha = 1), as larger q is refused above: proper colourings, where a
        # pinned leaf's image d*log(w) is infinite, so no chain starts from c1, and a
        # frozen boundary forces the root at every depth, so uniqueness fails although
        # the level rows pass
        reason = "w = 0 so c1 = d*log(1/w) = inf; the contraction chain is not run"
        rows.append(["entry", args.q, _fmt_d(args.d), args.alpha, math.inf, 0, args.seed,
                     "", "", "", reason, FAIL])
        print(f"entry {FAIL}: {reason}")
        all_passed = False
    elif args.contract_to is not None:
        try:
            seq = contraction_sequence(params, args.contract_to, args.max_iters,
                                       sample_count=args.samples, seed=args.seed,
                                       threads=args.threads)
            reached = seq[-1] < args.contract_to
            print(f"contraction_sequence steps={len(seq) - 1} "
                  f"final={format_value(seq[-1])} {PASS if reached else FAIL}")
            all_passed &= reached
        except CertificationError as exc:
            print(f"contraction_sequence {FAIL}: {exc}")
            all_passed = False

    if args.out_prefix:
        write_csv_atomic(f"{args.out_prefix}.csv",
                         ["check", "q", "d", "alpha", "c", "samples", "seed",
                          "estimate", "diagonal_bound", "margin", "witness", "status"],
                         rows)
        _write_manifest(args.out_prefix, args, started)
    return 0 if all_passed else 2


def _cmd_lemmas(args) -> int:
    started = time.time()
    if args.q_max < 3:
        raise DomainError(f"--q-max must be >= 3, got {args.q_max}")
    check_sweep_sizes(args.trials, args.gradient_points)
    rows, all_passed = [], True
    for q in range(3, args.q_max + 1):
        for l in range(1, q - 1):
            rep = positivity_sweep(q, l, args.trials, seed=args.seed, threads=args.threads)
            p = rep.parameters
            rows.append([q, l, p["x1"], p["x2"], p["x3"], p["gap"], p["line_value"],
                         p["line_slope"], rep.min_margin, rep.seed])
            all_passed &= rep.passed
            print(f"positivity q={q} l={l} min_margin={format_value(rep.min_margin)} "
                  f"{PASS if rep.passed else FAIL}")
        grad = gradient_identity_sweep(q, args.gradient_points, seed=args.seed)
        all_passed &= grad.passed
        print(f"gradient_identity q={q} "
              f"max_scaled_error={format_value(grad.parameters['max_scaled_error'])} "
              f"{PASS if grad.passed else FAIL}")
    if args.out:
        write_csv_atomic(args.out, ["q", "l", "x1", "x2", "x3", "Delta", "r_l1", "slope",
                                    "min_margin", "seed"], rows)
        _write_manifest(args.out, args, started)
    return 0 if all_passed else 2


def _cmd_oracle(args) -> int:
    started = time.time()
    if args.boundary_file:
        bf = read_boundary_file(args.boundary_file)
        for name, flag in (("q", args.q), ("d", args.d), ("n", args.n)):
            if flag is not None and flag != getattr(bf, name):
                raise DomainError(f"--{name}={flag} conflicts with boundary file ({getattr(bf, name)})")
        q, d, n = bf.q, bf.d, bf.n
    else:
        if args.q is None or args.d is None or args.n is None:
            raise DomainError("--q, --d and --n are required without --boundary-file")
        q, d, n = args.q, args.d, args.n
        if q < 2:  # before the color checks below, whose range it sets
            raise DomainError(f"q must be an integer >= 2, got {q}")
        if n < 1:
            raise DomainError("depth n must be >= 1 (a depth-0 root is just a pinned vertex)")
    if not 1 <= args.color <= q:
        raise DomainError(f"color must lie in 1..{q}, got {args.color}")
    if args.pin_root is not None and not 1 <= args.pin_root <= q:
        raise DomainError(f"root color {args.pin_root} outside 1..{q}")
    _check_regular_dp_budget(d, n)
    tree = TreeSpec.regular(d, n)
    if args.boundary_file:
        boundary = BoundaryCondition.from_leaf_colors(tree, bf.leaf_colors)
    elif args.boundary == "mono":
        boundary = BoundaryCondition.monochromatic(tree, args.color)
    else:
        boundary = BoundaryCondition.random(tree, q, spawn_rng(args.seed))

    if args.w is not None:
        w = args.w
    else:
        alpha = 1.0 if args.alpha is None else args.alpha
        if not alpha > 0.0:
            raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
        w = ModelParams(q, d, alpha).w

    lines = [f"q={q} d={d} n={n} w={format_value(w)}"]
    log_z, p, ratios, pinned = root_summary(tree, q, w, boundary)
    lines.append(f"log_Z={format_value(log_z)}")
    try:
        z = math.exp(log_z)
    except OverflowError:  # Z beyond the float range
        z = math.inf
    lines.append(f"Z={format_value(z)}")
    if args.pin_root is not None:
        # a pinned row's log-sum-exp is its one finite entry, bit for bit
        lines.append(f"log_Z_root_pinned_{args.pin_root}={format_value(pinned[args.pin_root - 1])}")
    lines.append("conditional_distribution=" + ",".join(format_value(v) for v in p))
    lines.append("log_ratios=" + ",".join(format_value(v) for v in ratios))

    failed = False
    if args.brute_check:
        zb = brute_force_Z(tree, q, w, boundary)
        rel = abs(zb - z) / max(abs(zb), 1e-300)
        ok = rel <= 1e-9
        lines.append(f"brute_force_Z={format_value(zb)}")
        lines.append(f"brute_vs_dp_rel_err={format_value(rel)} {PASS if ok else FAIL}")
        failed |= not ok
    if args.check_recursion:
        # every boundary above is made by a constructor that pins the leaves in BFS order
        rec = recursion_root_log_ratios(q, d, n, w, boundary.pins[1])
        diff = float(np.abs(rec - ratios).max())
        ok = diff <= 1e-9
        lines.append("recursion_log_ratios=" + ",".join(format_value(v) for v in rec))
        lines.append(f"recursion_vs_dp_max_abs_diff={format_value(diff)} {PASS if ok else FAIL}")
        failed |= not ok

    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        write_text_atomic(args.out, text)
        _write_manifest(args.out, args, started)
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "recursion": _cmd_recursion,
        "certify": _cmd_certify,
        "lemmas": _cmd_lemmas,
        "oracle": _cmd_oracle,
    }
    try:
        check_seed(args.seed)  # every command takes one; refused before any work or output
        return handlers[args.command](args)
    except (DomainError, ParseError, BudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
