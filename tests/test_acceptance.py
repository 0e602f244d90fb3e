"""End-to-end acceptance battery.

Each test covers one numbered claim about the package, at the stated
tolerance and runtime budget, and prints a one-line summary; run
``pytest -rA`` (or ``-s``) to see the lines for passing tests too.
"""

import itertools
import math
import time

import numpy as np

import pottstree as pt
from pottstree.cli import main as cli_main


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {detail} -> {'PASS' if ok else 'FAIL'}")


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    w = 0.6
    worst = 0.0
    rng = np.random.default_rng(101)
    for q, d, n in itertools.product((3, 4, 5), (2, 3), (1, 2, 3)):
        tree = pt.TreeSpec.regular(d, n)
        leaves = tree.leaves()
        free = tree.n_vertices - len(leaves)
        brute_feasible = q**free <= 100_000
        for _ in range(50):
            colors = rng.integers(1, q + 1, size=len(leaves))
            boundary = pt.BoundaryCondition.from_leaf_colors(tree, colors)
            ref = pt.root_log_ratios(tree, q, w, boundary)
            rec = pt.recursion_root_log_ratios(q, d, n, w, colors)
            worst = max(worst, float(np.abs(rec - ref).max()))
            if brute_feasible:
                logs = [math.log(pt.brute_force_Z(tree, q, w, boundary, pinned_root=c))
                        for c in range(1, q + 1)]
                brute = np.array(logs[:-1]) - logs[-1]
                worst = max(worst, float(np.abs(brute - ref).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60
    _report("criterion 01", ok,
            f"oracle equivalence: max abs diff {worst:.3e} (tol 1e-9), {elapsed:.1f}s (< 60s)")
    assert worst <= 1e-9
    assert elapsed < 60


def test_criterion_02_membership_reduction():
    t0 = time.perf_counter()
    c = 2.0
    worst_margin_diff = 0.0
    mismatched_flags = 0
    for q in (3, 4, 5):
        rng = np.random.default_rng(200 + q)
        points = rng.normal(scale=2.0, size=(10_000, q - 1))
        perms = pt.all_permutations(q)
        orbit = np.full(len(points), np.inf)
        for perm in perms:
            orbit = np.minimum(orbit, pt.apply_permutation(perm, points).sum(axis=1))
        orbit += c
        margin = c - pt.level(points)
        worst_margin_diff = max(worst_margin_diff, float(np.abs(margin - orbit).max()))
        mismatched_flags += int(((margin >= 0) != (orbit >= 0)).sum())
    elapsed = time.perf_counter() - t0
    ok = worst_margin_diff <= 1e-12 and mismatched_flags == 0 and elapsed < 10
    _report("criterion 02", ok,
            f"membership reduction: margin diff {worst_margin_diff:.3e} (tol 1e-12), "
            f"{mismatched_flags} flag mismatches, {elapsed:.1f}s (< 10s)")
    assert worst_margin_diff <= 1e-12
    assert mismatched_flags == 0
    assert elapsed < 10


def test_criterion_03_fixed_point_and_linearization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_fixed = 0.0
    worst_jac = 0.0
    worst_fd = 0.0
    for _ in range(20):
        q = int(rng.integers(3, 9))
        d = int(rng.integers(2, 500))
        alpha = float(rng.uniform(0.05, 1.0))
        params = pt.ModelParams(q, d, alpha)
        origin = np.zeros(q - 1)
        worst_fixed = max(worst_fixed, float(np.abs(pt.log_ratio_map(origin, params)).max()))
        rate = -alpha * d / (d + 1 - alpha)
        jac = pt.log_ratio_map_jacobian(origin, params)
        worst_jac = max(worst_jac, float(np.abs(jac - rate * np.eye(q - 1)).max()))
        step = 1e-6
        for j in range(q - 1):
            h = np.zeros(q - 1)
            h[j] = step
            fd = (pt.log_ratio_map(h, params) - pt.log_ratio_map(-h, params)) / (2 * step)
            worst_fd = max(worst_fd, float(np.abs(fd - jac[:, j]).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_fixed == 0.0 and worst_jac <= 1e-12 and worst_fd <= 1e-6 and elapsed < 5
    _report("criterion 03", ok,
            f"fixed point exact ({worst_fixed:.1e}), jacobian err {worst_jac:.3e} (tol 1e-12), "
            f"fd err {worst_fd:.3e} (tol 1e-6), {elapsed:.1f}s (< 5s)")
    assert worst_fixed == 0.0
    assert worst_jac <= 1e-12
    assert worst_fd <= 1e-6
    assert elapsed < 5


def test_criterion_04_diagonal_profile_contraction_and_taylor():
    t0 = time.perf_counter()
    xs = np.arange(1, 1001) * 0.05  # (0, 50] step 0.05
    worst_rel = 0.0
    for q in range(3, 11):
        phi = pt.diagonal_contraction(xs, q)
        assert (phi < xs).all()
        x = 1e-2
        coeff = (x - pt.diagonal_contraction(x, q)) / x**3
        target = 1.0 / (6 * (q - 1) ** 2)
        worst_rel = max(worst_rel, abs(coeff - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 0.01 and elapsed < 5
    _report("criterion 04", ok,
            f"profile below identity on (0,50] for q=3..10; cubic coefficient rel err "
            f"{worst_rel:.3e} (tol 1e-2), {elapsed:.1f}s (< 5s)")
    assert worst_rel <= 0.01
    assert elapsed < 5


def test_criterion_05_two_step_invariance():
    t0 = time.perf_counter()
    q = 5
    levels = [0.5 * k for k in range(1, 13)]  # 0.5, 1, ..., 6
    min_margin_finite = np.inf
    worst_limit_excess = -np.inf
    reps = pt.two_step_level(levels, pt.ModelParams(q, 1000, 1.0), sample_count=100_000, seed=0)
    reps_inf = pt.two_step_level(levels, pt.ModelParams(q, pt.INFINITY), sample_count=100_000,
                                 seed=0)
    for c, rep, rep_inf in zip(levels, reps, reps_inf):
        min_margin_finite = min(min_margin_finite, rep.min_margin)
        assert rep.passed and rep.min_margin > 0
        assert rep_inf.passed and rep_inf.min_margin > 0
        excess = rep_inf.parameters["estimate"] - pt.diagonal_contraction(c, q)
        worst_limit_excess = max(worst_limit_excess, excess)
    elapsed = time.perf_counter() - t0
    ok = min_margin_finite > 0 and worst_limit_excess <= 1e-6 and elapsed < 300
    _report("criterion 05", ok,
            f"two-step invariance: min finite-d margin {min_margin_finite:.3e} (> 0), "
            f"limit excess over diagonal profile {worst_limit_excess:.3e} (tol 1e-6), "
            f"{elapsed:.1f}s (< 300s)")
    assert min_margin_finite > 0
    assert worst_limit_excess <= 1e-6
    assert elapsed < 300


def test_criterion_06_convexity_probe_and_witness_search():
    t0 = time.perf_counter()
    worst_violation = -np.inf
    for q in (3, 4, 5):
        params = pt.ModelParams(q, 10_000, 1.0)
        for probe in pt.convexity_probe([0.5, 2.0, q + 1.0], params, pair_count=100_000, seed=0,
                                        threads=4):
            worst_violation = max(worst_violation, -probe.min_margin)
            assert probe.min_margin >= -1e-9, (q, probe.parameters["c"], probe.min_margin)
    witness = pt.convexity_witness_search(pt.ModelParams(3, 3, 1.0), [6.0, 8.0, 12.0],
                                          pairs_per_c=20_000, seed=0)
    if witness is None:
        search_note = "no witness within budget"
    else:
        x, y = np.asarray(witness["x"]), np.asarray(witness["y"])
        assert pt.level(x) <= witness["c"] * (1 + 1e-12)
        assert pt.level(y) <= witness["c"] * (1 + 1e-12)
        assert witness["violation"] > 1e-6
        search_note = (f"witness at low degree: c={witness['c']:g}, "
                       f"pullback level {witness['pullback_level']:.6g} "
                       f"(violation {witness['violation']:.3g})")
    elapsed = time.perf_counter() - t0
    ok = worst_violation <= 1e-9 and elapsed < 600
    _report("criterion 06", ok,
            f"no midpoint violation at d=10^4 (worst {worst_violation:.3e}, slack 1e-9); "
            f"{search_note}; {elapsed:.1f}s (< 600s)")
    assert worst_violation <= 1e-9
    assert elapsed < 600


def test_criterion_07_gradient_ordering_battery():
    t0 = time.perf_counter()
    min_margin = np.inf
    worst_closed = 0.0
    worst_linear = 0.0
    for q in range(3, 9):
        for l in range(1, q - 1):
            rep = pt.positivity_sweep(q, l, trials=100_000, seed=0, threads=4)
            assert rep.passed, (q, l, rep)
            min_margin = min(min_margin, rep.min_margin)
            worst_closed = max(worst_closed, rep.parameters["closed_form_err"])
            worst_linear = max(worst_linear, rep.parameters["linearity_err"])
        grad = pt.gradient_identity_sweep(q, points=1000, seed=0)
        assert grad.passed, (q, grad)
    elapsed = time.perf_counter() - t0
    ok = min_margin > 0 and worst_closed <= 1e-9 and worst_linear <= 1e-9 and elapsed < 600
    _report("criterion 07", ok,
            f"gap positivity over 10^5 draws per (q,l): min margin {min_margin:.3e} (> 0), "
            f"closed-form err {worst_closed:.3e}, linearity err {worst_linear:.3e} (tol 1e-9), "
            f"gradient fd err <= 1e-6 for q=3..8, {elapsed:.1f}s (< 600s)")
    assert min_margin > 0
    assert worst_closed <= 1e-9
    assert worst_linear <= 1e-9
    assert elapsed < 600


def test_criterion_08_convergence_decay():
    t0 = time.perf_counter()
    q, d, alpha = 5, 200, 0.5
    reports = [
        pt.convergence_experiment(q, d, alpha, n_max=12, boundary="mono"),
        pt.convergence_experiment(q, d, alpha, n_max=12, boundary="random",
                                  trials=50, seed=0),
    ]
    worst_ratio = 0.0
    for rep in reports:
        assert rep.passed
        p = rep.parameters
        evens = [dev for n, dev in zip(p["depths"], p["max_deviations"]) if n % 2 == 0]
        assert all(b < a for a, b in zip(evens, evens[1:]))
        ratios = [r for r in p["two_step_ratios"] if r is not None]
        assert all(r <= alpha * 1.05 for r in ratios)
        worst_ratio = max(worst_ratio, max(ratios))
    free = pt.convergence_experiment(q, d, 0.0, n_max=12, boundary="mono")
    free_dev = max(free.parameters["max_deviations"])
    elapsed = time.perf_counter() - t0
    ok = free_dev <= 1e-14 and elapsed < 300
    _report("criterion 08", ok,
            f"deviation decay at q=5, d=200, alpha=0.5: worst two-depth ratio "
            f"{worst_ratio:.4f} (<= {alpha * 1.05}); w=1 deviation {free_dev:.1e} "
            f"(tol 1e-14), {elapsed:.1f}s (< 300s)")
    assert free_dev <= 1e-14
    assert elapsed < 300


def test_criterion_09_degree_rescaling_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    worst_ratio_excess = -np.inf
    for _ in range(1000):
        q = int(rng.integers(3, 9))
        d = int(rng.integers(2, 1000))
        alpha = float(rng.uniform(0.05, 1.0))
        params = pt.ModelParams(q, d, alpha)
        d_eff, ratio = pt.degree_rescaling(params)
        worst_ratio_excess = max(worst_ratio_excess, ratio - alpha)
        x = rng.normal(scale=1.5, size=q - 1)
        lhs = pt.log_ratio_map(x, params)
        rhs = ratio * pt.log_ratio_map(x, pt.ModelParams(q, d_eff, 1.0))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_ratio_excess <= 1e-15 and elapsed < 5
    _report("criterion 09", ok,
            f"rescaling identity: max abs diff {worst:.3e} (tol 1e-12), "
            f"scale factor <= alpha (excess {worst_ratio_excess:.1e}), {elapsed:.1f}s (< 5s)")
    assert worst <= 1e-12
    assert worst_ratio_excess <= 1e-15
    assert elapsed < 5


def test_criterion_10_reproducible_csv_output(tmp_path, capsys):
    runs = {
        "certify": lambda out, threads: cli_main(
            ["certify", "--q", "4", "--d", "500", "--alpha", "0.8",
             "--c-grid", "0.5:2.5:1.0", "--samples", "40000", "--pairs", "40000",
             "--seed", "12", "--threads", threads, "--out-prefix", str(out)]),
        "lemmas": lambda out, threads: cli_main(
            ["lemmas", "--q-max", "4", "--trials", "60000", "--seed", "12",
             "--gradient-points", "200", "--threads", threads, "--out", str(out) + ".csv"]),
    }
    all_equal = True
    for name, run in runs.items():
        blobs = []
        for threads in ("1", "4", "8"):
            out = tmp_path / f"{name}-{threads}"
            assert run(out, threads) == 0
            blobs.append((tmp_path / f"{name}-{threads}.csv").read_bytes())
        all_equal &= blobs[0] == blobs[1] == blobs[2]
        assert blobs[0] == blobs[1] == blobs[2], f"{name} CSVs differ across thread counts"
    # recursion runs on one thread: the same argv twice must give the same bytes
    blobs = []
    for k in range(2):
        out = tmp_path / f"recursion-{k}.csv"
        assert cli_main(["recursion", "--q", "4", "--d", "50", "--alpha", "0.7", "--n-max", "8",
                         "--boundary", "random", "--trials", "10", "--seed", "12",
                         "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    all_equal &= blobs[0] == blobs[1]
    assert blobs[0] == blobs[1], "recursion CSVs differ between identical runs"
    capsys.readouterr()
    _report("criterion 10", all_equal,
            "byte-identical CSVs across --threads {1,4,8} for certify and lemmas, "
            "and across two identical recursion runs")
    assert all_equal
