"""Command-line entry points: outputs, exit codes, and determinism."""

import hashlib
import re
import shlex
import subprocess
import tracemalloc
from pathlib import Path

import pytest

from pottstree import ModelParams, TreeSpec, cli, oracle, reporting
from pottstree.cli import build_parser, main
from pottstree.reporting import format_value

README = Path(__file__).resolve().parent.parent / "README.md"


def _write_boundary_file(path, q, d, n, leaf_colors):
    """The boundary file format: a 'q d n' header, then one '<leaf_index> <color>' line per leaf."""
    path.write_text(f"{q} {d} {n}\n" + "".join(f"{i} {c}\n" for i, c in enumerate(leaf_colors)))


def test_recursion_command_prints_depth_table(capsys):
    code = main(["recursion", "--q", "3", "--d", "10", "--alpha", "0.5",
                 "--n-max", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "depth=1" in out and "depth=6" in out
    assert "fitted_rate=" in out
    assert out.strip().endswith("PASS")


def test_recursion_command_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(["recursion", "--q", "3", "--d", "8", "--alpha", "0.6",
                 "--n-max", "5", "--boundary", "random", "--trials", "5",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "depth,boundary,trials,max_deviation,two_step_ratio"
    assert len(lines) == 6
    manifest = (tmp_path / "conv.csv.manifest.txt").read_text()
    assert "command=recursion" in manifest
    assert "seed=2" in manifest
    capsys.readouterr()


# subcommand -> (flags, written file, argument names in parser order)
MANIFEST_RUNS = {
    "recursion": (["--q", "3", "--d", "8", "--alpha", "0.6", "--n-max", "3",
                   "--seed", "2", "--out", "{tmp}/conv.csv"], "conv.csv",
                  ["q", "d", "alpha", "n_max", "boundary", "color", "trials", "seed",
                   "out"]),
    "certify": (["--q", "3", "--d", "inf", "--c", "2.0", "--samples", "2000",
                 "--pairs", "1000", "--out-prefix", "{tmp}/cert"], "cert",
                ["q", "d", "alpha", "c", "c_grid", "samples", "pairs", "seed",
                 "contract_to", "max_iters", "out_prefix", "threads"]),
    "lemmas": (["--q-max", "3", "--trials", "2000", "--gradient-points", "50",
                "--out", "{tmp}/lemmas.csv"], "lemmas.csv",
               ["q_max", "trials", "gradient_points", "seed", "out", "threads"]),
    "oracle": (["--q", "3", "--d", "2", "--n", "2", "--w", "0.5",
                "--out", "{tmp}/report.txt"], "report.txt",
               ["boundary_file", "q", "d", "n", "w", "alpha", "boundary", "color", "seed",
                "pin_root", "brute_check", "check_recursion", "out"]),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_manifest_lists_command_version_arguments_and_wall_time(command, tmp_path, capsys):
    flags, written, keys = MANIFEST_RUNS[command]
    argv = [command] + [f.format(tmp=tmp_path) for f in flags]
    assert main(argv) == 0
    args = build_parser().parse_args(argv)
    lines = (tmp_path / f"{written}.manifest.txt").read_text().splitlines()
    assert lines[0] == f"command={command}"
    assert lines[1].startswith("code_version=") and lines[1] != "code_version="
    assert lines[2:-1] == [f"{k}={format_value(getattr(args, k))}" for k in keys]
    key, value = lines[-1].split("=")
    assert key == "wall_time_s" and float(value) >= 0.0
    capsys.readouterr()


def test_recursion_command_rejects_limit_degree(capsys):
    code = main(["recursion", "--q", "3", "--d", "inf"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("boundary, color", [("mono", "0"), ("mono", "6"),
                                             ("random", "0"), ("random", "9")],
                         ids=["0", "6", "random-0", "random-9"])
def test_recursion_command_rejects_colors_outside_one_to_q(boundary, color, capsys):
    # mono: 0 used to index counts[0, -1] and run as color 5; 6 raised
    # IndexError.  random: the color went unread into the manifest.
    code = main(["recursion", "--q", "5", "--d", "10", "--n-max", "4",
                 "--boundary", boundary, "--color", color])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: color must lie in 1..5, got {color}\n"


def test_certify_command_single_level(capsys):
    code = main(["certify", "--q", "3", "--d", "inf", "--c", "2.0",
                 "--samples", "2000", "--pairs", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "two_step_level" in out and "midpoint_convexity" in out
    assert "FAIL" not in out


def test_certify_command_grid_and_contraction(tmp_path, capsys):
    prefix = tmp_path / "cert"
    code = main(["certify", "--q", "4", "--d", "200", "--alpha", "0.9",
                 "--c-grid", "1.0:3.0:1.0", "--samples", "1500", "--pairs", "800",
                 "--contract-to", "0.9", "--max-iters", "40",
                 "--out-prefix", str(prefix)])
    out = capsys.readouterr().out
    assert code == 0
    assert "contraction_sequence" in out
    lines = (tmp_path / "cert.csv").read_text().strip().splitlines()
    assert lines[0].startswith("check,q,d,alpha,c,")
    assert len(lines) == 1 + 2 * 3  # two checks per level
    assert (tmp_path / "cert.manifest.txt").exists()


def test_certify_command_rejects_levels_beyond_invariant_range(capsys):
    code = main(["certify", "--q", "3", "--d", "inf", "--c", "9.0"])
    assert code == 1
    assert "(0, q+1]" in capsys.readouterr().err


def test_certify_command_rejects_a_negative_weight(tmp_path, capsys):
    # alpha = 1 with q > d+1 puts w below 0; this used to sample there and print PASS lines
    code = main(["certify", "--q", "5", "--d", "2", "--c", "6", "--samples", "2000",
                 "--pairs", "2000", "--out-prefix", str(tmp_path / "cert")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: certification requires w >= 0, i.e. alpha*q <= d+1; "
                            "got w=-0.6666666666666667 at alpha*q=5.0, d+1=3\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("grid, message", [
    ("nan:1:0.5", "grid start must be finite, got nan"),
    ("0.5:2:nan", "grid step must be finite, got nan"),
    ("0.5:inf:1", "grid stop must be finite, got inf"),
    ("nan", "grid value must be finite, got nan"),
    # about 1e18 points: refused from its last point, before the grid is expanded
    ("0.5:1e9:1e-9", "certification levels must lie in (0, q+1]; got 1000000000.0000001"),
    ("-1:2:1e-12", "certification levels must lie in (0, q+1]; got -1.0"),
])
def test_certify_command_refuses_a_bad_grid_before_expanding_it(grid, message, monkeypatch,
                                                                tmp_path, capsys):
    expanded = []
    monkeypatch.setattr(reporting, "_grid_points", lambda *grid: expanded.append(grid) or [])
    code = main(["certify", "--q", "5", "--d", "10", "--samples", "10", "--pairs", "10",
                 f"--c-grid={grid}", "--out-prefix", str(tmp_path / "cert")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert expanded == []
    assert not list(tmp_path.iterdir())


def test_certify_command_accepts_a_grid_whose_stop_is_past_q_plus_1_but_no_point_is(tmp_path,
                                                                                    capsys):
    # 1:6.5:1 at q=5 is the levels 1..6, all in (0, 6]
    code = main(["certify", "--q", "5", "--d", "10", "--samples", "10", "--pairs", "10",
                 "--c-grid", "1:6.5:1", "--out-prefix", str(tmp_path / "cert")])
    out = capsys.readouterr().out
    assert code in (0, 2)
    levels = [line.split()[1] for line in out.splitlines() if line.startswith("two_step_level")]
    assert levels == [f"c={c}.0" for c in range(1, 7)]


def test_manifests_start_one_git_process(monkeypatch, tmp_path, capsys):
    calls = []
    run = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: calls.append(a) or run(*a, **k))
    reporting.code_version.cache_clear()
    for name in ("a", "b"):
        assert main(["oracle", "--q", "3", "--d", "2", "--n", "2", "--w", "0.5",
                     "--out", str(tmp_path / f"{name}.txt")]) == 0
    manifests = [(tmp_path / f"{name}.txt.manifest.txt").read_text().splitlines()[1]
                 for name in ("a", "b")]
    assert manifests[0] == manifests[1] != "code_version="
    assert len(calls) == 1 and calls[0][0][0] == "git"
    capsys.readouterr()


@pytest.mark.parametrize("flags, message", [
    (["--contract-to", "-1"], "epsilon must be positive, got -1.0"),
    (["--contract-to", "1e-2", "--max-iters", "0"], "max_iters must be >= 1, got 0"),
    (["--max-iters", "0"], "max_iters must be >= 1, got 0"),
    (["--max-iters", "-5"], "max_iters must be >= 1, got -5"),
    (["--contract-to", "inf"], "epsilon must be finite, got inf"),
])
def test_certify_command_checks_the_contraction_target_first(flags, message, tmp_path, capsys):
    # the first two used to run the whole level grid, print its PASS lines, then
    # fail; without --contract-to, --max-iters went unread into the manifest
    code = main(["certify", "--q", "5", "--d", "1000", "--c-grid", "0.5:6.0:0.5",
                 "--samples", "2000", "--pairs", "2000", *flags,
                 "--out-prefix", str(tmp_path / "cert")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
    assert "two_step_level" not in captured.out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--samples", "--pairs"])
def test_certify_command_refuses_a_negative_count_before_any_sweep(flag, monkeypatch, tmp_path,
                                                                  capsys):
    # --pairs -1 used to run the whole two-step sweep first, then fail naming neither flag
    monkeypatch.setattr(cli, "two_step_level", lambda *a, **k: pytest.fail("ran the sweep"))
    counts = {"--samples": "2000", "--pairs": "2000", flag: "-1"}
    code = main(["certify", "--q", "5", "--d", "1000", "--c-grid", "0.5:6.0:0.5",
                 *(a for item in counts.items() for a in item),
                 "--out-prefix", str(tmp_path / "cert")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 0, got -1\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, written", [
    (["certify", "--q", "3", "--d", "inf", "--c", "2.0", "--samples", "2000",
      "--threads", "0", "--out-prefix", "{tmp}/cert"], "cert.csv"),
    (["lemmas", "--q-max", "3", "--trials", "2000", "--threads", "-5",
      "--out", "{tmp}/lemmas.csv"], "lemmas.csv"),
])
def test_commands_reject_fewer_than_one_thread(argv, written, tmp_path, capsys):
    # both used to run inline, exit 0 and write the value to the manifest
    code = main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    value = argv[argv.index("--threads") + 1]
    assert code == 1
    assert captured.err == f"error: threads must be >= 1, got {value}\n"
    assert captured.out == ""
    assert not (tmp_path / written).exists()


@pytest.mark.parametrize("argv", [
    ["certify", "--q", "3", "--d", "inf", "--c", "2.0", "--samples", "2000", "--pairs", "2000",
     "--out-prefix", "{tmp}/cert"],
    ["recursion", "--q", "5", "--d", "20", "--n-max", "3", "--boundary", "random",
     "--out", "{tmp}/conv.csv"],
    ["lemmas", "--q-max", "3", "--trials", "2000", "--out", "{tmp}/lemmas.csv"],
    ["oracle", "--q", "3", "--d", "2", "--n", "2", "--boundary", "random", "--out", "{tmp}/o.txt"],
    ["certify", "--q", "5", "--d", "8", "--alpha", "0.5", "--c", "2", "--samples", "0",
     "--pairs", "0", "--contract-to", "0.5", "--out-prefix", "{tmp}/cert"],
    ["recursion", "--q", "3", "--d", "3", "--n-max", "3", "--out", "{tmp}/conv.csv"],
    ["oracle", "--q", "3", "--d", "3", "--n", "2", "--out", "{tmp}/o.txt"],
], ids=["certify", "recursion", "lemmas", "oracle",
        "certify_without_draws", "recursion_mono", "oracle_mono"])
def test_commands_refuse_a_negative_seed(argv, tmp_path, capsys):
    # the first four used to end in numpy's "expected non-negative integer"
    # traceback; the last three drew nothing, so the seed was never checked
    code = main([a.format(tmp=tmp_path) for a in argv] + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("alpha, code, line", [
    ("0.5", 0, "contraction_sequence steps=5 final=0.006077241238986299 PASS"),
    ("1.0", 2, "contraction_sequence FAIL: the diagonal lower chain is still at "
               "0.47932709344859226 after 200 steps, so no sampled level falls below "
               "epsilon=0.01 within max_iters=200 steps; no samples were drawn; "
               "params=ModelParams(q=5, d=1000, alpha=1.0, w=0.995004995004995)"),
])
def test_readme_certify_examples_print_their_contraction_line(alpha, code, line, capsys):
    # the README grid runs: alpha=0.5 samples the whole chain, alpha=1 is refused unsampled
    assert main(["certify", "--q", "5", "--alpha", alpha, "--d", "1000",
                 "--c-grid", "0.5:6.0:0.5", "--samples", "100000", "--pairs", "100000",
                 "--seed", "0", "--contract-to", "1e-2"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == line
    assert [ln for ln in lines if "FAIL" in ln] == ([line] if code else [])


@pytest.mark.parametrize("q", [3, 4, 5])
def test_certify_fails_the_entry_at_zero_weight(q, tmp_path, capsys, monkeypatch):
    # (q, q-1, 1) has w = 0: proper colourings of the q-regular tree, where the
    # Gibbs measure is not unique; the level rows pass, so the entry must fail
    monkeypatch.setattr(cli, "contraction_sequence",
                        lambda *args, **kwargs: pytest.fail("the chain drew samples"))
    code = main(["certify", "--q", str(q), "--d", str(q - 1), "--alpha", "1", "--c", str(q + 1),
                 "--samples", "20000", "--pairs", "0", "--seed", "0", "--contract-to", "1",
                 "--out-prefix", str(tmp_path / "cert")])
    lines = capsys.readouterr().out.splitlines()
    reason = "w = 0 so c1 = d*log(1/w) = inf; the contraction chain is not run"
    assert code == 2
    assert [ln for ln in lines if "FAIL" in ln] == [lines[-1]] == [f"entry FAIL: {reason}"]
    rows = (tmp_path / "cert.csv").read_text().splitlines()
    assert len(rows) == 4
    assert rows[-1] == f"entry,{q},{q - 1},1.0,inf,0,0,,,,{reason},FAIL"


@pytest.mark.parametrize("q, d, alpha", [(4, 2, "0.75"), (6, 3, str(2 / 3)),
                                         (7, 3, "0.5714285714285714")])
def test_certify_refuses_contraction_at_zero_weight_above_q_equal_d_plus_1(
        q, d, alpha, tmp_path, capsys, monkeypatch):
    # w = 0 with q >= d+2: proper colourings with q >= Delta+1, whose Gibbs measure is
    # unique, so the entry's infinite c1 is a limit of the design, refused before any draw
    for name in ("two_step_level", "convexity_probe", "contraction_sequence"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("a sweep drew samples"))
    assert ModelParams(q, d, float(alpha)).w == 0.0
    code = main(["certify", "--q", str(q), "--d", str(d), "--alpha", alpha, "--c", "5",
                 "--samples", "2000", "--pairs", "0", "--seed", "0", "--contract-to", "1",
                 "--out-prefix", str(tmp_path / "cert")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: --contract-to cannot certify w = 0 at q={q} > d+1={d + 1}: "
                            "its entry level c1 = d*log(1/w) is infinite, so the contraction "
                            "chain has no start; run without --contract-to\n")
    assert not (tmp_path / "cert.csv").exists()


@pytest.mark.parametrize("argv, code, stdout, csv", [
    # the alpha=1 grid, whose contraction chain is refused unsampled
    (["--d", "1000", "--c-grid", "0.5:6.0:2.75", "--contract-to", "1e-2"], 2,
     "ed4a4e45a2fda56ef2cefc504bffc16e4a6907e5ee75219d850f70c89d999fbd",
     "d85f431e4fdb7de44b54de4a70b672e6b8e99bb0527edae4ab71c50d3a0f9062"),
    # the alpha=0.5 grid, whose sampled chain contracts
    (["--alpha", "0.5", "--d", "1000", "--c-grid", "0.5:6.0:2.75", "--contract-to", "1e-2"], 0,
     "bc05046eb897974103ef2f53071c3ff9bbc4d1d31da4d7762a2b5cfc1b1fc5a9",
     "e9ef463f6a7d3ecd7c3688a23bd668715b1439a35a99b81e2a4ca412f1c06271"),
    (["--d", "inf", "--c", "4.0"], 0,
     "3db5ea2c6094d36f969a793967168a962e75ac495ccbbec92f966934a430c61b",
     "019ff55aa81629028654b00c82aceefd37064fda03f89047f1fc27cb17930d4f"),
])
def test_certify_output_digests_are_pinned(argv, code, stdout, csv, tmp_path, capsys):
    # pins the certify outputs byte for byte: any change to a sampler, map or level shows here
    assert main(["certify", "--q", "5", *argv, "--samples", "2000", "--pairs", "2000",
                 "--seed", "0", "--out-prefix", str(tmp_path / "cert")]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout
    assert hashlib.sha256((tmp_path / "cert.csv").read_bytes()).hexdigest() == csv


def test_certify_csv_is_byte_identical_across_threads(tmp_path, capsys):
    blobs = []
    for threads in ("1", "4"):
        prefix = tmp_path / f"t{threads}"
        code = main(["certify", "--q", "3", "--d", "1000", "--c-grid", "0.5:2.5:0.5",
                     "--samples", "30000", "--pairs", "30000", "--seed", "7",
                     "--threads", threads, "--out-prefix", str(prefix)])
        assert code == 0
        blobs.append((tmp_path / f"t{threads}.csv").read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_lemmas_command(tmp_path, capsys):
    out = tmp_path / "lemmas.csv"
    code = main(["lemmas", "--q-max", "4", "--trials", "2000",
                 "--gradient-points", "200", "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "positivity q=3 l=1" in text
    assert "positivity q=4 l=2" in text
    assert "gradient_identity q=4" in text
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "q,l,x1,x2,x3,Delta,r_l1,slope,min_margin,seed"
    assert len(lines) == 1 + 1 + 2  # q=3 has one block split, q=4 has two


def test_lemmas_csv_is_byte_identical_across_threads(tmp_path, capsys):
    blobs = []
    for threads in ("1", "8"):
        out = tmp_path / f"lem{threads}.csv"
        code = main(["lemmas", "--q-max", "3", "--trials", "60000", "--seed", "3",
                     "--gradient-points", "100", "--threads", threads, "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_lemmas_output_digests_are_pinned(tmp_path, capsys):
    # pins the lemmas outputs byte for byte: reordering any gradient formula's arithmetic shows here
    out = tmp_path / "lemmas.csv"
    code = main(["lemmas", "--q-max", "4", "--trials", "2000", "--gradient-points", "100",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "3a12f7335f858a55c0b2a9a8139d88b41bf9db8b7ae890662ccc5a2bfd2dbf1c")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6e0f9d37e604cef2f8ed92b28f493065a175df7baa57521ed30729ec1ce41db3")
    # two full chunks and a 1-sample last chunk per (q, l), at q = 3..9
    code = main(["lemmas", "--q-max", "9", "--trials", "50001", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "cc1f2c452a066d9d4c1a29c7e847e1584170155e42b822a463af837c3fab2c31")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7d5da07566000ba7c462141e3067ded357371a5dfb71f809c686a4f1b7bed5fb")


@pytest.mark.parametrize("flag, value, name", [("--trials", "0", "trials"),
                                               ("--gradient-points", "0", "points"),
                                               ("--gradient-points", "-1", "points")])
def test_lemmas_command_rejects_empty_sweeps(flag, value, name, tmp_path, capsys):
    # each used to end in a bare ValueError traceback; an empty gradient sweep
    # used to fail only after the positivity sweeps had printed their PASS lines
    out = tmp_path / "lemmas.csv"
    code = main(["lemmas", "--q-max", "4", "--trials", "100", flag, value, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {name} must be >= 1, got {value}\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_oracle_command_reports_exact_quantities(capsys):
    code = main(["oracle", "--q", "3", "--d", "3", "--n", "2", "--w", "0.5",
                 "--boundary", "mono", "--color", "2", "--pin-root", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "log_Z=" in out and "Z=" in out
    assert "log_Z_root_pinned_1=" in out
    assert "conditional_distribution=" in out
    assert "log_ratios=" in out


def test_oracle_command_cross_checks_pass(capsys):
    code = main(["oracle", "--q", "3", "--d", "3", "--n", "2",
                 "--boundary", "random", "--seed", "11",
                 "--brute-check", "--check-recursion"])
    out = capsys.readouterr().out
    assert code == 0
    assert "brute_vs_dp_rel_err=" in out
    assert "recursion_vs_dp_max_abs_diff=" in out
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_oracle_command_prints_inf_beyond_float_range(capsys):
    # 3,280 vertices, 2,187 of them pinned leaves: log Z = 1093*log(3) > log(float max)
    code = main(["oracle", "--q", "3", "--d", "3", "--n", "7", "--w", "1.0",
                 "--check-recursion"])
    out = capsys.readouterr().out
    assert code == 0
    assert "\nZ=inf\n" in out
    assert "recursion_vs_dp_max_abs_diff=" in out and out.rstrip().endswith("PASS")


def test_oracle_command_makes_one_dp_pass(monkeypatch, capsys):
    dp_tables = oracle._dp_tables
    for pin in ([], ["--pin-root", "2"]):
        passes = []
        monkeypatch.setattr(oracle, "_dp_tables", lambda *a: passes.append(a) or dp_tables(*a))
        code = main(["oracle", "--q", "3", "--d", "3", "--n", "8", "--check-recursion", *pin])
        assert code == 0
        assert len(passes) == 1
        assert ("log_Z_root_pinned_2=" in capsys.readouterr().out) == bool(pin)


@pytest.mark.parametrize("argv, digest", [
    (["--q", "3", "--d", "3", "--n", "8", "--boundary", "random", "--seed", "5",
      "--check-recursion", "--pin-root", "2"],
     "96f9c66ad49321d757d8d7255133ea8a12f1132551586c2a728c56af0d76a8db"),
    # 9 colours: messages sum their colours pairwise
    (["--q", "9", "--d", "2", "--n", "7", "--boundary", "mono", "--color", "4", "--w", "0.6",
      "--pin-root", "4"],
     "1370197bcb1eb0e248ce0719976eb388153d2a0d61d7b986c16f2cf5689dfcad"),
    (["--q", "4", "--d", "2", "--n", "3", "--boundary", "random", "--seed", "3", "--w", "0.3",
      "--brute-check", "--check-recursion"],
     "486d5003659a8288b9b8f417eb5fcf9ced93e6957bccbb91180a9635edd6fb46"),
])
def test_oracle_output_digests_are_pinned(argv, digest, capsys):
    # pins the oracle report byte for byte: any change to the DP's arithmetic shows here
    assert main(["oracle", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _oracle_refuses_before_building_the_tree(flags, message, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(TreeSpec, "regular", lambda *a: pytest.fail("built the tree"))
    monkeypatch.setattr(cli, "root_summary", lambda *a: pytest.fail("ran the DP"))
    code = main(["oracle", "--q", "3", "--d", "3", "--n", "4", *flags,
                 "--out", str(tmp_path / "o.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("color", ["0", "4"])
def test_oracle_command_rejects_a_root_color_outside_the_palette(color, monkeypatch, tmp_path,
                                                                capsys):
    # used to be refused only after the DP pass
    _oracle_refuses_before_building_the_tree(["--pin-root", color],
                                             f"root color {color} outside 1..3",
                                             monkeypatch, tmp_path, capsys)


@pytest.mark.parametrize("boundary, color", [("mono", "0"), ("random", "9")],
                         ids=["mono-0", "random-9"])
def test_oracle_command_rejects_colors_outside_one_to_q(boundary, color, monkeypatch, tmp_path,
                                                        capsys):
    # random: used to exit 0 and write color=9 to the manifest; mono: refused
    # only after the tree was built
    _oracle_refuses_before_building_the_tree(["--boundary", boundary, "--color", color],
                                             f"color must lie in 1..3, got {color}",
                                             monkeypatch, tmp_path, capsys)


def test_oracle_command_reads_boundary_files(monkeypatch, tmp_path, capsys):
    path = tmp_path / "b.txt"
    _write_boundary_file(path, q=3, d=2, n=2, leaf_colors=[1, 2, 3, 1])
    report = tmp_path / "report.txt"
    builds = []
    regular = TreeSpec.regular
    monkeypatch.setattr(TreeSpec, "regular", lambda *a: builds.append(a) or regular(*a))
    code = main(["oracle", "--boundary-file", str(path), "--w", "0.4",
                 "--out", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert builds == [(2, 2)]  # the tree is built once
    assert report.read_text() == out
    assert (tmp_path / "report.txt.manifest.txt").exists()


def test_oracle_command_flags_conflicting_dimensions(tmp_path, capsys):
    path = tmp_path / "b.txt"
    _write_boundary_file(path, q=3, d=2, n=1, leaf_colors=[1, 2])
    code = main(["oracle", "--boundary-file", str(path), "--q", "4", "--w", "0.4"])
    assert code == 1
    assert "conflicts" in capsys.readouterr().err


def test_oracle_command_rejects_zero_weight(capsys):
    # q = 3, d = 2 at alpha = 1 sits exactly on the zero-weight line
    code = main(["oracle", "--q", "3", "--d", "2", "--n", "1"])
    assert code == 1
    assert "(0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("w", ["0", "1.5"])
def test_oracle_command_rejects_weights_outside_zero_one(w, capsys):
    code = main(["oracle", "--q", "3", "--d", "2", "--n", "1", "--w", w])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"got w={float(w)}" in captured.err


def test_oracle_command_requires_dimensions(capsys):
    code = main(["oracle", "--w", "0.5"])
    assert code == 1
    assert "required" in capsys.readouterr().err


def test_oracle_command_refuses_a_tree_over_the_dp_budget_before_building_it(capsys):
    tracemalloc.start()
    try:
        code = main(["oracle", "--q", "3", "--d", "3", "--n", "13"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == ("error: 2391484 vertices exceed the dp budget "
                                       "DP_VERTEX_BUDGET=1000000\n")
    assert peak < 4 * 2**20


def test_oracle_command_refuses_astronomical_trees_with_one_error_line(tmp_path, capsys):
    # 3**10000 has 4772 digits, more than Python will print, so the messages name the power
    assert main(["oracle", "--q", "3", "--d", "3", "--n", "10000"]) == 1
    assert capsys.readouterr().err == (
        "error: a depth-10000 tree with down-degree 3 has more than 2**64 vertices, "
        "over the dp budget DP_VERTEX_BUDGET=1000000\n")
    path = tmp_path / "huge.txt"
    path.write_text("3 3 10000\n0 1\n")
    assert main(["oracle", "--boundary-file", str(path), "--w", "0.5"]) == 1
    assert capsys.readouterr().err == "error: line 1: 3**10000 leaves exceed 2**64\n"


def test_oracle_command_refuses_a_boundary_file_that_is_not_utf8(tmp_path, capsys):
    # a UnicodeDecodeError used to escape as a traceback
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3 2 1\n0 1\n1 2 \xff\n")
    assert main(["oracle", "--boundary-file", str(path), "--w", "0.5"]) == 1
    assert capsys.readouterr().err == "error: line 3: byte 0xff is not UTF-8\n"


def test_oracle_command_reads_a_boundary_file_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(b"3 2 1\n0 1\n1 2\n")
    marked.write_bytes(b"\xef\xbb\xbf3 2 1\n0 1\n1 2\n")
    assert main(["oracle", "--boundary-file", str(plain), "--w", "0.5"]) == 0
    expected = capsys.readouterr().out
    assert main(["oracle", "--boundary-file", str(marked), "--w", "0.5"]) == 0
    assert capsys.readouterr().out == expected


def test_usage_errors_exit_with_code_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--q", "3", "--d", "7"])  # no --c / --c-grid
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["recursion", "--q", "3", "--d", "1"])  # degree below 2
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_missing_boundary_file_is_a_clean_error(capsys, tmp_path):
    code = main(["oracle", "--boundary-file", str(tmp_path / "nope.txt"), "--w", "0.5"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_commands_parse():
    text = README.read_text().replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines()
                if line.startswith("pottstree ")]
    assert {argv[0] for argv in commands} == {"recursion", "certify", "lemmas", "oracle"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
