"""Command-line entry points: outputs, exit codes, and determinism."""

import shlex
from pathlib import Path

import pytest

from pottstree import TreeSpec, oracle, write_boundary_file
from pottstree.cli import build_parser, main
from pottstree.reporting import format_value

README = Path(__file__).resolve().parent.parent / "README.md"


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
    passes = []
    dp_tables = oracle._dp_tables
    monkeypatch.setattr(oracle, "_dp_tables", lambda *a: passes.append(a) or dp_tables(*a))
    code = main(["oracle", "--q", "3", "--d", "3", "--n", "8", "--check-recursion"])
    assert code == 0
    assert len(passes) == 1
    capsys.readouterr()


def test_oracle_command_reads_boundary_files(monkeypatch, tmp_path, capsys):
    path = tmp_path / "b.txt"
    write_boundary_file(path, q=3, d=2, n=2, leaf_colors=[1, 2, 3, 1])
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
    write_boundary_file(path, q=3, d=2, n=1, leaf_colors=[1, 2])
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


def test_readme_commands_parse():
    text = README.read_text().replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines()
                if line.startswith("pottstree ")]
    assert {argv[0] for argv in commands} == {"recursion", "certify", "lemmas", "oracle"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
