"""Deterministic seeding, grids, serialization, and atomic output files."""

import threading

import numpy as np
import pytest

import pottstree as pt
from pottstree import DomainError, parse_grid, spawn_rng, write_csv_atomic
from pottstree.reporting import (DEFAULT_CHUNK, CertificationReport, chunk_sizes, format_value,
                                 parallel_chunk_map, sampled_sweep)


def test_spawn_rng_streams_are_reproducible_and_distinct():
    a = spawn_rng(42, 3).random(5)
    b = spawn_rng(42, 3).random(5)
    c = spawn_rng(42, 4).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_chunk_sizes_partition_the_total():
    assert chunk_sizes(2 * DEFAULT_CHUNK + 7) == [DEFAULT_CHUNK, DEFAULT_CHUNK, 7]
    assert chunk_sizes(2 * DEFAULT_CHUNK) == [DEFAULT_CHUNK, DEFAULT_CHUNK]
    assert chunk_sizes(3) == [3]
    assert chunk_sizes(0) == []
    with pytest.raises(DomainError):
        chunk_sizes(-1)


def test_parallel_chunk_map_preserves_index_order():
    inline = parallel_chunk_map(lambda i: i * i, 17, threads=1)
    pooled = parallel_chunk_map(lambda i: i * i, 17, threads=8)
    assert inline == pooled == [i * i for i in range(17)]


def test_sweeps_share_one_pool_per_thread_count():
    # the barrier holds each chunk until a second worker arrives, so every
    # sweep runs on both workers of the pool
    barrier = threading.Barrier(2, timeout=10)
    workers = []

    def chunk(rng, n):
        workers.append(threading.current_thread())
        barrier.wait()
        return n, int(rng.integers(2**32))

    first = sampled_sweep(chunk, 4 * DEFAULT_CHUNK, seed=5, threads=2)
    first_workers = set(workers)
    second = sampled_sweep(chunk, 4 * DEFAULT_CHUNK, seed=5, threads=2)
    assert len(first_workers) == 2 and set(workers) == first_workers
    assert threading.current_thread() not in first_workers
    inline = sampled_sweep(lambda rng, n: (n, int(rng.integers(2**32))), 4 * DEFAULT_CHUNK,
                           seed=5, threads=1)
    assert first == second == inline


@pytest.mark.parametrize("threads", [1, 2])
def test_sampled_sweep_pins_the_chunk_and_seed_layout(threads):
    got = sampled_sweep(lambda rng, n: (n, int(rng.integers(2**32))), 60_000,
                        seed=3, threads=threads)
    draws = [int(spawn_rng(3, i).integers(2**32)) for i in range(3)]
    assert got == [(25_000, draws[0]), (25_000, draws[1]), (10_000, draws[2])]


def test_parse_grid():
    assert parse_grid("0.5:3.0:0.5") == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    assert parse_grid("2.0") == [2.0]
    assert parse_grid("1:1:1") == [1.0]
    assert len(parse_grid("0.1:0.3:0.1")) == 3  # endpoint within float wiggle


@pytest.mark.parametrize("text", ["1:2", "a:b:c", "1:2:-1", "3:1:1"])
def test_parse_grid_rejects_malformed_input(text):
    with pytest.raises(DomainError):
        parse_grid(text)


def test_format_value_round_trips_floats_exactly():
    for v in (0.1, 1 / 3, 1e-300, 123456.789, float(np.float64(2) ** -52)):
        assert float(format_value(v)) == v
    assert format_value(True) == "true"
    assert format_value(np.bool_(False)) == "false"
    assert format_value(None) == ""
    assert format_value(7) == "7"


def test_write_csv_atomic(tmp_path):
    path = tmp_path / "t.csv"
    write_csv_atomic(path, ["a", "b"], [[1, 0.5], [None, True]])
    assert path.read_text() == "a,b\n1,0.5\n,true\n"
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


# function -> (report kind, a small call)
CHECKS = {
    "two_step_level": ("two_step_level", lambda: pt.two_step_level(
        [2.0], pt.ModelParams(4, 50, 0.8), sample_count=500, seed=1)[0]),
    "convexity_probe": ("midpoint_convexity", lambda: pt.convexity_probe(
        [2.0], pt.ModelParams(4, 50, 0.8), pair_count=500, seed=1)[0]),
    "diagonal_minimality_check": ("diagonal_minimality", lambda: pt.diagonal_minimality_check(
        2.0, 4, sample_count=500, seed=1)),
    "convergence_experiment": ("convergence", lambda: pt.convergence_experiment(
        4, 30, 0.6, n_max=6, boundary="random", trials=5, seed=1)),
    "positivity_sweep": ("gap_positivity", lambda: pt.positivity_sweep(
        4, 1, trials=500, seed=1)),
    "gradient_identity_sweep": ("gradient_identity", lambda: pt.gradient_identity_sweep(
        4, points=50, seed=1)),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_every_check_returns_one_report_type(check):
    kind, run = CHECKS[check]
    report = run()
    assert type(report) is CertificationReport
    assert report.kind == kind
    assert report.min_margin >= 0 or not report.passed
    if kind == "convergence":
        ratios = [r for r in report.parameters["two_step_ratios"] if r is not None]
        assert report.min_margin == 1.05 * report.parameters["alpha"] - max(ratios)
