"""Deterministic seeding, grids, serialization, and atomic output files."""

import threading

import numpy as np
import pytest

import pottstree as pt
from pottstree import DomainError, parse_grid, reporting, spawn_rng, write_csv_atomic
from pottstree.reporting import (DEFAULT_CHUNK, CertificationReport, chunk_sizes, format_value,
                                 parallel_chunk_map, sampled_sweep)


def test_spawn_rng_streams_are_reproducible_and_distinct():
    a = spawn_rng(42, 3).random(5)
    b = spawn_rng(42, 3).random(5)
    c = spawn_rng(42, 4).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spawn_rng_refuses_a_negative_seed():
    # numpy's SeedSequence used to raise a bare ValueError
    with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
        spawn_rng(-1, 3)


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


@pytest.mark.parametrize("threads", [0, -5])
def test_parallel_chunk_map_rejects_fewer_than_one_thread(threads):
    calls = []
    with pytest.raises(DomainError, match=f"threads must be >= 1, got {threads}"):
        parallel_chunk_map(calls.append, 3, threads=threads)
    assert calls == []


def test_sweeps_share_one_pool_per_thread_count():
    # the barrier holds each chunk until a second worker arrives, so every
    # sweep runs on both workers of the pool
    barrier = threading.Barrier(2, timeout=10)
    workers = []

    def chunk(rng, n, buf):
        workers.append(threading.current_thread())
        barrier.wait()
        return n, int(rng.integers(2**32))

    first = sampled_sweep(chunk, 4 * DEFAULT_CHUNK, seed=5, threads=2, floats_per_sample=1)
    first_workers = set(workers)
    second = sampled_sweep(chunk, 4 * DEFAULT_CHUNK, seed=5, threads=2, floats_per_sample=1)
    assert len(first_workers) == 2 and set(workers) == first_workers
    assert threading.current_thread() not in first_workers
    inline = sampled_sweep(lambda rng, n, buf: (n, int(rng.integers(2**32))), 4 * DEFAULT_CHUNK,
                           seed=5, threads=1, floats_per_sample=1)
    assert first == second == inline


@pytest.mark.parametrize("threads", [1, 2])
def test_sampled_sweep_pins_the_chunk_and_seed_layout(threads):
    got = sampled_sweep(lambda rng, n, buf: (n, int(rng.integers(2**32))), 60_000,
                        seed=3, threads=threads, floats_per_sample=1)
    draws = [int(spawn_rng(3, i).integers(2**32)) for i in range(3)]
    assert got == [(25_000, draws[0]), (25_000, draws[1]), (10_000, draws[2])]


def test_sampled_sweep_gives_each_worker_its_own_buffer():
    # the barrier holds each chunk until a second worker arrives, so each
    # worker runs two of the four chunks, the short last one included
    barrier = threading.Barrier(2, timeout=10)
    total, k = 3 * DEFAULT_CHUNK + 7, 3

    def chunk(rng, n, buf):
        barrier.wait()
        return threading.get_ident(), n, buf

    def sweep():
        bufs = {}
        for ident, n, buf in sampled_sweep(chunk, total, seed=1, threads=2, floats_per_sample=k):
            assert buf.shape == (n * k,) and buf.dtype == np.float64
            bufs.setdefault(ident, []).append(buf)
        return list(bufs.values())

    first = sweep()
    assert sorted(map(len, first)) == [2, 2]
    for bufs in first:  # each chunk of a worker is the start of the worker's one buffer
        assert bufs[0].base.shape == (DEFAULT_CHUNK * k,)  # sized for the largest chunk
        assert all(b.base is bufs[0].base for b in bufs)
    mine, theirs = first
    assert not any(np.shares_memory(a, b) for a in mine for b in theirs)
    second = sweep()  # the first sweep's buffers are still alive here
    assert not any(np.shares_memory(a, b)
                   for old in first for a in old for new in second for b in new)
    inline = sampled_sweep(lambda rng, n, buf: buf, total, seed=1, threads=1, floats_per_sample=k)
    assert all(b.base is inline[0].base for b in inline)


def test_parse_grid():
    assert parse_grid("0.5:3.0:0.5") == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    assert parse_grid("2.0") == [2.0]
    assert parse_grid("1:1:1") == [1.0]
    assert len(parse_grid("0.1:0.3:0.1")) == 3  # endpoint within float wiggle


@pytest.mark.parametrize("text", ["1:2", "a:b:c", "1:2:-1", "3:1:1"])
def test_parse_grid_rejects_malformed_input(text):
    with pytest.raises(DomainError):
        parse_grid(text)


@pytest.mark.parametrize("text, name, value", [
    ("nan:1:0.5", "start", "nan"), ("0.5:2:nan", "step", "nan"), ("0.5:inf:1", "stop", "inf"),
    ("-inf:1:1", "start", "-inf"), ("0:1:inf", "step", "inf"), ("inf", "value", "inf"),
])
def test_parse_grid_names_a_field_that_is_not_finite(text, name, value):
    with pytest.raises(DomainError, match=f"^grid {name} must be finite, got {value}$"):
        parse_grid(text)


def test_parse_grid_checks_its_first_and_last_points_before_expanding(monkeypatch):
    seen = []
    assert parse_grid("1:6.5:1", seen.append) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert parse_grid("2.5", seen.append) == [2.5]
    assert seen == [[1.0, 6.0], [2.5]]

    def refuse(ends):
        raise DomainError(f"refused {ends[-1]}")

    monkeypatch.setattr(reporting, "_grid_points", lambda *grid: pytest.fail("expanded"))
    with pytest.raises(DomainError, match="^refused 1000000000.0000001$"):
        parse_grid("0.5:1e9:1e-9", refuse)
    # a step so small that the count overflows is refused, not an OverflowError
    with pytest.raises(DomainError, match="has too many points"):
        parse_grid("0:1:5e-324")


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
