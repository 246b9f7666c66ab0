"""Tests for the parallel PHAST drivers."""

import numpy as np
import pytest

from repro.core import (
    PhastEngine,
    block_boundaries,
    tree_level_parallel,
    trees_per_core,
)
from repro.sssp import dijkstra


def test_block_boundaries_cover_range():
    blocks = block_boundaries(10, 55, 4)
    assert blocks[0][0] == 10 and blocks[-1][1] == 55
    for (a, b), (c, d) in zip(blocks, blocks[1:]):
        assert b == c
        assert a < b


def test_block_boundaries_more_blocks_than_items():
    blocks = block_boundaries(0, 3, 10)
    assert len(blocks) <= 3
    assert blocks[0][0] == 0 and blocks[-1][1] == 3


def test_block_boundaries_empty():
    assert block_boundaries(5, 5, 4) == []


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_level_parallel_matches(road, road_ch, threads):
    engine = PhastEngine(road_ch)
    ref = dijkstra(road, 17, with_parents=False).dist
    out = tree_level_parallel(engine, 17, num_threads=threads, min_block=8)
    assert np.array_equal(out, ref)


def test_trees_per_core_single_worker(road, road_ch):
    sources = [0, 3, 9]
    out = trees_per_core(road_ch, sources, num_workers=1)
    for s, dist in zip(sources, out):
        assert np.array_equal(dist, dijkstra(road, s, with_parents=False).dist)


def test_trees_per_core_multi_worker(road, road_ch):
    sources = list(range(0, 60, 7))
    out = trees_per_core(road_ch, sources, num_workers=3)
    for s, dist in zip(sources, out):
        assert np.array_equal(dist, dijkstra(road, s, with_parents=False).dist)


def test_trees_per_core_with_sweep_k(road, road_ch):
    sources = list(range(0, 30, 3))
    out = trees_per_core(road_ch, sources, num_workers=2, sources_per_sweep=4)
    for s, dist in zip(sources, out):
        assert np.array_equal(dist, dijkstra(road, s, with_parents=False).dist)


def test_trees_per_core_reduce(road, road_ch):
    from repro.graph import INF

    def reducer(source, dist):
        return int(dist[dist < INF].max())

    sources = [0, 5]
    out = trees_per_core(road_ch, sources, num_workers=2, reduce=reducer)
    for s, got in zip(sources, out):
        dist = dijkstra(road, s, with_parents=False).dist
        assert got == int(dist[dist < INF].max())


def test_trees_per_core_empty(road_ch):
    assert trees_per_core(road_ch, []) == []


def test_trees_per_core_more_workers_than_sources(road, road_ch):
    out = trees_per_core(road_ch, [4], num_workers=8)
    assert len(out) == 1
    assert np.array_equal(out[0], dijkstra(road, 4, with_parents=False).dist)


def test_trees_per_core_order_preserved(road, road_ch):
    sources = [9, 1, 5, 3, 7]
    out = trees_per_core(road_ch, sources, num_workers=2)
    for s, dist in zip(sources, out):
        assert dist[s] == 0


def test_resolve_workers_single_cpu_fallback(monkeypatch):
    import os

    from repro.core import resolve_workers

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert resolve_workers(4) == (1, True)
    assert resolve_workers(None) == (1, False)
    assert resolve_workers(1) == (1, False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_workers(4) == (4, False)
    assert resolve_workers(None) == (8, False)


def test_resolve_workers_cap_overrides(monkeypatch):
    import os

    from repro.core import resolve_workers

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
    # Default cap stays 8, but both override channels lift it.
    assert resolve_workers(None) == (8, False)
    assert resolve_workers(None, max_workers=32) == (32, False)
    monkeypatch.setenv("REPRO_MAX_WORKERS", "16")
    assert resolve_workers(None) == (16, False)
    # The explicit argument wins over the environment.
    assert resolve_workers(None, max_workers=24) == (24, False)
    # An explicit worker count is honoured as-is, above any cap.
    assert resolve_workers(48) == (48, False)
    # Caps never exceed the machine.
    monkeypatch.setenv("REPRO_MAX_WORKERS", "128")
    assert resolve_workers(None) == (64, False)


def test_trees_per_core_force_pool(road, road_ch):
    """The multiprocessing path stays exercised even on 1-CPU hosts,
    where multi-worker requests normally fall back to serial."""
    sources = [2, 11, 23]
    out = trees_per_core(road_ch, sources, num_workers=2, force_pool=True)
    for s, dist in zip(sources, out):
        assert np.array_equal(dist, dijkstra(road, s, with_parents=False).dist)
