"""Shared fixtures.

Expensive artifacts (road networks and their contraction hierarchies)
are session-scoped: CH preprocessing is the slow step, and every
correctness test can share one hierarchy because all algorithms treat
it as read-only.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.ch import contract_graph
from repro.core import LevelSweep, PhastEngine
from repro.graph import RoadNetworkParams, road_network, random_graph


@pytest.fixture(scope="session")
def road():
    """A ~400-vertex synthetic road network (travel-time metric)."""
    return road_network(RoadNetworkParams(rows=20, cols=20, seed=42))


@pytest.fixture(scope="session")
def road_ch(road):
    """Contraction hierarchy of :func:`road`."""
    return contract_graph(road)


@pytest.fixture(scope="session")
def road_engine(road_ch):
    """A PHAST engine over :func:`road_ch`."""
    return PhastEngine(road_ch)


@pytest.fixture(scope="session")
def small_road():
    """A tiny road network for O(n^2)-ish exact checks."""
    return road_network(RoadNetworkParams(rows=8, cols=8, seed=7))


@pytest.fixture(scope="session")
def small_road_ch(small_road):
    return contract_graph(small_road)


@pytest.fixture(scope="session")
def sparse_random():
    """A connected random directed multigraph (not road-like)."""
    return random_graph(150, 450, max_len=50, seed=3, connected=True)


@pytest.fixture(scope="session")
def sparse_random_ch(sparse_random):
    return contract_graph(sparse_random)


@pytest.fixture(scope="session")
def scalar_threshold():
    """Context manager: engines built inside use this scalar-prefix cutover.

    ``scalar_threshold(0)`` sends every level through the vectorized
    path, so small random graphs exercise it too.
    """

    @contextmanager
    def use(value: int):
        saved = LevelSweep.SCALAR_ARC_THRESHOLD
        LevelSweep.SCALAR_ARC_THRESHOLD = value
        try:
            yield
        finally:
            LevelSweep.SCALAR_ARC_THRESHOLD = saved

    return use


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
