"""Inputs: the road network and every workload's seeded request stream.

Everything here is a pure function of the seed, so two runs with one
seed send the program byte-identical networks and requests.  Streams
come from ``numpy.random.default_rng([seed, stream id])`` and are
drawn in fixed blocks, so how many requests a run ends up sending
never changes the ones it sends.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SCALE", "make_network", "reweighted", "swap_weights", "isochrone_budget",
    "SweepStream", "LookupStream", "lookup_families", "offline_sources",
    "matrix_targets",
]

#: Grid side of the generated Europe-like network (1600 vertices).
SCALE = 40
#: Generator seed of the network.  The network is one fixed input, as
#: the paper's Europe and USA graphs are; ``--seed`` varies everything
#: drawn on it (sources, targets, budgets, swap weights, checked
#: answers).  Customized hierarchies of different seeds' networks
#: differ enough (capacity 543-799 req/s over ten seeds on
#: metric-swap) to swamp the program's own run-to-run spread.
NETWORK_SEED = 1

_BLOCK = 1024

# Stream ids: one per (workload, purpose).
(_SWEEP, _LOOKUP, _LOOKUP_FAMILY, _SWAP, _OFFLINE, _BUDGET, _SAMPLE,
 _ORDER) = range(8)


def _rng(seed: int, stream: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream, *more])


def _cycled(seed: int, key: int, n: int, start: int, count: int) -> np.ndarray:
    """Sources ``start .. start + count`` of one seeded permutation of
    all ``n`` vertices, repeated.  Each source is
    uniform, yet comes back only after ``n - 1`` others, more than the
    server's 1024-entry search cache holds, so no sweep is a cache
    hit by construction."""
    perm = _rng(seed, _ORDER, key).permutation(n)
    return perm[(start + np.arange(count)) % n]


def make_network():
    """The workload network: ``repro generate --kind europe`` in-process."""
    from repro.graph import dfs_order, europe_like

    graph = europe_like(scale=SCALE, metric="time", seed=NETWORK_SEED)
    return graph.permute(dfs_order(graph))


def reweighted(graph, weights: np.ndarray):
    """``graph`` with arc lengths replaced (same CSR arc order)."""
    from repro.graph import StaticGraph

    return StaticGraph.from_csr(graph.first, graph.arc_head,
                                np.asarray(weights, dtype=np.int64))


def swap_weights(seed: int, base: np.ndarray, k: int) -> np.ndarray:
    """The ``k``-th perturbed metric: each arc scaled by [0.7, 1.5)."""
    factor = _rng(seed, _SWAP, k).uniform(0.7, 1.5, size=base.size)
    return np.maximum(1, np.rint(base * factor)).astype(np.int64)


def isochrone_budget(graph, seed: int) -> int:
    """A budget reaching about a quarter of the network from a typical
    source (the quartile of distances pooled over 8 seeded sources)."""
    from repro.sssp import dijkstra

    sources = _rng(seed, _BUDGET).integers(graph.n, size=8).tolist()
    dist = np.concatenate([dijkstra(graph, s, with_parents=False).dist
                           for s in sources])
    return int(np.quantile(dist[dist < dist.max()], 0.25))


class _Blocks:
    """Requests drawn block by block from one seeded generator."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._buf: list = []
        self._pos = 0
        self._drawn = 0

    def next(self):
        if self._pos == len(self._buf):
            self._buf = self._draw(self.rng)
            self._drawn += len(self._buf)
            self._pos = 0
        self._pos += 1
        return self._buf[self._pos - 1]

    def take(self, count: int) -> list:
        return [self.next() for _ in range(count)]


class SweepStream(_Blocks):
    """``tree`` / ``isochrone`` / ``one_to_many`` (64 targets) in equal
    shares, from uniform sources that do not repeat within ``n``
    requests.  Every op pays one full sweep, so the shares weight only
    the three answer encodings; with no usage data to favour one,
    they are equal."""

    def __init__(self, seed: int, n: int, budget: int) -> None:
        super().__init__(_rng(seed, _SWEEP))
        self.seed = seed
        self.n = n
        self.budget = budget

    def _draw(self, rng):
        kinds = rng.integers(3, size=_BLOCK)
        sources = _cycled(self.seed, 0, self.n, self._drawn, _BLOCK)
        targets = rng.integers(self.n, size=(_BLOCK, 64))
        out = []
        for kind, s, t in zip(kinds.tolist(), sources.tolist(),
                              targets.tolist()):
            if kind == 0:
                out.append({"op": "tree", "source": s})
            elif kind == 1:
                out.append({"op": "isochrone", "source": s,
                            "budget": self.budget})
            else:
                out.append({"op": "one_to_many", "source": s, "targets": t})
        return out


def lookup_families(seed: int, n: int) -> dict:
    """Fixed sets the lookup stream draws from: 8 depots, 32 fleet
    origins, 4 matrix target sets of 24 vertices."""
    rng = _rng(seed, _LOOKUP_FAMILY)
    picks = rng.choice(n, size=8 + 32 + 4 * 24, replace=False).tolist()
    return {
        "depots": picks[:8],
        "origins": picks[8:40],
        "target_sets": [picks[40 + 24 * i:64 + 24 * i] for i in range(4)],
    }


class LookupStream(_Blocks):
    """70% ``query`` on uniform pairs, 20% ``matrix`` (8 fleet origins x
    one of 4 fixed target sets), 10% ``one_to_many`` from a fleet
    origin to the 8 depots.

    The shares come from measured costs on this network: a ``ch_query``
    takes 0.3-0.7 ms and an 8 x 24 RPHAST matrix about 1.2 ms, so
    queries and matrices carry comparable compute.  The server has no
    restricted path for ``one_to_many``: each one runs a full sweep,
    which the traced run's ``server.sweep_cpu_share`` puts at a few
    percent of the serving CPU.
    """

    def __init__(self, seed: int, n: int) -> None:
        super().__init__(_rng(seed, _LOOKUP))
        self.n = n
        self.fam = lookup_families(seed, n)

    def _draw(self, rng):
        roll = rng.random(_BLOCK)
        pairs = rng.integers(self.n, size=(_BLOCK, 2))
        which = rng.integers(4, size=_BLOCK)
        origins = self.fam["origins"]
        fleet = rng.integers(len(origins), size=(_BLOCK, 8))
        out = []
        for i in range(_BLOCK):
            if roll[i] < 0.7:
                out.append({"op": "query", "source": int(pairs[i, 0]),
                            "target": int(pairs[i, 1])})
            elif roll[i] < 0.9:
                out.append({
                    "op": "matrix",
                    "sources": [origins[j] for j in fleet[i].tolist()],
                    "targets": self.fam["target_sets"][int(which[i])],
                })
            else:
                out.append({"op": "one_to_many",
                            "source": origins[int(fleet[i, 0])],
                            "targets": self.fam["depots"]})
        return out


def offline_sources(seed: int, n: int, phase: int, count: int) -> list[int]:
    """The ``count`` tree sources of one offline batch sequence, cycled
    like the sweep streams' sources."""
    return _cycled(seed, 100 + phase, n, 0, count).tolist()


def matrix_targets(seed: int, n: int) -> list[int]:
    """The offline matrix's published target set (64 vertices)."""
    return sorted(_rng(seed, _OFFLINE, 99).choice(n, size=64,
                                                  replace=False).tolist())


def sample_mask(seed: int, phase: int, count: int, share: float) -> np.ndarray:
    """Which of the first ``count`` requests of a phase get checked."""
    return _rng(seed, _SAMPLE, phase).random(count) < share
