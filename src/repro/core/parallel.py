"""Parallel PHAST (Section V).

Two orthogonal strategies, both reproduced here:

* **Tree per core** — different sources are independent, so workers
  process disjoint source sets.  Implemented with worker processes
  (Python threads cannot parallelize the scalar parts).  Each worker
  owns one warm :class:`~repro.core.phast.PhastEngine` attached to the
  hierarchy through a shared-memory segment — the same "one copy of
  the read-only graph, pin a worker per core" discipline the paper
  applies (Section VIII-E).  :func:`trees_per_core` is the one-shot
  driver; :class:`~repro.core.pool.PhastPool` keeps the workers and
  segments resident across batches.
* **Intra-tree level parallelism** — vertices of one level can be
  processed concurrently because downward arcs never connect vertices
  of equal level (Lemma 4.1).  Each level's position range is split
  into blocks whose relax steps (the engine's
  :class:`~repro.core.sweep.LevelSweep`) go to a thread pool; NumPy
  kernels release the GIL, so blocks genuinely overlap for large
  levels.  This mirrors the
  paper's 4-core single-tree variant and is the scheduling model GPHAST
  inherits.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from ..ch.hierarchy import ContractionHierarchy
from .phast import PhastEngine

__all__ = [
    "trees_per_core",
    "tree_level_parallel",
    "block_boundaries",
]

def trees_per_core(
    ch: ContractionHierarchy,
    sources: Sequence[int],
    *,
    num_workers: int | None = None,
    sources_per_sweep: int = 1,
    reduce: Callable[[int, np.ndarray], object] | None = None,
    force_pool: bool = False,
):
    """Compute many trees with one engine per worker process.

    Compatibility shim over :class:`~repro.core.pool.PhastPool`: a
    pool is created for the call and torn down afterwards.  Workloads
    issuing repeated batches should hold a :class:`PhastPool` directly
    and amortize the worker startup, hierarchy publication and engine
    builds across batches — that is the whole point of the pool.

    Parameters
    ----------
    ch:
        The shared hierarchy (published once via shared memory).
    sources:
        Roots, processed in order; results are returned in the same
        order.
    num_workers:
        Worker processes (default: CPU count, capped per
        :func:`~repro.utils.workers.resolve_workers`).  On a
        single-CPU machine multi-worker requests fall back to the
        serial engine unless ``force_pool`` is set.
    sources_per_sweep:
        The ``k`` of Section IV-B applied inside each worker.
    reduce:
        Optional per-tree reducer ``(source, dist) -> value``; applied
        in the workers when picklable (pass one whenever
        ``len(sources) × n`` distances would not fit in memory), in
        the parent over the shared output matrix otherwise (closures
        cannot travel to persistent workers).
    force_pool:
        Spin up the process pool even when the fallback would trigger —
        for exercising the multiprocessing path on single-core boxes.

    Returns
    -------
    List of per-source results (reduced values, or distance arrays).
    """
    from .pool import PhastPool, picklable

    sources = [int(s) for s in sources]
    if not sources:
        return []
    with PhastPool(
        ch,
        num_workers=num_workers,
        sources_per_sweep=sources_per_sweep,
        force_pool=force_pool,
    ) as pool:
        if reduce is not None and (pool.serial or picklable(reduce)):
            return pool.map(sources, reduce)
        mat = pool.trees(sources)
        if reduce is not None:
            return [reduce(s, mat[i].copy()) for i, s in enumerate(sources)]
        # Rows are views into the pool's shared buffer, which dies with
        # the pool — hand back owning copies.
        return [mat[i].copy() for i in range(len(sources))]


def block_boundaries(lo: int, hi: int, num_blocks: int) -> list[tuple[int, int]]:
    """Split position range ``[lo, hi)`` into ~equal contiguous blocks."""
    size = hi - lo
    if size <= 0:
        return []
    num_blocks = max(1, min(num_blocks, size))
    cuts = np.linspace(lo, hi, num_blocks + 1).astype(np.int64)
    return [(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]


def tree_level_parallel(
    engine: PhastEngine,
    source: int,
    *,
    num_threads: int = 4,
    min_block: int = 2048,
) -> np.ndarray:
    """One PHAST tree with intra-level block parallelism.

    Runs the engine's sweep kernel with a relax step that splits every
    level of at least ``min_block`` vertices into position blocks and
    relaxes them on a thread pool; the level's seeds (its search labels)
    are folded in after all its blocks finish (the barrier).  Smaller
    levels run inline — exactly the regime where the paper notes
    parallelization stops paying off (the topmost levels hold a handful
    of vertices).

    Returns distances indexed by original vertex ID.
    """
    kernel = engine.kernel

    with ThreadPoolExecutor(max_workers=num_threads) as pool:

        def relax(dist, plan, values, cand):
            lo, hi, alo = plan[0], plan[1], plan[2]
            if hi - lo < min_block or num_threads < 2:
                kernel.relax(dist, plan, values, cand)
                return
            # Blocks of one level own disjoint slices of the level's
            # label and candidate buffers.
            futures = []
            for a, b in block_boundaries(lo, hi, num_threads):
                block = kernel.plan(a, b)
                futures.append(pool.submit(
                    kernel.relax, dist, block, values[a - lo : b - lo],
                    cand[block[2] - alo :],
                ))
            for f in futures:
                f.result()

        dist = kernel.run(kernel.search(source), relax=relax)
    out = np.empty(engine.sweep.n, dtype=np.int64)
    out[engine.sweep.vertex_at] = dist
    return out
