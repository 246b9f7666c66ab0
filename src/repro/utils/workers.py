"""Worker-count resolution shared by every parallel driver.

Every process-pool entry point resolves its worker count inside the
pool (:class:`~repro.core.pool.PhastPool` and
:class:`~repro.core.pool.TaskPool`) through :func:`resolve_workers`,
so one ``REPRO_MAX_WORKERS`` setting caps the whole process tree.  The
drivers — ``repro batch --workers``, the one-shot ``trees_per_core``
and :func:`~repro.ch.batched.contract_graph` — pass their
request straight through.

Precedence (highest wins):

1. an explicit ``num_workers`` argument (``--workers`` /
   ``--preprocess-workers`` on the CLI) is honoured as-is;
2. the ``REPRO_MAX_WORKERS`` environment variable caps the implied
   default;
3. otherwise the default is ``min(DEFAULT_WORKER_CAP, cpu_count)``.

A multi-worker request on a single-CPU host falls back to the serial
engine (``fell_back=True``) — forking would only add IPC overhead on
top of zero parallel speedup.
"""

from __future__ import annotations

import os

__all__ = ["DEFAULT_WORKER_CAP", "resolve_workers"]

#: Default ceiling on implied worker counts; override per call with
#: ``max_workers`` or globally with the ``REPRO_MAX_WORKERS`` env var.
DEFAULT_WORKER_CAP = 8


def resolve_workers(
    num_workers: int | None = None, *, max_workers: int | None = None
) -> tuple[int, bool]:
    """Effective worker count for the parallel drivers.

    Returns ``(workers, fell_back)``.  ``fell_back`` is ``True`` when
    more than one worker was requested (or implied by the default) but
    the machine has a single CPU, so forking a process pool would only
    add IPC overhead on top of zero parallel speedup — the driver runs
    the serial engine instead.  Benchmarks surface the flag so a
    single-core run is never mistaken for a parallel measurement.

    An explicit ``num_workers`` is honoured as-is (arg > env > cpu
    count).  The *default* count is ``min(cap, cpu_count)`` where the
    cap is ``max_workers`` if given, else the ``REPRO_MAX_WORKERS``
    environment variable, else :data:`DEFAULT_WORKER_CAP` — so
    many-core hosts are never silently throttled to 8 once either
    override is set.
    """
    cpus = os.cpu_count() or 1
    if num_workers is None:
        cap = max_workers
        if cap is None:
            env = os.environ.get("REPRO_MAX_WORKERS", "").strip()
            cap = int(env) if env else DEFAULT_WORKER_CAP
        num_workers = min(max(1, cap), cpus)
    if num_workers > 1 and cpus <= 1:
        return 1, True
    return max(1, num_workers), False
