"""Long-lived query serving over a warm PHAST hierarchy.

The batch layer (:mod:`repro.core.pool`) answers *offline* workloads:
one caller, many sources, one call.  This package closes the remaining
gap to the ROADMAP's north star — a resident process answering a
*stream* of concurrent queries — by exploiting the same economics
online: a PHAST sweep costs less per tree for ``k`` sources than for
1, so batching concurrent tree-shaped requests into one k-lane sweep,
one lane each, raises the service rate like dynamic batching in an
inference server.

Modules
-------
:mod:`~repro.server.protocol`
    Length-prefixed JSON framing (stdlib only) shared by the asyncio
    server and the blocking client.
:mod:`~repro.server.scheduler`
    The dynamic micro-batching scheduler: gather up to ``batch_max``
    sweep requests, queued as chunks of the intake's records, while
    each event-loop turn brings more (capped at ``max_wait_ms``),
    dispatch one multi-source sweep with one lane per request, and
    answer the batch from its records in one call.
:mod:`~repro.server.metrics`
    Request counters plus batch-size / wait / latency histograms.
:mod:`~repro.server.listener`
    The connection loop, drain and thread harness shared with the router.
:mod:`~repro.server.service`
    The asyncio TCP service tying it together: five query types
    (point-to-point, one-to-many, full tree, isochrone, travel-time
    matrix), admission against the answers owed (load shedding with
    429, 503 while draining), deadlines, graceful drain on
    SIGINT/SIGTERM.
:mod:`~repro.server.client`
    Blocking client library used by ``repro client``, the tests and
    the closed-loop load generator.
"""

from .client import ServerClient, ServerError
from .metrics import ServerMetrics
from .protocol import ProtocolError
from .scheduler import (
    DeadlineExceeded,
    MicroBatcher,
    SweepChunk,
)
from .service import PhastService, ServerConfig, serve_in_thread

__all__ = [
    "DeadlineExceeded",
    "MicroBatcher",
    "PhastService",
    "ProtocolError",
    "ServerClient",
    "ServerConfig",
    "ServerError",
    "ServerMetrics",
    "SweepChunk",
    "serve_in_thread",
]
