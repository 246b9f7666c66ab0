"""Served-request cost in process: a batch's ``C(k)``, and the intake.

The server's scheduler batches concurrent sweep-shaped requests
(tree / one-to-many / isochrone) into one multi-source PHAST sweep.
``C(k)`` is the cost of one served batch of ``k`` tree requests for
k = 1, 2, 3, 4, 8, 16, in process and on the path the server runs on
its event loop: the engine's k-lane ``PhastEngine.trees(sources,
out=)`` call into a reused buffer (each lane's upward search, the
sweep and the scatter into original IDs — the server runs no search
cache, so every lane pays its search) and the batch's answer frames,
all ``k`` written by one :func:`protocol.sweep_frames` call and copied
out as the one write of a single connection.  A least-squares line
through the medians gives ``C(k) = alpha + beta * k``.

The intake is what a request costs before its batch: from the bytes
of a read to a request queued at the batcher (frames split, sweep
requests parsed and validated in one native call, admission, the
reply, the queue), with the kernels and on the ``json.loads``
fallback.

Served throughput and latency are measured end to end by
``perfbench`` (``BENCHMARK.json``), in alternating runs of two
commits; the closed-loop batching and router sweeps this bench used
to run were single points on a host shared with their load generator,
and could not be compared across commits.

Environment knob: ``REPRO_BENCH_SCALE`` (instance size, shared with
the other benches).  Results go to ``BENCH_server.json``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from pathlib import Path
from unittest.mock import patch

import numpy as np

from common import fmt, load_instance, print_table
from repro.core import PhastEngine
from repro.server import PhastService, ServerConfig
from repro.server import protocol
from repro.server.listener import Connection
from repro.utils import native
from repro.utils.hotloop import bulk_compute

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_server.json"

BATCH_MAX = 16
BATCH_COST_KS = (1, 2, 3, 4, 8, 16)
BATCH_COST_REPS = 200
INTAKE_FRAMES = 16
INTAKE_READS = 300
INTAKE_ROUNDS = 10


def _batch_cost(ch, n: int) -> dict:
    """``C(k)`` for one served batch of ``k`` tree requests.

    Each rep draws ``k`` fresh sources, runs the engine's ``trees``
    call into the first ``k`` rows of a reused, bound ``(BATCH_MAX,
    n)`` buffer, as the server does (search + sweep + scatter), and then
    writes the batch's ``k`` answer frames as the server does (one
    :func:`protocol.sweep_frames` call, the frames copied out as one
    connection's write), timed apart.  Reported per ``k``: the medians
    of both parts, their sum, and the sum over ``k`` (cost per
    request).
    """
    engine = PhastEngine(ch)
    buf = engine.bind_rows(np.empty((BATCH_MAX, n), dtype=np.int64))
    rng = np.random.default_rng(11)
    points = []
    engine.trees([0], out=buf[1])  # lazy buffers
    with bulk_compute():
        for k in BATCH_COST_KS:
            trees_s, finish_s = [], []
            for _ in range(BATCH_COST_REPS):
                sources = rng.choice(n, size=k, replace=False).tolist()
                t0 = time.perf_counter()
                rows = engine.trees(sources, out=buf[k])
                t1 = time.perf_counter()
                frames, _ = protocol.sweep_frames(
                    rows, [(i, "tree", None, i) for i in range(k)])
                bytes(frames)
                t2 = time.perf_counter()
                trees_s.append(t1 - t0)
                finish_s.append(t2 - t1)
            trees_ms = float(np.median(trees_s)) * 1e3
            finish_ms = float(np.median(finish_s)) * 1e3
            points.append({
                "k": k,
                "search_sweep_ms": round(trees_ms, 4),
                "finalize_encode_ms": round(finish_ms, 4),
                "batch_ms": round(trees_ms + finish_ms, 4),
                "per_request_ms": round((trees_ms + finish_ms) / k, 4),
            })
    ks = np.array([p["k"] for p in points], dtype=float)
    beta, alpha = np.polyfit(ks, [p["batch_ms"] for p in points], 1)
    return {
        "what": "one served batch of k tree requests, in process: "
                "PhastEngine.trees into a reused buffer (search, sweep, "
                "scatter; no search cache) + the batch's answer frames "
                "(one sweep_frames call, copied out as one write)",
        "reps_per_k": BATCH_COST_REPS,
        "points": points,
        "alpha_ms": round(float(alpha), 4),
        "beta_ms": round(float(beta), 4),
        "alpha_over_beta": round(float(alpha / beta), 3),
    }


def _intake_cost(ch, n: int) -> dict:
    """Per-request cost of taking a read in, native against fallback.

    Each read holds ``INTAKE_FRAMES`` frames of serve-sweep's mix
    (``tree``, ``isochrone``, ``one_to_many`` with 64 targets, in
    equal shares, as its load generator writes them) and goes to a
    connection of an unstarted service as one ``data_received`` call:
    the frames are split, parsed, admitted and queued to the batcher.
    Timed per read and divided by the frames, with the kernels and on
    the ``json.loads`` + ``validate_request`` fallback.  The two
    backends take turns over ``INTAKE_ROUNDS`` rounds of
    ``INTAKE_READS`` reads each (after a warm-up pass of both), the
    first backend alternating by round, so a phase of the shared host
    lands on both: each round's median is recorded, and per backend the
    median and quartiles of the round medians.  ``json.loads`` +
    ``validate_request`` alone on the same frames is reported for
    reference.
    """
    rng = np.random.default_rng(13)
    budget = int(np.median(PhastEngine(ch).tree(0).dist)) // 2

    def request(i: int) -> dict:
        kind, source = i % 3, int(rng.integers(n))
        if kind == 0:
            return {"id": i, "op": "tree", "source": source}
        if kind == 1:
            return {"id": i, "op": "isochrone", "source": source,
                    "budget": budget}
        return {"id": i, "op": "one_to_many", "source": source,
                "targets": rng.integers(n, size=64).tolist()}

    messages = [request(i) for i in range(INTAKE_READS * INTAKE_FRAMES)]
    frames = [protocol.encode_message(m) for m in messages]
    reads = [b"".join(frames[i:i + INTAKE_FRAMES])
             for i in range(0, len(frames), INTAKE_FRAMES)]
    service = PhastService(ch, config=ServerConfig(
        batch_max=BATCH_MAX, max_pending=INTAKE_FRAMES))
    conn = Connection(_Sink(), service)
    record: dict = {
        "what": f"read bytes to queued request, {INTAKE_FRAMES} frames of "
                "serve-sweep's mix per read (tree, isochrone, "
                "one_to_many with 64 targets), one data_received call per "
                "read, per request",
        "frames_per_read": INTAKE_FRAMES,
        "reads_per_round": INTAKE_READS,
        "rounds": INTAKE_ROUNDS,
    }

    def one_pass(backend: str) -> float:
        """The median per-request cost of one pass over the reads."""
        per_request = []
        with patch.object(native, "_lib", False) if backend == "fallback" \
                else nullcontext():
            for data in reads:
                t0 = time.perf_counter()
                conn.data_received(data)
                t1 = time.perf_counter()
                # Free the slots, and drop the queued requests as a
                # batch would.
                conn.connection_lost(None)
                service.batcher._queue.clear()
                per_request.append((t1 - t0) / INTAKE_FRAMES)
        return float(np.median(per_request)) * 1e6

    backends = ("native", "fallback")
    with bulk_compute():
        for backend in backends:  # warm-up
            one_pass(backend)
        rounds = []
        for r in range(INTAKE_ROUNDS):
            order = backends if r % 2 == 0 else backends[::-1]
            medians = {b: one_pass(b) for b in order}
            rounds.append({b: round(medians[b], 2) for b in backends})
        record["round_medians_us"] = rounds
        for backend in backends:
            q25, q50, q75 = np.percentile(
                [r[backend] for r in rounds], [25, 50, 75])
            record[f"{backend}_us"] = {"median": round(float(q50), 2),
                                       "q25": round(float(q25), 2),
                                       "q75": round(float(q75), 2)}
        bodies = [f[protocol.HEADER_BYTES:] for f in frames]
        t0 = time.perf_counter()
        for body in bodies:
            msg = json.loads(body)
            protocol.validate_request(protocol.OPS_BY_NAME[msg["op"]], msg, n)
        record["decode_validate_us"] = round(
            (time.perf_counter() - t0) / len(bodies) * 1e6, 2)
    record["fallback_over_native"] = round(
        record["fallback_us"]["median"] / record["native_us"]["median"], 2)
    return record


class _Sink:
    """A transport that takes writes and drops them."""

    def is_closing(self) -> bool:
        return False

    def write(self, data) -> None:
        pass


def run(quiet: bool = False) -> dict:
    inst = load_instance()
    graph, ch = inst.graph, inst.ch
    record: dict = {
        "bench": "server",
        "instance": inst.name,
        "n": int(graph.n),
        "m": int(graph.m),
        "cpus": os.cpu_count(),
        "batch_cost": _batch_cost(ch, graph.n),
        "intake_cost": _intake_cost(ch, graph.n),
    }
    if not quiet:
        cost = record["batch_cost"]
        print_table(
            "C(k): one served batch of k trees (search + sweep, "
            "answer frames)",
            ["k", "search+sweep ms", "frames ms", "batch ms",
             "per request ms"],
            [[p["k"], fmt(p["search_sweep_ms"], 3),
              fmt(p["finalize_encode_ms"], 3), fmt(p["batch_ms"], 3),
              fmt(p["per_request_ms"], 3)] for p in cost["points"]],
        )
        print(f"C(k) = {cost['alpha_ms']:.3f} + {cost['beta_ms']:.3f} k ms "
              f"(alpha / beta = {cost['alpha_over_beta']})")
        intake = record["intake_cost"]
        print_table(
            f"intake: read bytes to queued request "
            f"({intake['frames_per_read']} frames per read; median and "
            f"quartiles of {intake['rounds']} alternating rounds' medians)",
            ["backend", "median us", "q25 us", "q75 us"],
            [[backend, fmt(intake[f"{backend}_us"]["median"], 2),
              fmt(intake[f"{backend}_us"]["q25"], 2),
              fmt(intake[f"{backend}_us"]["q75"], 2)]
             for backend in ("native", "fallback")],
        )
        print(f"json.loads + validate_request alone: "
              f"{intake['decode_validate_us']:.2f} us per request")
    with open(OUTPUT, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    if not quiet:
        print(f"wrote {OUTPUT}")
    return record


if __name__ == "__main__":
    run()
