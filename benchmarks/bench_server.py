"""Served-request cost in process: a batch's ``C(k)``, the intake and
the whole sweep path.

The server's scheduler batches concurrent sweep-shaped requests
(tree / one-to-many / isochrone) into one multi-source PHAST sweep.
``C(k)`` is the cost of one served batch of ``k`` tree requests for
k = 1, 2, 3, 4, 8, 16, in process and on the path the server runs on
its event loop: the engine's k-lane ``PhastEngine.trees(sources,
out=)`` call into a reused buffer (each lane's upward search, the
sweep and the scatter into original IDs — the server runs no search
cache, so every lane pays its search) and the batch's answer frames,
all ``k`` written from the intake's records by one
:func:`protocol.sweep_frames` call and copied out as the one write of
a single connection.  The ks take turns over alternating rounds; a
least-squares line through each round's medians gives that round's
``C(k) = alpha + beta * k``, and the line through the medians of the
rounds' medians is reported with the quartiles of the rounds' alphas
and betas.

The intake is what a request costs before its batch: from the bytes
of a read to a request queued at the batcher (frames split, sweep
requests parsed and validated in one native call, admission, the
queue), with the kernels and on the ``json.loads`` fallback.

The sweep path is a request's whole cost on the server's event loop:
a read of serve-sweep's mix goes to a connection of a started service
as one ``data_received`` call, and the batcher takes it through its
window, the sweep and the answer frames to the transport.  It is
timed with the real kernels, and with the ``trees`` call and the frame
writer stubbed, which leaves the Python around them.

Served throughput and latency are measured end to end by
``perfbench`` (``BENCHMARK.json``), in alternating runs of two
commits; the closed-loop batching and router sweeps this bench used
to run were single points on a host shared with their load generator,
and could not be compared across commits.

Environment knob: ``REPRO_BENCH_SCALE`` (instance size, shared with
the other benches).  Results go to ``BENCH_server.json``.
"""

from __future__ import annotations

import asyncio
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
BATCH_COST_REPS = 40
BATCH_COST_ROUNDS = 10
INTAKE_FRAMES = 16
INTAKE_READS = 300
INTAKE_ROUNDS = 10
PATH_FRAMES = (1, 16)
PATH_READS = 200
PATH_ROUNDS = 10


def _quartiles(values) -> dict:
    q25, q50, q75 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(q50), 4), "q25": round(float(q25), 4),
            "q75": round(float(q75), 4)}


def _batch_cost(ch, n: int) -> dict:
    """``C(k)`` for one served batch of ``k`` tree requests.

    Each rep draws ``k`` fresh sources, runs the engine's ``trees``
    call into the first ``k`` rows of a reused, bound ``(BATCH_MAX,
    n)`` buffer, as the server does (search + sweep + scatter), and then
    writes the batch's ``k`` answer frames as the server does (one
    :func:`protocol.sweep_frames` call over the records the intake made
    of a read of ``k`` tree frames, the frames copied out as one
    connection's write), timed apart.  Every round runs every ``k``,
    ``BATCH_COST_REPS`` reps each, in an order that alternates between
    rounds, so a phase of the shared host lands on all of them.
    Reported per ``k``: the medians of both parts across the rounds'
    medians, their sum and the sum over ``k`` (cost per request), and
    the fit of every round.
    """
    engine = PhastEngine(ch)
    buf = engine.bind_rows(np.empty((BATCH_MAX, n), dtype=np.int64))
    rng = np.random.default_rng(11)
    reads = {}
    for k in BATCH_COST_KS:
        read = b"".join(protocol.encode_message(
            {"id": i, "op": "tree", "source": i}) for i in range(k))
        records, _, _ = protocol.parse_requests(read, 0, n)
        reads[k] = [(records, read, None, 0, k, 0)]
    engine.trees([0], out=buf[1])  # lazy buffers
    rounds = []
    with bulk_compute():
        for r in range(BATCH_COST_ROUNDS):
            medians = {}
            for k in BATCH_COST_KS if r % 2 == 0 else BATCH_COST_KS[::-1]:
                trees_s, finish_s = [], []
                for _ in range(BATCH_COST_REPS):
                    sources = rng.choice(n, size=k, replace=False).tolist()
                    t0 = time.perf_counter()
                    rows = engine.trees(sources, out=buf[k])
                    t1 = time.perf_counter()
                    frames, _ = protocol.sweep_frames(rows, reads[k])
                    bytes(frames)
                    t2 = time.perf_counter()
                    trees_s.append(t1 - t0)
                    finish_s.append(t2 - t1)
                medians[k] = (float(np.median(trees_s)) * 1e3,
                              float(np.median(finish_s)) * 1e3)
            rounds.append(medians)
    ks = np.array(BATCH_COST_KS, dtype=float)
    fits = [np.polyfit(ks, [sum(m[k]) for k in BATCH_COST_KS], 1)
            for m in rounds]
    points = []
    for k in BATCH_COST_KS:
        trees_ms = float(np.median([m[k][0] for m in rounds]))
        finish_ms = float(np.median([m[k][1] for m in rounds]))
        points.append({
            "k": k,
            "search_sweep_ms": round(trees_ms, 4),
            "finalize_encode_ms": round(finish_ms, 4),
            "batch_ms": round(trees_ms + finish_ms, 4),
            "per_request_ms": round((trees_ms + finish_ms) / k, 4),
            "per_request_ms_by_round": _quartiles(
                [sum(m[k]) / k for m in rounds]),
        })
    beta, alpha = np.polyfit(ks, [p["batch_ms"] for p in points], 1)
    return {
        "what": "one served batch of k tree requests, in process: "
                "PhastEngine.trees into a reused buffer (search, sweep, "
                "scatter; no search cache) + the batch's answer frames "
                "(one sweep_frames call over the intake's records, copied "
                "out as one write); medians of alternating rounds' medians",
        "reps_per_k": BATCH_COST_REPS,
        "rounds": BATCH_COST_ROUNDS,
        "points": points,
        "alpha_ms": round(float(alpha), 4),
        "beta_ms": round(float(beta), 4),
        "alpha_over_beta": round(float(alpha / beta), 3),
        "alpha_ms_by_round": _quartiles([a for _, a in fits]),
        "beta_ms_by_round": _quartiles([b for b, _ in fits]),
    }


def _mix(n: int, budget: int, rng):
    """serve-sweep's request mix, as its load generator writes it:
    ``tree``, ``isochrone`` and ``one_to_many`` with 64 targets in
    turn, from uniform sources."""

    def request(i: int) -> dict:
        kind, source = i % 3, int(rng.integers(n))
        if kind == 0:
            return {"id": i, "op": "tree", "source": source}
        if kind == 1:
            return {"id": i, "op": "isochrone", "source": source,
                    "budget": budget}
        return {"id": i, "op": "one_to_many", "source": source,
                "targets": rng.integers(n, size=64).tolist()}

    return request


def _intake_cost(ch, n: int) -> dict:
    """Per-request cost of taking a read in, native against fallback.

    Each read holds ``INTAKE_FRAMES`` frames of serve-sweep's mix
    (``tree``, ``isochrone``, ``one_to_many`` with 64 targets, in
    equal shares, as its load generator writes them) and goes to a
    connection of an unstarted service as one ``data_received`` call:
    the frames are split, parsed, admitted and queued to the batcher
    (one chunk per read with the kernels, one per frame without).
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
    budget = int(np.median(PhastEngine(ch).tree(0).dist)) // 2
    request = _mix(n, budget, np.random.default_rng(13))
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
            record[f"{backend}_us"] = _quartiles([r[backend] for r in rounds])
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


def _sweep_path_cost(ch, n: int) -> dict:
    """Per-request cost of a read on the server's event loop, from
    ``data_received`` to its answer frames written.

    A started service (on a private event loop, the batcher running)
    takes reads of serve-sweep's mix of ``PATH_FRAMES`` frames on a
    connection whose transport drops what it is written; each read is
    timed from its ``data_received`` call until no answer is owed (the
    batcher's window, the sweep, the frames and the write included)
    and divided by its frames.  ``kernels`` runs the engine's ``trees``
    and the native frame writer; ``stubbed`` replaces the ``trees``
    call with the reused rows as they are and the frame writer with
    one that writes nothing, which leaves the Python around them.  The
    four setups take turns over ``PATH_ROUNDS`` rounds of
    ``PATH_READS`` reads each (after a warm-up pass of each), the
    order reversed every other round: each round's median is
    recorded, and per setup the median and quartiles of the round
    medians.
    """
    budget = int(np.median(PhastEngine(ch).tree(0).dist)) // 2
    request = _mix(n, budget, np.random.default_rng(17))
    reads = {}
    for frames in PATH_FRAMES:
        messages = [request(i) for i in range(PATH_READS * frames)]
        encoded = [protocol.encode_message(m) for m in messages]
        reads[frames] = [b"".join(encoded[i:i + frames])
                         for i in range(0, len(encoded), frames)]
    service = PhastService(ch, config=ServerConfig(batch_max=BATCH_MAX))
    conn = Connection(_Sink(), service)
    kernels = service.batcher.sweep_fn
    rows = service._rows

    def stub_trees(sources):
        return rows[:len(sources)]

    def stub_writer(rows, items):
        return memoryview(b""), [0] * len(items)

    async def one_pass(setup: tuple[str, int]) -> float:
        """The median per-request cost of one pass over the reads."""
        mode, frames = setup
        per_request = []
        service.batcher.sweep_fn = kernels if mode == "kernels" \
            else stub_trees
        with nullcontext() if mode == "kernels" else patch.object(
                native, "answer_frames", stub_writer):
            for data in reads[frames]:
                t0 = time.perf_counter()
                conn.data_received(data)
                while service._owed:
                    await asyncio.sleep(0)
                per_request.append((time.perf_counter() - t0) / frames)
        return float(np.median(per_request)) * 1e6

    setups = [(mode, frames) for mode in ("kernels", "stubbed")
              for frames in PATH_FRAMES]

    async def main() -> list[dict]:
        await service._prepare()
        try:
            for setup in setups:  # warm-up
                await one_pass(setup)
            rounds = []
            for r in range(PATH_ROUNDS):
                order = setups if r % 2 == 0 else setups[::-1]
                medians = {setup: await one_pass(setup) for setup in order}
                rounds.append({f"{mode}_{frames}": round(medians[
                    (mode, frames)], 2) for mode, frames in setups})
            return rounds
        finally:
            await service._release()

    with bulk_compute():
        rounds = asyncio.run(main())
    record: dict = {
        "what": "data_received of a read of serve-sweep's mix to its "
                "answer frames written (window, sweep, frames, write), on "
                "a started service's event loop, per request; kernels: "
                "trees and the native frame writer; stubbed: both "
                "replaced by no-ops",
        "frames_per_read": list(PATH_FRAMES),
        "reads_per_round": PATH_READS,
        "rounds": PATH_ROUNDS,
        "round_medians_us": rounds,
    }
    for key in rounds[0]:
        record[f"{key}_us"] = _quartiles([r[key] for r in rounds])
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
        "sweep_path_us": _sweep_path_cost(ch, graph.n),
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
        path = record["sweep_path_us"]
        print_table(
            f"sweep path: data_received to frames written, per request "
            f"(median and quartiles of {path['rounds']} alternating "
            f"rounds' medians)",
            ["setup", "median us", "q25 us", "q75 us"],
            [[key, fmt(path[f"{key}_us"]["median"], 2),
              fmt(path[f"{key}_us"]["q25"], 2),
              fmt(path[f"{key}_us"]["q75"], 2)]
             for key in path["round_medians_us"][0]],
        )
    with open(OUTPUT, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    if not quiet:
        print(f"wrote {OUTPUT}")
    return record


if __name__ == "__main__":
    run()
