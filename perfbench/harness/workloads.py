"""The four workloads: set-up, measured phases, answer checks.

Every workload has the same shape, so every end-to-end metric means
the same thing on each (see ``perfbench/README.md``):

* set-up, repeated :data:`SETUP_REPS` times: generate the network,
  preprocess, start the program, get the first answer;
* a light-load phase: a closed loop with one operation in flight,
  giving ``p50_ms`` / ``p99_ms``;
* a saturated phase: a closed loop with :data:`WINDOW` operations in
  flight, giving ``capacity_rps`` and ``cpu_ms_per_req``;
* answer checks against Dijkstra, after the timed phases.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import threading
import time

import numpy as np

from . import inputs, speed
from .check import Oracle, matches
from .procs import Served, child_env, wait_gone
from .procstat import WindowLog, child_pids, read_peak_rss_mb, read_rss_mb
from .wire import PhaseResult, WireConn, closed_loop

__all__ = ["WORKLOADS", "SETUP_REPS", "SETUP_PROBES", "WINDOW",
           "LIGHT_SHARE"]

SETUP_REPS = 3
#: Host-speed samples taken just before and just after each set-up.
SETUP_PROBES = 40
#: Requests in flight in the saturated phase: twice the server's
#: batch_max, so a full batch is always queued behind the running one
#: (with exactly batch_max in flight, batch sizes drift run to run).
WINDOW = 32
#: Host-speed samples taken at each window boundary (see ``speed.py``);
#: two take ~2-3 ms of the generator's time per window.
PROBES = 2
#: Share of ``--seconds`` given to the light-load phase.
LIGHT_SHARE = 0.5
#: Length of the windows a phase is scored on (see ``score.py``).
WINDOW_S = 0.25
#: Seconds between metric swaps in ``metric-swap``.
SWAP_PERIOD = 1.0
#: Tree sources per ``PhastPool.trees`` call in ``offline-batch``.
OFFLINE_BATCH = 64
#: Sources per ``PhastPool.matrix`` call in ``offline-batch``.
OFFLINE_MATRIX_ROWS = 8


class Phase:
    """A measured phase with its CPU, steal and generator accounting."""

    def __init__(self, name: str, pids, window_s: float) -> None:
        self.name = name
        self.log = WindowLog(pids, window_s,
                             probe=lambda: speed.sample(PROBES))
        self._own0 = sum(os.times()[:2])
        self._t0 = time.perf_counter()

    def close(self, result) -> None:
        now = time.perf_counter()
        if not self.log.rows:
            self.log.start(self._t0)
        self.log.close(now)
        self.steal_share = self.log.totals()[0]
        self.slowdown = speed.slowdown(self.log.probes
                                       or speed.sample(8 * PROBES))
        self.client_cpu_share = ((sum(os.times()[:2]) - self._own0)
                                 / (now - self._t0))
        self.result = result


#: Light-phase blocks of a traced run: odd blocks record spans, even
#: blocks do not, and the difference of their p50s is tracing's cost.
TRACE_BLOCKS = 6


def merge(results: list[PhaseResult]) -> PhaseResult:
    out = PhaseResult(t_start=results[0].t_start, t_end=results[-1].t_end)
    for r in results:
        out.latencies_s += r.latencies_s
        out.recv_t += r.recv_t
        out.sampled += r.sampled
        out.lateness_s += r.lateness_s
        out.sent += r.sent
        out.completed_in_window += r.completed_in_window
        for code, count in r.errors.items():
            out.errors[code] = out.errors.get(code, 0) + count
    return out


class Workload:
    """Base: subclasses provide ``setup_once``, ``teardown``,
    ``serving_pids``, ``saturated`` and ``light_block`` (one light-load
    stretch, optionally traced)."""

    name = ""
    window_s = WINDOW_S

    def __init__(self, seed: int, workdir: str, root: str, tracer) -> None:
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.tracer = tracer
        self.env = child_env(root, workdir)
        self.setup_answers: list = []  # (request, response) to check
        self.wrong = 0
        self.checked = 0
        self.extras: dict = {}

    # -- set-up --------------------------------------------------------

    def network(self):
        with self.tracer.span("graph.generate"):
            self.graph = inputs.make_network()
        return self.graph

    def contract(self, graph):
        from repro.ch import CHParams, contract_graph

        with self.tracer.span("ch.contract"):
            return contract_graph(graph, CHParams())

    def artifact(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        """Untimed work between set-up and the phases."""

    def light_phase(self, seconds: float) -> PhaseResult:
        """The light-load phase; traced runs alternate traced and
        untraced blocks and keep both latency sets."""
        if not self.tracer.enabled:
            return self.light_block(seconds, None)
        blocks = [self.light_block(seconds / TRACE_BLOCKS,
                                   self.tracer if i % 2 else None)
                  for i in range(TRACE_BLOCKS)]
        self.untraced_ms = [x * 1e3 for b in blocks[0::2]
                            for x in b.latencies_s]
        self.traced_ms = [x * 1e3 for b in blocks[1::2]
                          for x in b.latencies_s]
        return merge(blocks)

    def phases(self, seconds: float) -> list[Phase]:
        pids = self.serving_pids()
        out = []
        for name, share, run in (
                ("light", LIGHT_SHARE, self.light_phase),
                ("saturated", 1 - LIGHT_SHARE, self.saturated)):
            phase = Phase(name, pids, self.window_s)
            self.log = phase.log
            phase.close(run(seconds * share))
            out.append(phase)
        return out

    # -- checks --------------------------------------------------------

    def oracle(self) -> Oracle:
        if getattr(self, "_oracle", None) is None:
            self._oracle = Oracle({0: self.graph})
        return self._oracle

    def check(self, req: dict, resp: dict, allowed=(0,)) -> None:
        self.checked += 1
        oracle = self.oracle()
        if not any(matches(oracle, req, resp, k) for k in allowed):
            self.wrong += 1

    def check_phases(self, phases) -> None:
        for req, resp in self.setup_answers:
            self.check(req, resp)
        for phase in phases:
            for req, resp, _ts, _tr in phase.result.sampled:
                self.check(req, resp)


class _ServedWorkload(Workload):
    """A workload served by one program process over the wire."""

    def argv(self) -> list[str]:
        raise NotImplementedError

    def first_request(self) -> dict:
        raise NotImplementedError

    def stream(self):
        raise NotImplementedError

    def traffic(self):
        """The run's one request stream.  The light phase sends its
        first requests and the saturated phase goes on with it, so a
        sweep source does not come back within ``n`` requests across
        the phase boundary either."""
        if getattr(self, "_traffic", None) is None:
            self._traffic = self.stream()
        return self._traffic

    def warm(self, conn: WireConn) -> None:
        """Anything set-up must do before the first answer."""

    def setup_once(self) -> float:
        t0 = time.perf_counter()
        argv = self.argv()
        with self.tracer.span("setup.spawn"):
            self.proc = Served(argv, self.env)
        self.conn = self.proc.connect()
        self.warm(self.conn)
        req = self.first_request()
        with self.tracer.span("setup.first_answer"):
            resp = self.conn.call(req)
        elapsed = time.perf_counter() - t0
        self.setup_answers.append((req, resp))
        self.admin = self.proc.connect()
        return elapsed

    def serving_pids(self) -> list[int]:
        return [self.proc.pid] + child_pids(self.proc.pid)

    def teardown(self) -> None:
        """Stop what set-up started; safe after a set-up that failed
        part way and when called twice."""
        for name in ("conn", "admin"):
            conn = getattr(self, name, None)
            if conn is not None:
                conn.close()
            setattr(self, name, None)
        proc, self.proc = getattr(self, "proc", None), None
        if proc is None:
            return
        pids = child_pids(proc.pid) if proc.proc.poll() is None else []
        proc.stop()
        for pid in pids:
            wait_gone(pid)

    def light_block(self, seconds: float, tracer) -> PhaseResult:
        mask = inputs.sample_mask(self.seed, 0, 1 << 16, 1 / 48)
        return closed_loop(self.conn, self.traffic(), window=1,
                           seconds=seconds, sample=mask.__getitem__,
                           tracer=tracer, log=self.log)

    def saturated(self, seconds: float) -> PhaseResult:
        mask = inputs.sample_mask(self.seed, 1, 1 << 20, 1 / 256)
        return closed_loop(self.conn, self.traffic(), window=WINDOW,
                           seconds=seconds, sample=mask.__getitem__,
                           log=self.log)

    def rss_mb(self) -> float:
        return read_peak_rss_mb(self.serving_pids())


class ServeSweep(_ServedWorkload):
    name = "serve-sweep"

    def setup_once(self) -> float:
        from repro.graph import save_graph, save_hierarchy

        t0 = time.perf_counter()
        graph = self.network()
        self.ch = self.contract(graph)
        save_graph(graph, self.artifact("net.npz"))
        save_hierarchy(self.ch, self.artifact("net.ch.npz"))
        return (time.perf_counter() - t0) + super().setup_once()

    def argv(self):
        return ["serve", self.artifact("net.npz"), self.artifact("net.ch.npz"),
                "--port", "0"]

    def first_request(self):
        return {"op": "tree", "source": 0}

    def prepare(self):
        self.budget = inputs.isochrone_budget(self.graph, self.seed)

    def stream(self):
        return inputs.SweepStream(self.seed, self.graph.n, self.budget)


class ServeLookup(ServeSweep):
    """``repro route`` in front of one spawned ``repro serve`` replica."""

    name = "serve-lookup"

    def argv(self):
        return ["route", self.artifact("net.npz"), self.artifact("net.ch.npz"),
                "--replicas", "1", "--port", "0"]

    def first_request(self):
        return {"op": "query", "source": 0, "target": self.graph.n - 1}

    def stream(self):
        return inputs.LookupStream(self.seed, self.graph.n)

    def replica_address(self) -> tuple[str, int]:
        for line in self.proc.lines:
            if line.startswith("replica ") and line.rstrip().endswith(" ready"):
                host, _, port = line.split()[1].rpartition(":")
                return host, int(port)
        raise RuntimeError("router printed no replica address")


class MetricSwap(ServeSweep):
    """``repro serve --topology --metric`` with periodic ``swap_metric``."""

    name = "metric-swap"
    # Customized-hierarchy batches take 30-50 ms: a 0.25 s window holds
    # too few of them for a steady per-window completion rate.
    window_s = 0.5

    def setup_once(self) -> float:
        from repro.ch import build_topology, customize
        from repro.graph import save_graph, save_metric, save_topology

        t0 = time.perf_counter()
        graph = self.network()
        self.base = np.asarray(graph.arc_len, dtype=np.int64)
        with self.tracer.span("ch.build_topology"):
            self.topology = build_topology(graph)
        with self.tracer.span("ch.customize"):
            self.metric = customize(self.topology, self.base)
        save_graph(graph, self.artifact("net.npz"))
        save_topology(self.topology, self.artifact("net.topo.npz"))
        save_metric(self.metric, self.artifact("net.metric.npz"))
        return (time.perf_counter() - t0) + _ServedWorkload.setup_once(self)

    def argv(self):
        return ["serve", self.artifact("net.npz"),
                "--topology", self.artifact("net.topo.npz"),
                "--metric", self.artifact("net.metric.npz"), "--port", "0"]

    def warm(self, conn):
        # The first swap builds the native customization kernel; that
        # one-time cost belongs to set-up, not to swap latency.
        with self.tracer.span("setup.warm_swap"):
            resp = conn.call({"op": "swap_metric",
                              "weights": self.base.tolist()})
        if not resp.get("ok"):
            raise RuntimeError(f"warm-up swap failed: {resp}")

    def light_phase(self, seconds):
        """Sweep traffic with a ``swap_metric`` every :data:`SWAP_PERIOD`
        seconds on a second connection.  The saturated phase runs
        without swaps, so its capacity is the customized hierarchy's."""
        self.swaps: list = []  # (metric index, send time, ack time)
        self.swap_failures = 0
        stop = threading.Event()
        swapper = threading.Thread(target=self._swap_loop, args=(stop,))
        swapper.start()
        try:
            result = super().light_phase(seconds)
        finally:
            stop.set()
            swapper.join()
        if self.swaps:
            self.extras["swap_s"] = float(np.median(
                [t1 - t0 for _k, t0, t1 in self.swaps]))
        self.extras["swaps"] = len(self.swaps)
        return result

    def light_block(self, seconds, tracer):
        # Every response is kept raw: which ones get checked depends on
        # whether they overlapped a swap, known only afterwards.
        return closed_loop(self.conn, self.traffic(), window=1,
                           seconds=seconds, sample=lambda i: True,
                           max_samples=1 << 30, decode=False, tracer=tracer,
                           log=self.log)

    def saturated(self, seconds):
        return closed_loop(self.conn, self.traffic(), window=WINDOW,
                           seconds=seconds, sample=lambda i: True,
                           max_samples=1 << 30, decode=False, log=self.log)

    def _swap_loop(self, stop: threading.Event) -> None:
        conn = self.proc.connect()
        k = 0
        try:
            while not stop.wait(SWAP_PERIOD):
                k += 1
                weights = inputs.swap_weights(self.seed, self.base, k)
                t0 = time.perf_counter()
                resp = conn.call({"op": "swap_metric",
                                  "weights": weights.tolist()})
                t1 = time.perf_counter()
                if resp.get("ok"):
                    self.swaps.append((k, t0, t1))
                else:
                    self.swap_failures += 1
        finally:
            conn.close()

    def oracle(self):
        if getattr(self, "_oracle", None) is None:
            graphs = {0: self.graph}
            for k, _t0, _t1 in self.swaps:
                graphs[k] = inputs.reweighted(
                    self.graph, inputs.swap_weights(self.seed, self.base, k))
            self._oracle = Oracle(graphs)
        return self._oracle

    def allowed_metrics(self, t_send: float, t_recv: float) -> set:
        """Metrics a request in flight over [t_send, t_recv] may see:
        the last one acknowledged before it was sent, plus any whose
        swap overlapped it."""
        allowed = {0}
        for k, t0, t1 in self.swaps:
            if t1 <= t_send:
                allowed = {k}
            elif t0 < t_recv:
                allowed.add(k)
        return allowed

    def check_phases(self, phases):
        for req, resp in self.setup_answers:
            self.check(req, resp)
        rng = np.random.default_rng([self.seed, 77])
        for phase in phases:
            rows = phase.result.sampled
            across = [r for r in rows
                      if len(self.allowed_metrics(r[2], r[3])) > 1]
            plain = [r for r in rows
                     if len(self.allowed_metrics(r[2], r[3])) == 1]
            picks = across[:12]
            if plain:
                idx = rng.choice(len(plain), size=min(12, len(plain)),
                                 replace=False)
                picks += [plain[i] for i in sorted(idx)]
            for req, body, ts, tr in picks:
                self.check(req, json.loads(body),
                           sorted(self.allowed_metrics(ts, tr)))
        self.extras["checked_across_swap"] = sum(
            1 for phase in phases for r in phase.result.sampled
            if len(self.allowed_metrics(r[2], r[3])) > 1)


class OfflineBatch(Workload):
    """In-process ``PhastPool`` with two worker processes, no server."""

    name = "offline-batch"

    def setup_once(self) -> float:
        from repro.core import PhastPool, RPhastEngine

        # The previous set-up's hierarchy goes before this one is built,
        # so it neither adds to this set-up's memory nor lingers.
        self.ch = self.graph = None
        gc.collect()
        t0 = time.perf_counter()
        graph = self.network()
        self.ch = self.contract(graph)
        with self.tracer.span("core.pool_start"):
            self.pool = PhastPool(self.ch, num_workers=2,
                                  sources_per_sweep=16)
        with self.tracer.span("core.rphast_select"):
            self.targets = inputs.matrix_targets(self.seed, graph.n)
            engine = RPhastEngine(self.ch, self.targets).freeze()
            self.selection = self.pool.publish_arrays(
                engine.selection_arrays())
        with self.tracer.span("setup.first_answer"):
            row = self.pool.trees([0])[0].tolist()
        elapsed = time.perf_counter() - t0
        self.setup_answers.append(({"op": "tree", "source": 0},
                                   {"ok": True, "dist": row}))
        return elapsed

    def serving_pids(self) -> list[int]:
        return [os.getpid()] + child_pids(os.getpid())

    def teardown(self) -> None:
        if getattr(self, "pool", None) is not None:
            self.pool.close()
        self.pool = self.selection = None

    def prepare(self) -> None:
        # The parent's share of rss_mb is its resident size once set
        # up: its later peak would count the benchmark's own buffers
        # and the earlier set-ups.
        gc.collect()
        self.parent_rss_mb = read_rss_mb(os.getpid())

    def rss_mb(self) -> float:
        """The parent's resident size after set-up plus the peaks of
        the pool's worker processes."""
        return self.parent_rss_mb + read_peak_rss_mb(child_pids(os.getpid()))

    def light_block(self, seconds: float, tracer) -> PhaseResult:
        """One ``PhastPool.matrix`` call at a time."""
        res = PhaseResult()
        if getattr(self, "_matrix_sources", None) is None:
            self._matrix_sources = inputs.offline_sources(
                self.seed, self.graph.n, 0, 1 << 17)
            self._matrix_calls = 0
        sources = self._matrix_sources
        mask = inputs.sample_mask(self.seed, 0, 1 << 14, 1 / 64)
        res.t_start = time.perf_counter()
        deadline = res.t_start + seconds
        now = res.t_start
        if not self.log.rows:
            self.log.start(now)
        while now < deadline:
            i = self._matrix_calls % (len(sources) // OFFLINE_MATRIX_ROWS)
            self._matrix_calls += 1
            batch = sources[i * OFFLINE_MATRIX_ROWS:(i + 1) * OFFLINE_MATRIX_ROWS]
            res.sent += 1
            t = time.perf_counter()
            if res.sent > 1:
                res.lateness_s.append(t - now)
            if tracer is not None:
                with tracer.span("client.matrix"):
                    rows = self.pool.matrix(batch, selection=self.selection)
            else:
                rows = self.pool.matrix(batch, selection=self.selection)
            now = time.perf_counter()
            res.latencies_s.append(now - t)
            res.recv_t.append(now)
            res.completed_in_window += 1
            self.log.mark(now)
            if mask[i % mask.size] and len(res.sampled) < 24:
                res.sampled.append((
                    {"op": "matrix", "sources": batch,
                     "targets": self.targets},
                    {"ok": True, "matrix": rows.tolist()}, t, now))
        res.t_end = now
        return res

    def saturated(self, seconds: float) -> PhaseResult:
        """``PhastPool.trees`` over fixed-size batches of seeded sources;
        one "request" is one tree."""
        res = PhaseResult()
        sources = inputs.offline_sources(self.seed, self.graph.n, 1, 1 << 17)
        out = self.pool.alloc_output(OFFLINE_BATCH)
        res.t_start = time.perf_counter()
        deadline = res.t_start + seconds
        now = res.t_start
        self.log.start(now)
        calls = 0
        while now < deadline:
            lo = (calls * OFFLINE_BATCH) % (len(sources) - OFFLINE_BATCH)
            batch = sources[lo:lo + OFFLINE_BATCH]
            t = time.perf_counter()
            self.pool.trees(batch, out=out)
            now = time.perf_counter()
            res.latencies_s.append(now - t)
            res.recv_t += [now] * OFFLINE_BATCH
            res.sent += OFFLINE_BATCH
            res.completed_in_window += OFFLINE_BATCH
            self.log.mark(now)
            if calls % 97 == 0 and len(res.sampled) < 12:
                res.sampled.append(({"op": "tree", "source": batch[calls % 7]},
                                    {"ok": True,
                                     "dist": out[calls % 7].tolist()}, t, now))
            calls += 1
        res.t_end = now
        self.extras["trees_calls"] = calls
        return res

    def phases(self, seconds):
        phases = super().phases(seconds)
        light = phases[0].result
        cells = (light.completed_in_window * OFFLINE_MATRIX_ROWS
                 * len(self.targets))
        self.extras["cells_per_s"] = cells / (light.t_end - light.t_start)
        return phases


WORKLOADS = {cls.name: cls for cls in
             (ServeSweep, ServeLookup, MetricSwap, OfflineBatch)}


def fresh_workdir(base: str, name: str, seed: int) -> str:
    path = os.path.join(base, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
