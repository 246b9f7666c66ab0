"""Blocking client for the query service.

One :class:`ServerClient` owns one TCP connection and issues one
request at a time (closed-loop).  It is deliberately synchronous —
load generators and applications scale by running one client per
thread, which is also how the benchmark applies offered load.  Not
thread-safe; share nothing, connect per thread.

The connection is *persistent*: it is established once (eagerly, so
construction surfaces an unreachable endpoint immediately) and reused
for every subsequent call — on the router path each per-call connect
would otherwise add a syscall round trip and a three-way handshake in
front of a sub-millisecond query.  The client reconnects only after a
transport failure or a read timeout; :attr:`connects_total` /
:attr:`reconnects_total` make the reuse observable, and the tests pin
it (N calls, one socket).

Failure semantics
-----------------
Every query op is a pure read, so lost-connection retries are safe:
``call`` reconnects and retries transient transport failures (refused
connection, reset, server closed mid-request) with exponential
backoff plus jitter, up to ``max_retries`` times.  Application-level
failures — :class:`ServerError` envelopes and
:class:`~repro.server.protocol.ProtocolError` — are never retried:
the server answered; asking again would repeat the answer.

A per-call read ``timeout=`` bounds how long one response may take.
When it fires the connection is dropped (the frame stream is now
desynchronized — a late response would misalign request ids) and
``TimeoutError`` is raised naming the endpoint; the next call
reconnects.
"""

from __future__ import annotations

import random
import socket
import time

import numpy as np

from . import protocol

__all__ = ["ServerClient", "ServerError"]

#: Default for optional wire fields: "the caller said nothing", as
#: distinct from an explicit ``None`` (which travels as JSON null).
_UNSET = "unset"


class ServerError(RuntimeError):
    """The server answered with an error envelope."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = int(code)
        self.message = message


class ServerClient:
    """Issue queries against a running :class:`~repro.server.service.PhastService`.

    Parameters
    ----------
    host, port:
        Where the service listens.
    timeout:
        Default socket timeout in seconds for each send/receive;
        ``call(..., timeout=)`` overrides it for one read.
    connect_retry_s:
        Keep retrying the initial connection for this many seconds —
        lets scripts start a client right after forking the server.
    max_retries:
        How many times ``call`` re-attempts after a transient
        connection failure (0 disables retrying).
    backoff_s:
        Base delay before the first retry; doubles per attempt, with
        uniform jitter in ``[0.5x, 1.5x)`` so a thundering herd of
        clients does not reconnect in lockstep.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7171, *,
                 timeout: float = 60.0, connect_retry_s: float = 0.0,
                 max_retries: int = 2, backoff_s: float = 0.05) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        self.host = host
        self.port = int(port)
        self._timeout = timeout
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self._next_id = 0
        #: Connections established over this client's lifetime; the
        #: first connect counts, so ``reconnects_total`` is
        #: ``connects_total - 1``.
        self.connects_total = 0
        self._sock: socket.socket | None = self._connect(connect_retry_s)

    @property
    def _endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def _connect(self, retry_s: float) -> socket.socket:
        deadline = time.monotonic() + retry_s
        while True:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self._timeout
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.connects_total += 1
                return sock
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise ConnectionError(
                        f"cannot connect to {self._endpoint}: {exc}"
                    ) from exc
                time.sleep(0.05)

    @property
    def connected(self) -> bool:
        """A live (as far as we know) connection is being reused."""
        return self._sock is not None

    @property
    def reconnects_total(self) -> int:
        """How many times the persistent connection had to be rebuilt."""
        return max(0, self.connects_total - 1)

    def _drop(self) -> None:
        """Discard the connection; the next call reconnects."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # -- plumbing ----------------------------------------------------------

    def call(self, op: str, *, timeout: float | None = None, **params) -> dict:
        """One request/response round trip; raises :class:`ServerError`.

        ``timeout`` bounds this call's response read (seconds); when it
        fires, ``TimeoutError`` is raised and the connection dropped.
        Transient connection failures are retried with backoff; the
        request ids restart per connection, so a retry never collides
        with a stale in-flight response.
        """
        delay = self.backoff_s
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(delay * (0.5 + random.random()))
                delay *= 2
            try:
                return self._call_once(op, params, timeout)
            except ConnectionError:
                self._drop()
                if attempt >= self.max_retries:
                    raise
        raise AssertionError("unreachable")

    def _call_once(self, op: str, params: dict, timeout: float | None) -> dict:
        if self._sock is None:
            self._sock = self._connect(0.0)
            self._next_id = 0
        sock = self._sock
        self._next_id += 1
        req_id = self._next_id
        try:
            protocol.send_message(sock, {"id": req_id, "op": op, **params})
        except OSError as exc:
            raise ConnectionError(
                f"lost connection to {self._endpoint} while sending: {exc}"
            ) from exc
        if timeout is not None:
            sock.settimeout(timeout)
        try:
            resp = protocol.recv_message(sock)
        except TimeoutError as exc:
            self._drop()  # frame stream is desynchronized now
            limit = self._timeout if timeout is None else timeout
            raise TimeoutError(
                f"no response from {self._endpoint} within {limit}s"
            ) from exc
        except OSError as exc:
            raise ConnectionError(
                f"lost connection to {self._endpoint} while reading: {exc}"
            ) from exc
        finally:
            if timeout is not None and self._sock is sock:
                sock.settimeout(self._timeout)
        if resp is None:
            raise ConnectionError(
                f"{self._endpoint} closed the connection mid-request"
            )
        if resp.get("id") != req_id:
            raise protocol.ProtocolError(
                f"response id {resp.get('id')!r} != request id {req_id}"
            )
        if not resp.get("ok"):
            err = resp.get("error") or {}
            raise ServerError(err.get("code", protocol.INTERNAL),
                              err.get("message", "unknown server error"))
        return resp

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- unified call core -------------------------------------------------

    def _call(self, op: str, *, timeout: float | None = None,
              **fields) -> dict:
        """Registry-normalized request core every typed wrapper rides.

        Field names follow the *unified* surface — ``sources`` /
        ``targets`` everywhere — and are mapped onto the wire names the
        op registry declares: an op whose wire field is the singular
        ``source`` accepts a scalar or a length-1 sequence under
        ``sources``; list-typed wire fields accept a scalar and wrap
        it.  Fields left at the ``_UNSET`` sentinel are omitted from
        the frame.  Unknown ops (a newer server) pass fields through
        untouched.
        """
        spec = protocol.OPS_BY_NAME.get(op)
        params: dict = {}
        by_name = {p.name: p for p in spec.params} if spec else {}
        by_alias = {
            alias: p
            for p in (spec.params if spec else ())
            for alias in p.aliases
        }
        for key, value in fields.items():
            if isinstance(value, str) and value == _UNSET:
                continue
            param = by_name.get(key) or by_alias.get(key)
            if param is None:
                params[key] = value
                continue
            if param.type == "vertex" and not isinstance(value, (int, np.integer)):
                seq = list(value)
                if len(seq) != 1:
                    raise ValueError(
                        f"op {op!r} takes exactly one {param.name}; "
                        f"got {len(seq)} under {key!r}"
                    )
                value = seq[0]
            elif param.type in ("vertex_list", "int_list"):
                if isinstance(value, (int, np.integer)):
                    value = [value]
                value = [int(v) for v in value]
            if param.type in ("vertex", "nonneg_int"):
                value = int(value)
            params[param.name] = value
        return self.call(op, timeout=timeout, **params)

    # -- the query types ---------------------------------------------------

    def query(self, sources, targets, *, stall: bool = False,
              timeout_ms: float | None = _UNSET) -> dict:
        """Point-to-point distance: ``{"distance", "reachable", "settled"}``.

        ``sources``/``targets`` each take one vertex (scalar or
        length-1 sequence).
        """
        return self._call("query", sources=sources, targets=targets,
                          stall=stall, timeout_ms=timeout_ms)

    def tree(self, sources, *,
             timeout_ms: float | None = _UNSET) -> np.ndarray:
        """Full distance array from one source (int64, INF = unreachable)."""
        resp = self._call("tree", sources=sources, timeout_ms=timeout_ms)
        return np.asarray(resp["dist"], dtype=np.int64)

    def one_to_many(self, sources, targets, *,
                    timeout_ms: float | None = _UNSET) -> np.ndarray:
        """Distances from one source to each of ``targets`` (int64)."""
        resp = self._call("one_to_many", sources=sources, targets=targets,
                          timeout_ms=timeout_ms)
        return np.asarray(resp["dist"], dtype=np.int64)

    def matrix(self, sources, targets, *,
               timeout_ms: float | None = _UNSET) -> np.ndarray:
        """Travel-time matrix: row ``i`` = distances from ``sources[i]``
        to each of ``targets`` (int64, INF = unreachable)."""
        resp = self._call("matrix", sources=sources, targets=targets,
                          timeout_ms=timeout_ms)
        return np.asarray(resp["matrix"], dtype=np.int64)

    def isochrone(self, sources, budget: int, *,
                  timeout_ms: float | None = _UNSET) -> np.ndarray:
        """Sorted vertex ids within ``budget`` of one source (int64)."""
        resp = self._call("isochrone", sources=sources, budget=budget,
                          timeout_ms=timeout_ms)
        return np.asarray(resp["vertices"], dtype=np.int64)

    # -- control -----------------------------------------------------------

    def swap_metric(self, weights=None, *, path: str | None = None,
                    timeout_ms: float | None = _UNSET,
                    timeout: float | None = None) -> dict:
        """Hot-swap the serving metric; returns the swap report.

        Exactly one of ``weights`` (per-base-arc edge weights, any
        integer sequence / NumPy array) or ``path`` (a metric artifact
        on the *server's* filesystem, written by ``repro customize``)
        must be given.  Against a router this rolls the swap over
        every replica; the report then carries per-replica payloads.
        """
        fields: dict = {"timeout_ms": timeout_ms}
        if weights is not None:
            fields["weights"] = np.asarray(weights).tolist()
        if path is not None:
            fields["path"] = path
        resp = self._call("swap_metric", timeout=timeout, **fields)
        resp.pop("id", None)
        resp.pop("ok", None)
        return resp

    # -- admin -------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.call("ping").get("pong"))

    def info(self) -> dict:
        resp = self.call("info")
        resp.pop("id", None)
        resp.pop("ok", None)
        return resp

    def metrics(self) -> dict:
        return self.call("metrics")["metrics"]

    def health(self) -> dict:
        """Supervision health: status, readiness, generation and admission."""
        resp = self.call("health")
        resp.pop("id", None)
        resp.pop("ok", None)
        return resp
