"""Hardened tuning client with mandatory graceful degradation.

:class:`TuningClient` talks the daemon's JSON-framed protocol, but its
defining feature is every way it *stops* talking:

* each client holds **one persistent connection**, opened on the
  first RPC and reused by every later one; it is dropped whenever the
  stream may be out of step (a transport or protocol error, a timeout,
  EOF, a malformed reply), so a late reply is never read as the answer
  to the next request, and reopened when ``endpoint`` changes or the
  process forks;
* every RPC carries a **socket timeout** — a wedged daemon costs a
  bounded wait, never a hang;
* transient failures retry with **capped exponential backoff plus
  seeded jitter** (deterministic in tests, decorrelated in fleets);
* a per-endpoint **circuit breaker** opens after consecutive transport
  failures, so a dead daemon costs one probe per cooldown instead of a
  full timeout-and-retry budget per request;
* when the service cannot answer — unreachable, shedding (``busy``
  replies), breaker open — the client **degrades to a local
  computation** that is bit-identical to what the daemon would have
  returned, because both sides run the same pure
  :func:`~repro.serve.core.compute_decision`.  Degradation is the
  contract, not an error path: ``decide()`` only raises for *request*
  errors (which would fail identically locally) or when the caller
  explicitly disabled fallback (:class:`~repro.errors.ServiceUnavailable`).

:meth:`TuningClient.budget` states the worst-case wall-clock bound a
single ``decide()`` can spend on the network before degrading — the
chaos acceptance gate asserts no client ever exceeds it.

:class:`ServiceHistory` adapts the client to the
:class:`~repro.adcl.history.HistoryLike` duck interface, so an
:class:`~repro.adcl.request.ADCLRequest` becomes a stateless worker
over the shared knowledge base — with a local
:class:`~repro.adcl.history.HistoryStore` shadow that keeps historic
learning working through daemon outages.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from typing import Optional, Tuple

from ..adcl.history import HistoryStore
from ..bench.fabric.protocol import ProtocolError, recv_frame, send_frame
from ..errors import ServeError, ServiceUnavailable
from .breaker import CircuitBreaker
from .core import compute_decision, normalize_request, request_key
from .endpoint import connect
from .server import SERVE_MAX_FRAME

__all__ = ["ServiceHistory", "TuningClient"]


class _Transient(Exception):
    """Internal: this attempt failed but another may succeed."""


class TuningClient:
    """One endpoint, one connection, many RPCs; degrades instead of
    failing.  ``close()`` (or a ``with`` block) releases the
    connection; a closed client reopens it on its next RPC."""

    def __init__(self, endpoint: str, timeout: float = 2.0,
                 attempts: int = 3, backoff_base: float = 0.05,
                 backoff_cap: float = 1.0, jitter_seed: int = 0,
                 fallback: bool = True,
                 breaker: Optional[CircuitBreaker] = None,
                 correlation: str = ""):
        if attempts < 1:
            raise ServeError(f"attempts must be >= 1, got {attempts}")
        self.endpoint = endpoint
        self.timeout = timeout
        self.attempts = attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.fallback = fallback
        self.breaker = breaker or CircuitBreaker()
        #: cross-process trace correlation id; when set, every RPC frame
        #: carries it as a trailing element so daemon-side telemetry and
        #: merged traces can tie requests back to the originating run
        self.correlation = correlation
        self._rng = random.Random(jitter_seed)
        # telemetry (plain counters; the daemon owns the real registry)
        self.rpc_ok = 0
        self.rpc_failed = 0
        self.busy_replies = 0
        self.degraded = 0
        #: the open connection and the ``(endpoint, pid)`` that opened it
        self._sock: Optional[socket.socket] = None
        self._owner: Optional[Tuple[str, int]] = None
        #: one RPC at a time: frames of two threads never interleave
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the connection (idempotent)."""
        with self._lock:
            self._drop()

    def __enter__(self) -> "TuningClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wall-clock contract ------------------------------------------------

    def budget(self) -> float:
        """Worst-case seconds one ``decide()`` spends on the network
        before degrading: every attempt timing out plus every backoff
        pause at its cap.  The chaos gate holds clients to this bound
        (plus the local computation itself)."""
        backoffs = sum(min(self.backoff_base * (2 ** i), self.backoff_cap)
                       for i in range(self.attempts - 1))
        return self.attempts * self.timeout + backoffs

    def _backoff(self, attempt: int) -> float:
        """Capped exponential backoff with full jitter."""
        cap = min(self.backoff_base * (2 ** attempt), self.backoff_cap)
        return self._rng.uniform(0.0, cap)

    def _frame(self, op: str, *args) -> tuple:
        """Build an RPC frame; a set correlation id rides as a trailing
        element (never inside the request dict, which the daemon
        normalises strictly)."""
        if self.correlation:
            return (op, *args, self.correlation)
        return (op, *args)

    # -- one framed RPC -----------------------------------------------------

    def _drop(self) -> None:
        """Forget the connection; the next RPC opens a fresh one."""
        sock, self._sock, self._owner = self._sock, None, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _connection(self, timeout: float) -> Tuple[socket.socket, bool]:
        """The connection and whether it is a reused one.  A connection
        opened for another endpoint or in the parent of a fork is
        replaced, never shared."""
        owner = (self.endpoint, os.getpid())
        if self._sock is not None and self._owner == owner:
            return self._sock, True
        self._drop()
        sock = connect(self.endpoint, timeout)
        sock.settimeout(timeout)
        self._sock, self._owner = sock, owner
        return sock, False

    @staticmethod
    def _exchange(sock: socket.socket, message: tuple) -> Optional[tuple]:
        """Send one frame, read one reply; None when the peer had already
        hung up (EPIPE/ECONNRESET on send, or EOF before a reply byte)."""
        try:
            send_frame(sock, message, codec="json")
        except (BrokenPipeError, ConnectionResetError):
            return None
        return recv_frame(sock, codec="json", max_frame=SERVE_MAX_FRAME)

    def _rpc_once(self, message: tuple) -> tuple:
        """One request/reply exchange on the client's connection.

        The connection is opened on first use and kept while the stream
        is known to be in step: a reply was read whole and was ``ok``,
        ``busy``, ``pong`` or a typed ``err``.  Any transport or
        protocol error, timeout, EOF or malformed reply drops it.

        A *reused* connection the daemon already hung up on (a restart
        or a drain closes idle connections) is reopened and the request
        resent once, inside this attempt and within what is left of its
        ``timeout``; that is not a failure.  A timeout is never followed
        by a resend, so a wedged daemon still costs one ``timeout`` per
        attempt.  Like the retry loop in :meth:`_call`, a resend is
        at-least-once: a daemon that acted on the request and then died
        before replying sees it twice.

        Raises ``_Transient`` for anything worth retrying (transport
        errors, protocol garbage, daemon-side internal errors) and
        :class:`ServeError` for typed request errors, which are
        deterministic — a retry or a local fallback would fail the same
        way, so they propagate immediately.
        """
        with self._lock:
            t0 = time.monotonic()
            try:
                sock, reused = self._connection(self.timeout)
                reply = self._exchange(sock, message)
                left = self.timeout - (time.monotonic() - t0)
                if reply is None and reused and left > 0:
                    self._drop()
                    sock, _ = self._connection(left)
                    reply = self._exchange(sock, message)
                    sock.settimeout(self.timeout)
            except ProtocolError as exc:
                self._drop()
                raise _Transient(f"protocol: {exc}") from exc
            except OSError as exc:
                self._drop()
                raise _Transient(f"transport: {exc}") from exc
            if reply is None:
                self._drop()
                raise _Transient("connection closed before reply")
            if not reply or not isinstance(reply[0], str):
                self._drop()
                raise _Transient(f"malformed reply: {reply!r}")
        if reply[0] == "err":
            kind = reply[1] if len(reply) > 1 else "?"
            text = reply[2] if len(reply) > 2 else ""
            if kind == "request":
                raise ServeError(text)
            raise _Transient(f"server error [{kind}]: {text}")
        return reply

    def _call(self, message: tuple) -> Optional[tuple]:
        """RPC with retries, backoff and the breaker; None = degrade.

        A ``busy`` reply is a *healthy* daemon shedding load: it feeds
        the backoff loop but not the breaker (the transport works).
        """
        for attempt in range(self.attempts):
            if not self.breaker.allow():
                return None  # open breaker: degrade without spending time
            try:
                reply = self._rpc_once(message)
            except _Transient:
                self.rpc_failed += 1
                self.breaker.record_failure()
                if attempt + 1 < self.attempts:
                    time.sleep(self._backoff(attempt))
                continue
            self.breaker.record_success()
            if reply[0] == "busy":
                self.busy_replies += 1
                if attempt + 1 < self.attempts:
                    time.sleep(self._backoff(attempt))
                continue
            self.rpc_ok += 1
            return reply
        return None

    # -- public API ---------------------------------------------------------

    def decide(self, fields: Optional[dict] = None) -> dict:
        """A decision record for the scenario, from the service or —
        bit-identically — computed locally.

        The returned record always has ``decision`` and ``source``
        (``"service"`` for daemon answers, whatever the daemon recorded
        — ``computed``/``retune``/… — is preserved under
        ``service_source``; ``"local"`` for degraded answers).
        """
        req = normalize_request(fields)  # request errors fail fast, locally
        reply = self._call(self._frame("get", req))
        if reply is not None and reply[0] == "ok" and \
                isinstance(reply[1], dict):
            record = dict(reply[1])
            record["service_source"] = record.get("source")
            record["source"] = "service"
            return record
        if not self.fallback:
            raise ServiceUnavailable(
                f"tuning service at {self.endpoint!r} unavailable "
                f"and local fallback is disabled")
        self.degraded += 1
        return {
            "key": request_key(req),
            "version": 0,
            "source": "local",
            "request": req,
            "decision": compute_decision(req),
            "deleted": False,
        }

    def warm(self, fields: Optional[dict] = None) -> Optional[dict]:
        """Nearest-geometry warm-start record, or None (miss/degraded)."""
        req = normalize_request(fields)
        reply = self._call(self._frame("warm", req))
        if reply is not None and reply[0] == "ok":
            return reply[1]
        return None

    def lookup(self, key: str) -> Optional[dict]:
        """Exact knowledge-base record, or None (miss/degraded)."""
        reply = self._call(self._frame("lookup", key))
        if reply is not None and reply[0] == "ok":
            return reply[1]
        return None

    def record(self, key: str, decision: dict) -> bool:
        """Push a client-side decision; False when the push was degraded."""
        reply = self._call(self._frame("record", key, decision))
        return reply is not None and reply[0] == "ok"

    def forget(self, key: str) -> bool:
        reply = self._call(self._frame("forget", key))
        return reply is not None and reply[0] == "ok"

    def report(self, fields: Optional[dict], seconds: float) -> Optional[dict]:
        """Post-decision measurement for drift detection (best-effort)."""
        req = normalize_request(fields)
        try:
            reply = self._call(self._frame("report", req, float(seconds)))
        except ServeError:
            return None  # e.g. no decision on file — nothing to drift from
        if reply is not None and reply[0] == "ok":
            return reply[1]
        return None

    def ping(self) -> bool:
        reply = self._call(("ping",))
        return reply is not None and reply[0] == "pong"

    def stats(self) -> Optional[dict]:
        reply = self._call(self._frame("stats"))
        if reply is not None and reply[0] == "ok":
            return reply[1]
        return None


class ServiceHistory:
    """:class:`~repro.adcl.history.HistoryLike` over the daemon.

    Makes any :class:`~repro.adcl.request.ADCLRequest` a *stateless
    worker*: its historic-learning lookups and decision writes go to
    the shared knowledge base instead of a process-private JSON file.
    Every operation shadows into a local in-memory (or file-backed)
    :class:`~repro.adcl.history.HistoryStore`, so a daemon outage
    mid-run degrades to exactly the standalone behavior.

    Keys are ADCL history keys (``fnset@platform:kind:P..:B..:R..``),
    namespaced in the knowledge base under ``adcl:`` so they can never
    collide with the daemon's own ``tune:`` request keys.
    """

    def __init__(self, client: TuningClient,
                 local: Optional[HistoryStore] = None):
        self.client = client
        self.local = local if local is not None else HistoryStore(path=None)

    @staticmethod
    def _kb_key(key: str) -> str:
        return f"adcl:{key}"

    def lookup(self, key: str) -> Optional[str]:
        record = self.client.lookup(self._kb_key(key))
        if record is not None and record.get("decision"):
            winner = record["decision"].get("winner")
            if isinstance(winner, str):
                # refresh the shadow so a later outage still knows it
                if self.local.lookup(key) != winner:
                    self.local.record(
                        key, winner,
                        int(record["decision"].get("decided_at", 0)))
                return winner
        return self.local.lookup(key)

    def record(self, key: str, winner: str, decided_at: int) -> None:
        self.local.record(key, winner, decided_at)
        self.client.record(self._kb_key(key),
                           {"winner": winner, "decided_at": decided_at})

    def forget(self, key: str) -> None:
        self.local.forget(key)
        self.client.forget(self._kb_key(key))
