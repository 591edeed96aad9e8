"""Tuning-as-a-service: a crash-safe knowledge daemon and its clients.

The survey's "persistent tuning database" grown into a service: one
long-lived daemon (:mod:`repro.serve.server`) owns a sharded,
WAL-backed knowledge base of tuning decisions
(:mod:`repro.serve.shards`), answers exact-hit lookups and
nearest-geometry warm starts, coalesces identical in-flight requests,
sheds load explicitly when saturated, and re-tunes in the background
when clients report drift.  Clients (:mod:`repro.serve.client`) carry
timeouts, backoff and a circuit breaker — and when the daemon is gone
they compute the **bit-identical** decision locally, because both
sides share :func:`repro.serve.core.compute_decision` over the
deterministic simulator.

See DESIGN.md §13 for the WAL format, shard layout, degradation
ladder and failure matrix.
"""

from .._lazy import lazy_exports

#: public name -> submodule defining it, imported on first use
_EXPORTS = {
    "CircuitBreaker": ".breaker",
    "Coalescer": ".coalesce",
    "KnowledgeBase": ".shards",
    "LRUCache": ".coalesce",
    "PROTOCOL_VERSION": ".server",
    "REQUEST_DEFAULTS": ".core",
    "RetuneScheduler": ".breaker",
    "ServeConfig": ".server",
    "ServiceHistory": ".client",
    "Shard": ".shards",
    "TuningClient": ".client",
    "TuningServer": ".server",
    "WriteAheadLog": ".wal",
    "compute_decision": ".core",
    "history_key": ".core",
    "normalize_request": ".core",
    "replay_wal": ".wal",
    "request_key": ".core",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
