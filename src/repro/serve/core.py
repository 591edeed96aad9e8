"""Canonical tuning requests and the shared decision function.

The whole service contract hangs on one property: the daemon and a
degraded client must produce **bit-identical** decisions for the same
request.  Both therefore funnel through :func:`compute_decision` — a
pure function from a *normalized* request to a decision dict whose
float fields carry ``float.hex()`` twins (the PR-3 fidelity
convention), running the same deterministic simulation either side of
the socket.

A request is a plain JSON-able dict of scenario fields
(:data:`REQUEST_DEFAULTS`); :func:`normalize_request` fills defaults,
validates types and rejects unknown fields, and :func:`request_key`
derives the canonical string identity used for knowledge-base
sharding, WAL records, coalescing and the LRU decision cache.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from ..bench.overlap import (
    OPERATION_KINDS,
    OverlapConfig,
    default_iterations,
    function_set_for,
    run_overlap,
)
from ..errors import ReproError, ServeError
from ..util.canonical import canonical_json

__all__ = [
    "REQUEST_DEFAULTS",
    "compute_decision",
    "geometry_distance",
    "history_key",
    "normalize_request",
    "request_key",
]

#: every field a tuning request may carry, with its default (mirrors
#: the ``repro tune`` CLI defaults so `tune --serve` round-trips).
#: ``iterations`` None is filled by :func:`normalize_request` with
#: :func:`~repro.bench.overlap.default_iterations` of the request's
#: operation and evals, so a default request reaches a decision.
REQUEST_DEFAULTS: Dict[str, Any] = {
    "platform": "whale",
    "operation": "alltoall",
    "nprocs": 16,
    "nbytes": 64 * 1024,
    "compute_total": 10.0,
    "paper_iterations": 1000,
    "iterations": None,
    "nprogress": 5,
    "selector": "brute_force",
    "evals": 3,
    "seed": 0,
    #: bumped by the daemon's drift-triggered background re-tune; a
    #: fresh client request is always epoch 0, so degraded-client and
    #: server-mode decisions stay bit-identical
    "epoch": 0,
}

_INT_FIELDS = frozenset(
    {"nprocs", "nbytes", "paper_iterations", "iterations", "nprogress",
     "evals", "seed", "epoch"})
_FLOAT_FIELDS = frozenset({"compute_total"})
_STR_FIELDS = frozenset({"platform", "operation", "selector"})


def normalize_request(fields: Optional[dict]) -> dict:
    """Validated request with defaults filled, in canonical field order.

    Raises :class:`~repro.errors.ServeError` on unknown fields or
    type mismatches — the daemon turns that into a typed ``err`` reply
    rather than computing garbage.
    """
    if fields is None:
        fields = {}
    if not isinstance(fields, dict):
        raise ServeError(
            f"tuning request must be a mapping, got {type(fields).__name__}")
    unknown = sorted(set(fields) - set(REQUEST_DEFAULTS))
    if unknown:
        raise ServeError(f"unknown tuning-request fields: {unknown}")
    req = dict(REQUEST_DEFAULTS)
    req.update(fields)
    derive = req["iterations"] is None
    for name in _INT_FIELDS:
        value = req[name]
        if derive and name == "iterations":
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise ServeError(f"request field {name!r} must be an int, "
                             f"got {value!r}")
    for name in _FLOAT_FIELDS:
        if not isinstance(req[name], (int, float)):
            raise ServeError(f"request field {name!r} must be a number, "
                             f"got {req[name]!r}")
        req[name] = float(req[name])
    for name in _STR_FIELDS:
        if not isinstance(req[name], str):
            raise ServeError(f"request field {name!r} must be a string, "
                             f"got {req[name]!r}")
    if req["nprocs"] < 2:
        raise ServeError(f"nprocs must be >= 2, got {req['nprocs']}")
    if req["nbytes"] < 1:
        raise ServeError(f"nbytes must be >= 1, got {req['nbytes']}")
    if derive:
        try:
            req["iterations"] = default_iterations(req["operation"],
                                                   req["evals"])
        except ReproError as exc:
            raise ServeError(str(exc)) from None
    return {name: req[name] for name in REQUEST_DEFAULTS}


def request_key(req: dict) -> str:
    """Canonical string identity of a normalized request.

    Stable across processes and sessions (sorted keys, no whitespace)
    — the knowledge-base / WAL / cache / coalescing key.
    """
    return f"tune:{canonical_json(req, strict=True)}"


def history_key(req: dict) -> str:
    """The :class:`~repro.adcl.request.ADCLRequest` history key this
    request's decision would be stored under by a local tuner
    (``fnset@platform:kind:P..:B..:R..``) — the bridge between the
    service's knowledge base and ADCL historic learning."""
    fnset = function_set_for(req["operation"])
    kind = OPERATION_KINDS[req["operation"]]
    root = 0
    return (f"{fnset.name}@{req['platform']}:"
            f"{kind}:P{req['nprocs']}:B{req['nbytes']}:R{root}")


def overlap_config(req: dict) -> OverlapConfig:
    """The simulation scenario a normalized request describes."""
    return OverlapConfig(
        platform=req["platform"],
        nprocs=req["nprocs"],
        operation=req["operation"],
        nbytes=req["nbytes"],
        compute_total=req["compute_total"],
        paper_iterations=req["paper_iterations"],
        iterations=req["iterations"],
        nprogress=req["nprogress"],
        seed=req["seed"] + 0x5EED * req["epoch"],
    )


def compute_decision(req: dict) -> dict:
    """Run the tuning scenario and reduce it to a bit-exact decision.

    Deterministic: the same normalized request yields the same dict in
    any process — which is what makes a degraded client's local
    fallback indistinguishable from a daemon-computed answer.  Raises
    :class:`~repro.errors.ServeError` when the scenario does not reach
    a decision (too few iterations for the candidate count), because a
    knowledge base must never cache "no answer" as an answer.
    """
    res = run_overlap(overlap_config(req), selector=req["selector"],
                      evals_per_function=req["evals"])
    if res.winner is None:
        fnset = function_set_for(req["operation"])
        raise ServeError(
            f"scenario reached no decision: {req['iterations']} iterations "
            f"cannot cover {len(fnset)} candidates x {req['evals']} evals; "
            f"increase 'iterations'"
        )
    steady = res.mean_after_learning()
    return {
        "winner": res.winner,
        "decided_at": res.decided_at,
        "mean_iteration": res.mean_iteration,
        "mean_iteration_hex": float(res.mean_iteration).hex(),
        "mean_after_learning": steady,
        "mean_after_learning_hex": float(steady).hex(),
        "events": res.events,
    }


def geometry_distance(a: dict, b: dict) -> float:
    """Log-scale distance between two requests' geometries.

    Used for nearest-geometry warm starts: two scenarios are close when
    their process counts and message sizes differ by small *factors*
    (the survey's observation that winners are stable across nearby
    geometries, not nearby byte counts).
    """
    return (abs(math.log2(a["nprocs"] / b["nprocs"]))
            + abs(math.log2(a["nbytes"] / b["nbytes"])))
