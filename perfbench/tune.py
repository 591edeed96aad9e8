"""``tune-mix`` and ``tune-traced``: tuning runs as ``repro tune`` does them.

Every tune starts as a ``repro tune`` process does: with the
process-global schedule cache cleared (a warm cache would be a speed-up
no user sees) and with the garbage of earlier tunes collected, outside
the timed region.  A ``repro tune`` process exits without collecting
its garbage; left in place here, it made later tunes pay for earlier
ones and added 14% to the median tune.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Callable, List, Optional, Sequence, Tuple

from . import layers, micro, scenarios, startup
from .hostspeed import HostSpeed, pin_to_one_cpu
from .ledger import Outcome, peak_rss_mb
from .stats import Stat, percentile

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")

#: a p90 needs 100 tunes for 10 samples beyond it: tune-mix needs two
#: blocks of 54; tune-traced keeps P = 8 (18 strata per block, a traced
#: tune costs 2-3x a plain one) and needs six.
MIX_NPROCS = scenarios.TUNE_NPROCS
TRACED_NPROCS = (8,)
MIX_MIN_BLOCKS = 2
TRACED_MIN_BLOCKS = 6
#: seconds one block takes on the reference host (2 vCPUs); a run
#: measures the whole blocks that fit ``--seconds`` (at least the
#: minimum), so a slow moment on the host changes the time a run
#: takes, never which scenarios it measures
MIX_BLOCK_S = 5.5
TRACED_BLOCK_S = 2.0


def block_count(seconds: float, block_s: float, minimum: int) -> int:
    return max(minimum, round(seconds / block_s))


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def plain_tune(sc: scenarios.Scenario) -> Tuple[object, dict]:
    """``repro tune`` on one scenario: returns the result and timings."""
    from repro.bench import run_overlap
    from repro.nbc.schedule import SCHEDULE_CACHE

    SCHEDULE_CACHE.clear()
    gc.collect()
    t0 = time.perf_counter()
    res = run_overlap(sc.overlap_config(), selector=scenarios.SELECTOR,
                      evals_per_function=scenarios.EVALS)
    seconds = time.perf_counter() - t0
    return res, {"total": seconds, "run": seconds}


def traced_tune(sc: scenarios.Scenario) -> Tuple[object, dict]:
    """``repro tune --trace`` plus ``report --critical-path``: record,
    build the document, explain the decision, serialise."""
    from repro.bench import run_overlap
    from repro.nbc.schedule import SCHEDULE_CACHE
    from repro.obs import (TraceRecorder, attach_explanations,
                           build_trace_doc, correlation_id, install,
                           trace_to_bytes)

    SCHEDULE_CACHE.clear()
    gc.collect()
    cfg = sc.overlap_config()
    t0 = time.perf_counter()
    rec = TraceRecorder()
    prev = install(rec)
    try:
        res = run_overlap(cfg, selector=scenarios.SELECTOR,
                          evals_per_function=scenarios.EVALS)
    finally:
        install(prev)
    t1 = time.perf_counter()
    doc = build_trace_doc(
        [(f"tune:{cfg.operation}", rec.export_events(), rec.worlds)],
        scenario=cfg.describe(), audit=rec.audit.to_json(),
        metrics=rec.metrics.snapshot(),
        correlation=correlation_id(
            f"tune|{cfg.describe()}|{scenarios.SELECTOR}"))
    t2 = time.perf_counter()
    explained = attach_explanations(doc)
    t3 = time.perf_counter()
    data = trace_to_bytes(doc)
    t4 = time.perf_counter()
    return res, {"total": t4 - t0, "run": t1 - t0,
                 "export": (t2 - t1) + (t4 - t3), "critpath": t3 - t2,
                 "bytes": len(data), "explained": len(explained)}


def check(outcome: Outcome, refs: dict, sc, res, timing: dict) -> None:
    """One tune is one operation: it fails unless its decision matches
    the committed reference (and a traced tune explains it)."""
    ref = refs["tune"].get(sc.key)
    got = [res.winner, res.decided_at]
    ok = ref is not None and got == ref
    if ok and timing.get("explained") == 0:
        outcome.op(False, f"{sc.key}: traced decision has no explanation")
        return
    outcome.op(ok, f"{sc.key}: decision {got}, reference {ref}")


Sample = Tuple[scenarios.Scenario, object, dict]


def run_blocks(outcome: Outcome, refs: dict, seed: int, blocks: int,
               tune: Callable, nprocs: Sequence[int],
               speed: Optional[HostSpeed] = None) -> List[Sample]:
    """Tune the first ``blocks`` seeded blocks, checking every decision
    (and probing the host's speed before each tune)."""
    samples: List[Sample] = []
    for index in range(blocks):
        for sc in scenarios.tune_block(seed, index, nprocs):
            if speed is not None:
                speed.sample()
            res, timing = tune(sc)
            check(outcome, refs, sc, res, timing)
            samples.append((sc, res, timing))
    return samples


def _end_to_end(outcome: Outcome, samples: List[Sample], label: str,
                speed: HostSpeed, setup: Stat) -> None:
    times = [t["total"] for _sc, _res, t in samples]
    events = sum(res.events for _sc, res, _t in samples)
    busy = sum(times)
    p50 = percentile(times, 50)
    p90 = percentile(times, 90)
    n = len(times)
    speed.report(outcome,
                 times=[("setup_s", setup.value, "s", setup.n),
                        ("op_p50_ms", p50.value * 1e3, "ms", p50.n),
                        ("op_tail_ms", p90.value * 1e3, "ms", p90.n)],
                 rates=[("ops_per_s", n / busy, "1/s", n),
                        ("events_per_s", events / busy, "1/s", n)])
    outcome.row(f"{label}_p50_s", p50.value, "s", p50.n)
    outcome.row(f"{label}_p90_s", p90.value, "s", p90.n)
    outcome.row("events_per_s", events / busy, "1/s", len(times))


def _engine_counts(outcome: Outcome, samples: List[Sample]) -> None:
    events = sum(res.events for _sc, res, _t in samples)
    batched = sum(res.engine_stats.get("batched_syscalls", 0)
                  for _sc, res, _t in samples)
    outcome.metric("engine.events", events, "count", len(samples))
    outcome.metric("mpi.batched_fraction", batched / events if events else 0,
                   "ratio", len(samples))


def tune_mix(seed: int, seconds: float, trace: bool, work: str) -> Outcome:
    pin_to_one_cpu()
    outcome = Outcome()
    refs = load_references()
    if not trace:
        speed = HostSpeed()
        setup = startup.cold_start_s(outcome, speed)
        samples = run_blocks(outcome, refs, seed,
                             block_count(seconds, MIX_BLOCK_S,
                                         MIX_MIN_BLOCKS), plain_tune,
                             MIX_NPROCS, speed)
        _end_to_end(outcome, samples, "tune", speed, setup)
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
        return outcome
    from repro.nbc.schedule import SCHEDULE_CACHE

    startup.import_probe(outcome)
    SCHEDULE_CACHE.reset_stats()
    base = run_blocks(outcome, refs, seed, 1, plain_tune, MIX_NPROCS)
    outcome.metric("nbc.schedule_hit_rate", SCHEDULE_CACHE.hit_rate, "ratio",
                   SCHEDULE_CACHE.hits + SCHEDULE_CACHE.misses)
    _engine_counts(outcome, base)
    with layers.profiled() as prof:
        traced = run_blocks(outcome, refs, seed, 1, plain_tune, MIX_NPROCS)
    table = layers.merge([prof])
    layers.report(outcome, table, sum(t["total"] for *_x, t in traced),
                  sum(t["total"] for *_x, t in base))
    outcome.metric("mpi.p2p_calls", outcome.metrics["calls.sim.mpi"][0],
                   "count")
    micro.engine_events_per_s(outcome, seed)
    micro.mpi_pingpong(outcome)
    micro.nbc_build(outcome)
    micro.adcl_select(outcome, seed)
    return outcome


def tune_traced(seed: int, seconds: float, trace: bool,
                work: str) -> Outcome:
    pin_to_one_cpu()
    outcome = Outcome()
    refs = load_references()
    if not trace:
        speed = HostSpeed()
        setup = startup.cold_start_s(outcome, speed)
        samples = run_blocks(outcome, refs, seed,
                             block_count(seconds, TRACED_BLOCK_S,
                                         TRACED_MIN_BLOCKS),
                             traced_tune, TRACED_NPROCS, speed)
        _end_to_end(outcome, samples, "traced_tune", speed, setup)
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
        return outcome
    startup.import_probe(outcome)
    plain = run_blocks(outcome, refs, seed, 1, plain_tune, TRACED_NPROCS)
    base = run_blocks(outcome, refs, seed, 1, traced_tune, TRACED_NPROCS)
    _engine_counts(outcome, base)
    run_plain = sum(t["run"] for *_x, t in plain)
    run_traced = sum(t["run"] for *_x, t in base)
    nbytes = sum(t["bytes"] for *_x, t in base)
    events = sum(res.events for _sc, res, _t in base)
    mb = nbytes / 1e6
    outcome.metric("obs.recorder_overhead", run_traced / run_plain, "ratio",
                   len(base))
    outcome.metric("obs.trace_bytes_per_event", nbytes / events, "B",
                   len(base))
    outcome.metric("obs.export_s_per_mb",
                   sum(t["export"] for *_x, t in base) / mb, "s/MB",
                   len(base))
    outcome.metric("obs.critpath_s_per_mb",
                   sum(t["critpath"] for *_x, t in base) / mb, "s/MB",
                   len(base))
    with layers.profiled() as prof:
        traced = run_blocks(outcome, refs, seed, 1, traced_tune,
                            TRACED_NPROCS)
    layers.report(outcome, layers.merge([prof]),
                  sum(t["total"] for *_x, t in traced),
                  sum(t["total"] for *_x, t in base))
    return outcome
