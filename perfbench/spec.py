"""The benchmark's contract, read from ``BENCHMARK.json``, and what each
per-layer metric should move.

``BENCHMARK.json`` at the repository root holds the workloads, the
metric names, units and bounds; this module only reads it.  ``MOVES``
records, for every per-layer metric, the end-to-end metric and workload
it should move (``None`` for bookkeeping metrics).
"""

from __future__ import annotations

import json
import os

from .layers import ENTRY_POINTS, LAYERS

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def load() -> dict:
    """The ``BENCHMARK.json`` document."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


_TUNE = "tune-mix"
_SWEEP = "scale-sweep"
_SERVE = "serve-mix"
_TRACED = "tune-traced"

#: layer -> (end-to-end metric, workload) its self time should move
_LAYER_MOVES = {
    "cli": ("setup_s", _TUNE),
    "bench": ("ops_per_s", _SWEEP),
    "fabric": ("ops_per_s", _SWEEP),
    "adcl": ("op_p50_ms", _TUNE),
    "nbc": ("op_p50_ms", _TUNE),
    "sim.mpi": ("op_p50_ms", _TUNE),
    "sim.engine": ("events_per_s", _TUNE),
    "sim.model": ("op_p50_ms", _TUNE),
    "serve": ("op_p50_ms", _SERVE),
    "obs": ("op_p50_ms", _TRACED),
    "util": ("op_p50_ms", _TUNE),
    "harness": None,   # this benchmark's own code
    "other": None,     # time no layer called
}

#: per-layer metric -> (end-to-end metric, workload) or None
MOVES = {}
for _layer in LAYERS:
    MOVES[f"{_layer}.self_s"] = _LAYER_MOVES[_layer]
    MOVES[f"{_layer}.share"] = _LAYER_MOVES[_layer]
for _layer in ENTRY_POINTS:
    MOVES[f"calls.{_layer}"] = _LAYER_MOVES[_layer]
MOVES.update({
    "profile.total_s": None,
    "profile.serial_task_s": ("ops_per_s", _SWEEP),
    "trace.profiler_overhead": None,
    "cli.import_s": ("setup_s", _TUNE),
    "cli.modules_loaded": ("setup_s", _TUNE),
    "cli.repro_modules": ("setup_s", _TUNE),
    "engine.events": ("events_per_s", _TUNE),
    "engine.events_per_s": ("events_per_s", _TUNE),
    "mpi.eager_us": ("op_p50_ms", _TUNE),
    "mpi.rndv_us": ("op_p50_ms", _TUNE),
    "mpi.p2p_calls": ("op_p50_ms", _TUNE),
    "mpi.batched_fraction": ("ops_per_s", _SWEEP),
    "nbc.build_us": ("op_p50_ms", _TUNE),
    "nbc.schedule_hit_rate": ("op_p50_ms", _TUNE),
    "adcl.select_offline_us": ("op_p50_ms", _TUNE),
    "adcl.robust_mean_us": ("op_p50_ms", _TUNE),
    "cache.put_ms": ("ops_per_s", _SWEEP),
    "cache.get_ms": ("ops_per_s", _SWEEP),
    "fabric.task_overhead_ms": ("ops_per_s", _SWEEP),
    "fabric.leases_issued": ("ops_per_s", _SWEEP),
    "fabric.leases_expired": ("ops_per_s", _SWEEP),
    "fabric.tasks_stolen": ("ops_per_s", _SWEEP),
    "fabric.workers_respawned": ("ops_per_s", _SWEEP),
    "serve.ping_ms": ("op_p50_ms", _SERVE),
    "serve.dispatch_ms": ("op_p50_ms", _SERVE),
    "serve.kb_get_us": ("op_p50_ms", _SERVE),
    "serve.kb_nearest_us": ("op_p50_ms", _SERVE),
    "serve.wal_append_p50_ms": ("ops_per_s", _SERVE),
    "serve.wal_append_p99_ms": ("ops_per_s", _SERVE),
    "serve.compute_s": ("events_per_s", _SERVE),
    "serve.miss_wait_ms": ("events_per_s", _SERVE),
    "serve.recovery_s": ("setup_s", _SERVE),
    "serve.cache_hits": ("op_p50_ms", _SERVE),
    "serve.miss_computed": ("ops_per_s", _SERVE),
    "serve.coalesced": ("ops_per_s", _SERVE),
    "serve.shed": ("ops_per_s", _SERVE),
    "serve.degraded": ("ops_per_s", _SERVE),
    "obs.recorder_overhead": ("op_p50_ms", _TRACED),
    "obs.trace_bytes_per_event": ("op_p50_ms", _TRACED),
    "obs.export_s_per_mb": ("op_p50_ms", _TRACED),
    "obs.critpath_s_per_mb": ("op_p50_ms", _TRACED),
})
