"""``scale-sweep``: a fixed-candidate verification sweep on the fabric.

``sweep_implementations`` with two fabric workers (one per core of the
reference host) and a fresh ``ResultCache`` per sweep, so every task
is computed and stored.  The candidates are fixed, so ADCL selection
does no work here.

A task's latency is its time to result: from the start of its sweep to
the moment its result is committed to the cache (the sweep's
checkpoint, which ``--resume`` reads).  The fabric reports no per-task
timings, so the benchmark times the commits through its own cache.
"""

from __future__ import annotations

import math
import tempfile
import time
from typing import List, Tuple

from . import layers, micro, scenarios, startup
from .hostspeed import HostSpeed
from .ledger import Outcome, peak_rss_mb
from .stats import percentile, samples_needed
from .tune import load_references

JOBS = 2
#: the candidate the traced run profiles serially in-process (fabric
#: workers are forked, so the profiler does not reach them)
PROFILED_CANDIDATE = "hier_seg32KB"
#: seconds one sweep takes on the reference host (2 vCPUs); a run
#: measures the whole sweeps that fit ``--seconds``, and at least
#: enough for a p90 of the task latencies
SWEEP_S = 2.0
#: host-speed probe slices before each sweep (the workers are idle then)
PROBE_SLICES = 10


def min_sweeps() -> int:
    return math.ceil(samples_needed(90) / scenarios.sweep_candidates())


def _timed_cache(directory: str):
    """A ``ResultCache`` that records when each result is committed."""
    from repro.bench import ResultCache

    class TimedCache(ResultCache):
        def __init__(self, directory: str):
            super().__init__(directory)
            self.landed: List[float] = []

        def put(self, key, result) -> None:
            super().put(key, result)
            self.landed.append(time.perf_counter())

    return TimedCache(directory)


def one_sweep(outcome: Outcome, refs: dict, seed: int, work: str):
    """Run and check one sweep; returns ``(rows, seconds, fabric,
    task latencies in seconds)``."""
    from repro.bench import FabricConfig, sweep_implementations
    from repro.bench.overlap import function_set_for

    fabric = FabricConfig()
    cache = _timed_cache(tempfile.mkdtemp(prefix="sweep-", dir=work))
    cfg = scenarios.sweep_config(seed)
    t0 = time.perf_counter()
    rows = sweep_implementations(cfg, jobs=JOBS, cache=cache, fabric=fabric)
    seconds = time.perf_counter() - t0
    latencies = [t - t0 for t in cache.landed]
    names = [fn.name for fn in function_set_for(cfg.operation)]
    for name, row in zip(names, rows):
        ok = (isinstance(row, dict) and row.get("name") == name
              and row.get("mean_iteration", 0) > 0 and row.get("events", 0) > 0)
        outcome.op(ok, f"sweep task {name}: bad result")
    best = min(rows, key=lambda row: row["mean_iteration"])["name"]
    outcome.op(best == refs["sweep_best"],
               f"sweep best {best!r}, reference {refs['sweep_best']!r}")
    if cache.stores != len(rows):
        outcome.fail(f"ResultCache stored {cache.stores} of {len(rows)} rows")
    if fabric.stats().get("fabric.fallback.serial"):
        outcome.fail("fabric fell back to serial")
    return rows, seconds, fabric, latencies


def _events(rows) -> Tuple[int, int]:
    events = sum(row["events"] for row in rows)
    batched = sum((row.get("engine_stats") or {}).get("batched_syscalls", 0)
                  for row in rows)
    return events, batched


def scale_sweep(seed: int, seconds: float, trace: bool, work: str) -> Outcome:
    outcome = Outcome()
    refs = load_references()
    if not trace:
        speed = HostSpeed()
        setup = startup.cold_start_s(outcome, speed)
        tasks = events = 0
        busy = 0.0
        latency_ms: List[float] = []
        for _ in range(max(min_sweeps(), round(seconds / SWEEP_S))):
            speed.sample(PROBE_SLICES)
            rows, wall, _fabric, lat = one_sweep(outcome, refs, seed, work)
            tasks += len(rows)
            events += _events(rows)[0]
            busy += wall
            latency_ms += [t * 1e3 for t in lat]
        p50, p90 = percentile(latency_ms, 50), percentile(latency_ms, 90)
        speed.report(outcome,
                     times=[("setup_s", setup.value, "s", setup.n),
                            ("op_p50_ms", p50.value, "ms", p50.n),
                            ("op_tail_ms", p90.value, "ms", p90.n)],
                     rates=[("ops_per_s", tasks / busy, "1/s", tasks),
                            ("events_per_s", events / busy, "1/s", tasks)])
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
        outcome.row("task_result_p50_ms", p50.value, "ms", p50.n)
        outcome.row("task_result_p90_ms", p90.value, "ms", p90.n)
        outcome.row("sweep_tasks_per_s", tasks / busy, "1/s", tasks)
        outcome.row("events_per_s", events / busy, "1/s", tasks)
        return outcome
    from repro.bench import run_overlap
    from repro.bench.overlap import function_set_for

    startup.import_probe(outcome)
    rows, base_wall, fabric, _lat = one_sweep(outcome, refs, seed, work)
    events, batched = _events(rows)
    outcome.metric("engine.events", events, "count", len(rows))
    outcome.metric("mpi.batched_fraction", batched / events, "ratio",
                   len(rows))
    counters = fabric.stats()
    for name, counter in (("fabric.leases_issued", "fabric.leases.issued"),
                          ("fabric.leases_expired", "fabric.leases.expired"),
                          ("fabric.tasks_stolen", "fabric.tasks.stolen"),
                          ("fabric.workers_respawned",
                           "fabric.workers.respawned")):
        outcome.metric(name, counters.get(counter, 0), "count")
    cfg = scenarios.sweep_config(seed)
    index = [fn.name for fn in function_set_for(cfg.operation)].index(
        PROFILED_CANDIDATE)
    with layers.profiled(cpu=True) as master:
        _rows, traced_wall, *_rest = one_sweep(outcome, refs, seed, work)
    with layers.profiled() as task:
        t0 = time.perf_counter()
        res = run_overlap(cfg, selector=index)
        outcome.metric("profile.serial_task_s", time.perf_counter() - t0, "s")
    outcome.op(res.winner == PROFILED_CANDIDATE,
               f"serial task decided {res.winner!r}")
    layers.report(outcome, layers.merge([master, task]), traced_wall,
                  base_wall)
    micro.result_cache(outcome, work)
    micro.fabric_overhead(outcome)
    return outcome
