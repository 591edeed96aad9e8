"""Microbenchmarks: one layer's public functions on seeded inputs.

Each reports a median (of a few repetitions, or of many single calls),
so one preempted repetition does not move the figure.
"""

from __future__ import annotations

import os
import random
import tempfile
import time

from .stats import median, percentile

REPEATS = 3


def _median_of(fn, repeats: int = REPEATS) -> tuple:
    stat = median([fn() for _ in range(repeats)])
    return stat.value, stat.n


# -- sim.engine -------------------------------------------------------------


def engine_events_per_s(outcome, seed: int, nevents: int = 100_000) -> None:
    """``Simulator.post``/``run`` on a seeded stream: 64 event chains
    with exponential gaps, ``nevents`` dispatches."""
    from repro.sim.engine import Simulator

    rng = random.Random(f"engine:{seed}")
    gaps = [rng.expovariate(1e6) for _ in range(4096)]

    def once() -> float:
        sim = Simulator()
        posted = [0]

        def tick(chain: int) -> None:
            i = posted[0]
            if i < nevents:
                posted[0] = i + 1
                sim.post(sim.now + gaps[i & 4095], tick, chain)

        for chain in range(64):
            sim.post(gaps[chain], tick, chain)
        t0 = time.perf_counter()
        sim.run()
        return sim.events_dispatched / (time.perf_counter() - t0)

    value, n = _median_of(once)
    outcome.metric("engine.events_per_s", value, "1/s", n)


# -- sim.mpi ----------------------------------------------------------------


def _pingpong_us(nbytes: int, rounds: int) -> float:
    """Host microseconds per message of a two-rank ping-pong through
    ``MPIContext.isend``/``irecv``."""
    from repro.sim import SimWorld, Wait, get_platform

    world = SimWorld(get_platform("whale"), 2)

    def program(ctx):
        peer = 1 - ctx.rank
        for _ in range(rounds):
            if ctx.rank == 0:
                yield Wait(ctx.isend(peer, nbytes=nbytes, tag=1))
                yield Wait(ctx.irecv(peer, nbytes=nbytes, tag=2))
            else:
                yield Wait(ctx.irecv(peer, nbytes=nbytes, tag=1))
                yield Wait(ctx.isend(peer, nbytes=nbytes, tag=2))

    world.launch(program)
    t0 = time.perf_counter()
    world.run()
    return (time.perf_counter() - t0) / (2 * rounds) * 1e6


def mpi_pingpong(outcome, rounds: int = 2000) -> None:
    """Below (1KB) and above (64KB) whale's 4KB on-node eager limit."""
    for name, nbytes in (("mpi.eager_us", 1024), ("mpi.rndv_us", 65536)):
        value, n = _median_of(lambda: _pingpong_us(nbytes, rounds))
        outcome.metric(name, value, "us", n)


# -- nbc --------------------------------------------------------------------


def nbc_build(outcome, size: int = 32) -> None:
    """The ``compiled_*`` builders with ``SCHEDULE_CACHE`` cleared:
    every rank's plan of three alltoall algorithms and five bcast trees."""
    from repro.nbc.ialltoall import ALLTOALL_ALGORITHMS, compiled_ialltoall
    from repro.nbc.ibcast import compiled_ibcast
    from repro.nbc.schedule import SCHEDULE_CACHE

    calls = [(compiled_ialltoall, (size, r, 4096, alg))
             for alg in ALLTOALL_ALGORITHMS for r in range(size)]
    calls += [(compiled_ibcast, (size, r, 0, 65536, fanout, 32768))
              for fanout in (1, 2, 3, 4, 5) for r in range(size)]

    def once() -> float:
        SCHEDULE_CACHE.clear()
        t0 = time.perf_counter()
        for fn, args in calls:
            fn(*args)
        return (time.perf_counter() - t0) / len(calls) * 1e6

    value, n = _median_of(once)
    SCHEDULE_CACHE.clear()
    outcome.metric("nbc.build_us", value, "us", n)


# -- adcl -------------------------------------------------------------------


def adcl_select(outcome, seed: int, vectors: int = 50) -> None:
    """``Selector.run_offline`` (brute force over bcast's 21 candidates,
    3 evals) on seeded cost vectors, and ``robust_mean`` on seeded
    30-sample series with outliers."""
    from repro.adcl.selection import BruteForceSelector
    from repro.adcl.statistics import robust_mean
    from repro.bench.overlap import function_set_for

    rng = random.Random(f"adcl:{seed}")
    fnset = function_set_for("bcast")
    costs = [[rng.uniform(1e-3, 2e-3) for _ in fnset] for _ in range(vectors)]
    series = [[rng.lognormvariate(-7.0, 0.05) * (5 if rng.random() < 0.1
                                                 else 1) for _ in range(30)]
              for _ in range(4 * vectors)]

    def select() -> float:
        t0 = time.perf_counter()
        for c in costs:
            BruteForceSelector(fnset, evals_per_function=3).run_offline(c)
        return (time.perf_counter() - t0) / len(costs) * 1e6

    def mean() -> float:
        t0 = time.perf_counter()
        for s in series:
            robust_mean(s)
        return (time.perf_counter() - t0) / len(series) * 1e6

    value, n = _median_of(select)
    outcome.metric("adcl.select_offline_us", value, "us", n)
    value, n = _median_of(mean)
    outcome.metric("adcl.robust_mean_us", value, "us", n)


# -- bench ------------------------------------------------------------------


def result_cache(outcome, work: str, entries: int = 100) -> None:
    """``ResultCache.put``/``get`` of sweep-row-sized results."""
    from repro.bench import ResultCache

    cache = ResultCache(tempfile.mkdtemp(prefix="cache-", dir=work))
    row = {"mean_iteration_hex": float(0.1).hex(),
           "record_hex": [float(i).hex() for i in range(5)], "name": "x"}
    puts, gets = [], []
    for i in range(entries):
        t0 = time.perf_counter()
        cache.put(f"task:{i}", row)
        puts.append(time.perf_counter() - t0)
    for i in range(entries):
        t0 = time.perf_counter()
        hit = cache.get(f"task:{i}")
        gets.append(time.perf_counter() - t0)
        outcome.op(hit == row, f"ResultCache.get(task:{i}) returned {hit!r}")
    for name, values in (("cache.put_ms", puts), ("cache.get_ms", gets)):
        stat = percentile(values, 50)
        outcome.metric(name, stat.value * 1e3, "ms", stat.n)


def trivial_task(payload: int) -> int:
    """Fabric task that does no work (module-level, so it pickles)."""
    return payload


def fabric_overhead(outcome, tasks: int = 200, jobs: int = 2) -> None:
    """``run_tasks`` with ``jobs`` workers over trivial tasks: wall
    time per task, worker start-up included."""
    from repro.bench import FabricConfig, run_tasks

    fabric = FabricConfig()
    t0 = time.perf_counter()
    out = run_tasks([(f"noop:{i}", i) for i in range(tasks)], trivial_task,
                    jobs=jobs, fabric=fabric)
    wall = time.perf_counter() - t0
    outcome.op(out == list(range(tasks)), "trivial fabric tasks came back wrong")
    if fabric.stats().get("fabric.fallback.serial"):
        outcome.fail("trivial fabric tasks fell back to serial")
    outcome.metric("fabric.task_overhead_ms", wall / tasks * 1e3, "ms", tasks)


# -- serve ------------------------------------------------------------------


def wal_append(outcome, work: str, appends: int = 1000) -> None:
    """Direct ``WriteAheadLog.append`` (write + flush + fsync)."""
    from repro.serve import WriteAheadLog

    path = os.path.join(tempfile.mkdtemp(prefix="wal-", dir=work), "x.wal")
    times = []
    with WriteAheadLog(path) as wal:
        payload = {"key": "adcl:x", "decision": {"winner": "linear",
                                                 "decided_at": 9}}
        for seq in range(appends):
            t0 = time.perf_counter()
            wal.append(seq, payload)
            times.append(time.perf_counter() - t0)
    for q in (50, 99):
        stat = percentile(times, q)
        outcome.metric(f"serve.wal_append_p{q}_ms", stat.value * 1e3, "ms",
                       stat.n)
