"""``serve-mix``: one closed-loop client against a ``repro serve`` daemon.

The daemon runs as a subprocess with its defaults over a pre-seeded
knowledge base.  One ``TuningClient`` sends a seeded sequence of
``get`` requests over small scenarios (a first touch is a miss the
daemon computes and fsyncs; a repeat is a cache hit), interleaved with
``record`` writes (WAL append + fsync) and ``lookup``/``warm`` reads.
How many of each a run sends follows from the samples its figures
need (``scenarios.SERVE_FLOORS``), not from any client trace.  The
daemon keeps its warm caches across the run, because a long-lived
daemon really has them.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from . import layers, micro, paths, scenarios
from .hostspeed import HostSpeed, pin_to_one_cpu
from .ledger import Outcome, peak_rss_mb
from .stats import median, percentile

#: daemon spawns per run for ``setup_s``; the last one serves the mix
SPAWNS = 5
#: pre-seeded knowledge base: records with a request geometry outside
#: the served universe (warm-start candidates), plus client history
PRESEED_GEOMETRIES = 192
HISTORY_KEYS = 64
#: operations per second on the reference host (2 vCPUs); a run sends
#: the operations that fit ``--seconds``, and at least enough to meet
#: every sample floor (the traced run replays exactly that many, twice)
NOMINAL_OPS_PER_S = 500


def _endpoint(path: str) -> str:
    """A ``unix:`` endpoint short enough for ``sun_path``."""
    rel = os.path.relpath(path)
    return f"unix:{rel if len(rel) < len(path) else path}"


def preseed(directory: str, seed: int) -> List[str]:
    """Build the pre-seeded knowledge base; returns its history keys.

    Records are written through ``KnowledgeBase.put`` and left in the
    WAL (no checkpoint), so every daemon start replays them.  Stored
    costs grow with P and message size, so the daemon's boot-time
    guideline check finds nothing to report.
    """
    from repro.serve import KnowledgeBase, normalize_request, request_key

    rng = random.Random(f"serve-preseed:{seed}")
    kb = KnowledgeBase(directory, nshards=4)
    try:
        for _ in range(PRESEED_GEOMETRIES):
            sc = scenarios.Scenario(
                rng.choice(scenarios.SERVE_PLATFORMS),
                rng.choice(scenarios.SERVE_OPERATIONS),
                rng.choice((16, 32, 64)), 1024 << rng.randrange(9),
                rng.choice(scenarios.SERVE_NPROGRESS))
            req = normalize_request(sc.request())
            cost = 1e-6 * sc.nprocs * sc.nbytes / 1024
            kb.put(request_key(req), {
                "winner": "linear", "decided_at": 9,
                "mean_iteration": cost, "mean_iteration_hex": cost.hex(),
                "mean_after_learning": cost,
                "mean_after_learning_hex": cost.hex(), "events": 1},
                source="computed", request=req)
        keys = [f"adcl:perfbench/history/{i}" for i in range(HISTORY_KEYS)]
        for i, key in enumerate(keys):
            kb.put(key, {"winner": "pairwise", "decided_at": i},
                   source="client")
    finally:
        kb.close()
    return keys


class Daemon:
    """One ``repro serve`` subprocess and its endpoint."""

    def __init__(self, work: str, pristine: str, telemetry: bool = False,
                 profile_out: Optional[str] = None):
        self.dir = tempfile.mkdtemp(prefix="d", dir=work)
        self.data = os.path.join(self.dir, "kb")
        shutil.copytree(pristine, self.data)
        self.endpoint = _endpoint(os.path.join(self.dir, "s"))
        self.telemetry = (_endpoint(os.path.join(self.dir, "t"))
                          if telemetry else None)
        cmd = ["-m", "repro"]
        if profile_out is not None:
            cmd = [os.path.join(os.path.dirname(__file__), "serve_profiled.py"),
                   profile_out]
        cmd = [sys.executable, *cmd, "serve", "--socket",
               self.endpoint[len("unix:"):], "--data-dir", self.data]
        if self.telemetry:
            cmd += ["--telemetry", self.telemetry]
        self._log = open(os.path.join(self.dir, "log"), "wb")
        self.t0 = time.perf_counter()
        # same working directory as this process: the endpoint may be
        # a relative path
        self.proc = subprocess.Popen(cmd, env=paths.child_env(),
                                     stdout=self._log, stderr=subprocess.STDOUT)

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn to the first ``pong``.

        Each probe uses a fresh single-attempt client: a reused client
        would trip its circuit breaker while the socket does not exist
        yet and then sit out the breaker's cooldown.
        """
        from repro.serve import TuningClient

        while True:
            if TuningClient(self.endpoint, timeout=1.0, attempts=1,
                            fallback=False).ping():
                self.ready_s = time.perf_counter() - self.t0
                return self.ready_s
            if self.proc.poll() is not None or \
                    time.perf_counter() - self.t0 > timeout:
                raise RuntimeError(f"daemon did not come up: {self.tail()}")
            time.sleep(0.002)

    def stop(self) -> int:
        """SIGTERM (drain, checkpoint, exit) and wait; killed if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._log.close()
        return code

    def tail(self) -> str:
        self._log.flush()
        with open(self._log.name, "rb") as fh:
            return fh.read()[-400:].decode(errors="replace")


class Mix:
    """The closed-loop client and what it has seen."""

    def __init__(self, endpoint: str, seed: int, history: List[str],
                 total: Optional[int] = None,
                 speed: Optional[HostSpeed] = None):
        from repro.serve import TuningClient

        self.client = TuningClient(endpoint, timeout=30.0)
        self.universe = scenarios.serve_universe(seed)
        if total is None:
            total = scenarios.serve_min_ops(len(self.universe))
        self.total = total
        self.ops = iter(scenarios.serve_ops(seed, len(self.universe),
                                            len(history), total))
        self.history = history
        self.expected: Dict[str, dict] = {
            key: {"winner": "pairwise", "decided_at": i}
            for i, key in enumerate(history)}
        self.touched: Dict[str, dict] = {}   # scenario key -> served decision
        self.gets: Dict[str, int] = {}       # scenario key -> get count
        self.latency: Dict[str, List[float]] = {
            "hit": [], "miss": [], "write": [], "read": []}
        self.miss_events = 0
        self.busy = 0.0
        self.writes = 0
        #: probes the host's speed before each miss, if set
        self.speed = speed

    def step(self, outcome: Outcome) -> None:
        op, rank = next(self.ops)
        client = self.client
        failed0, busy0, degraded0 = (client.rpc_failed, client.busy_replies,
                                     client.degraded)
        problem = None
        first = op == "get" and self.universe[rank].key not in self.touched
        if first and self.speed is not None:
            self.speed.sample()
        t0 = time.perf_counter()
        if op == "get":
            sc = self.universe[rank]
            record = client.decide(sc.request())
            dt = time.perf_counter() - t0
            decision = record.get("decision")
            self.latency["miss" if first else "hit"].append(dt)
            if record.get("source") != "service":
                problem = f"get {sc.key}: degraded to a local answer"
            elif not isinstance(decision, dict) or not decision.get("winner"):
                problem = f"get {sc.key}: no decision in {record!r}"
            elif first:
                self.touched[sc.key] = decision
                self.miss_events += int(decision.get("events", 0))
            elif decision != self.touched[sc.key]:
                problem = f"get {sc.key}: answer changed between requests"
            self.gets[sc.key] = self.gets.get(sc.key, 0) + 1
        elif op == "record":
            key = self.history[rank]
            self.writes += 1
            decision = {"winner": "linear", "decided_at": self.writes}
            ok = client.record(key, decision)
            dt = time.perf_counter() - t0
            self.latency["write"].append(dt)
            self.expected[key] = decision
            if not ok:
                problem = f"record {key}: not acknowledged"
        elif op == "lookup":
            key = self.history[rank]
            record = client.lookup(key)
            dt = time.perf_counter() - t0
            self.latency["read"].append(dt)
            got = (record or {}).get("decision")
            if got != self.expected[key]:
                problem = f"lookup {key}: {got!r}, wrote {self.expected[key]!r}"
        else:  # warm
            req = self.universe[rank].request()
            record = client.warm(req)
            dt = time.perf_counter() - t0
            self.latency["read"].append(dt)
            other = (record or {}).get("request") or {}
            if not record or any(other.get(f) != req[f] for f in
                                 ("platform", "operation", "selector",
                                  "evals")) or \
                    (other["nprocs"], other["nbytes"]) == \
                    (req["nprocs"], req["nbytes"]):
                problem = f"warm {self.universe[rank].key}: bad hint {record!r}"
        self.busy += dt
        if problem is None and (client.rpc_failed != failed0
                                or client.busy_replies != busy0
                                or client.degraded != degraded0):
            problem = f"{op}: transport failure, busy reply or degradation"
        # gets are counted after the in-process cross-check
        if op != "get":
            outcome.op(problem is None, problem)
        elif problem is not None:
            outcome.fail(problem)
            self.gets[self.universe[rank].key] -= 1

    def verify(self, outcome: Outcome) -> Dict[str, float]:
        """Check every served answer against an in-process
        ``compute_decision`` (the served == degraded-local promise);
        returns the in-process compute seconds per scenario."""
        from repro.serve import compute_decision, normalize_request

        compute = {}
        by_key = {sc.key: sc for sc in self.universe}
        for key, served in self.touched.items():
            t0 = time.perf_counter()
            local = compute_decision(normalize_request(by_key[key].request()))
            compute[key] = time.perf_counter() - t0
            ok = local == served
            for _ in range(self.gets[key]):
                outcome.op(ok, f"get {key}: served {served!r}, "
                               f"computed {local!r}")
        return compute

    def daemon_stats(self, outcome: Outcome) -> None:
        stats = self.client.stats()
        if stats is None:
            outcome.fail("stats: no reply")
            return
        metrics = stats["metrics"]

        def value(name: str) -> float:
            return metrics.get(name, {}).get("value", 0)

        outcome.metric("serve.cache_hits", value("serve.hits.cache"), "count")
        outcome.metric("serve.miss_computed", value("serve.miss.computed"),
                       "count")
        outcome.metric("serve.coalesced", value("serve.coalesced"), "count")
        outcome.metric("serve.shed", value("serve.shed.total"), "count")
        outcome.metric("serve.degraded", self.client.degraded, "count")


def _start(work: str, pristine: str, **kw) -> Daemon:
    daemon = Daemon(work, pristine, **kw)
    try:
        daemon.wait_ready()
    except BaseException:  # also an interrupt: never leave it running
        daemon.stop()
        raise
    return daemon


def _stop(outcome: Outcome, daemon: Daemon) -> None:
    code = daemon.stop()
    if code != 0:
        outcome.fail(f"daemon exited {code}: {daemon.tail()}")


def serve_mix(seed: int, seconds: float, trace: bool, work: str) -> Outcome:
    pin_to_one_cpu()   # the daemon inherits it
    outcome = Outcome()
    pristine = os.path.join(work, "pristine")
    history = preseed(pristine, seed)
    if trace:
        return _traced(outcome, work, pristine, history, seed)
    ready = []
    daemon = None
    speed = HostSpeed()
    try:
        for i in range(SPAWNS):
            speed.sample()
            daemon = _start(work, pristine)
            ready.append(daemon.ready_s)
            if i + 1 < SPAWNS:
                _stop(outcome, daemon)
                daemon = None
        total = max(scenarios.serve_min_ops(scenarios.SERVE_UNIVERSE),
                    round(seconds * NOMINAL_OPS_PER_S))
        mix = Mix(daemon.endpoint, seed, history, total, speed)
        for _ in range(total):
            mix.step(outcome)
    finally:
        if daemon is not None:
            _stop(outcome, daemon)
    mix.verify(outcome)
    lat = mix.latency
    hit50, miss90 = percentile(lat["hit"], 50), percentile(lat["miss"], 90)
    nops = sum(len(v) for v in lat.values())
    # the tail a client waits for is a cold miss (20-50x a hit).  Hit
    # tails (p99 in the rows) move with how often the shared host is slow
    # to wake a thread: their p90 spread 0.32 over ten runs, over the bound
    setup = median(ready)
    speed.report(
        outcome,
        times=[("setup_s", setup.value, "s", setup.n),
               ("op_p50_ms", hit50.value * 1e3, "ms", hit50.n),
               ("op_tail_ms", miss90.value * 1e3, "ms", miss90.n)],
        rates=[("ops_per_s", nops / mix.busy, "1/s", nops),
               ("events_per_s", mix.miss_events / sum(lat["miss"]), "1/s",
                len(lat["miss"]))])
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
    for name, cls, q in (("serve_hit_p50_ms", "hit", 50),
                         ("serve_hit_p99_ms", "hit", 99),
                         ("serve_miss_p50_ms", "miss", 50),
                         ("serve_miss_p90_ms", "miss", 90),
                         ("serve_write_p50_ms", "write", 50),
                         ("serve_write_p99_ms", "write", 99)):
        stat = percentile(lat[cls], q)
        outcome.row(name, stat.value * 1e3, "ms", stat.n)
    outcome.row("serve_ops_per_s", nops / mix.busy, "1/s", nops)
    return outcome


def _replay(outcome: Outcome, endpoint: str, seed: int,
            history: List[str]) -> Mix:
    mix = Mix(endpoint, seed, history)
    for _ in range(mix.total):
        mix.step(outcome)
    return mix


def _traced(outcome: Outcome, work: str, pristine: str, history: List[str],
            seed: int) -> Outcome:
    from repro.obs import parse_exposition, scrape
    from repro.serve import KnowledgeBase, TuningClient, normalize_request, \
        request_key

    # untraced pass: telemetry, ping and the miss breakdown
    daemon = _start(work, pristine, telemetry=True)
    try:
        base = _replay(outcome, daemon.endpoint, seed, history)
        pings = []
        for _ in range(200):
            t0 = time.perf_counter()
            outcome.op(TuningClient(daemon.endpoint).ping(), "ping failed")
            pings.append(time.perf_counter() - t0)
        stat = percentile(pings, 50)
        outcome.metric("serve.ping_ms", stat.value * 1e3, "ms", stat.n)
        expo = parse_exposition(scrape(daemon.telemetry))
        hist = next((v for k, v in expo.items()
                     if k.endswith("request_seconds")), {})
        outcome.metric("serve.dispatch_ms",
                       hist.get("sum", 0) / max(hist.get("total", 0), 1) * 1e3,
                       "ms", hist.get("total", 0))
        base.daemon_stats(outcome)
    finally:
        _stop(outcome, daemon)
    compute = base.verify(outcome)
    first_latency = {}
    miss_iter = iter(base.latency["miss"])
    for key in base.touched:  # dicts keep first-touch order
        first_latency[key] = next(miss_iter)
    stat = median(list(compute.values()))
    outcome.metric("serve.compute_s", stat.value, "s", stat.n)
    stat = median([(first_latency[k] - compute[k]) * 1e3 for k in compute])
    outcome.metric("serve.miss_wait_ms", stat.value, "ms", stat.n)

    # profiled pass: the same operations, daemon profiled in every thread
    prof_out = os.path.join(work, "daemon.prof")
    daemon = _start(work, pristine, profile_out=prof_out)
    try:
        with layers.profiled(cpu=True) as client_prof:
            traced = _replay(outcome, daemon.endpoint, seed, history)
    finally:
        _stop(outcome, daemon)
    traced.verify(outcome)
    sources = [client_prof]
    if os.path.exists(prof_out):
        sources.append(prof_out)
    else:
        outcome.fail("profiled daemon wrote no profile")
    layers.report(outcome, layers.merge(sources), traced.busy, base.busy)

    # knowledge-base and WAL microbenchmarks
    recovery = []
    for _ in range(3):
        copy = tempfile.mkdtemp(prefix="kb-", dir=work)
        shutil.rmtree(copy)
        shutil.copytree(pristine, copy)
        t0 = time.perf_counter()
        kb = KnowledgeBase(copy, nshards=4)
        recovery.append(time.perf_counter() - t0)
        kb.close()
    stat = median(recovery)
    outcome.metric("serve.recovery_s", stat.value, "s", stat.n)
    kb = KnowledgeBase(copy, nshards=4)
    try:
        keys = [request_key(normalize_request(sc.request()))
                for sc in base.universe]
        t0 = time.perf_counter()
        for key in history + keys:
            kb.get(key)
        outcome.metric("serve.kb_get_us", (time.perf_counter() - t0)
                       / (len(history) + len(keys)) * 1e6, "us",
                       len(history) + len(keys))
        reqs = [normalize_request(sc.request()) for sc in base.universe[:50]]
        t0 = time.perf_counter()
        for req in reqs:
            kb.nearest(req)
        outcome.metric("serve.kb_nearest_us",
                       (time.perf_counter() - t0) / len(reqs) * 1e6, "us",
                       len(reqs))
    finally:
        kb.close()
    micro.wal_append(outcome, work)
    return outcome
