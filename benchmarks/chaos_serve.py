#!/usr/bin/env python
"""CI chaos smoke for the tuning service (run from the repo root).

Proves the daemon's headline guarantees end to end with a real daemon
process and real SIGKILLs:

1. compute every scenario serially (the reference fingerprints);
2. start ``repro serve`` as a subprocess (with its ``--telemetry``
   exposition enabled) and stream requests at it from 8 concurrent
   client threads; scrape the telemetry plane mid-stream (it must
   answer under load without perturbing any decision), then SIGKILL
   the daemon at a seeded random instant — every client must still
   terminate, within its declared time budget, with a decision
   bit-identical to the serial reference (served or degraded);
3. truncate one shard's WAL at a seeded random byte (the torn tail a
   SIGKILL mid-append leaves), restart the daemon, and verify recovery
   replays the WAL without losing committed records and the full
   client fleet again gets bit-identical answers;
4. SIGTERM the daemon: it must drain, checkpoint and exit 0, leaving
   the metrics + audit artifacts CI archives.

Exit status is non-zero on any divergence, so the CI job fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/chaos_serve.py [--seed 20260807]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, "src")

from repro.bench.fabric.protocol import result_fingerprint  # noqa: E402
from repro.obs.telemetry import parse_exposition, scrape  # noqa: E402
from repro.serve.client import TuningClient  # noqa: E402
from repro.serve.core import (  # noqa: E402
    compute_decision,
    normalize_request,
    request_key,
)

OUT_DIR = os.path.join("benchmarks", "out")

#: the scenario fleet: fast alltoall tunings across message sizes
SCENARIOS = [
    normalize_request({"operation": "alltoall", "nprocs": 4,
                       "iterations": 12, "evals": 1,
                       "nbytes": 256 << i})
    for i in range(8)
]
NCLIENTS = 8
#: wall-clock slack allowed on top of a client's declared network
#: budget for the local computation itself (CI machines are slow)
COMPUTE_SLACK_S = 10.0


def fail(msg: str) -> None:
    print(f"chaos-serve: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def serial_fingerprints() -> dict:
    return {request_key(req): result_fingerprint(compute_decision(req))
            for req in SCENARIOS}


def start_daemon(sock: str, data_dir: str, metrics: str, audit: str,
                 telemetry: str = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    cmd = [sys.executable, "-m", "repro", "serve",
           "--socket", sock, "--data-dir", data_dir,
           "--workers", "2", "--metrics", metrics, "--audit", audit]
    if telemetry:
        cmd += ["--telemetry", telemetry]
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    deadline = time.monotonic() + 30.0
    with TuningClient(f"unix:{sock}", timeout=0.5, attempts=1) as probe:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                fail(f"daemon exited at startup:\n{proc.stdout.read()}")
            if probe.ping():
                return proc
            time.sleep(0.05)
    fail("daemon did not answer ping within 30s")


def run_fleet(sock: str, expected: dict) -> dict:
    """8 concurrent clients, each deciding every scenario once.

    Returns per-client telemetry; fails the harness on any decision
    that diverges from the serial reference or any call that exceeds
    the client's declared budget."""
    results: list = [None] * NCLIENTS
    errors: list = []

    def one_client(idx: int) -> None:
        with TuningClient(f"unix:{sock}", timeout=2.0, attempts=2,
                          backoff_base=0.05, backoff_cap=0.5,
                          jitter_seed=idx) as client:
            decide_all(idx, client)

    def decide_all(idx: int, client: TuningClient) -> None:
        budget = client.budget() + COMPUTE_SLACK_S
        calls = []
        # stagger starting points so the fleet hits different keys
        order = SCENARIOS[idx % len(SCENARIOS):] + \
            SCENARIOS[:idx % len(SCENARIOS)]
        for req in order:
            t0 = time.monotonic()
            try:
                record = client.decide(req)
            except Exception as exc:  # noqa: BLE001
                errors.append(f"client {idx}: decide raised {exc!r}")
                return
            wall = time.monotonic() - t0
            if wall > budget:
                errors.append(f"client {idx}: call took {wall:.2f}s, "
                              f"budget {budget:.2f}s")
            key = request_key(req)
            got = result_fingerprint(record["decision"])
            if got != expected[key]:
                errors.append(f"client {idx}: {key} diverged from serial "
                              f"(source={record['source']})")
            calls.append({"source": record["source"], "wall_s": wall})
        results[idx] = {"degraded": client.degraded,
                        "rpc_ok": client.rpc_ok,
                        "rpc_failed": client.rpc_failed,
                        "calls": calls}

    threads = [threading.Thread(target=one_client, args=(i,))
               for i in range(NCLIENTS)]
    for t in threads:
        t.start()
    return {"threads": threads, "results": results, "errors": errors}


def stage_sigkill_midstream(tmp: str, expected: dict, rng) -> dict:
    sock = os.path.join(tmp, "t.sock")
    tel = os.path.join(tmp, "telemetry.sock")
    data_dir = os.path.join(tmp, "kb")
    proc = start_daemon(sock, data_dir,
                        os.path.join(tmp, "m1.json"),
                        os.path.join(tmp, "a1.json"),
                        telemetry=f"unix:{tel}")
    fleet = run_fleet(sock, expected)
    # scrape the live telemetry plane mid-stream — the exposition must
    # answer while the daemon is under concurrent load, and reading it
    # must not perturb the fleet (the decisions below stay bit-identical)
    time.sleep(rng.uniform(0.02, 0.4))
    scraped = {}
    try:
        text = scrape(f"unix:{tel}", timeout=5.0)
        parsed = parse_exposition(text)
        scraped = {
            "metrics": len([k for k in parsed if k != "_scope"]),
            "scope": parsed.get("_scope", {}).get("value", ""),
            "connections": parsed.get("repro_serve_connections",
                                      {}).get("value"),
        }
        print(f"chaos-serve: mid-stream scrape OK — {scraped['metrics']} "
              f"metrics, {scraped['connections']} connections so far")
    except OSError as exc:
        fail(f"mid-stream telemetry scrape failed: {exc}")
    # SIGKILL the daemon at a seeded random instant mid-stream
    proc.kill()
    proc.wait()
    for t in fleet["threads"]:
        t.join(timeout=300.0)
    if any(t.is_alive() for t in fleet["threads"]):
        fail("a client is still blocked after the daemon SIGKILL")
    if fleet["errors"]:
        fail("; ".join(fleet["errors"][:5]))
    done = [r for r in fleet["results"] if r is not None]
    if len(done) != NCLIENTS:
        fail(f"only {len(done)}/{NCLIENTS} clients completed")
    degraded = sum(r["degraded"] for r in done)
    print(f"chaos-serve: stage 1 OK — daemon SIGKILLed mid-stream, "
          f"{NCLIENTS} clients x {len(SCENARIOS)} decisions bit-identical "
          f"({degraded} degraded locally)")
    return {"degraded_calls": degraded,
            "served_calls": sum(len(r["calls"]) for r in done) - degraded,
            "telemetry_scrape": scraped}


def stage_wal_truncate_restart(tmp: str, expected: dict, rng) -> dict:
    data_dir = os.path.join(tmp, "kb")
    # tear a shard WAL at a random byte, like a SIGKILL mid-append would
    wals = sorted(f for f in os.listdir(data_dir) if f.endswith(".wal"))
    torn = None
    nonempty = [w for w in wals
                if os.path.getsize(os.path.join(data_dir, w)) > 0]
    if nonempty:
        torn = os.path.join(data_dir, rng.choice(nonempty))
        blob = open(torn, "rb").read()
        cut = rng.randrange(len(blob) + 1)
        with open(torn, "wb") as fh:
            fh.write(blob[:cut])
    sock = os.path.join(tmp, "t2.sock")
    proc = start_daemon(sock, data_dir,
                        os.path.join(tmp, "metrics.json"),
                        os.path.join(tmp, "audit.json"))
    client = TuningClient(f"unix:{sock}", timeout=10.0)
    stats = client.stats()
    if stats is None:
        fail("restarted daemon did not answer stats")
    kb = stats["kb"]
    # recovery must never lose a *committed* record: every record the
    # restarted daemon reports must carry an intact, serially-correct
    # decision (prefix-of-committed is checked per key below)
    intact = 0
    for req in SCENARIOS:
        record = client.lookup(request_key(req))
        if record is not None and record.get("decision"):
            got = result_fingerprint(record["decision"])
            if got != expected[request_key(req)]:
                fail(f"recovered record for {request_key(req)} is corrupt")
            intact += 1
    client.close()
    # the fleet must again converge to bit-identical decisions,
    # recomputing whatever the torn tail lost
    fleet = run_fleet(sock, expected)
    for t in fleet["threads"]:
        t.join(timeout=300.0)
    if any(t.is_alive() for t in fleet["threads"]):
        fail("a client is still blocked after the WAL-truncate restart")
    if fleet["errors"]:
        fail("; ".join(fleet["errors"][:5]))
    print(f"chaos-serve: stage 2 OK — WAL torn at a random byte "
          f"({os.path.basename(torn) if torn else 'no nonempty WAL'}), "
          f"restart recovered {intact} intact records "
          f"(replayed={kb['replayed_records']}, "
          f"truncated_bytes={kb['truncated_bytes']}), "
          f"fleet re-converged bit-identically")
    return {"proc": proc, "sock": sock, "recovered_records": intact,
            "replayed_records": kb["replayed_records"],
            "truncated_bytes": kb["truncated_bytes"]}


def stage_sigterm_drain(tmp: str, proc) -> dict:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("daemon did not drain and exit within 60s of SIGTERM")
    if proc.returncode != 0:
        fail(f"daemon exited {proc.returncode} on SIGTERM:\n"
             f"{proc.stdout.read()}")
    metrics = os.path.join(tmp, "metrics.json")
    audit = os.path.join(tmp, "audit.json")
    for artifact in (metrics, audit):
        if not os.path.exists(artifact):
            fail(f"daemon exited without writing {artifact}")
    with open(metrics) as fh:
        snap = json.load(fh)
    print("chaos-serve: stage 3 OK — SIGTERM drained, checkpointed, "
          "exit 0, artifacts written")
    return {"metrics": snap,
            "audit": json.load(open(audit))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260807,
                        help="seed for kill timing and WAL cut points")
    args = parser.parse_args()
    rng = random.Random(args.seed)

    expected = serial_fingerprints()
    print(f"chaos-serve: serial baseline — {len(expected)} scenarios")

    tmp = tempfile.mkdtemp(prefix="chaos-serve-")
    try:
        stage1 = stage_sigkill_midstream(tmp, expected, rng)
        stage2 = stage_wal_truncate_restart(tmp, expected, rng)
        stage3 = stage_sigterm_drain(tmp, stage2.pop("proc"))
        stage2.pop("sock", None)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    artifact = os.path.join(OUT_DIR, "serve_chaos.json")
    with open(artifact, "w", encoding="utf-8") as fh:
        json.dump({"scope": "serve-chaos", "seed": args.seed,
                   "scenarios": len(expected), "clients": NCLIENTS,
                   "sigkill_midstream": stage1,
                   "wal_truncate_restart": stage2,
                   "sigterm_drain": stage3}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"chaos-serve: PASS — service telemetry in {artifact}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
