"""Scenario grid and fingerprints for the hot-path identity corpus.

The committed ``data/hotpath_identity.json`` holds one sha256 per
scenario over everything a tune observes: record times (float hex),
function names, winner, decision iteration, makespan (float hex), event
count and fast-lane batched syscalls.  It was generated before the
point-to-point hot path was streamlined; ``test_hotpath_identity.py``
recomputes every digest, so any change to the message path that moves
a single bit of a result fails the test.

Regenerate (only when a change is *meant* to alter results)::

    PYTHONPATH=src python tests/sim/hotpath_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "hotpath_identity.json")

OPERATIONS = ("alltoall", "alltoall_ext", "alltoall_hier", "bcast",
              "bcast_hier", "allgatherv", "reduce_scatter", "allreduce")
PLATFORMS = ("bluegene_p", "crill", "whale", "whale_tcp")
NPROCS = (4, 8, 16)
#: 1KB is eager on every link of every platform, 96KB rendezvous on all
NBYTES = (1024, 96 * 1024)
NPROGRESS = (1, 5)
SELECTORS = ("brute_force", "heuristic")
EVALS = 2
#: seeded draws of the free axes per (operation, platform) cell
DRAWS = 2


def grid() -> list[dict]:
    """Every operation on every platform; the other axes seeded."""
    rng = random.Random(2026)
    out = []
    for op in OPERATIONS:
        for plat in PLATFORMS:
            for draw in range(DRAWS):
                out.append({
                    "kind": "plain", "draw": draw, "platform": plat, "operation": op,
                    "nprocs": rng.choice(NPROCS),
                    "nbytes": rng.choice(NBYTES),
                    "nprogress": rng.choice(NPROGRESS),
                    "selector": rng.choice(SELECTORS),
                })
    base = {"platform": "whale", "nprocs": 16, "nbytes": 96 * 1024,
            "nprogress": 5, "selector": "brute_force"}
    out.append(dict(base, kind="resilient", operation="alltoall",
                    faults="drop=0.05,drop=1.0@0.005:0.5,seed=3"))
    out.append(dict(base, kind="ft", operation="bcast",
                    faults="drop=0.02,crash=5@0.01,seed=3"))
    out.append(dict(base, kind="traced", operation="allreduce",
                    platform="crill", nprocs=8, nbytes=1024))
    return out


def scenario_id(sc: dict) -> str:
    parts = [sc["kind"], sc["operation"], sc["platform"], f"P{sc['nprocs']}",
             f"B{sc['nbytes']}", f"np{sc['nprogress']}", sc["selector"]]
    if "draw" in sc:
        parts.append(f"d{sc['draw']}")
    return "-".join(parts)


def _config(sc: dict):
    from repro.bench.overlap import OverlapConfig, function_set_for
    from repro.sim.faults import FaultPlan

    nfun = len(function_set_for(sc["operation"]))
    return OverlapConfig(
        platform=sc["platform"], nprocs=sc["nprocs"],
        operation=sc["operation"], nbytes=sc["nbytes"],
        compute_total=2.0, paper_iterations=1000,
        iterations=nfun * EVALS + 2, nprogress=sc["nprogress"],
        placement="cyclic",
        faults=FaultPlan.parse(sc["faults"]) if "faults" in sc else None,
    )


def run(sc: dict):
    """Run one scenario the way ``repro tune`` would."""
    from repro.adcl.resilience import Resilience
    from repro.bench.overlap import ULFM, run_overlap
    from repro.nbc.schedule import SCHEDULE_CACHE

    SCHEDULE_CACHE.clear()
    cfg = _config(sc)
    kw = dict(selector=sc["selector"], evals_per_function=EVALS)
    if sc["kind"] == "resilient":
        return run_overlap(cfg, recovery=Resilience(), **kw)
    if sc["kind"] == "ft":
        return run_overlap(cfg, recovery=ULFM(), **kw)
    if sc["kind"] == "traced":
        from repro.obs import TraceRecorder, install

        prev = install(TraceRecorder())
        try:
            return run_overlap(cfg, **kw)
        finally:
            install(prev)
    return run_overlap(cfg, **kw)


def fingerprint(res) -> dict:
    return {
        "records": [(r.iteration, r.fn_index, r.seconds.hex(), r.learning)
                    for r in res.records],
        "fn_names": list(res.fn_names),
        "winner": res.winner,
        "decided_at": res.decided_at,
        "makespan": res.makespan.hex(),
        "events": res.events,
        "batched_syscalls": res.engine_stats.get("batched_syscalls", 0),
    }


def digest(res) -> str:
    blob = json.dumps(fingerprint(res), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute() -> dict:
    return {scenario_id(sc): digest(run(sc)) for sc in grid()}


def main() -> int:
    corpus = compute()
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(corpus)} digests to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
