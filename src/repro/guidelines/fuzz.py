"""Seeded guideline fuzzer and campaign runner.

:func:`fuzz_probes` draws random (but seeded, hence reproducible)
probe geometries; :func:`run_campaign` fans the checks out through the
PR-5 sweep fabric (:func:`repro.bench.parallel.run_tasks`), so a fuzz
campaign parallelizes across workers, checkpoints into a result cache,
and survives worker kills — with results bit-identical to a serial run
(the ``--jobs`` determinism contract).

The campaign worker is module-level (pickling requirement of the
fabric) and each probe is an independent task keyed by its canonical
identity, so ``--resume`` re-serves finished probes from the cache.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..bench.parallel import ResultCache, run_tasks, task_key
from ..sim.platforms import available_platforms
from .checker import check_probe, normalize_probe
from .rules import RULES

__all__ = [
    "FUZZ_EVALS",
    "FUZZ_NPROCS",
    "FUZZ_NPROGRESS",
    "fuzz_probes",
    "run_campaign",
]

#: geometry pools the fuzzer draws from (process counts include
#: non-powers-of-two; message sizes are drawn separately, see below)
FUZZ_NPROCS = (4, 6, 8, 12, 16)
FUZZ_NPROGRESS = (1, 2, 5, 8)
FUZZ_EVALS = (1, 2)


def fuzz_probes(count: int, seed: int,
                platforms: Optional[Sequence[str]] = None,
                operations: Sequence[str] = ("alltoall", "bcast"),
                selectors: Sequence[str] = ("brute_force",),
                tolerance: float = 0.02,
                max_nbytes: int = 256 * 1024) -> List[dict]:
    """``count`` random probes, reproducible from ``seed``.

    Message sizes are powers of two in [1 KiB, ``max_nbytes``] with an
    optional half-step jitter (e.g. 48 KiB), to probe the gaps between
    the presets' calibration points.  Each probe also gets its own
    derived seed, so the selection-mockup rule sees a fresh synthetic
    surface per probe.
    """
    rng = random.Random(seed)
    if platforms is None:
        platforms = available_platforms()
    probes = []
    for _ in range(count):
        nbytes = 1024
        while nbytes * 2 <= max_nbytes and rng.random() < 0.75:
            nbytes *= 2
        if nbytes * 3 // 2 <= max_nbytes and rng.random() < 0.25:
            nbytes += nbytes // 2
        probes.append(normalize_probe({
            "platform": rng.choice(list(platforms)),
            "operation": rng.choice(list(operations)),
            "nprocs": rng.choice(FUZZ_NPROCS),
            "nbytes": nbytes,
            "nprogress": rng.choice(FUZZ_NPROGRESS),
            "selector": rng.choice(list(selectors)),
            "evals": rng.choice(FUZZ_EVALS),
            "seed": rng.randrange(1 << 20),
            "tolerance": tolerance,
        }))
    return probes


def _campaign_worker(payload: dict) -> dict:
    """One fuzz task: check one probe against the requested rules.

    Module-level so the fabric can pickle it into forked workers; a
    fresh engine per task keeps tasks independent (bit-identical
    whether run serially, in parallel, or resumed from cache).
    """
    violations = check_probe(payload["probe"], rules=payload["rules"])
    return {"probe": payload["probe"], "violations": violations}


def run_campaign(probes: Sequence[dict],
                 rules: Optional[Sequence[str]] = None,
                 jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 fabric=None) -> dict:
    """Check every probe, fanned out through the sweep fabric.

    ``rules`` is a list of rule IDs (None = the full catalogue).
    Returns ``{"probes", "rules", "checked", "violations"}`` with
    violations flattened in probe order — deterministic regardless of
    ``jobs``, cache hits, or worker kills.
    """
    rule_ids = list(rules) if rules is not None else \
        [r.rule_id for r in RULES]
    tasks = []
    for probe in probes:
        payload = {"probe": normalize_probe(probe), "rules": rule_ids}
        tasks.append((task_key("guideline", **payload), payload))
    results = run_tasks(tasks, _campaign_worker, jobs=jobs, cache=cache,
                        fabric=fabric)
    violations: List[dict] = []
    for result in results:
        violations.extend(result["violations"])
    return {
        "probes": len(probes),
        "rules": rule_ids,
        "checked": len(results),
        "violations": violations,
    }
