"""Seeded scenario generators for the tuning and serving workloads.

Everything the program under test sees is generated here from the
workload seed; the same seed always yields the same scenarios.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List

#: the ``repro tune`` defaults every generated scenario keeps
COMPUTE_TOTAL = 10.0
PAPER_ITERATIONS = 1000
EVALS = 3
SELECTOR = "brute_force"

TUNE_PLATFORMS = ("crill", "whale", "whale_tcp")
TUNE_OPERATIONS = ("alltoall", "alltoall_ext", "bcast", "allreduce",
                   "reduce_scatter", "allgatherv")
TUNE_NPROCS = (8, 16, 32)
TUNE_NBYTES = tuple(1024 << i for i in range(9))        # 1KB .. 256KB
TUNE_NPROGRESS = (1, 5, 20)

#: small scenarios for the serving mix: cheap enough that a cold miss
#: costs milliseconds, few enough (216) that the daemon's default
#: 256-entry LRU holds all of them
SERVE_PLATFORMS = TUNE_PLATFORMS
SERVE_OPERATIONS = TUNE_OPERATIONS
SERVE_NPROCS = (4, 8)
SERVE_NBYTES = (1024, 8 * 1024, 64 * 1024)
SERVE_NPROGRESS = (1, 5)
SERVE_UNIVERSE = (len(SERVE_PLATFORMS) * len(SERVE_OPERATIONS)
                  * len(SERVE_NPROCS) * len(SERVE_NBYTES)
                  * len(SERVE_NPROGRESS))


@lru_cache(maxsize=None)
def candidates(operation: str) -> int:
    """Size of the operation's ADCL function set."""
    from repro.bench.overlap import function_set_for

    return len(function_set_for(operation))


def iterations_for(operation: str, evals: int = EVALS) -> int:
    """Simulated iterations that let brute force decide and then run
    one steady round: every candidate ``evals`` times, plus ``evals``.

    Derived from the function-set size so operations with many
    candidates (bcast: 21) still reach a decision.
    """
    return candidates(operation) * evals + evals


@dataclass(frozen=True)
class Scenario:
    platform: str
    operation: str
    nprocs: int
    nbytes: int
    nprogress: int

    @property
    def key(self) -> str:
        return (f"{self.platform}/{self.operation}/P{self.nprocs}"
                f"/B{self.nbytes}/np{self.nprogress}")

    @property
    def iterations(self) -> int:
        return iterations_for(self.operation)

    def overlap_config(self):
        from repro.bench.overlap import OverlapConfig

        return OverlapConfig(
            platform=self.platform, nprocs=self.nprocs,
            operation=self.operation, nbytes=self.nbytes,
            compute_total=COMPUTE_TOTAL, paper_iterations=PAPER_ITERATIONS,
            iterations=self.iterations, nprogress=self.nprogress)

    def request(self) -> dict:
        """The tuning-service request for this scenario."""
        return {
            "platform": self.platform, "operation": self.operation,
            "nprocs": self.nprocs, "nbytes": self.nbytes,
            "compute_total": COMPUTE_TOTAL,
            "paper_iterations": PAPER_ITERATIONS,
            "iterations": self.iterations, "nprogress": self.nprogress,
            "selector": SELECTOR, "evals": EVALS,
        }


def tune_grid() -> List[Scenario]:
    """Every scenario the tuning workloads can generate."""
    return [Scenario(*fields) for fields in itertools.product(
        TUNE_PLATFORMS, TUNE_OPERATIONS, TUNE_NPROCS, TUNE_NBYTES,
        TUNE_NPROGRESS)]


#: message sizes in three bands; every block gives each (operation, P)
#: cell one scenario from each band
_SIZE_BANDS = (TUNE_NBYTES[0:3], TUNE_NBYTES[3:6], TUNE_NBYTES[6:9])


def tune_block(seed: int, index: int, nprocs=TUNE_NPROCS) -> List[Scenario]:
    """Block ``index`` of the seeded tuning stream.

    A block holds every (platform, operation, P) stratum once.  Within
    each (operation, P) cell the three platforms get the three size
    bands and the three progress counts in seeded order, and each size
    is drawn from its band.  So every block has the same mix of
    operations, process counts, size bands and progress counts; the
    seed picks the pairings, the exact sizes and the order.  Whole
    blocks keep the cost mix of a run steady whatever the seed.
    """
    rng = random.Random(f"tune-block:{seed}:{index}")
    block = []
    for op, nprocs_ in itertools.product(TUNE_OPERATIONS, nprocs):
        bands = list(_SIZE_BANDS)
        rng.shuffle(bands)
        progress = list(TUNE_NPROGRESS)
        rng.shuffle(progress)
        for plat, band, npg in zip(TUNE_PLATFORMS, bands, progress):
            block.append(Scenario(plat, op, nprocs_, rng.choice(band), npg))
    rng.shuffle(block)
    return block


def serve_universe(seed: int) -> List[Scenario]:
    """The serving mix's scenarios, in the seeded order of their misses."""
    grid = [Scenario(*fields) for fields in itertools.product(
        SERVE_PLATFORMS, SERVE_OPERATIONS, SERVE_NPROCS, SERVE_NBYTES,
        SERVE_NPROGRESS)]
    random.Random(f"serve-universe:{seed}").shuffle(grid)
    return grid


#: the serving loop's operation counts are set by the samples each
#: reported figure needs; they model no client trace.  Every scenario of
#: the universe is a miss exactly once (216 misses, above the 100 a p90
#: needs, and the same miss set whatever the seed).  Hits and fsync'd
#: ``record`` writes each get at least the 1000 samples a p99 needs;
#: ``lookup`` and ``warm`` reads, checked for correctness and reported
#: only in aggregate, at least 100 each.  A longer run keeps these
#: shares.  The daemon's LRU holds the whole universe, so a hit costs
#: the same whichever scenario it repeats: hits, writes and reads pick
#: their keys uniformly.
SERVE_FLOORS = (("hit", 1000), ("record", 1000), ("lookup", 100),
                ("warm", 100))


def serve_min_ops(universe_size: int) -> int:
    """Fewest operations that meet every floor."""
    return universe_size + sum(n for _op, n in SERVE_FLOORS)


def serve_ops(seed: int, universe_size: int, history_size: int,
              total: int) -> List[tuple]:
    """The serving loop's ``total`` operations as ``(op, index)``, in
    seeded order.

    ``op`` is ``get``, ``record``, ``lookup`` or ``warm``.  A ``get``
    indexes the scenario universe: the i-th miss takes scenario i, a
    hit repeats one already touched.  ``record``/``lookup`` index the
    client's history keys, ``warm`` the universe.
    """
    rest = total - universe_size
    if rest < sum(n for _op, n in SERVE_FLOORS):
        raise ValueError(f"{total} operations cannot meet the floors")
    weight = sum(n for _op, n in SERVE_FLOORS)
    counts = {op: rest * n // weight for op, n in SERVE_FLOORS}
    counts["hit"] += rest - sum(counts.values())
    kinds = ["miss"] * universe_size
    for op, _n in SERVE_FLOORS:
        kinds += [op] * counts[op]
    rng = random.Random(f"serve-ops:{seed}")
    rng.shuffle(kinds)
    first = kinds.index("miss")   # nothing can be hit before a miss
    kinds[0], kinds[first] = kinds[first], kinds[0]
    ops, touched = [], 0
    for kind in kinds:
        if kind == "miss":
            ops.append(("get", touched))
            touched += 1
        elif kind == "hit":
            ops.append(("get", rng.randrange(touched)))
        elif kind == "warm":
            ops.append(("warm", rng.randrange(universe_size)))
        else:
            ops.append((kind, rng.randrange(history_size)))
    return ops


#: the fabric sweep: ``SCALE_CFG``'s shape (hierarchical bcast on the
#: BlueGene/P preset, 300 progress calls, fixed candidates) at P=128,
#: where the full 24-candidate sweep takes about two seconds on two
#: workers and the fast lane still drains 90% of events
SWEEP_PLATFORM = "bluegene_p"
SWEEP_OPERATION = "bcast_hier"
SWEEP_NPROCS = 128
SWEEP_NBYTES = 8 * 1024


def sweep_candidates() -> int:
    return candidates(SWEEP_OPERATION)


def sweep_config(seed: int):
    """The sweep scenario; the seed only renames its task keys (the
    simulation is noise-free, so results do not depend on it)."""
    from repro.bench.overlap import OverlapConfig

    return OverlapConfig(
        platform=SWEEP_PLATFORM, nprocs=SWEEP_NPROCS,
        operation=SWEEP_OPERATION, nbytes=SWEEP_NBYTES, compute_total=50.0,
        paper_iterations=1000, iterations=5, nprogress=300,
        seed=random.Random(f"sweep:{seed}").randrange(1 << 30))
