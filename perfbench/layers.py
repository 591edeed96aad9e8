"""Fold profiler self time into the repository's layers.

The traced run profiles the benchmark's calls into the program with
:mod:`cProfile`: single-threaded computation on the wall clock, and
code that mostly waits (the serving daemon's threads, its client, the
fabric master) on the thread's CPU clock, so time parked in a socket,
queue or ``select`` adds nothing.  Every function's self time goes to
the layer of its source file.  Self time of code outside ``repro``
(builtins, the standard library) goes to the layers that called it,
in proportion to the time each caller spent in it, so the layer self
times add up to the profiled total.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import sys
import time
from typing import Dict, Iterable, Iterator, Optional

#: layers named after the modules they cover; ``harness`` is this
#: benchmark's own code and ``other`` is time no layer called
LAYERS = ("cli", "bench", "fabric", "adcl", "nbc", "sim.mpi", "sim.engine",
          "sim.model", "serve", "obs", "util", "harness", "other")

#: public entry points whose exact call counts the traced run reports:
#: layer -> ((file suffix, function name), ...)
ENTRY_POINTS = {
    "cli": (("repro/cli.py", "main"),),
    "bench": (("repro/bench/overlap.py", "run_overlap"),
              ("repro/bench/parallel.py", "run_tasks")),
    "fabric": (("repro/bench/fabric/protocol.py", "send_frame"),),
    "adcl": (("repro/adcl/request.py", "start"),
             ("repro/adcl/request.py", "start_now")),
    "nbc": (("repro/nbc/schedule.py", "get"),),
    "sim.mpi": (("repro/sim/mpi.py", "isend"), ("repro/sim/mpi.py", "irecv")),
    "sim.engine": (("repro/sim/engine.py", "run"),),
    "serve": (("repro/serve/server.py", "_dispatch"),),
    "obs": (("repro/obs/export.py", "build_trace_doc"),
            ("repro/obs/critpath.py", "analyze")),
    "util": (("repro/util/canonical.py", "canonical_json"),),
}

_SIM_MPI = ("mpi.py", "process.py")
_SIM_ENGINE = ("engine.py", "pool.py")


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None outside ``repro``
    and this benchmark."""
    path = filename.replace(os.sep, "/")
    if "/perfbench/" in path:
        return "harness"
    cut = path.rfind("/repro/")
    if cut < 0:
        return None
    rel = path[cut + len("/repro/"):]
    top, _, rest = rel.partition("/")
    if rel in ("cli.py", "__main__.py"):
        return "cli"
    if rel.startswith("bench/fabric/"):
        return "fabric"
    if top in ("bench", "apps"):
        return "bench"
    if top == "sim":
        if rest in _SIM_MPI:
            return "sim.mpi"
        if rest in _SIM_ENGINE:
            return "sim.engine"
        return "sim.model"
    if top == "guidelines":
        return "serve"  # runs only inside the daemon's start-up
    if top in ("adcl", "nbc", "serve", "obs", "util"):
        return top
    return "util"  # errors.py, units.py, package __init__


def merge(profiles: Iterable) -> dict:
    """One ``pstats`` table from profilers, stats files or tables."""
    out = pstats.Stats()
    for item in profiles:
        try:
            out.add(item)
        except TypeError:
            pass  # a profiler or file with no data
    return out.stats


def fold(table: dict) -> Dict[str, float]:
    """Self seconds per layer; the values sum to the table's total."""
    shares: Dict[tuple, Dict[str, float]] = {}

    def share_of(func, visiting) -> Dict[str, float]:
        if func in shares:
            return shares[func]
        layer = layer_of(func[0])
        if layer is not None:
            result = {layer: 1.0}
        elif func in visiting or func not in table:
            return {"other": 1.0}
        else:
            # recursion and call cycles: follow only edges leaving them
            visiting = visiting | {func}
            weights = {c: edge[2] for c, edge in table[func][4].items()
                       if c not in visiting}
            total = sum(weights.values())
            if not weights:
                result = {"other": 1.0}
            else:
                if total <= 0:  # no measurable caller time: split evenly
                    weights = dict.fromkeys(weights, 1.0)
                    total = float(len(weights))
                result = {}
                for caller, w in weights.items():
                    for lay, frac in share_of(caller, visiting).items():
                        result[lay] = result.get(lay, 0.0) + frac * w / total
        shares[func] = result
        return result

    out = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        for lay, frac in share_of(func, frozenset()).items():
            out[lay] += tt * frac
    return out


def entry_calls(table: dict) -> Dict[str, int]:
    """Exact call counts at each layer's public entry points."""
    counts = dict.fromkeys(ENTRY_POINTS, 0)
    for (filename, _line, name), (_cc, nc, *_rest) in table.items():
        path = filename.replace(os.sep, "/")
        for layer, points in ENTRY_POINTS.items():
            if any(path.endswith(sfx) and name == fn for sfx, fn in points):
                counts[layer] += nc
    return counts


def _stop_profiling_in_child() -> None:
    sys.setprofile(None)


# forked children (fabric workers) drop an inherited profiler hook at
# once, so they run at full speed; without a profiler this is a no-op
os.register_at_fork(after_in_child=_stop_profiling_in_child)


@contextlib.contextmanager
def profiled(cpu: bool = False) -> Iterator[cProfile.Profile]:
    """Profile this thread, on its CPU clock when ``cpu`` is set (that
    clock is a system call per event, so compute-bound code uses the
    default wall clock).  Forked children are not profiled.
    """
    prof = cProfile.Profile(time.thread_time) if cpu else cProfile.Profile()
    prof.enable()
    try:
        yield prof
    finally:
        prof.disable()


def report(outcome, table: dict, traced_wall: float,
           untraced_wall: float) -> None:
    """Write the layer fold, entry-point counts and profiler overhead
    into ``outcome`` (per-layer metrics)."""
    selfs = fold(table)
    total = sum(selfs.values())
    nfuncs = len(table)
    for lay in LAYERS:
        outcome.metric(f"{lay}.self_s", selfs[lay], "s", nfuncs)
        outcome.metric(f"{lay}.share", selfs[lay] / total if total else 0.0,
                       "ratio", nfuncs)
    outcome.metric("profile.total_s", total, "s", nfuncs)
    for lay, count in entry_calls(table).items():
        outcome.metric(f"calls.{lay}", count, "count")
    outcome.metric("trace.profiler_overhead",
                   traced_wall / untraced_wall if untraced_wall else 0.0,
                   "ratio")
