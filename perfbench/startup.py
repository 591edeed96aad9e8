"""Cold start of the command line: what a ``repro tune`` user waits for
before any tuning happens."""

from __future__ import annotations

import json
import subprocess
import sys
import time

from . import paths
from .stats import Stat, median

#: cold starts per run; the median is reported
COLD_STARTS = 7

_IMPORT_PROBE = (
    "import json, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import repro.cli\n"
    "t1 = time.perf_counter()\n"
    "mods = sorted(sys.modules)\n"
    "print(json.dumps([t1 - t0, len(mods), "
    "sum(1 for m in mods if m == 'repro' or m.startswith('repro.'))]))\n"
)


def cold_start_s(outcome, speed, starts: int = COLD_STARTS) -> Stat:
    """Median wall time of ``python -m repro platforms`` from spawn to
    exit (interpreter start, imports, one command), probing the host's
    speed before each start; each start is an operation that fails on
    a non-zero exit."""
    times = []
    for _ in range(starts):
        speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "platforms"], env=paths.child_env(),
            cwd=paths.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        times.append(time.perf_counter() - t0)
        ok = proc.returncode == 0 and b"bluegene_p" in proc.stdout
        outcome.op(ok, f"cold start exited {proc.returncode}: "
                       f"{proc.stderr.decode(errors='replace')[-200:]}")
    return median(times)


def import_probe(outcome, probes: int = 3) -> None:
    """``cli.import_s`` (median over fresh interpreters) and the exact
    module counts ``import repro.cli`` leaves loaded."""
    times, counts = [], None
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=paths.child_env(),
            cwd=paths.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            check=True)
        seconds, total, ours = json.loads(proc.stdout)
        times.append(seconds)
        counts = (total, ours)
    stat = median(times)
    outcome.metric("cli.import_s", stat.value, "s", stat.n)
    outcome.metric("cli.modules_loaded", counts[0], "count")
    outcome.metric("cli.repro_modules", counts[1], "count")
