"""Resilient master/worker sweep fabric.

The PR-3 executor forked a fresh pool per sweep and died wholesale if
one worker was SIGKILLed, hung, or OOM-killed.  This package replaces
it with a persistent master/worker fabric (modeled on nengo-mpi's
master + spawned-worker design):

* :mod:`repro.bench.fabric.protocol` — length-prefixed frames over a
  socketpair: ``task`` / ``result`` / ``heartbeat`` / ``shutdown``;
* :mod:`repro.bench.fabric.leases` — the pure lease state machine:
  per-task leases with deadlines, reassignment on worker death or
  expiry, work-stealing for stragglers, poison-task quarantine;
* :mod:`repro.bench.fabric.worker` — the long-lived worker loop
  (heartbeat thread + orphan self-termination);
* :mod:`repro.bench.fabric.master` — the event-loop master: spawns and
  respawns workers (exponential backoff), dispatches leases, collects
  streamed results, checkpoints each to the on-disk ResultCache, and
  degrades to raising :class:`FabricError` with partial results so the
  caller can finish serially;
* :mod:`repro.bench.fabric.reaper` — process-wide orphan-worker
  cleanup (``atexit`` + SIGTERM), so an interrupted sweep never leaks
  children.

Determinism contract (inherited from PR-3): per-task seeds derive from
task identity alone, results are committed first-write-wins keyed by
task index, and duplicate executions (steals, retries) must produce
bit-identical fingerprints — so serial, fabric, chaos-interrupted and
resumed runs all return byte-equal summaries.
"""

from ..._lazy import lazy_exports

#: public name -> submodule defining it, imported on first use
_EXPORTS = {
    "FabricConfig": ".master",
    "FabricError": ".master",
    "LeaseTable": ".leases",
    "TaskState": ".leases",
    "result_fingerprint": ".protocol",
    "run_tasks_fabric": ".master",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
