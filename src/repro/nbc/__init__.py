"""LibNBC-style non-blocking collectives: schedules + progress engine.

The paper (§III-B) builds every candidate implementation of a
non-blocking collective as a *schedule* — rounds of sends/receives/
copies separated by local barriers — executed incrementally by a
progress engine.  This package re-implements that design:

* :mod:`repro.nbc.schedule` — the schedule data structure,
* :mod:`repro.nbc.request` — the NBC handle / progress engine,
* :mod:`repro.nbc.ibcast` / :mod:`~repro.nbc.ialltoall` /
  :mod:`~repro.nbc.iallgather` / :mod:`~repro.nbc.ireduce` — algorithm
  builders (including the paper's 21 Ibcast and 3 Ialltoall variants),
* :mod:`repro.nbc.coll` — one-call entry points and blocking wrappers.
"""

from .._lazy import lazy_exports

#: public name -> submodule defining it, imported on first use
_EXPORTS = {
    "ALLGATHERV_ALGORITHMS": ".iallgatherv",
    "ALLGATHER_ALGORITHMS": ".iallgather",
    "ALLREDUCE_ALGORITHMS": ".iallreduce",
    "ALLTOALL_ALGORITHMS": ".ialltoall",
    "BINOMIAL": ".ibcast",
    "BufSpec": ".schedule",
    "CombineOp": ".schedule",
    "CompiledSchedule": ".schedule",
    "CopyOp": ".schedule",
    "IBCAST_FANOUTS": ".ibcast",
    "NBCRequest": ".request",
    "REDUCE_ALGORITHMS": ".ireduce",
    "REDUCE_SCATTER_ALGORITHMS": ".ireduce_scatter",
    "RecvOp": ".schedule",
    "SCHEDULE_CACHE": ".schedule",
    "Schedule": ".schedule",
    "ScheduleCache": ".schedule",
    "SendOp": ".schedule",
    "allgather": ".coll",
    "alltoall": ".coll",
    "alltoall_scratch_bytes": ".ialltoall",
    "balanced_counts": ".iallgatherv",
    "barrier": ".coll",
    "bcast": ".coll",
    "bcast_tree": ".ibcast",
    "build_hier_ialltoall": ".hier",
    "build_hier_ibcast": ".hier",
    "build_iallgather": ".iallgather",
    "build_iallgatherv": ".iallgatherv",
    "build_iallreduce": ".iallreduce",
    "build_ialltoall": ".ialltoall",
    "build_ibcast": ".ibcast",
    "build_ireduce": ".ireduce",
    "build_ireduce_scatter": ".ireduce_scatter",
    "compiled_hier_ialltoall": ".hier",
    "compiled_hier_ibcast": ".hier",
    "compiled_iallgather": ".iallgather",
    "compiled_iallgatherv": ".iallgatherv",
    "compiled_iallreduce": ".iallreduce",
    "compiled_ialltoall": ".ialltoall",
    "compiled_ibcast": ".ibcast",
    "compiled_ireduce": ".ireduce",
    "compiled_ireduce_scatter": ".ireduce_scatter",
    "ft_collective": ".ft",
    "groups_for_comm": ".hier",
    "hier_alltoall_scratch_bytes": ".hier",
    "hier_bcast_tree": ".hier",
    "make_buffers": ".request",
    "reduce": ".coll",
    "resolve": ".schedule",
    "schedule_cache_stats": ".schedule",
    "start_iallgather": ".coll",
    "start_iallgatherv": ".coll",
    "start_iallreduce": ".coll",
    "start_ialltoall": ".coll",
    "start_ibarrier": ".coll",
    "start_ibcast": ".coll",
    "start_ireduce": ".coll",
    "start_ireduce_scatter": ".coll",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
