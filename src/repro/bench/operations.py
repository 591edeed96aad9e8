"""The benchmark operations and the collective kind each one tunes.

Free of dependencies, so the command line can offer ``--operation``
choices without importing the simulator.  :mod:`repro.bench.overlap`
re-exports the table.
"""

from __future__ import annotations

__all__ = ["OPERATION_KINDS"]

#: benchmark operation -> the :class:`~repro.adcl.function.CollSpec`
#: kind it tunes
OPERATION_KINDS = {
    "alltoall": "alltoall",
    "alltoall_ext": "alltoall",
    "alltoall_hier": "alltoall",
    "bcast": "bcast",
    "bcast_hier": "bcast",
    "allgatherv": "allgatherv",
    "reduce_scatter": "reduce_scatter",
    "allreduce": "allreduce",
}
