"""Simulated-machine substrate: DES kernel, network model, simulated MPI.

Public entry points:

* :func:`~repro.sim.platforms.get_platform` — machine presets
  (``crill``, ``whale``, ``whale_tcp``, ``bluegene_p``),
* :class:`~repro.sim.mpi.SimWorld` — one simulated MPI job,
* the syscalls :class:`~repro.sim.process.Compute`,
  :class:`~repro.sim.process.Progress`, :class:`~repro.sim.process.Wait`
  used by rank programs.
"""

from .._lazy import lazy_exports

#: public name -> submodule defining it, imported on first use
_EXPORTS = {
    "Barrier": ".process",
    "Compute": ".process",
    "ComputeProgressSpan": ".process",
    "DropRule": ".faults",
    "Event": ".engine",
    "FaultInjector": ".faults",
    "FaultPlan": ".faults",
    "LinkDegradation": ".faults",
    "LinkParams": ".netmodel",
    "MPIContext": ".mpi",
    "MachineParams": ".netmodel",
    "MessageRecord": ".trace",
    "NoiseModel": ".noise",
    "NullNoise": ".noise",
    "Platform": ".platforms",
    "Progress": ".process",
    "RailFailure": ".faults",
    "RankCrash": ".faults",
    "RecvRequest": ".process",
    "RunResult": ".mpi",
    "SendRequest": ".process",
    "SimComm": ".mpi",
    "SimWorld": ".mpi",
    "Simulator": ".engine",
    "Topology": ".topology",
    "Tracer": ".trace",
    "Wait": ".process",
    "Waitable": ".process",
    "available_platforms": ".platforms",
    "get_platform": ".platforms",
    "register_platform": ".platforms",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
