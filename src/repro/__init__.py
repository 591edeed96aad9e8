"""repro — Auto-tuning non-blocking collective communication operations.

A reproduction of Barigou, Venkatesan & Gabriel (IPDPS Workshops 2015):
the ADCL run-time auto-tuner for non-blocking collectives, the
LibNBC-style schedule engine it tunes, and a discrete-event simulated
single-threaded MPI substrate standing in for the paper's clusters.

Quickstart::

    from repro import get_platform, SimWorld
    from repro.sim import Compute, Progress, Wait

    world = SimWorld(get_platform("whale"), nprocs=8)
    ...

See ``examples/quickstart.py`` for a complete runnable walk-through.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: public name -> submodule defining it (None: the subpackage itself),
#: imported on first use
_EXPORTS = {
    "AdclError": ".errors",
    "DeadlockError": ".errors",
    "HistoryError": ".errors",
    "MatchingError": ".errors",
    "NoiseModel": ".sim.noise",
    "ReproError": ".errors",
    "ScheduleError": ".errors",
    "SelectionError": ".errors",
    "SimWorld": ".sim.mpi",
    "SimulationError": ".errors",
    "adcl": None,
    "apps": None,
    "bench": None,
    "get_platform": ".sim.platforms",
    "nbc": None,
    "sim": None,
}

__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
