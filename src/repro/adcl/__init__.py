"""ADCL — the Abstract Data and Communication Library (simulated).

The paper's core contribution: run-time auto-tuning of (non-blocking)
collective operations.  Main concepts:

* :class:`~repro.adcl.function.FunctionSet` /
  :class:`~repro.adcl.function.CollFunction` — an operation and its pool
  of candidate implementations, optionally characterized by
  :class:`~repro.adcl.attributes.Attribute` values;
* :class:`~repro.adcl.request.ADCLRequest` — a persistent collective
  whose implementation is selected at run time;
* :class:`~repro.adcl.timer.ADCLTimer` — decoupled timing of code
  sections containing non-blocking communication (§III-D);
* the selectors in :mod:`repro.adcl.selection` — brute force, attribute
  heuristic, 2^k factorial design;
* :class:`~repro.adcl.history.HistoryStore` — historic learning across
  executions.
"""

from .._lazy import lazy_exports

#: public name -> submodule defining it, imported on first use
_EXPORTS = {
    "ADCLRequest": ".request",
    "ADCLTimer": ".timer",
    "Attribute": ".attributes",
    "AttributeSet": ".attributes",
    "BruteForceSelector": ".selection",
    "CheckpointStore": ".checkpoint",
    "CoTuner": ".cotuning",
    "CollFunction": ".function",
    "CollSpec": ".function",
    "DriftDetector": ".statistics",
    "FILTER_METHODS": ".statistics",
    "FactorialSelector": ".selection",
    "FixedSelector": ".selection",
    "FunctionSet": ".function",
    "HeuristicSelector": ".selection",
    "HistoryStore": ".history",
    "IBCAST_SEGSIZES": ".fnsets",
    "Resilience": ".resilience",
    "SELECTOR_NAMES": ".request",
    "Selector": ".selection",
    "TimerRecord": ".timer",
    "filter_outliers": ".statistics",
    "iallgather_function_set": ".fnsets",
    "ialltoall_extended_function_set": ".fnsets",
    "ialltoall_function_set": ".fnsets",
    "ibcast_function_set": ".fnsets",
    "ireduce_function_set": ".fnsets",
    "make_selector": ".request",
    "restore": ".checkpoint",
    "robust_mean": ".statistics",
    "snapshot": ".checkpoint",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
