"""Micro-benchmark machinery for the paper's §IV-A evaluation.

* :mod:`repro.bench.overlap` — the communication/computation overlap
  micro-benchmark (loop of init / chunked compute with progress calls /
  wait), with an optional recovery policy (restart or in-simulation
  ULFM crash recovery);
* :mod:`repro.bench.verification` — verification runs: every fixed
  implementation vs. the ADCL selectors, with the paper's 5%%
  correct-decision criterion;
* :mod:`repro.bench.report` — paper-style text tables and bar charts;
* :mod:`repro.bench.runner` — fast-vs-paper-scale knobs;
* :mod:`repro.bench.parallel` — the parallel sweep executor
  (keyed on-disk result cache + serial fallback);
* :mod:`repro.bench.fabric` — the resilient master/worker fabric that
  ``--jobs N`` sweeps actually run on: long-lived workers, leases,
  heartbeats, respawn, work stealing, chaos hooks.
"""

from .._lazy import lazy_exports

#: public name -> submodule defining it, imported on first use
_EXPORTS = {
    "CORRECTNESS_TOLERANCE": ".verification",
    "FabricConfig": ".fabric.master",
    "FabricError": ".fabric.master",
    "OPERATION_KINDS": ".operations",
    "OverlapConfig": ".overlap",
    "OverlapResult": ".overlap",
    "ResultCache": ".parallel",
    "SweepResult": ".runner",
    "ULFM": ".overlap",
    "VerificationResult": ".verification",
    "bench_seed": ".runner",
    "default_iterations": ".overlap",
    "derive_seed": ".parallel",
    "fft_methods": ".parallel",
    "format_bars": ".report",
    "format_series": ".report",
    "format_table": ".report",
    "function_set_for": ".overlap",
    "paper_scale": ".runner",
    "result_fingerprint": ".fabric.protocol",
    "run_overlap": ".overlap",
    "run_tasks": ".parallel",
    "run_tasks_fabric": ".fabric.master",
    "run_verification": ".verification",
    "scaled": ".runner",
    "sweep_implementations": ".parallel",
    "task_key": ".parallel",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
