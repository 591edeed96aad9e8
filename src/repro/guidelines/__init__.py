"""Performance-guideline verification engine.

Verifies that the auto-tuner's decisions satisfy self-evident
performance guidelines (after Hunold's PGMPITuneLib):

* :mod:`~repro.guidelines.rules` — the declarative rule catalogue
  (monotonicity, composition mock-ups, selection mock-ups), each with
  a machine-readable ID;
* :mod:`~repro.guidelines.checker` — probe normalization and the
  measurement engine that evaluates rules against tuned decisions via
  the real overlap harness, plus the pure-dict knowledge-base
  cross-check used by ``repro serve`` on startup;
* :mod:`~repro.guidelines.mockup` — seeded synthetic function-sets
  with planted optima, validating the selection logic itself;
* :mod:`~repro.guidelines.fuzz` — the seeded geometry fuzzer, fanned
  out through the resilient sweep fabric;
* :mod:`~repro.guidelines.defects` — fingerprinted machine-readable
  defect reports (audit-log schema) and probe minimization;
* :mod:`~repro.guidelines.scenarios` — minimized defects exported as
  regression scenarios, auto-discovered by the test suite.

CLI: ``repro verify-guidelines`` (exit 0 = compliant, 2 = violations
found, 1 = the harness itself failed).
"""

from .._lazy import lazy_exports

#: public name -> submodule defining it, imported on first use
_EXPORTS = {
    "CompositionGuideline": ".rules",
    "GUIDELINE_DEFECT_SCHEMA": ".defects",
    "Guideline": ".rules",
    "GuidelineEngine": ".checker",
    "MonotonicityGuideline": ".rules",
    "PROBE_DEFAULTS": ".checker",
    "RULES": ".rules",
    "RULE_CATALOGUE": ".rules",
    "SCENARIO_SCHEMA": ".scenarios",
    "SelectionMockupGuideline": ".rules",
    "check_kb_records": ".checker",
    "check_probe": ".checker",
    "defect_from_violation": ".defects",
    "discover_scenarios": ".scenarios",
    "fuzz_probes": ".fuzz",
    "load_scenario": ".scenarios",
    "minimize_violation": ".defects",
    "normalize_probe": ".checker",
    "plant_and_select": ".mockup",
    "preset_probes": ".checker",
    "probe_key": ".checker",
    "recheck_scenario": ".scenarios",
    "record_defects": ".defects",
    "rules_by_id": ".rules",
    "run_campaign": ".fuzz",
    "save_scenario": ".scenarios",
    "scenario_filename": ".scenarios",
    "scenario_from_defect": ".scenarios",
    "synthetic_function_set": ".mockup",
    "validate_defect": ".defects",
    "write_defect_reports": ".defects",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
