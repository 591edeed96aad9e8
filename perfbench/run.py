"""Run one workload of the repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tune-mix --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing profiled;
``--trace 1`` runs the workload again under the profiler plus the
layer microbenchmarks and reports the per-layer metrics.  People read
the table printed first; the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads, metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import paths, spec  # noqa: E402


def _workloads() -> dict:
    from perfbench import serve, sweep, tune

    return {"tune-mix": tune.tune_mix, "scale-sweep": sweep.scale_sweep,
            "serve-mix": serve.serve_mix, "tune-traced": tune.tune_traced}


def _result(bench: dict, outcome, trace: bool) -> dict:
    """The final JSON line: every declared metric of this mode (a
    per-layer metric a workload does not exercise reads 0)."""
    metrics = {}
    for entry in bench["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        value, got_unit, _n = outcome.metrics.get(name, (0.0, unit, 0))
        if got_unit != unit:
            raise ValueError(f"{name}: measured in {got_unit}, declared {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def _print_table(workload: str, seed: int, outcome) -> None:
    print(f"# perfbench {workload} seed={seed}")
    for name, (value, unit, n) in sorted(outcome.metrics.items()):
        print(f"  {name:<28} {value:>16.6g} {unit:<6} n={n}")
    for name, value, unit, n in outcome.report:
        print(f"  {workload}:{name:<24} {value:>14.6g} {unit:<6} n={n}")
    print(f"  {'error_rate':<28} {outcome.error_rate:>16.6g} ratio  "
          f"n={outcome.attempted} (failed {outcome.failed})")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    bench = spec.load()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        paths.use_source_tree()
    except paths.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so daemons are stopped and scratch
    # files removed on the way out
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    os.makedirs(paths.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=paths.WORK)
    try:
        outcome = _workloads()[args.workload](
            args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(paths.WORK)
        except OSError:
            pass  # another run is using it
    _print_table(args.workload, args.seed, outcome)
    print(json.dumps(_result(bench, outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
