"""Regenerate ``references.json``: the reference decision of every
scenario the tuning workloads can generate, and the best candidate of
the fabric sweep.

Usage (from the repository root; takes a few minutes)::

    python3 perfbench/make_references.py

Only ``winner`` and ``decided_at`` are kept: they are what a tuning
user acts on.  Bit-level identity of simulated times is a property of
the test suite, not of this benchmark.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import paths  # noqa: E402

paths.use_source_tree()

from perfbench import scenarios  # noqa: E402

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


def main() -> int:
    from repro.bench import run_overlap, sweep_implementations
    from repro.nbc.schedule import SCHEDULE_CACHE

    tune = {}
    for sc in scenarios.tune_grid():
        SCHEDULE_CACHE.clear()
        res = run_overlap(sc.overlap_config(), selector=scenarios.SELECTOR,
                          evals_per_function=scenarios.EVALS)
        if res.winner is None:
            raise SystemExit(f"{sc.key}: no decision")
        tune[sc.key] = [res.winner, res.decided_at]
    rows = sweep_implementations(scenarios.sweep_config(0))
    best = min(rows, key=lambda row: row["mean_iteration"])
    doc = {"tune": tune, "sweep_best": best["name"]}
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(tune)} tuning references, sweep best {best['name']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
