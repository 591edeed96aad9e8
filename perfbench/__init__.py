"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload tune-mix --seed 1 --seconds 12 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and which
end-to-end metric each per-layer metric should move.
"""
