"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import paths  # noqa: E402

paths.use_source_tree()

from perfbench import layers, scenarios, serve, spec, sweep, tune  # noqa: E402
from perfbench.hostspeed import REFERENCE_SLICE_S, HostSpeed  # noqa: E402
from perfbench.ledger import Outcome  # noqa: E402
from perfbench.stats import (MIN_BEYOND, TooFewSamples, median,  # noqa: E402
                             percentile, samples_needed)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- scenario generation ----------------------------------------------------


def test_same_seed_same_scenarios():
    assert scenarios.tune_block(7, 0) == scenarios.tune_block(7, 0)
    assert scenarios.tune_block(7, 3) == scenarios.tune_block(7, 3)
    assert scenarios.serve_universe(7) == scenarios.serve_universe(7)
    assert scenarios.serve_ops(7, 216, 64, 3000) == \
        scenarios.serve_ops(7, 216, 64, 3000)


def test_different_seed_different_scenarios():
    assert scenarios.tune_block(7, 0) != scenarios.tune_block(8, 0)
    assert scenarios.tune_block(7, 0) != scenarios.tune_block(7, 1)
    assert scenarios.serve_universe(7) != scenarios.serve_universe(8)
    assert scenarios.serve_ops(7, 216, 64, 3000) != \
        scenarios.serve_ops(8, 216, 64, 3000)


def test_block_keeps_the_mix_balanced():
    grid = set(scenarios.tune_grid())
    for seed in (1, 2):
        block = scenarios.tune_block(seed, 0)
        assert set(block) <= grid
        strata = {(s.platform, s.operation, s.nprocs) for s in block}
        assert len(strata) == len(block) == 54
        for op in scenarios.TUNE_OPERATIONS:
            for p in scenarios.TUNE_NPROCS:
                cell = [s for s in block if (s.operation, s.nprocs) == (op, p)]
                assert sorted(s.nprogress for s in cell) == \
                    sorted(scenarios.TUNE_NPROGRESS)
                assert len({(s.nbytes.bit_length() - 11) // 3 for s in cell}) == 3


def test_serve_ops_meet_every_sample_floor():
    universe = scenarios.SERVE_UNIVERSE
    assert universe == len(scenarios.serve_universe(0)) == 216
    for total in (scenarios.serve_min_ops(universe), 6000):
        ops = scenarios.serve_ops(3, universe, 64, total)
        assert len(ops) == total
        touched, misses, kinds = 0, 0, {}
        for op, index in ops:
            kinds[op] = kinds.get(op, 0) + 1
            if op == "get":
                assert index <= touched   # a hit repeats a touched one
                if index == touched:
                    touched += 1
                    misses += 1
            else:
                assert index < (universe if op == "warm" else 64)
        # every scenario is missed exactly once
        assert misses == touched == universe
        floors = dict(scenarios.SERVE_FLOORS)
        assert kinds["get"] - misses >= floors["hit"]
        for op in ("record", "lookup", "warm"):
            assert kinds[op] >= floors[op]
    with pytest.raises(ValueError):
        scenarios.serve_ops(3, universe, 64,
                            scenarios.serve_min_ops(universe) - 1)


def test_iterations_derive_from_function_set():
    for op in scenarios.TUNE_OPERATIONS:
        assert scenarios.iterations_for(op) == \
            scenarios.candidates(op) * scenarios.EVALS + scenarios.EVALS
    # bcast has 21 candidates: the CLI's default 20 iterations cannot
    # decide it, the derived count can
    res, _ = tune.plain_tune(scenarios.Scenario("crill", "bcast", 8, 1024, 5))
    assert res.winner is not None


def test_references_cover_every_generated_scenario():
    refs = tune.load_references()
    assert set(refs["tune"]) == {sc.key for sc in scenarios.tune_grid()}
    assert refs["sweep_best"]


def test_sweep_latency_tail_is_sampled():
    # a run's sweeps hold enough tasks for a p90 of task latencies
    assert sweep.min_sweeps() * scenarios.sweep_candidates() >= \
        samples_needed(90)


# -- percentiles ------------------------------------------------------------


def test_percentile_refuses_thin_tails():
    assert samples_needed(50) == 20
    assert samples_needed(90) == 100
    assert samples_needed(99) == 1000
    with pytest.raises(TooFewSamples, match="got 99"):
        percentile(list(range(99)), 90)
    stat = percentile([float(i) for i in range(100)], 90)
    assert stat.n == 100 and stat.value == pytest.approx(89.1)
    assert len([v for v in range(100) if v > stat.value]) >= MIN_BEYOND


def test_median_reports_sample_count():
    assert median([3.0, 1.0, 2.0]) == median([1.0, 2.0, 3.0])
    assert median([1.0, 2.0, 3.0, 4.0]).value == 2.5
    assert median([5.0]).n == 1


def test_host_speed_scales_times_and_rates_and_keeps_raw():
    speed = HostSpeed()
    speed.samples = [2 * REFERENCE_SLICE_S] * 3  # host at half speed
    outcome = Outcome()
    speed.report(outcome, times=[("op_p50_ms", 100.0, "ms", 20)],
                 rates=[("ops_per_s", 10.0, "1/s", 20)])
    assert outcome.metrics["op_p50_ms"] == (pytest.approx(50.0), "ms", 20)
    assert outcome.metrics["ops_per_s"] == (pytest.approx(20.0), "1/s", 20)
    rows = {name: value for name, value, _u, _n in outcome.report}
    assert rows == {"raw.op_p50_ms": 100.0, "raw.ops_per_s": 10.0,
                    "host.speed_factor": pytest.approx(2.0)}
    speed.sample(2)
    assert len(speed.samples) == 5 and all(t > 0 for t in speed.samples)


# -- BENCHMARK.json ---------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    bench = spec.load()
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for m in metrics:
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert max(m["bound"] for m in bench["end_to_end"]) == setup["bound"]
    assert setup["bound"] <= 0.25


def test_every_layer_metric_names_what_it_moves():
    bench = spec.load()
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert per_layer == set(spec.MOVES)
    for name, moves in spec.MOVES.items():
        if moves is not None:
            metric, workload = moves
            assert metric in e2e and workload in workloads, name
    for lay in layers.LAYERS:
        assert f"{lay}.self_s" in per_layer and f"{lay}.share" in per_layer


# -- correctness checks raise error_rate ------------------------------------


def test_planted_wrong_decision_counts_as_failure():
    refs = tune.load_references()
    sc = scenarios.Scenario("whale", "alltoall", 8, 1024, 5)
    res, timing = tune.plain_tune(sc)
    outcome = Outcome()
    tune.check(outcome, refs, sc, res, timing)
    assert outcome.failed == 0
    res.winner = "not-a-candidate"
    tune.check(outcome, refs, sc, res, timing)
    assert outcome.failed == 1 and outcome.error_rate == 0.5


def test_planted_degraded_reply_counts_as_failure(tmp_path):
    # nothing listens here: the client degrades to a local computation
    endpoint = f"unix:{tmp_path}/absent.sock"
    mix = serve.Mix(endpoint, seed=1, history=["adcl:h0"])
    outcome = Outcome()
    while not mix.touched and not mix.gets:
        mix.step(outcome)
    assert outcome.failed >= 1 and outcome.error_rate > 0
    assert any("degraded" in p for p in outcome.problems)


def test_planted_wrong_served_answer_counts_as_failure():
    mix = serve.Mix("unix:/nonexistent", seed=1, history=["adcl:h0"])
    sc = mix.universe[0]
    mix.touched[sc.key] = {"winner": "planted", "decided_at": 0}
    mix.gets[sc.key] = 2
    outcome = Outcome()
    mix.verify(outcome)
    assert outcome.attempted == 2 and outcome.failed == 2


# -- layer folding ----------------------------------------------------------


def test_layer_of_maps_modules_to_layers():
    src = os.path.join(paths.SRC, "repro")
    cases = {"cli.py": "cli", "__main__.py": "cli",
             "bench/overlap.py": "bench", "bench/parallel.py": "bench",
             "bench/fabric/master.py": "fabric", "sim/mpi.py": "sim.mpi",
             "sim/process.py": "sim.mpi", "sim/engine.py": "sim.engine",
             "sim/pool.py": "sim.engine", "sim/netmodel.py": "sim.model",
             "nbc/schedule.py": "nbc", "adcl/request.py": "adcl",
             "serve/server.py": "serve", "obs/critpath.py": "obs",
             "util/canonical.py": "util", "errors.py": "util"}
    for rel, layer in cases.items():
        assert layers.layer_of(os.path.join(src, rel)) == layer, rel
    assert layers.layer_of(tune.__file__) == "harness"
    assert layers.layer_of("/usr/lib/python3/json/encoder.py") is None


def test_fold_sums_to_profiled_total():
    sc = scenarios.Scenario("whale", "alltoall", 8, 4096, 5)
    with layers.profiled() as prof:
        tune.plain_tune(sc)
    table = layers.merge([prof])
    selfs = layers.fold(table)
    total = sum(v[2] for v in table.values())
    assert sum(selfs.values()) == pytest.approx(total, rel=1e-9)
    assert selfs["sim.mpi"] > 0 and selfs["sim.engine"] > 0
    assert layers.entry_calls(table)["bench"] == 1


# -- the runner -------------------------------------------------------------


def test_runner_fails_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and perfbench/ has no
    program to measure: the run must fail without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
