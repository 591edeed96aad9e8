"""Tests for the overlap micro-benchmark harness."""

import pytest

from repro.bench import OverlapConfig, function_set_for, run_overlap
from repro.errors import ReproError
from repro.sim.faults import DropRule, FaultPlan
from repro.units import KiB


def test_function_set_selection():
    assert len(function_set_for("alltoall")) == 3
    assert len(function_set_for("alltoall_ext")) == 6
    assert len(function_set_for("bcast")) == 21
    with pytest.raises(ReproError):
        function_set_for("scan")


def test_compute_per_iteration():
    cfg = OverlapConfig(compute_total=50.0, paper_iterations=1000)
    assert cfg.compute_per_iteration == pytest.approx(0.05)


def test_fixed_run_produces_records():
    cfg = OverlapConfig(nprocs=8, nbytes=1 * KiB, compute_total=10.0,
                        paper_iterations=10000, iterations=6, nprogress=5)
    res = run_overlap(cfg, selector=0)
    assert len(res.records) == 6
    assert res.winner == "linear"
    assert res.mean_iteration >= cfg.compute_per_iteration


def test_iteration_time_at_least_compute_time():
    """Full overlap is the floor: the loop can never beat pure compute."""
    cfg = OverlapConfig(nprocs=8, nbytes=1 * KiB, compute_total=20.0,
                        paper_iterations=10000, iterations=5, nprogress=10)
    for idx in range(3):
        res = run_overlap(cfg, selector=idx)
        assert res.mean_iteration >= cfg.compute_per_iteration * 0.999


def test_adcl_run_decides():
    cfg = OverlapConfig(nprocs=8, nbytes=1 * KiB, compute_total=10.0,
                        paper_iterations=10000, iterations=25, nprogress=5)
    res = run_overlap(cfg, selector="brute_force", evals_per_function=3)
    assert res.decided_at is not None
    assert res.winner in ("linear", "dissemination", "pairwise")
    assert len(res.fn_names) == len(res.records)


def test_projected_total_extrapolates():
    cfg = OverlapConfig(nprocs=8, nbytes=1 * KiB, compute_total=10.0,
                        paper_iterations=1000, iterations=20, nprogress=5)
    res = run_overlap(cfg, selector="brute_force", evals_per_function=3)
    proj = res.projected_total()
    # roughly paper_iterations x steady mean
    assert proj == pytest.approx(
        res.mean_after_learning() * 1000, rel=0.25
    )


def test_plain_run_reports_drops_and_retransmits():
    """Transport counters are part of every result, not only of runs
    under a recovery policy."""
    plan = FaultPlan(drops=(DropRule(0.3, 0.0, 1.0),), seed=5)
    cfg = OverlapConfig(nprocs=8, placement="cyclic", nbytes=16 * KiB,
                        compute_total=2.0, iterations=6, faults=plan)
    res = run_overlap(cfg, selector=0)
    assert res.messages_dropped > 0
    assert res.retransmits > 0
    assert res.restarts == 0


def test_noise_makes_runs_differ_but_seeds_reproduce():
    cfg = lambda seed: OverlapConfig(
        nprocs=4, nbytes=1 * KiB, compute_total=10.0, paper_iterations=10000,
        iterations=5, noise_sigma=0.03, seed=seed,
    )
    a = run_overlap(cfg(1), selector=0).total_time
    b = run_overlap(cfg(1), selector=0).total_time
    c = run_overlap(cfg(2), selector=0).total_time
    assert a == b
    assert a != c


def test_describe_mentions_key_parameters():
    cfg = OverlapConfig(platform="crill", nprocs=16, nbytes=2048, nprogress=7)
    d = cfg.describe()
    assert "crill" in d and "P=16" in d and "progress=7" in d
