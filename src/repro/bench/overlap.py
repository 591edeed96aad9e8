"""The overlap micro-benchmark (§IV-A).

The benchmark executes a loop; each iteration

1. initiates the non-blocking collective,
2. executes a compute phase split into ``nprogress`` equal chunks with a
   progress call after each chunk,
3. calls the completion function.

The compute time per iteration is an input (the paper quotes the *total*
loop compute time, e.g. "50 s compute" over 1000 iterations);  ideally
the measured loop time equals the pure compute time — any excess is
communication that could not be overlapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..adcl.fnsets import (
    iallgatherv_function_set,
    iallreduce_function_set,
    ialltoall_extended_function_set,
    ialltoall_function_set,
    ibcast_function_set,
    ireduce_scatter_function_set,
)
from ..adcl.function import CollSpec, FunctionSet
from ..adcl.request import ADCLRequest
from ..adcl.resilience import Resilience
from ..adcl.selection.base import FixedSelector, Selector
from ..adcl.timer import ADCLTimer, TimerRecord
from ..errors import DeadlockError, MessageLostError, ReproError, WatchdogTimeout
from ..sim import (
    Barrier,
    ComputeProgressSpan,
    FaultPlan,
    NoiseModel,
    SimWorld,
    get_platform,
)

__all__ = [
    "OverlapConfig",
    "OverlapResult",
    "ResilientOverlapResult",
    "default_iterations",
    "function_set_for",
    "run_overlap",
    "run_overlap_resilient",
]


#: benchmark operation -> the :class:`CollSpec` kind it tunes
OPERATION_KINDS = {
    "alltoall": "alltoall",
    "alltoall_ext": "alltoall",
    "alltoall_hier": "alltoall",
    "bcast": "bcast",
    "bcast_hier": "bcast",
    "allgatherv": "allgatherv",
    "reduce_scatter": "reduce_scatter",
    "allreduce": "allreduce",
}


def function_set_for(operation: str) -> FunctionSet:
    """The ADCL function-set used for one benchmark operation."""
    if operation == "alltoall":
        return ialltoall_function_set()
    if operation == "alltoall_ext":
        return ialltoall_extended_function_set()
    if operation == "alltoall_hier":
        return ialltoall_function_set(hierarchical=True)
    if operation == "bcast":
        return ibcast_function_set()
    if operation == "bcast_hier":
        return ibcast_function_set(hierarchical=True)
    if operation == "allgatherv":
        return iallgatherv_function_set()
    if operation == "reduce_scatter":
        return ireduce_scatter_function_set()
    if operation == "allreduce":
        return iallreduce_function_set()
    raise ReproError(
        f"unknown benchmark operation {operation!r}; "
        f"expected one of {', '.join(sorted(OPERATION_KINDS))}"
    )


def default_iterations(operation: str, evals: int) -> int:
    """Simulated iterations a tune needs by default to reach a decision.

    Brute force measures every candidate ``evals`` times; ``evals`` more
    iterations then run the winner once the decision is made.  Sized by
    the function set, so operations with many candidates (bcast: 21)
    decide too.  The one source of the default for ``repro tune`` and
    for tuning-service requests.
    """
    return len(function_set_for(operation)) * evals + evals


@dataclass(frozen=True)
class OverlapConfig:
    """One micro-benchmark scenario.

    ``compute_total`` and ``paper_iterations`` mirror the paper's
    reporting ("50 s compute over 1000 iterations"); the simulation runs
    ``iterations`` of them (fewer by default — the per-iteration shape
    is what matters) with ``compute_total / paper_iterations`` seconds
    of computation each.
    """

    platform: str = "whale"
    nprocs: int = 32
    operation: str = "alltoall"       # any key of OPERATION_KINDS
    nbytes: int = 128 * 1024          # per pair (alltoall) / total (bcast)
    compute_total: float = 50.0       # seconds over the whole paper loop
    paper_iterations: int = 1000
    iterations: int = 30              # iterations actually simulated
    nprogress: int = 5                # progress calls per iteration
    placement: str = "block"
    noise_sigma: float = 0.0
    noise_outlier_prob: float = 0.0
    seed: int = 0
    #: fault-injection plan (None or an empty plan: pristine network)
    faults: Optional[FaultPlan] = None
    #: reliable transport (ack/timeout/retransmit); False models a naive
    #: transport where a dropped message is simply gone
    reliable: bool = True
    max_retries: int = 8

    @property
    def compute_per_iteration(self) -> float:
        return self.compute_total / self.paper_iterations

    def noise(self) -> Optional[NoiseModel]:
        if self.noise_sigma == 0.0 and self.noise_outlier_prob == 0.0:
            return None
        return NoiseModel(sigma=self.noise_sigma,
                          outlier_prob=self.noise_outlier_prob,
                          seed=self.seed)

    def describe(self) -> str:
        return (
            f"{self.operation}@{self.platform} P={self.nprocs} "
            f"B={self.nbytes} compute={self.compute_total}s "
            f"progress={self.nprogress}"
        )


@dataclass
class OverlapResult:
    """Outcome of one micro-benchmark execution."""

    config: OverlapConfig
    #: per-iteration (max over ranks) loop times, in completion order
    records: list[TimerRecord]
    #: function name per records entry
    fn_names: list[str]
    winner: Optional[str]
    decided_at: Optional[int]
    makespan: float
    events: int
    #: event-loop counters from :meth:`repro.sim.engine.Simulator.stats`
    #: (summed over runs when the benchmark restarts simulations)
    engine_stats: dict

    @property
    def total_time(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def mean_iteration(self) -> float:
        return self.total_time / len(self.records)

    def robust_mean_iteration(self, method: str = "cluster") -> float:
        """Outlier-filtered mean iteration time (what ADCL itself sees)."""
        from ..adcl.statistics import robust_mean

        return robust_mean([r.seconds for r in self.records], method=method)

    def mean_after_learning(self, robust: bool = False) -> float:
        """Mean iteration time once the decision has been made."""
        tail = [r.seconds for r in self.records if not r.learning]
        if not tail:
            return self.mean_iteration
        if robust:
            from ..adcl.statistics import robust_mean

            return robust_mean(tail)
        return sum(tail) / len(tail)

    def projected_total(self) -> float:
        """Extrapolate to the paper's full iteration count.

        Learning iterations are counted once; the remaining iterations
        are costed at the post-learning mean.
        """
        cfg = self.config
        learn = [r.seconds for r in self.records if r.learning]
        steady = self.mean_after_learning()
        remaining = max(cfg.paper_iterations - len(learn), 0)
        return sum(learn) + steady * remaining


def run_overlap(
    config: OverlapConfig,
    selector: Union[str, Selector, int] = "brute_force",
    evals_per_function: int = 5,
    filter_method: str = "cluster",
    history=None,
    fnset: Optional[FunctionSet] = None,
) -> OverlapResult:
    """Execute the micro-benchmark.

    ``selector`` is a selection-logic name, a :class:`Selector`
    instance, or an ``int`` — the latter runs a *verification run* with
    that single fixed implementation, circumventing the selection logic.
    ``fnset`` replaces the operation's standard candidate pool; the
    guideline checker uses this to measure mock-up candidates with the
    exact same loop, timer and network model as the tuned decision.
    """
    world = SimWorld(
        get_platform(config.platform),
        config.nprocs,
        noise=config.noise(),
        placement=config.placement,
        faults=config.faults,
        reliable=config.reliable,
        max_retries=config.max_retries,
    )
    if fnset is None:
        fnset = function_set_for(config.operation)
    kind = OPERATION_KINDS.get(config.operation, "alltoall")
    spec = CollSpec(kind, world.comm_world, config.nbytes)
    if isinstance(selector, int):
        selector = FixedSelector(fnset, selector)
    areq = ADCLRequest(
        fnset,
        spec,
        selector=selector,
        evals_per_function=evals_per_function,
        filter_method=filter_method,
        history=history,
    )
    timer = ADCLTimer(areq)
    chunk = config.compute_per_iteration / max(config.nprogress, 1)

    # a fully non-blocking set lets the loop start operations with a
    # plain call instead of a generator delegation per iteration
    nonblocking_set = not any(fn.blocking for fn in fnset)

    def factory(ctx):
        barrier = Barrier()
        nprogress = config.nprogress
        for _ in range(config.iterations):
            timer.start(ctx)
            if nonblocking_set:
                areq.start_now(ctx)
            else:
                yield from areq.start(ctx)
            # one span replaces the (Compute, Progress) * nprogress pair
            # stream: bit-identical charges and event schedule, but the
            # driver steps the chunks internally, which lets the array
            # engine collapse the post-completion tail (DESIGN.md §15)
            if nprogress:
                yield ComputeProgressSpan(chunk, [areq.handle(ctx)],
                                          nprogress)
            yield from areq.wait(ctx)
            timer.stop(ctx)
            # measurement hygiene: re-synchronize ranks so NIC backlog
            # and phase skew cannot leak between timed iterations (an
            # idealized MPI_Barrier; see repro.sim.process.Barrier)
            yield barrier

    world.launch(factory)
    res = world.run()
    return OverlapResult(
        config=config,
        records=list(timer.records),
        fn_names=[fnset[r.fn_index].name for r in timer.records],
        winner=areq.winner_name,
        decided_at=areq.decided_at,
        makespan=res.makespan,
        events=res.events,
        engine_stats=world.sim.stats(),
    )


@dataclass
class ResilientOverlapResult(OverlapResult):
    """Outcome of a resilient run (restart loop + degradation handling)."""

    #: simulation restarts after aborted measurements
    restarts: int
    #: (exception name, quarantined function indices) per aborted run
    aborts: list[tuple[str, list[int]]]
    #: audit trail of every quarantine (index, reason)
    quarantine_log: list[tuple[int, str]]
    #: drift-triggered re-tunes
    retunes: int
    #: fault/transport counters summed over all simulation runs
    messages_dropped: int
    retransmits: int


def run_overlap_resilient(
    config: OverlapConfig,
    selector: Union[str, Selector, int] = "brute_force",
    evals_per_function: int = 5,
    filter_method: str = "cluster",
    history=None,
    resilience: Optional[Resilience] = None,
) -> ResilientOverlapResult:
    """Execute the micro-benchmark under the resilient-tuning policy.

    Like :func:`run_overlap`, but the simulation runs under the
    resilience policy's virtual-time watchdog, and an aborted
    measurement (deadlock, watchdog timeout, lost message) does not kill
    the benchmark: the implementations in flight are quarantined
    (sticky) and the simulation restarts — up to
    ``resilience.max_restarts`` times — with the surviving candidates.
    The :class:`~repro.adcl.request.ADCLRequest` carries its tuning
    state (measurements, quarantines, drift detector) across restarts,
    and its drift detector may re-open tuning mid-run.
    """
    if resilience is None:
        resilience = Resilience()
    fnset = function_set_for(config.operation)
    kind = OPERATION_KINDS.get(config.operation, "alltoall")
    if isinstance(selector, int):
        selector = FixedSelector(fnset, selector)
    chunk = config.compute_per_iteration / max(config.nprogress, 1)

    areq: Optional[ADCLRequest] = None
    records: list[TimerRecord] = []
    fn_names: list[str] = []
    restarts = 0
    aborts: list[tuple[str, list[int]]] = []
    makespan = 0.0
    events = 0
    dropped = 0
    retransmits = 0
    engine_stats: dict = {}

    def _merge_stats(world) -> None:
        for k, v in world.sim.stats().items():
            engine_stats[k] = engine_stats.get(k, 0) + v

    while len(records) < config.iterations:
        remaining = config.iterations - len(records)
        world = SimWorld(
            get_platform(config.platform),
            config.nprocs,
            noise=config.noise(),
            placement=config.placement,
            faults=config.faults,
            reliable=config.reliable,
            max_retries=config.max_retries,
        )
        spec = CollSpec(kind, world.comm_world, config.nbytes)
        if areq is None:
            areq = ADCLRequest(
                fnset,
                spec,
                selector=selector,
                evals_per_function=evals_per_function,
                filter_method=filter_method,
                history=history,
                resilience=resilience,
            )
        else:
            areq.spec = spec  # rebind to the fresh world's communicator
            areq.reset_runtime()
        timer = ADCLTimer(areq)

        def factory(ctx):
            for _ in range(remaining):
                timer.start(ctx)
                yield from areq.start(ctx)
                if config.nprogress:
                    yield ComputeProgressSpan(chunk, [areq.handle(ctx)],
                                              config.nprogress)
                yield from areq.wait(ctx)
                timer.stop(ctx)
                yield Barrier()

        world.launch(factory)
        try:
            res = world.run(deadline=resilience.deadline)
        except (WatchdogTimeout, DeadlockError, MessageLostError) as exc:
            restarts += 1
            culprits = sorted(areq.inflight_functions())
            for idx in culprits:
                areq.quarantine(
                    idx, f"measurement aborted: {type(exc).__name__}: {exc}"
                )
            aborts.append((type(exc).__name__, culprits))
            # completed iterations of the aborted run are still valid
            records.extend(timer.records)
            fn_names.extend(fnset[r.fn_index].name for r in timer.records)
            makespan += world.sim.now
            if world.faults is not None:
                dropped += world.faults.messages_dropped
            retransmits += world.retransmits
            _merge_stats(world)
            if restarts > resilience.max_restarts:
                raise
            continue
        records.extend(timer.records)
        fn_names.extend(fnset[r.fn_index].name for r in timer.records)
        makespan += res.makespan
        events += res.events
        if world.faults is not None:
            dropped += world.faults.messages_dropped
        retransmits += world.retransmits
        _merge_stats(world)

    return ResilientOverlapResult(
        config=config,
        records=records,
        fn_names=fn_names,
        winner=areq.winner_name,
        decided_at=areq.decided_at,
        makespan=makespan,
        events=events,
        engine_stats=engine_stats,
        restarts=restarts,
        aborts=aborts,
        quarantine_log=list(areq.quarantine_log),
        retunes=areq.retunes,
        messages_dropped=dropped,
        retransmits=retransmits,
    )
