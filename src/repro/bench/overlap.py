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

:func:`run_overlap` is the one driver of that loop.  Its ``recovery``
policy decides what a failed measurement does: propagate (``None``),
restart the simulation with the culprits quarantined
(:class:`~repro.adcl.resilience.Resilience`), or recover from rank
crashes inside the simulation (:class:`ULFM`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..adcl.checkpoint import CheckpointStore, restore, snapshot
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
from ..errors import (
    CommRevokedError,
    DeadlockError,
    MessageLostError,
    RankFailedError,
    ReproError,
    WatchdogTimeout,
)
from ..nbc.coll import barrier as nbc_barrier
from ..sim.faults import FaultPlan
from ..sim.mpi import SimWorld
from ..sim.noise import NoiseModel
from ..sim.platforms import get_platform
from ..sim.process import Barrier, Compute, ComputeProgressSpan, Progress
from .operations import OPERATION_KINDS

__all__ = [
    "OPERATION_KINDS",
    "OverlapConfig",
    "OverlapResult",
    "Recovery",
    "ULFM",
    "default_iterations",
    "function_set_for",
    "run_overlap",
]


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


@dataclass(frozen=True)
class ULFM:
    """In-simulation crash recovery policy (the MPI ULFM pattern).

    When a rank crashes mid-tuning, the survivors revoke the
    communicator, agree on the decision epoch and shrink to the dense
    survivor group; the shared request is then repaired against the
    shrunken communicator and tuning resumes, keeping every measurement
    taken before the crash.  With ``checkpoint`` set, the coordinator
    (lowest surviving rank) snapshots the tuner's journal every
    ``checkpoint_every`` completed iterations, and a run whose store
    already holds the scenario's snapshot warm-starts from it.
    ``max_repairs`` bounds the recovery rounds (then the last failure is
    re-raised, aborting the simulation).
    """

    checkpoint: Optional[CheckpointStore] = None
    checkpoint_every: int = 0
    max_repairs: Optional[int] = None


#: what :func:`run_overlap` does when a measurement fails: nothing
#: (``None``), restart the simulation (:class:`Resilience`), or recover
#: inside it (:class:`ULFM`)
Recovery = Union[None, Resilience, ULFM]


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
    #: fault/transport counters summed over all simulation runs
    messages_dropped: int = 0
    retransmits: int = 0
    #: simulation restarts after aborted measurements (:class:`Resilience`)
    restarts: int = 0
    #: (exception name, quarantined function indices) per aborted run
    aborts: list[tuple[str, list[int]]] = field(default_factory=list)
    #: audit trail of every quarantine (index, reason)
    quarantine_log: list[tuple[int, str]] = field(default_factory=list)
    #: drift-triggered re-tunes
    retunes: int = 0
    #: world ranks that crashed during the run (:class:`ULFM`)
    dead: list[int] = field(default_factory=list)
    #: world ranks alive at the end (:class:`ULFM`)
    survivors: list[int] = field(default_factory=list)
    #: communicator repairs (revoke/agree/shrink rounds) performed
    repairs: int = 0
    #: winner name each surviving rank obtained from the final agreement
    #: (uniform by construction — asserting that is the point)
    agreed_winner: dict = field(default_factory=dict)
    #: snapshots written to the checkpoint store during the run
    checkpoints_written: int = 0
    #: epoch restored from a warm-start checkpoint (0: cold start)
    restored_epoch: int = 0
    #: total virtual time respawned replacements would wait before
    #: rejoining (informational)
    respawn_wait: float = 0.0

    @property
    def total_time(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def mean_iteration(self) -> float:
        return self.total_time / len(self.records)

    @property
    def learning_iterations(self) -> int:
        """Iterations spent in the learning phase."""
        return sum(1 for r in self.records if r.learning)

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
    recovery: Recovery = None,
) -> OverlapResult:
    """Execute the micro-benchmark.

    ``selector`` is a selection-logic name, a :class:`Selector`
    instance, or an ``int`` — the latter runs a *verification run* with
    that single fixed implementation, circumventing the selection logic.
    ``fnset`` replaces the operation's standard candidate pool; the
    guideline checker uses this to measure mock-up candidates with the
    exact same loop, timer and network model as the tuned decision.

    ``recovery`` picks what happens when a measurement fails:

    * ``None`` — nothing; the failure propagates.
    * a :class:`Resilience` — the simulation runs under the policy's
      virtual-time watchdog, and an aborted measurement (deadlock,
      watchdog timeout, lost message) quarantines the implementations in
      flight (sticky) and restarts the simulation — up to
      ``max_restarts`` times — with the surviving candidates.  The
      request carries its tuning state across restarts, and its drift
      detector may re-open tuning mid-run.
    * a :class:`ULFM` — rank crashes (``config.faults``) are recovered
      inside the one simulation; see :class:`ULFM`.
    """
    if fnset is None:
        fnset = function_set_for(config.operation)
    if isinstance(selector, int):
        selector = FixedSelector(fnset, selector)
    resilience = recovery if isinstance(recovery, Resilience) else None
    deadline = resilience.deadline if resilience is not None else None
    kind = OPERATION_KINDS.get(config.operation, "alltoall")
    result = OverlapResult(config=config, records=[], fn_names=[],
                           winner=None, decided_at=None, makespan=0.0,
                           events=0, engine_stats={})
    areq: Optional[ADCLRequest] = None
    while areq is None or len(result.records) < config.iterations:
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
        if isinstance(recovery, ULFM):
            timers, program = _ulfm_program(world, areq, recovery, result)
        else:
            timers = [ADCLTimer(areq)]
            program = _overlap_program(
                areq, timers[0], config,
                config.iterations - len(result.records))
        world.launch(program)
        try:
            res = world.run(deadline=deadline)
        except (WatchdogTimeout, DeadlockError, MessageLostError) as exc:
            if resilience is None:
                raise
            result.restarts += 1
            culprits = sorted(areq.inflight_functions())
            for idx in culprits:
                areq.quarantine(
                    idx, f"measurement aborted: {type(exc).__name__}: {exc}"
                )
            result.aborts.append((type(exc).__name__, culprits))
            # completed iterations of the aborted run are still valid; its
            # virtual time counts towards the makespan, its events do not
            _absorb(result, world, timers, world.sim.now, 0)
            if result.restarts > resilience.max_restarts:
                raise
            continue
        _absorb(result, world, timers, res.makespan, res.events)
        break

    result.winner = areq.winner_name
    result.decided_at = areq.decided_at
    result.quarantine_log = list(areq.quarantine_log)
    result.retunes = areq.retunes
    if isinstance(recovery, ULFM):
        result.dead = sorted(world.dead_ranks)
        result.survivors = [r for r in range(config.nprocs)
                            if r not in result.dead]
        crashes = config.faults.crashes if config.faults is not None else ()
        result.respawn_wait = sum(
            c.respawn_delay or 0.0 for c in crashes if c.rank in result.dead
        )
    return result


def _absorb(result: OverlapResult, world: SimWorld, timers: list[ADCLTimer],
            makespan: float, events: int) -> None:
    """Add one simulation run's measurements and counters to ``result``."""
    fnset = timers[0].request.fnset
    for timer in timers:
        result.records.extend(timer.records)
        result.fn_names.extend(fnset[r.fn_index].name for r in timer.records)
    result.makespan += makespan
    result.events += events
    if world.faults is not None:
        result.messages_dropped += world.faults.messages_dropped
    result.retransmits += world.retransmits
    stats = result.engine_stats
    for k, v in world.sim.stats().items():
        stats[k] = stats.get(k, 0) + v


def _overlap_program(areq: ADCLRequest, timer: ADCLTimer,
                     config: OverlapConfig, iterations: int):
    """Per-rank program of the plain and restarting loops."""
    chunk = config.compute_per_iteration / max(config.nprogress, 1)
    nprogress = config.nprogress
    # a fully non-blocking set lets the loop start operations with a
    # plain call instead of a generator delegation per iteration
    nonblocking_set = not any(fn.blocking for fn in areq.fnset)
    barrier = Barrier()

    def program(ctx):
        for _ in range(iterations):
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

    return program


def _ulfm_program(world: SimWorld, areq: ADCLRequest, policy: ULFM,
                  result: OverlapResult):
    """Timers and per-rank program of the crash-recovering loop.

    Unlike :func:`_overlap_program`, the iteration barrier here is the
    *message-based* dissemination barrier: a hard barrier cannot be
    interrupted by a peer's death, a real one can — recovery must work
    when the failure surfaces inside the hygiene barrier too.
    """
    config = result.config
    fnset = areq.fnset
    store = policy.checkpoint
    key = f"{config.operation}@{config.platform}:B{config.nbytes}"
    snap = store.load(key) if store is not None else None
    if snap is not None:
        result.restored_epoch = restore(areq, snap)
    chunk = config.compute_per_iteration / max(config.nprogress, 1)
    # shared replicated driver state (same idiom as the request itself)
    timers = [ADCLTimer(areq)]
    state = {"comm_id": world.comm_world.comm_id, "last_ckpt": 0}

    def completed() -> int:
        return sum(len(t.records) for t in timers)

    def recover(ctx, comm):
        """ULFM recovery round (generator): revoke, agree, shrink, repair."""
        comm.revoke(ctx)
        # synchronize on the decision epoch: with replicated tuner state
        # this is trivially uniform, but the agreement is what guarantees
        # it — a rank with a diverged epoch would be detected here
        yield from comm.agree(ctx, areq.epoch, op="min")
        newcomm = comm.shrink()
        if state["comm_id"] != newcomm.comm_id:
            # first survivor through performs the (collective) repair
            state["comm_id"] = newcomm.comm_id
            result.repairs += 1
            areq.repair(newcomm)
            timers.append(ADCLTimer(areq))
        return newcomm

    def program(ctx):
        comm = world.comm_world
        failures = 0
        while completed() < config.iterations:
            try:
                timers[-1].start(ctx)
                yield from areq.start(ctx)
                # not a ComputeProgressSpan: with the fast lane on, the
                # span and this pair stream can end in different bits
                # (a known fast-lane divergence), and the results of
                # this loop are pinned
                for _ in range(config.nprogress):
                    yield Compute(chunk)
                    yield Progress([areq.handle(ctx)])
                yield from areq.wait(ctx)
                timers[-1].stop(ctx)
                # hygiene barrier: message-based, hence revocable
                yield from nbc_barrier(ctx, comm)
            except (RankFailedError, CommRevokedError):
                failures += 1
                if policy.max_repairs is not None and \
                        failures > policy.max_repairs:
                    raise
                comm = yield from recover(ctx, comm)
                continue
            done = completed()
            if (
                store is not None
                and policy.checkpoint_every > 0
                and done - state["last_ckpt"] >= policy.checkpoint_every
                and comm.live_ranks()
                and ctx.rank == comm.live_ranks()[0]
            ):
                state["last_ckpt"] = done
                store.save(key, snapshot(areq))
                result.checkpoints_written += 1
        # uniform decision: every survivor reports the agreed winner
        mine = areq.selector.winner if areq.decided else None
        w = yield from comm.agree(
            ctx, mine if mine is not None else -1, op="min"
        )
        result.agreed_winner[ctx.rank] = fnset[w].name if w >= 0 else None

    return timers, program
