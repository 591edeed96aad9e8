"""Execution of collective schedules: the NBC request & progress engine.

An :class:`NBCRequest` executes a :class:`~repro.nbc.schedule.Schedule`
incrementally, exactly like a LibNBC handle:

* :meth:`NBCRequest.start` posts round 0,
* each call to :meth:`NBCRequest.progress` (from an explicit progress
  syscall, or continuously while the rank blocks in ``Wait``) checks
  whether the current round finished locally and, if so, posts the next
  round,
* the request is :attr:`~repro.sim.process.Waitable.done` once the last
  round completed.

Because round advancement needs the owning rank's CPU, a rank that
computes without progressing leaves its schedule stalled after the first
round — the paper's central observation about non-blocking collectives
in single-threaded MPI libraries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from ..errors import CommRevokedError, ScheduleError
from ..sim.mpi import MPIContext, SimComm
from ..sim.process import RecvRequest, Waitable
from .schedule import CompiledSchedule, Schedule, resolve

if TYPE_CHECKING:
    import numpy as np

__all__ = ["NBCRequest", "make_buffers", "scratch_buffer"]


def make_buffers(**arrays) -> dict[str, Optional[np.ndarray]]:
    """Build a schedule buffer dict from named arrays.

    Arrays of any dtype are accepted and stored as flat ``uint8`` views
    (so schedule byte-range specs apply uniformly); ``None`` values are
    kept as placeholders.

    >>> import numpy as np
    >>> bufs = make_buffers(send=np.zeros(4), recv=np.zeros(4))
    >>> bufs["send"].dtype
    dtype('uint8')
    """
    import numpy as np

    out: dict[str, Optional[np.ndarray]] = {}
    for name, arr in arrays.items():
        if arr is None:
            out[name] = None
        else:
            if not isinstance(arr, np.ndarray):
                arr = np.asarray(arr)
            if not arr.flags["C_CONTIGUOUS"]:
                raise ScheduleError(f"buffer {name!r} must be C-contiguous")
            out[name] = arr.reshape(-1).view(np.uint8)
    return out


def scratch_buffer(nbytes: int) -> np.ndarray:
    """An uninitialised ``uint8`` buffer for a schedule's scratch space."""
    import numpy as np

    return np.empty(nbytes, dtype=np.uint8)


class NBCRequest(Waitable):
    """A non-blocking collective in flight.

    Parameters
    ----------
    schedule:
        The per-rank schedule to execute — a mutable
        :class:`~repro.nbc.schedule.Schedule` or a cached
        :class:`~repro.nbc.schedule.CompiledSchedule` plan (all per-run
        state lives in this request, so compiled plans are freely shared
        across requests, ranks and iterations).
    comm:
        Communicator the collective runs on.
    local_rank:
        This process's rank within ``comm``.
    buffers:
        Optional buffer dict (see :func:`make_buffers`); ``None`` runs
        the schedule size-only.
    """

    __slots__ = (
        "schedule",
        "comm",
        "local_rank",
        "buffers",
        "tag_base",
        "start_time",
        "complete_time",
        "_round",
        "_pending",
        "_started",
        "_nrounds",
    )

    def __init__(
        self,
        schedule: Union[Schedule, CompiledSchedule],
        comm: SimComm,
        local_rank: int,
        buffers: Optional[dict] = None,
    ):
        # flat init, as in SendRequest/RecvRequest: one per invocation
        self.done = False
        self.failed = None
        self._notify = None
        self.schedule = schedule
        self.comm = comm
        self.local_rank = local_rank
        self.buffers = buffers
        self.tag_base = -1
        self.start_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        self._round = 0
        self._pending = 0
        self._started = False
        self._nrounds = 0

    # ------------------------------------------------------------------

    def start(self, ctx: MPIContext) -> "NBCRequest":
        """Post the first round (the `*_init` of a persistent operation)."""
        if self._started:
            raise ScheduleError("NBCRequest.start() called twice")
        self._started = True
        self.start_time = ctx.now
        self.tag_base = self.comm.next_coll_tag(
            self.local_rank, self.schedule.tag_span
        )
        # rounds are frozen once started; cache the count for _advance,
        # which runs on every progress/wait poll
        self._nrounds = len(self.schedule.rounds)
        if not self.schedule.rounds:
            self.done = True
            self.complete_time = ctx.now
            return self
        self._post_round(ctx)
        self._advance(ctx)
        return self

    def progress(self, ctx: MPIContext) -> bool:
        """Advance the schedule as far as local completions allow.

        Returns True when the request is complete.
        """
        # fast exits for the two common poll outcomes: already complete,
        # or blocked on in-flight ops (nothing to advance either way)
        if self.done:
            return True
        if self._pending:
            return False
        if not self._started:
            raise ScheduleError("progress() before start()")
        self._advance(ctx)
        return self.done

    # ------------------------------------------------------------------

    def _advance(self, ctx: MPIContext) -> None:
        nrounds = self._nrounds
        while not self.done and self._pending == 0:
            self._round += 1
            if self._round >= nrounds:
                self.done = True
                self.complete_time = ctx.now
                obs = ctx.world._obs
                if obs is not None:
                    obs.instant("communication", "nbc.done", ctx.rank,
                                ctx.now, {"sched": self.schedule.name,
                                          "rounds": nrounds})
                notify = self._notify
                if notify is not None:
                    notify(self, ctx.now)
                return
            self._post_round(ctx)

    def _post_round(self, ctx: MPIContext) -> None:
        ops = self.schedule.rounds[self._round]
        obs = ctx.world._obs
        if obs is not None:
            obs.instant("communication", "nbc.round", ctx.rank, ctx.now,
                        {"sched": self.schedule.name, "round": self._round,
                         "ops": len(ops)})
            # hierarchical schedules (PR-8) get an explicit phase marker
            # so the intra/inter/broadcast structure is visible in traces
            if "[hier" in self.schedule.name:
                obs.instant("communication", "nbc.hier.phase", ctx.rank,
                            ctx.now, {"sched": self.schedule.name,
                                      "phase": self._round,
                                      "ops": len(ops)})
        buffers = self.buffers
        comm = self.comm
        tag_base = self.tag_base
        child_done = self._child_done
        if buffers is None:
            self._post_sizes(ctx, ops, comm, tag_base, child_done)
            return
        # guard: eager sends / instantly-matched recvs fire their notify
        # synchronously inside the post call; the sentinel keeps _pending
        # positive until every op of the round has been posted
        self._pending += 1
        for op in ops:
            kind = op.kind
            if kind == "send":
                self._pending += 1
                data = resolve(buffers, op.src)
                ctx.isend(
                    op.peer,
                    nbytes=op.nbytes,
                    tag=tag_base + op.tagoff,
                    comm=comm,
                    data=data,
                    notify=child_done,
                )
            elif kind == "recv":
                self._pending += 1
                dst = resolve(buffers, op.dst)
                if dst is None:
                    notify = child_done
                else:
                    notify = self._make_recv_notify(dst)
                ctx.irecv(
                    op.peer,
                    nbytes=op.nbytes,
                    tag=tag_base + op.tagoff,
                    comm=comm,
                    notify=notify,
                )
            elif kind == "copy":
                ctx.charge_copy(op.nbytes)
                src = resolve(buffers, op.src)
                dst = resolve(buffers, op.dst)
                if src is not None and dst is not None:
                    dst[:] = src
            elif kind == "combine":
                # a combine reads + writes the destination: ~2 copies of CPU
                ctx.charge_copy(2 * op.nbytes)
                src = resolve(buffers, op.src)
                dst = resolve(buffers, op.dst)
                if src is not None and dst is not None:
                    op.apply(src, dst)
            else:  # pragma: no cover - schedule.validate() prevents this
                raise ScheduleError(f"unknown op kind {kind!r}")
        self._pending -= 1

    def _post_sizes(self, ctx: MPIContext, ops, comm: SimComm,
                    tag_base: int, child_done) -> None:
        """Post one size-only round: no buffers, no data movement.

        Performance sweeps post thousands of these rounds, so posts go
        straight to the world, skipping ``MPIContext.isend``/``irecv``
        but keeping their checks: a revoked communicator raises at the
        first post, a dead peer raises in the world, and op sizes are
        ints by construction (``SendOp``/``RecvOp``).  The world methods
        are looked up per round, never cached across rounds, so an
        attached :class:`~repro.sim.trace.Tracer` sees every post.

        Posts carry no notify callback: the only request a post can
        complete synchronously is its own (an eager send, a recv matching
        an unexpected eager message), so ``done`` is checked on return
        and the callback attached only to requests still in flight.
        Nothing can complete while the round is being posted, so
        ``_pending`` is raised once, by the in-flight count, at the end.
        """
        world = ctx.world
        st = ctx._st
        ranks = comm.ranks
        comm_id = comm.comm_id
        revoked = comm.revoked
        post_isend = world._post_isend
        post_irecv = world._post_irecv
        outstanding = 0
        try:
            for op in ops:
                kind = op.kind
                if kind == "send":
                    if revoked:
                        raise CommRevokedError(
                            f"rank {ctx.rank}: isend on revoked "
                            f"communicator {comm_id}")
                    req = post_isend(st, ranks[op.peer], tag_base + op.tagoff,
                                     comm_id, op.nbytes, None, None)
                elif kind == "recv":
                    if revoked:
                        raise CommRevokedError(
                            f"rank {ctx.rank}: irecv on revoked "
                            f"communicator {comm_id}")
                    req = post_irecv(st, ranks[op.peer], tag_base + op.tagoff,
                                     comm_id, op.nbytes, None)
                else:
                    # inlined ctx.charge_copy(n): the float ops of
                    # charge(copy_time(n)); a combine reads and writes
                    # the destination, ~2 copies of CPU
                    if kind == "copy":
                        n = op.nbytes
                    elif kind == "combine":
                        n = 2 * op.nbytes
                    else:  # pragma: no cover - validate() prevents this
                        raise ScheduleError(f"unknown op kind {kind!r}")
                    busy = st.busy_until
                    now = world.sim._now
                    st.busy_until = ((busy if busy > now else now)
                                     + n / world._copy_bw)
                    continue
                if not req.done:
                    req._notify = child_done
                    outstanding += 1
        except BaseException:
            # a failed post leaves the round unfinished for good: keep
            # _pending one above what can still complete
            self._pending += outstanding + 1
            raise
        self._pending += outstanding

    def _make_recv_notify(self, dst_view: np.ndarray):
        def notify(req: RecvRequest, t: float) -> None:
            if req.data is not None:
                dst_view[:] = req.data
            self._pending -= 1

        return notify

    def _child_done(self, req: Waitable, t: float) -> None:
        self._pending -= 1

    # ------------------------------------------------------------------

    @property
    def current_round(self) -> int:
        """Index of the round currently in flight (for tests/tracing)."""
        return self._round

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.done else f"round {self._round}"
        return f"<NBCRequest {self.schedule.name!r} {state}>"
