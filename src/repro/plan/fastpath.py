"""Fast-path plan evaluation: plan timing without the event loop.

:func:`fastpath_schedule` computes the exact per-op ``(start, end)``
times :class:`~repro.plan.executor.PlanExecution` would record for a
compiled :class:`~repro.plan.ir.StepPlan`, without spinning up
``Environment`` processes, generators, or callback chains.  It is a
specialized discrete-event engine with exactly three event kinds — op
readiness, flow arrival, and the fluid-timeline timer — instead of the
kernel's generic process machinery, so evaluating a plan touches an
order of magnitude fewer Python frames per op.

Bit-identity, not approximation
-------------------------------
The engine does **not** re-derive timing from a simplified cost model;
it replays the identical arithmetic the executor's device models apply,
in the identical order:

- compute kernels call the real ``GPU.kernel_time`` roofline and
  serialize on a per-rank stream cursor (the DES ``Resource`` FIFO);
- collectives mirror the communicator's rendezvous (per-rank arrival
  order assigns the op id), run the hop schedule the communicator runs
  (:func:`~repro.plan.ir.collective_schedule`), and apply the real
  ``Communicator._transport_factor`` byte inflation per route;
- every transfer pays ``transfer_overhead + route.latency`` and then
  streams through one global
  :class:`~repro.fabric.flows.FluidTimeline` — the class
  ``FlowScheduler`` itself runs on — so deliveries, drains, rates and
  horizons come from the same code at the same recompute points (every
  flow arrival, every completion horizon);
- storage I/O mirrors the queue-depth admission, fixed latency, and
  write-bandwidth byte inflation of ``StorageDevice``.

Because the recompute points and the arithmetic are the same floats in
the same order, the computed timeline *is* the event-loop timeline — not
merely close to it.  Where the engine cannot reconstruct the kernel's
tie-breaking order (two same-rank ops hitting one FIFO at the same
instant, a watchdog racing a completion), it refuses with
:class:`FastPathUnsupported` instead of guessing, and
:func:`evaluate_plan`'s ``auto`` mode falls back to the real executor.

The fast path is *pure*: it reads device specs, routes, and penalty
tables but mutates no device state, link counter, or communicator
sequence number, so it can be invoked any number of times on a live
system without perturbing it.  Its flows carry no byte counters, so the
shared timeline's advance credits nothing.

Recording
---------
Given a :class:`_Tape`, the same engine also records its schedule as an
array program: one register per event time, one instruction per
arithmetic step, one guard per control decision.
:mod:`repro.plan.batched` replays that tape over many structurally
identical lanes at once, so the batched evaluator's tape comes from the
engine its lanes must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Optional

from ..fabric.flows import _EPSILON_BYTES as _EPS_BYTES
from ..fabric.flows import FluidTimeline
from .executor import ExecutionContext, PlanExecution
from .ir import (
    COLLECTIVE_KINDS,
    Barrier,
    Collective,
    Compute,
    D2HCopy,
    Delay,
    H2DCopy,
    P2PCopy,
    PlanError,
    StepPlan,
    StorageRead,
    StorageWrite,
    collective_schedule,
)

__all__ = [
    "FastPathUnsupported",
    "PlanTiming",
    "fastpath_support",
    "fastpath_schedule",
    "evaluate_plan",
]

#: Relative tolerance for ``assert_equivalence`` comparisons.
EQUIVALENCE_RTOL = 1e-9
#: Absolute floor for comparisons of times at/near zero.
EQUIVALENCE_ATOL = 1e-12


class FastPathUnsupported(Exception):
    """The fast path cannot guarantee executor-identical timing here."""


@dataclass
class PlanTiming:
    """Per-op timing of one plan evaluation, relative to its start."""

    #: ``"fastpath"`` or ``"executor"``.
    mode: str
    #: uid -> (start, end), in seconds from evaluation start.
    op_times: dict = field(default_factory=dict)
    #: Completion time of the last op.
    makespan: float = 0.0

    def rank_end(self, plan: StepPlan, rank: int) -> float:
        """Finish time of ``rank``'s program."""
        ends = [self.op_times[op.uid][1] for op in plan.by_rank(rank)
                if op.uid in self.op_times]
        return max(ends) if ends else 0.0


def _jitter_is_deterministic(jitter: Callable[[], float]) -> bool:
    """Whether the context's jitter sampler always returns exactly 1.0.

    True for the :class:`ExecutionContext` default and for
    ``StepCosts.jitter_factor`` with jitter disabled (``rng is None``) —
    detected without calling the sampler, so an active RNG's stream is
    never perturbed by eligibility probing.
    """
    owner = getattr(jitter, "__self__", None)
    if owner is not None and hasattr(owner, "rng"):
        return owner.rng is None
    default = ExecutionContext.__dataclass_fields__["jitter"].default
    return jitter is default


def fastpath_support(plan: StepPlan, ctx: ExecutionContext
                     ) -> Optional[str]:
    """Static eligibility check; returns a reason string or ``None``.

    ``None`` means the fast path *may* run (dynamic ambiguities can
    still surface mid-evaluation and raise
    :class:`FastPathUnsupported`).
    """
    if ctx.tracer is not None and getattr(ctx.tracer, "enabled", False):
        return "a tracing collector is attached (spans need the executor)"
    if getattr(ctx.topology, "tracer", None) is not None:
        return "the topology is traced (fabric spans need the executor)"
    has_rendezvous = any(isinstance(op, (Collective, Barrier))
                         for op in plan)
    if has_rendezvous and ctx.comm is None:
        return "plan has collectives but the context has no communicator"
    if any(isinstance(op, (StorageRead, StorageWrite)) for op in plan) \
            and ctx.storage is None:
        return "plan has storage ops but the context has no storage device"
    if any(isinstance(op, Compute) and op.jittered for op in plan) \
            and not _jitter_is_deterministic(ctx.jitter):
        return "kernel jitter is stochastic (per-sample RNG draws)"
    return None


# -- tape recording ----------------------------------------------------------
#
# With a :class:`_Tape` attached, the engine records its schedule as a
# linear program that :mod:`repro.plan.batched` replays over many lanes.
# Every scheduled event carries a *register* (the tape slot holding that
# event's time, lane-wise) alongside its float; register 0 is t = 0.

# Instruction opcodes.  The tape is a flat list of tuples; replay
# dispatches on the leading int.  Registers hold (n_lanes,) float64
# arrays of event times; REM holds per-flow remaining-bytes arrays.
_CONST = 0    # (out, value)
_MAX = 1      # (out, (regs...))
_COMPUTE = 2  # (out, ready_reg, stream_reg_or_-1, dur_col)
_ADD = 3      # (out, in_reg, col)
_DELAY = 4    # (out, in_reg, seconds_col, fraction_col)
_ORDER = 5    # (a, b, strict)           guard: T[a] < T[b]  (<= if lax)
_FLOW = 6     # (fidx, size_col)         REM[f] = C[size]
_BOUND = 7    # (arr_reg, base_reg, ((fidx, rate), ...))
              # guard: T[arr] <= T[base] + REM[f]/rate for each survivor
_TIMER = 8    # (out, base_reg, fmin, rate_min, ((fidx, rate), ...))
              # T[out] = T[base] + REM[fmin]/rate_min;
              # guard: that horizon is minimal among the active flows
_RECOMP = 9   # (last_reg, now_reg, ((fidx, rate), ...), (drained fidxs),
              #  ((survivor fidx, rate), ...))
              # advance all active flows by dt, then check the drain
              # membership the reference observed
_WATCHDOG = 10  # (end_reg, arr_reg, watchdog_seconds)

# Column spec tags (resolved per lane by batched._LaneResolver).
_C_COMPUTE = "compute"      # (tag, uid)
_C_DELAY_S = "delay_s"      # (tag, uid)
_C_DELAY_F = "delay_f"      # (tag, uid)
_C_FIXED = "fixed"          # (tag, src_spec, dst_spec)  overhead + latency
_C_OP_BYTES = "op_bytes"    # (tag, uid, streamed)
_C_IO_BYTES = "io_bytes"    # (tag, uid, streamed)
_C_IO_LAT = "io_latency"    # (tag, uid)
_C_COLL = "coll_flow"       # (tag, uid, n_members, src_spec, dst_spec,
                            #  streamed)

# Endpoint specs: ("gpu", rank) / ("host",) / ("media",) / ("comm", i)
# where i indexes Communicator.ranks (a topology node list).


@dataclass
class _Tape:
    """One structure group's recorded schedule, ready to replay."""

    instrs: list = field(default_factory=list)
    columns: list = field(default_factory=list)
    #: uid -> (start_reg, end_reg)
    op_regs: dict = field(default_factory=dict)
    #: (flow_index, route_use_index) pairs for rate-invariance checks.
    flow_routes: list = field(default_factory=list)
    #: route_use_index -> (src_spec, dst_spec, ref_seg_keys, ref_caps)
    route_uses: list = field(default_factory=list)
    #: Rendezvous member uid tuples (per group) whose (bytes, chunk)
    #: must match lane-wise, mirroring the engine's spec check.
    group_members: list = field(default_factory=list)
    n_regs: int = 0
    n_flows: int = 0
    #: Lazily-built index-array form of ``instrs`` (see batched._compile).
    compiled: Optional[list] = None
    _col_index: dict = field(default_factory=dict, repr=False)
    _route_index: dict = field(default_factory=dict, repr=False)

    def reg(self) -> int:
        self.n_regs += 1
        return self.n_regs - 1

    def emit(self, *instr) -> None:
        self.instrs.append(instr)

    def col(self, *spec) -> int:
        idx = self._col_index.get(spec)
        if idx is None:
            idx = self._col_index[spec] = len(self.columns)
            self.columns.append(spec)
        return idx

    def route_use(self, src_spec, dst_spec, route) -> int:
        key = (src_spec, dst_spec)
        idx = self._route_index.get(key)
        if idx is None:
            idx = self._route_index[key] = len(self.route_uses)
            self.route_uses.append(
                (src_spec, dst_spec,
                 tuple(seg.key for seg in route.segments),
                 tuple(seg.capacity for seg in route.segments)))
        return idx


# -- the engine --------------------------------------------------------------

class _Flow:
    """A fluid-timeline flow that credits no link counter (``counters``
    is empty), which keeps the engine pure."""

    __slots__ = ("segments", "remaining", "rate", "on_done")
    counters = ()

    def __init__(self, segments, nbytes: float, on_done):
        self.segments = segments
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.on_done = on_done


class _Group:
    """One rendezvoused collective/barrier across its communicator."""

    __slots__ = ("kind", "nbytes", "root", "chunk", "arrived", "uids",
                 "phase", "total_phases", "hops", "per_hop", "inflight",
                 "nodes", "members", "regs", "done_regs")

    def __init__(self, kind, nbytes, root, chunk, nodes, members):
        self.kind = kind
        self.nbytes = nbytes
        #: Communicator-local root index (grouped ops translate).
        self.root = root
        self.chunk = chunk
        #: Participating topology node names, in communicator order.
        self.nodes = nodes
        #: Their world-rank indices, in the same order.
        self.members = members
        self.arrived = {}       # world rank -> join time
        self.uids = {}          # world rank -> op uid
        self.regs = {}          # world rank -> join register
        self.done_regs = []     # this phase's flow-completion registers
        self.phase = 0
        self.total_phases = 0
        self.hops = ()          # (src, dst) communicator-local indices
        self.per_hop = 0.0      # bytes each hop carries, before transport
        self.inflight = 0


class _Engine:
    """Specialized scheduler replaying a plan's exact DES timeline.

    With a ``tape``, the run also records the instructions that
    reproduce each arithmetic step lane-wide and one *guard* per control
    decision it took (stream FIFO order, rendezvous join order, storage
    admission order, fluid event order, drain membership, watchdog
    margins).  Numeric inputs are recorded as column specs ("compute
    duration of op ``uid``") rather than as this run's values.  Without
    a tape every recording branch is skipped and registers stay 0.
    """

    def __init__(self, plan: StepPlan, ctx: ExecutionContext,
                 tape: Optional[_Tape] = None):
        self.plan = plan
        self.ctx = ctx
        self.tape = tape
        self._heap: list = []
        self._seq = 0
        self.times: dict = {}
        self._start: dict = {}
        # Dependency bookkeeping.
        self._indegree: dict = {}
        self._dependents: dict = {}
        # Per-rank GPU stream cursor (DES Resource capacity-1 FIFO).
        self._stream_free: dict = {}
        self._last_compute_ready: dict = {}
        # Rendezvous state mirroring Communicator._join.
        self._op_seq: dict = {}
        self._groups: dict = {}
        self._last_join: dict = {}
        # Storage queue-depth admission.
        self._io_active = 0
        self._io_queue: list = []
        self._last_io_ready: Optional[float] = None
        # The global fluid timeline: the same one FlowScheduler runs.
        self._timeline = FluidTimeline()
        # Recording only: the registers behind the state above.
        self._dep_end_regs: dict = {}       # uid -> [end regs of deps]
        self._start_regs: dict = {}         # uid -> start reg
        self._stream_regs: dict = {}        # rank -> stream cursor reg
        self._compute_regs: dict = {}       # rank -> last ready reg
        self._join_regs: dict = {}          # (rank, gkey) -> last join reg
        self._io_event_reg: Optional[int] = None
        self._io_enqueue_reg: Optional[int] = None
        self._update_reg = 0                # reg of the last fluid event

    # -- event plumbing ---------------------------------------------------
    def _schedule(self, time: float, reg: int, fn) -> None:
        self._seq += 1
        heappush(self._heap, (time, self._seq, reg, fn))

    def run(self) -> PlanTiming:
        plan = self.plan
        if self.tape is not None:
            self.tape.emit(_CONST, self.tape.reg(), 0.0)
        for op in plan:
            self._indegree[op.uid] = 0
            self._dependents.setdefault(op.uid, [])
        for op in plan:
            for dep in op.deps:
                if dep not in self._indegree:
                    raise FastPathUnsupported(
                        f"op {op.uid!r} depends on {dep!r} outside the plan")
                self._indegree[op.uid] += 1
                self._dependents[dep].append(op)
        # Seed roots in the executor's spawn order: run_rank(0..n-1),
        # each spawning its ops in program order, so same-instant root
        # ties resolve exactly as the kernel's FIFO would.
        for rank in range(plan.world_size):
            for op in plan.by_rank(rank):
                if self._indegree[op.uid] == 0:
                    self._schedule(0.0, 0, self._ready_fn(op))
        while self._heap:
            time, _seq, reg, fn = heappop(self._heap)
            fn(time, reg)
        if len(self.times) != len(plan.ops):
            missing = [op.uid for op in plan if op.uid not in self.times]
            raise FastPathUnsupported(
                f"plan stalled; {len(missing)} op(s) never completed "
                f"(first: {missing[0]!r})")
        makespan = max((end for _s, end in self.times.values()),
                       default=0.0)
        return PlanTiming(mode="fastpath", op_times=dict(self.times),
                          makespan=makespan)

    def _ready_fn(self, op):
        return lambda t, reg: self._op_ready(op, t, reg)

    # -- op lifecycle ------------------------------------------------------
    def _op_ready(self, op, t: float, reg: int) -> None:
        self._start[op.uid] = t
        tape = self.tape
        if tape is not None:
            # Readiness is the max over dependency ends — commutative,
            # so no ordering guard is needed; the triggering event's
            # time equals that max by construction.
            regs = tuple(dict.fromkeys(self._dep_end_regs.get(op.uid, ())))
            if len(regs) > 1:
                reg = tape.reg()
                tape.emit(_MAX, reg, regs)
            else:
                reg = regs[0] if regs else 0
            self._start_regs[op.uid] = reg
        if isinstance(op, Compute):
            self._run_compute(op, t, reg)
        elif isinstance(op, (Collective, Barrier)):
            self._join_group(op, t, reg)
        elif isinstance(op, Delay):
            elapsed = t - 0.0
            if tape is not None:
                out = tape.reg()
                tape.emit(_DELAY, out, reg, tape.col(_C_DELAY_S, op.uid),
                          tape.col(_C_DELAY_F, op.uid))
                reg = out
            self._finish_at(
                op, t + (op.seconds + op.elapsed_fraction * elapsed), reg)
        elif isinstance(op, (H2DCopy, D2HCopy, P2PCopy)):
            self._run_transfer(op, t, reg)
        elif isinstance(op, (StorageRead, StorageWrite)):
            self._enqueue_io(op, t, reg)
        else:  # pragma: no cover - taxonomy is closed
            raise PlanError(f"fast path cannot run op kind {op.kind!r}")

    def _finish_at(self, op, end: float, reg: int) -> None:
        self._schedule(end, reg, lambda t, r: self._op_done(op, t, r))

    def _op_done(self, op, t: float, reg: int) -> None:
        self.times[op.uid] = (self._start[op.uid], t)
        if self.tape is not None:
            self.tape.op_regs[op.uid] = (self._start_regs[op.uid], reg)
            for dependent in self._dependents[op.uid]:
                self._dep_end_regs.setdefault(dependent.uid, []).append(reg)
        for dependent in self._dependents[op.uid]:
            self._indegree[dependent.uid] -= 1
            if self._indegree[dependent.uid] == 0:
                self._schedule(t, reg, self._ready_fn(dependent))

    # -- compute -----------------------------------------------------------
    def _run_compute(self, op, t: float, reg: int) -> None:
        rank = op.rank
        last = self._last_compute_ready.get(rank)
        if last == t:
            raise FastPathUnsupported(
                f"two computes ready on rank {rank} at t={t}: "
                "stream FIFO order is ambiguous")
        self._last_compute_ready[rank] = t
        factor = self.ctx.jitter() if op.jittered else 1.0
        duration = self.ctx.gpus[rank].kernel_time(
            op.flops * factor, op.hbm_bytes, op.precision, op.efficiency)
        begin = max(t, self._stream_free.get(rank, 0.0))
        end = begin + duration
        self._stream_free[rank] = end
        tape = self.tape
        if tape is not None:
            # Guard: the lane's FIFO admits this rank's computes in the
            # reference order, with no tie (the engine refuses ties, so
            # a tying lane must fall back too — hence strict).
            if last is not None:
                tape.emit(_ORDER, self._compute_regs[rank], reg, True)
            self._compute_regs[rank] = reg
            out = tape.reg()
            tape.emit(_COMPUTE, out, reg, self._stream_regs.get(rank, -1),
                      tape.col(_C_COMPUTE, op.uid))
            self._stream_regs[rank] = reg = out
        self._finish_at(op, end, reg)

    # -- rendezvous (Communicator._join mirror) ----------------------------
    def _join_group(self, op, t: float, reg: int) -> None:
        comm = self.ctx.comm
        rank = op.rank
        # Grouped collectives rendezvous on their own sub-communicator:
        # state is keyed by the group tuple (None = world), mirroring
        # Communicator.subgroup's per-child sequence numbers.
        gkey = getattr(op, "group", None)
        last = self._last_join.get((rank, gkey))
        if last == t:
            raise FastPathUnsupported(
                f"rank {rank} joins two collectives at t={t}: "
                "rendezvous order is ambiguous")
        self._last_join[(rank, gkey)] = t
        tape = self.tape
        if tape is not None:
            if last is not None:
                tape.emit(_ORDER, self._join_regs[(rank, gkey)], reg, True)
            self._join_regs[(rank, gkey)] = reg
        members = list(range(self.plan.world_size)) if gkey is None \
            else list(gkey)
        nodes = [comm.ranks[i] for i in members]
        if isinstance(op, Barrier):
            spec = ("barrier", 0.0, None, None)
        else:
            if op.comm not in COLLECTIVE_KINDS:
                raise FastPathUnsupported(
                    f"unknown collective kind {op.comm!r}")
            # Communicator-local root index, like the executor's
            # subgroup translation (only rooted kinds read it).
            root = members.index(op.root) if op.root is not None else 0
            spec = (op.comm, op.bytes, root, op.chunk_bytes)
        opid = self._op_seq.get((gkey, rank), 0)
        self._op_seq[(gkey, rank)] = opid + 1
        group = self._groups.get((gkey, opid))
        if group is None:
            group = self._groups[(gkey, opid)] = _Group(*spec, nodes,
                                                        members)
        elif (group.kind, group.nbytes, group.root, group.chunk) != spec:
            raise FastPathUnsupported(
                f"collective mismatch at op {opid}: rank {rank} called "
                f"{spec} but op is {(group.kind, group.nbytes, group.root, group.chunk)}")
        group.arrived[rank] = t
        group.uids[rank] = op.uid
        group.regs[rank] = reg
        if len(group.arrived) == len(members):
            del self._groups[(gkey, opid)]
            if tape is not None:
                # Lane-wise the spec check above demands every member
                # op carry the same (bytes, chunk); record the
                # membership so column resolution can verify it.
                tape.group_members.append(tuple(group.uids.values()))
            self._execute_group(group, t, reg)

    def _execute_group(self, group: _Group, t: float, reg: int) -> None:
        tape = self.tape
        if tape is not None:
            # The group goes live at its last member's arrival.
            reg = tape.reg()
            tape.emit(_MAX, reg, tuple(dict.fromkeys(group.regs.values())))
        world = len(group.nodes)
        if world == 1 or group.kind == "barrier" or group.nbytes == 0:
            self._schedule(t, reg,
                           lambda now, r: self._group_done(group, now, r))
            return
        group.total_phases, ring, group.hops = collective_schedule(
            group.kind, world, group.root)
        group.per_hop = group.nbytes / world if ring else group.nbytes
        group.phase = 0
        self._spawn_phase(group, t, reg)

    def _spawn_phase(self, group: _Group, t: float, reg: int) -> None:
        comm = self.ctx.comm
        ranks = group.nodes
        n = len(ranks)
        group.inflight = len(group.hops)
        group.done_regs = []
        tape = self.tape

        def flow_done(now, done_reg, group=group):
            if tape is not None:
                group.done_regs.append(done_reg)
            group.inflight -= 1
            if group.inflight:
                return
            if tape is not None:
                # Lane-wise the slowest pair may differ; the phase ends
                # at the max over every pair's completion (commutative).
                done_reg = tape.reg()
                tape.emit(_MAX, done_reg,
                          tuple(dict.fromkeys(group.done_regs)))
            group.phase += 1
            if group.phase >= group.total_phases:
                self._group_done(group, now, done_reg)
            else:
                self._spawn_phase(group, now, done_reg)

        topo = comm.topology
        endpoints = col = None
        for i, j in group.hops:
            route = topo.route(ranks[i], ranks[j])
            factor = comm._transport_factor(route, group.chunk)
            nbytes = group.per_hop * factor
            if tape is not None:
                endpoints = (("comm", group.members[i]),
                             ("comm", group.members[j]))
                streamed = nbytes > _EPS_BYTES and bool(route.segments)
                col = tape.col(_C_COLL, next(iter(group.uids.values())),
                               n, *endpoints, streamed)
            self._launch_transfer(t, reg, route, nbytes, flow_done,
                                  endpoints, col)

    def _group_done(self, group: _Group, t: float, reg: int) -> None:
        watchdog = getattr(self.ctx.comm, "watchdog", None)
        tape = self.tape
        for rank, uid in group.uids.items():
            arrival = group.arrived[rank]
            if watchdog is not None and t - arrival >= watchdog:
                raise FastPathUnsupported(
                    "collective completion races the watchdog timeout")
            if tape is not None:
                if watchdog is not None:
                    tape.emit(_WATCHDOG, reg, group.regs[rank], watchdog)
                self._start_regs[uid] = group.regs[rank]
            self._start[uid] = arrival
            self._op_done(self.plan.op(uid), t, reg)

    # -- transfers (Topology.transfer mirror) ------------------------------
    def _launch_transfer(self, t: float, reg: int, route, nbytes: float,
                         on_done, endpoints=None,
                         size_col: Optional[int] = None) -> None:
        """Mirror ``Topology._transfer``: fixed latency, then the flow.

        ``endpoints`` (a ``(src_spec, dst_spec)`` pair) and ``size_col``
        are only read while recording.
        """
        topo = self.ctx.topology
        arrival = t + (topo.transfer_overhead + route.latency)
        segments = route.segments
        tape = self.tape
        use = None
        if tape is not None:
            arr = tape.reg()
            tape.emit(_ADD, arr, reg, tape.col(_C_FIXED, *endpoints))
            reg = arr
            if nbytes > 0 and segments:
                use = tape.route_use(*endpoints, route)
        if nbytes > 0 and segments:
            self._schedule(
                arrival, reg,
                lambda now, r: self._flow_arrives(segments, nbytes, on_done,
                                                  now, r, size_col, use))
        else:
            self._schedule(arrival, reg, on_done)

    def _run_transfer(self, op, t: float, reg: int) -> None:
        ctx = self.ctx
        gpus = ctx.gpus
        if isinstance(op, H2DCopy):
            src, dst = ctx.host_node, gpus[op.rank].name
            endpoints = (("host",), ("gpu", op.rank))
        elif isinstance(op, D2HCopy):
            src, dst = gpus[op.rank].name, ctx.host_node
            endpoints = (("gpu", op.rank), ("host",))
        else:
            src, dst = gpus[op.rank].name, gpus[op.dst_rank].name
            endpoints = (("gpu", op.rank), ("gpu", op.dst_rank))
        route = ctx.topology.route(src, dst)
        col = None
        if self.tape is not None:
            streamed = op.bytes > _EPS_BYTES and bool(route.segments)
            col = self.tape.col(_C_OP_BYTES, op.uid, streamed)
        self._launch_transfer(t, reg, route, op.bytes,
                              lambda now, r: self._op_done(op, now, r),
                              endpoints, col)

    # -- storage I/O (StorageDevice._io mirror) ----------------------------
    def _io_event(self, reg: int, enqueue: bool) -> None:
        """Record the guards of one storage event (recording only).

        Admission is order-driven: the whole interleaved sequence of
        storage events is guarded non-strictly (a completion landing on
        an enqueue's instant commutes — the op is admitted at that
        instant either way), and consecutive *enqueues* strictly: two
        commands racing for one queue slot is the ambiguity the engine
        refuses.
        """
        tape = self.tape
        last = self._io_event_reg
        if last is not None and last != reg:
            tape.emit(_ORDER, last, reg, False)
        self._io_event_reg = reg
        if enqueue:
            if self._io_enqueue_reg is not None:
                tape.emit(_ORDER, self._io_enqueue_reg, reg, True)
            self._io_enqueue_reg = reg

    def _enqueue_io(self, op, t: float, reg: int) -> None:
        if self.tape is not None:
            self._io_event(reg, True)
        if self._io_active < self.ctx.storage.spec.queue_depth:
            self._io_active += 1
            self._admit_io(op, t, reg)
        else:
            if self._last_io_ready == t:
                raise FastPathUnsupported(
                    f"two storage commands queue at t={t}: "
                    "admission order is ambiguous")
            self._last_io_ready = t
            self._io_queue.append(op)

    def _admit_io(self, op, t: float, reg: int) -> None:
        storage = self.ctx.storage
        spec = storage.spec
        if isinstance(op, StorageRead):
            src, dst = storage.media_node, self.ctx.host_node
            endpoints = (("media",), ("host",))
            nbytes, latency = op.bytes, spec.read_latency
        else:
            inflation = spec.read_bandwidth / spec.write_bandwidth
            src, dst = self.ctx.host_node, storage.media_node
            endpoints = (("host",), ("media",))
            nbytes, latency = op.bytes * inflation, spec.write_latency
        route = self.ctx.topology.route(src, dst)
        tape = self.tape
        size_col = None
        if tape is not None:
            streamed = nbytes > _EPS_BYTES and bool(route.segments)
            size_col = tape.col(_C_IO_BYTES, op.uid, streamed)
            launched = tape.reg()
            tape.emit(_ADD, launched, reg, tape.col(_C_IO_LAT, op.uid))
            reg = launched

        def done(now, done_reg):
            if tape is not None:
                self._io_event(done_reg, False)
            self._io_active -= 1
            if self._io_queue:
                self._io_active += 1
                self._admit_io(self._io_queue.pop(0), now, done_reg)
            self._op_done(op, now, done_reg)

        self._launch_transfer(t + latency, reg, route, nbytes, done,
                              endpoints, size_col)

    # -- the global fluid timeline (FlowScheduler adapter) -----------------
    def _rates(self) -> tuple:
        return tuple((fid, f.rate)
                     for fid, f in self._timeline.flows.items())

    def _flow_arrives(self, segments, nbytes: float, on_done, now: float,
                      reg: int, size_col: Optional[int],
                      route_use: Optional[int]) -> None:
        """Mirror ``start_flow``: advance, add, recompute."""
        if nbytes <= _EPS_BYTES or not segments:
            self._schedule(now, reg, on_done)
            return
        tape = self.tape
        active = None
        if tape is not None:
            # The arrival must land inside the current fluid epoch:
            # after the previous fluid event, and before any active
            # flow would have drained (else the lane's rate history
            # differs).
            active = self._rates()
            tape.emit(_ORDER, self._update_reg, reg, False)
            if active:
                tape.emit(_BOUND, reg, self._update_reg, active)
        self._timeline.advance(now)
        fid = self._timeline.add(_Flow(segments, nbytes, on_done))
        if tape is not None:
            tape.n_flows = fid
            tape.flow_routes.append((fid, route_use))
            tape.emit(_FLOW, fid, size_col)
        self._recompute(now, reg, active)

    def _recompute(self, now: float, reg: int,
                   active: Optional[tuple]) -> None:
        # Complete drained flows under the *current* rates, then
        # water-fill the affected components — the FlowScheduler update
        # order on the same timeline.  ``active`` holds the pre-event
        # flow rates while recording.
        timeline = self._timeline
        drained = timeline.drained()
        tape = self.tape
        if tape is not None:
            # One instruction advances every active flow by the lane's
            # dt (including dt == 0) and checks the drain membership.
            survivors = tuple((fid, f.rate)
                              for fid, f in timeline.flows.items()
                              if fid not in drained)
            tape.emit(_RECOMP, self._update_reg, reg, active,
                      tuple(drained), survivors)
            self._update_reg = reg
        for fid in drained:
            self._schedule(now, reg, timeline.remove(fid).on_done)
        timeline.solver.solve()
        horizon = timeline.horizon()
        if horizon is None:
            return
        gen = timeline.generation
        self._schedule(now + horizon, reg,
                       lambda t, r: self._on_timer(t, r, gen))

    def _on_timer(self, now: float, reg: int, generation: int) -> None:
        if generation != self._timeline.generation:
            return  # superseded by a later recompute; never on the tape
        tape = self.tape
        active = None
        if tape is not None:
            # A fired timer directly follows the fluid event that armed
            # it (anything in between would have bumped the generation),
            # so the flow state here *is* the arming state: the horizon
            # to replay is the argmin flow's remaining/rate, guarded
            # minimal against every other active flow's horizon.
            active = self._rates()
            fmin, rmin, best = None, 0.0, None
            others = []
            for fid, f in self._timeline.flows.items():
                if f.rate <= 0:
                    continue
                h = f.remaining / f.rate
                if best is None or h < best:
                    if fmin is not None:
                        others.append((fmin, rmin))
                    fmin, rmin, best = fid, f.rate, h
                else:
                    others.append((fid, f.rate))
            reg = tape.reg()
            tape.emit(_TIMER, reg, self._update_reg, fmin, rmin,
                      tuple(others))
        self._timeline.advance(now)
        self._recompute(now, reg, active)


def fastpath_schedule(plan: StepPlan, ctx: ExecutionContext) -> PlanTiming:
    """Evaluate ``plan`` on the fast path; raises
    :class:`FastPathUnsupported` when equivalence cannot be guaranteed.
    """
    reason = fastpath_support(plan, ctx)
    if reason is not None:
        raise FastPathUnsupported(reason)
    return _Engine(plan, ctx).run()


def _executor_timing(plan: StepPlan, ctx: ExecutionContext) -> PlanTiming:
    """Run the plan through the real executor and normalize its times.

    This advances ``ctx.env`` and mutates device state — callers own a
    throwaway system (or accept the side effects).
    """
    env = ctx.env
    base = env.now
    execution = PlanExecution(plan, ctx)
    procs = [env.process(execution.run_rank(rank))
             for rank in range(plan.world_size)]
    env.run(env.all_of(procs))
    times = {uid: (start - base, end - base)
             for uid, (start, end) in execution._times.items()}
    makespan = max((end for _s, end in times.values()), default=0.0)
    return PlanTiming(mode="executor", op_times=times, makespan=makespan)


def _assert_equal(fast: PlanTiming, slow: PlanTiming) -> None:
    if set(fast.op_times) != set(slow.op_times):
        only_fast = set(fast.op_times) - set(slow.op_times)
        only_slow = set(slow.op_times) - set(fast.op_times)
        raise AssertionError(
            f"op coverage differs: fastpath-only={sorted(only_fast)[:5]} "
            f"executor-only={sorted(only_slow)[:5]}")
    for uid, (f0, f1) in fast.op_times.items():
        s0, s1 = slow.op_times[uid]
        for label, a, b in (("start", f0, s0), ("end", f1, s1)):
            if not math.isclose(a, b, rel_tol=EQUIVALENCE_RTOL,
                                abs_tol=EQUIVALENCE_ATOL):
                raise AssertionError(
                    f"op {uid!r} {label} diverges: fastpath={a!r} "
                    f"executor={b!r}")
    if not math.isclose(fast.makespan, slow.makespan,
                        rel_tol=EQUIVALENCE_RTOL,
                        abs_tol=EQUIVALENCE_ATOL):
        raise AssertionError(
            f"makespan diverges: fastpath={fast.makespan!r} "
            f"executor={slow.makespan!r}")


def evaluate_plan(plan: StepPlan, ctx: ExecutionContext,
                  mode: str = "auto",
                  assert_equivalence: bool = False) -> PlanTiming:
    """Compute a plan's timing, choosing the engine automatically.

    Parameters
    ----------
    mode:
        ``"auto"`` (fast path when eligible, executor otherwise),
        ``"fastpath"`` (raise :class:`FastPathUnsupported` if not
        eligible), or ``"executor"``.
    assert_equivalence:
        Debug mode: run *both* engines and compare every op's start/end
        and the makespan at ``1e-9`` relative tolerance, raising
        ``AssertionError`` on any drift.  Returns the fast-path timing.
        The executor leg advances ``ctx.env`` and device state, so use a
        throwaway system.
    """
    if mode not in ("auto", "fastpath", "executor"):
        raise ValueError(f"unknown mode {mode!r}")
    if assert_equivalence:
        fast = fastpath_schedule(plan, ctx)
        slow = _executor_timing(plan, ctx)
        _assert_equal(fast, slow)
        return fast
    if mode == "executor":
        return _executor_timing(plan, ctx)
    if mode == "fastpath":
        return fastpath_schedule(plan, ctx)
    try:
        return fastpath_schedule(plan, ctx)
    except FastPathUnsupported:
        return _executor_timing(plan, ctx)
