"""Fluid flow model with max-min fair bandwidth sharing.

Data movement in the composable system is modelled as *fluid flows*: a
transfer of ``nbytes`` over a sequence of directed link segments streams
at a rate determined by max-min fair sharing of every link direction it
crosses (progressive filling / water-filling).  Whenever the set of active
flows changes, affected rates are recomputed and the next completion is
rescheduled — the classic event-driven fluid simulation used by
flow-level network simulators.

The timeline itself — the insertion-ordered live flows, their delivery
updates, drain detection and the next-completion horizon — is
:class:`FluidTimeline`.  It is the one copy of that arithmetic: the
event-loop :class:`FlowScheduler` and the fast-path plan engine
(:mod:`repro.plan.fastpath`) are thin adapters over it that differ only
in how they schedule the horizon timer and announce completions.

Rate assignment is **incremental** (:class:`~repro.fabric.maxmin.
MaxMinSolver`): a flow add/remove/kill or a capacity change re-solves
only the affected connected component of the contention graph, so a
fleet of independent jobs sharing one scheduler stays O(component), not
O(all flows), per event.  The batch water-filler
(:func:`~repro.fabric.maxmin.water_fill`) is kept as the reference
oracle: :meth:`FlowScheduler.assert_rates_equivalent` cross-checks the
incremental state against it at 1e-9.

This captures the two congestion phenomena the paper observes:

- multiple GPUs funnelling through one Falcon host port share its
  bandwidth fairly, and
- p2p traffic inside a drawer does not contend with host-port traffic
  (separate links).

Per-segment byte accounting is pushed into each link's directional
counters on every timeline advance, so port ingress/egress rate series
(paper Fig. 12) are exact for piecewise-constant rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..sim import Environment, Event
from .link import Link
from .maxmin import MaxMinSolver

__all__ = ["FlowScheduler", "FluidTimeline", "Flow", "Segment"]

#: Bytes below which a flow is considered drained (guards float error).
_EPSILON_BYTES = 1e-6
#: Remaining stream time below which a flow is force-completed.  Without
#: this, float rounding can leave a residual whose completion horizon is
#: smaller than the clock's ulp, so simulated time stops advancing and the
#: scheduler would spin forever.
_EPSILON_SECONDS = 1e-9


@dataclass(frozen=True)
class Segment:
    """One directed hop of a flow: ``src -> dst`` over ``link``."""

    link: Link
    src: str
    dst: str
    #: Hashable identity of the directed capacity this segment uses.
    #: Precomputed: the rate solver touches it millions of times.
    key: tuple = None          # type: ignore[assignment]
    #: The directional byte counter (cached for the accounting hot path).
    counter: object = None     # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.link.direction(self.src, self.dst)  # validates
        object.__setattr__(self, "key",
                           (self.link.id, self.src, self.dst))
        object.__setattr__(self, "counter",
                           self.link.counters[(self.src, self.dst)])

    @property
    def capacity(self) -> float:
        """Current per-direction bandwidth (reads the live link spec, so
        lane retraining applies to in-flight flows)."""
        return self.link.spec.bandwidth


def _link_keys(link: Link) -> tuple[tuple, tuple]:
    """Both directed-capacity keys of a link (the solver's index keys)."""
    return ((link.id, link.a, link.b), (link.id, link.b, link.a))


class Flow:
    """An active transfer streaming over a set of directed segments.

    ``id`` is assigned by the scheduler's timeline when the flow starts.
    """

    def __init__(self, segments: Sequence[Segment], nbytes: float,
                 done: Event, label: str = ""):
        self.id = 0
        self.segments = tuple(segments)
        #: Byte counters the timeline credits as the flow delivers.
        self.counters = tuple(seg.counter for seg in self.segments)
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.done = done
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Flow {self.id} {self.label!r} "
                f"{self.remaining:.0f}/{self.nbytes:.0f}B @ {self.rate:.3g}B/s>")


class FluidTimeline:
    """Insertion-ordered live flows rated by one incremental solver.

    A flow is anything with ``segments``, ``remaining``, ``rate`` and
    ``counters`` (the byte counters to credit on delivery; an empty
    tuple keeps the timeline from touching any device state).  Ids are
    1-based and issued in arrival order.  The owner drives the update
    order: :meth:`advance` to the event time, :meth:`add`/:meth:`remove`,
    then ``solver.solve()`` and :meth:`horizon` to re-arm its timer.
    """

    __slots__ = ("flows", "solver", "last_update", "generation",
                 "_last_id")

    def __init__(self, now: float = 0.0):
        #: id -> flow, in arrival order.
        self.flows: dict = {}
        self.solver = MaxMinSolver()
        self.last_update = now
        #: Bumped at every :meth:`horizon`; a timer armed under an older
        #: generation has been superseded.
        self.generation = 0
        self._last_id = 0

    def add(self, flow) -> int:
        """Index a new flow; returns its id."""
        self._last_id += 1
        self.flows[self._last_id] = flow
        self.solver.add(flow)
        return self._last_id

    def remove(self, flow_id: int):
        """Drop and unindex a flow; returns it."""
        flow = self.flows.pop(flow_id)
        self.solver.remove(flow)
        return flow

    def advance(self, now: float) -> None:
        """Deliver the bytes every flow accrued since the last update."""
        dt = now - self.last_update
        self.last_update = now
        if dt <= 0:
            return
        for flow in self.flows.values():
            delivered = min(flow.remaining, flow.rate * dt)
            if delivered > 0:
                flow.remaining -= delivered
                for counter in flow.counters:
                    counter.add(now, delivered)

    def drained(self) -> list:
        """Ids of the flows that have (numerically) finished, in order."""
        return [fid for fid, flow in self.flows.items()
                if flow.remaining <= _EPSILON_BYTES
                or (flow.rate > 0
                    and flow.remaining / flow.rate <= _EPSILON_SECONDS)]

    def horizon(self) -> Optional[float]:
        """Start a new timer generation; time to the next completion
        under the current rates (``None`` with no live flows)."""
        self.generation += 1
        if not self.flows:
            return None
        return min(f.remaining / f.rate for f in self.flows.values()
                   if f.rate > 0)


class FlowScheduler:
    """Event-driven fluid simulation of concurrent transfers.

    Usage::

        done = scheduler.start_flow(segments, nbytes)
        yield done          # fires when the last byte is delivered
    """

    def __init__(self, env: Environment):
        self.env = env
        self._timeline = FluidTimeline(env.now)
        #: Completed flow count (introspection / tests).
        self.completed = 0

    @property
    def active_flows(self) -> list[Flow]:
        return list(self._timeline.flows.values())

    def poke(self, link: Optional[Link] = None) -> None:
        """Force an immediate rate recomputation.

        Call after mutating link capacities (retrain/degradation) so
        in-flight flows adopt the new rates without waiting for the next
        natural arrival/completion event.  Passing the changed ``link``
        confines the re-solve to its contention component; with no
        argument every component is re-solved (unknown change).
        """
        self._timeline.advance(self.env.now)
        if link is None:
            self._timeline.solver.touch_all()
        else:
            self._timeline.solver.touch(*_link_keys(link))
        self._recompute()

    def kill_flows_on(self, link: Link, cause: Exception) -> int:
        """Fail every in-flight flow crossing ``link`` (cable pull).

        Each affected flow's done event fails with ``cause``; waiting
        processes see the exception at their ``yield``.  Returns the
        number of flows killed.  Victims come from the per-link flow
        index — O(victims), not O(flows x segments).
        """
        timeline = self._timeline
        timeline.advance(self.env.now)
        victims = sorted(timeline.solver.flows_on(*_link_keys(link)),
                         key=lambda flow: flow.id)
        for flow in victims:
            timeline.remove(flow.id)
            flow.done.fail(cause)
        if victims:
            self._recompute()
        return len(victims)

    def start_flow(self, segments: Iterable[Segment], nbytes: float,
                   label: str = "") -> Event:
        """Begin streaming ``nbytes`` over ``segments``; returns done event.

        A zero-byte or zero-segment flow completes immediately (the caller
        is responsible for any fixed latency; see ``Topology.transfer``).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        done = self.env.event()
        segments = tuple(segments)
        if nbytes <= _EPSILON_BYTES or not segments:
            # Nothing to stream: still account the bytes for traffic stats.
            for seg in segments:
                seg.link.account(self.env.now, seg.src, seg.dst, nbytes)
            done.succeed(nbytes)
            self.completed += 1
            return done
        flow = Flow(segments, nbytes, done, label)
        self._timeline.advance(self.env.now)
        flow.id = self._timeline.add(flow)
        self._recompute()
        return done

    # -- equivalence oracle ------------------------------------------------
    def assert_rates_equivalent(self, rtol: float = 1e-9) -> None:
        """Cross-check current rates against batch water-filling."""
        self._timeline.solver.assert_equivalent(rtol)

    # -- internals -------------------------------------------------------
    def _recompute(self) -> None:
        """Complete drained flows, re-assign fair rates, re-arm the timer."""
        timeline = self._timeline
        now = self.env.now
        for fid in timeline.drained():
            flow = timeline.remove(fid)
            if flow.remaining > 0:
                # Account the float-rounding residual so byte conservation
                # holds exactly on the link counters.
                for seg in flow.segments:
                    seg.link.account(now, seg.src, seg.dst, flow.remaining)
                flow.remaining = 0.0
            self.completed += 1
            flow.done.succeed(flow.nbytes)
        timeline.solver.solve()
        horizon = timeline.horizon()
        if horizon is None:
            return
        gen = timeline.generation
        timer = self.env.timeout(horizon)
        timer.callbacks.append(lambda _evt: self._on_timer(gen))

    def _on_timer(self, generation: int) -> None:
        if generation != self._timeline.generation:
            return  # superseded by a later recompute
        self._timeline.advance(self.env.now)
        self._recompute()
