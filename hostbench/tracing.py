"""Outside-in layer tracer for the host-time benchmark.

The simulator's own code is never edited: :class:`LayerTracer` wraps the
public entry points of each ``repro`` layer while it is installed and
restores the originals when it is removed.  Every wrapper counts its
calls; *timed* wrappers also keep a stack of open layer spans so that a
layer's self time is its inclusive time minus the time of nested wrapped
calls (of any layer).

Work that no wrapped call covers is charged to the nearest enclosing
timed span.  In the event-loop simulator that is usually
``Environment.step``: timer callbacks (``FlowScheduler._on_timer``) and
process bodies resumed by the kernel (the plan executor's rank
generators, the training loop, the fleet scheduler's dispatch) are
private or generator code, so their time lands in ``sim.self_s``.

A wrapped name is replaced where its callers look it up: methods on
their class, module functions in every loaded ``repro`` module whose
globals hold the same function object (``from .validate import
assert_valid`` style imports included).
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Probe", "PROBES", "LayerTracer", "COUNTERS", "TIMED_LAYERS"]


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point.

    ``target`` is ``"module:qualname"``.  ``layer`` names the layer its
    self time is charged to (``None`` = count only, no timing).
    ``count`` is the counter bumped once per call; ``before``/``after``
    add argument- or result-derived counts; ``failure`` is an
    ``("module:ExceptionName", counter)`` pair counted (and re-raised)
    when the call raises that exception.
    """

    target: str
    layer: Optional[str]
    count: Optional[str] = None
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    failure: Optional[tuple] = None


def _arg(index: int, name: str, default=0.0):
    """Fetch a call argument by position (self included) or keyword."""
    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[index] if len(args) > index else default
    return get


_nbytes = _arg(2, "nbytes")


def _flow_bytes(c, args, kwargs):
    c["flows.bytes"] += _nbytes(args, kwargs)


def _collective_bytes(c, args, kwargs):
    c["collectives.bytes"] += _nbytes(args, kwargs)


def _live_flows(c, args, kwargs):
    c["maxmin.live_flows"] += len(args[0])


def _rerated(c, args, kwargs, result):
    c["maxmin.rerated"] += result


def _lanes(c, args, kwargs):
    c["batched.lanes"] += len(_arg(0, "lanes", ())(args, kwargs))


def _batch_result(c, args, kwargs, result):
    c["batched.groups"] += result.groups
    c["batched.batched_lanes"] += result.batched_lanes
    c["batched.fallback_lanes"] += result.fallback_lanes
    c["batched.diverged_lanes"] += len(result.diverged)


def _steps(c, args, kwargs, result):
    c["loop.steps"] += result.steps_simulated


_COLLECTIVES = ("allreduce", "reduce_scatter", "allgather", "broadcast",
                "reduce", "barrier")

#: Every wrapped entry point, grouped by layer.
PROBES: tuple = (
    # repro.sim
    Probe("repro.sim.core:Environment.step", "sim", "sim.events"),
    Probe("repro.sim.core:Process.__init__", None, "sim.processes"),
    Probe("repro.sim.monitor:CounterMonitor.add", "monitor",
          "monitor.credits"),
    Probe("repro.sim.monitor:TimeSeries.record", "monitor"),
    # repro.fabric
    Probe("repro.fabric.flows:FlowScheduler.start_flow", "flows",
          "flows.started", before=_flow_bytes),
    Probe("repro.fabric.flows:FlowScheduler.poke", "flows"),
    Probe("repro.fabric.flows:FlowScheduler.kill_flows_on", "flows"),
    Probe("repro.fabric.maxmin:MaxMinSolver.solve", "maxmin",
          "maxmin.solves", before=_live_flows, after=_rerated),
    Probe("repro.fabric.maxmin:MaxMinSolver.solve_full", "maxmin",
          "maxmin.solves", before=_live_flows, after=_rerated),
    Probe("repro.fabric.maxmin:MaxMinSolver.add", "maxmin"),
    Probe("repro.fabric.maxmin:MaxMinSolver.remove", "maxmin"),
    Probe("repro.fabric.topology:Topology.transfer", None,
          "topology.transfers"),
    Probe("repro.fabric.topology:Topology.route", None, "topology.routes"),
    # repro.training
    *(Probe(f"repro.training.collectives:Communicator.{name}", None,
            "collectives.calls", before=_collective_bytes)
      for name in _COLLECTIVES),
    Probe("repro.training.loop:TrainingJob.collect", None, after=_steps),
    # repro.plan
    Probe("repro.plan.executor:PlanExecution.__init__", None,
          "executor.plans"),
    Probe("repro.plan.passes.manager:PassManager.run", "passes",
          "passes.runs"),
    Probe("repro.plan.validate:validate_plan", "validate",
          "validate.calls"),
    Probe("repro.plan.validate:assert_valid", "validate"),
    Probe("repro.plan.diff:diff_plans", "diff", "diff.calls"),
    Probe("repro.plan.fastpath:fastpath_schedule", "fastpath",
          "fastpath.calls",
          failure=("repro.plan.fastpath:FastPathUnsupported",
                   "fastpath.refusals")),
    Probe("repro.plan.fastpath:evaluate_plan", "fastpath"),
    Probe("repro.plan.batched:evaluate_batch", "batched",
          before=_lanes, after=_batch_result),
    # repro.telemetry
    Probe("repro.telemetry.profile:what_if", "profile",
          "profile.what_if_calls"),
    # repro.management + repro.core.fleet
    Probe("repro.management.inventory:Inventory.attach", "management",
          "inventory.attaches",
          failure=("repro.management.inventory:InventoryError",
                   "inventory.attach_failed")),
    Probe("repro.management.inventory:Inventory.detach", "management"),
    Probe("repro.core.fleet:ComposableFleet.admit", "management",
          "fleet.admits",
          failure=("repro.core.fleet:FleetError", "fleet.admit_failed")),
    Probe("repro.core.fleet:ComposableFleet.release", "management"),
    Probe("repro.core.fleet:ComposableFleet.free_gpus", "management"),
)

#: Layers with a ``<layer>.self_s`` metric.
TIMED_LAYERS: tuple = tuple(dict.fromkeys(
    p.layer for p in PROBES if p.layer is not None))

#: Every raw counter the probes (and the compile-memo read) maintain.
COUNTERS: tuple = (
    "sim.events", "sim.processes", "monitor.credits",
    "flows.started", "flows.bytes",
    "maxmin.solves", "maxmin.live_flows", "maxmin.rerated",
    "topology.transfers", "topology.routes",
    "collectives.calls", "collectives.bytes",
    "loop.steps", "loop.compile_hits", "loop.compile_misses",
    "executor.plans", "passes.runs", "validate.calls", "diff.calls",
    "fastpath.calls", "fastpath.refusals",
    "batched.lanes", "batched.groups", "batched.batched_lanes",
    "batched.fallback_lanes", "batched.diverged_lanes",
    "profile.what_if_calls",
    "inventory.attaches", "inventory.attach_failed",
    "fleet.admits", "fleet.admit_failed",
)


def _resolve(target: str):
    """``"module:Qual.name"`` -> (owner object, attribute name)."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class LayerTracer:
    """Install/remove the probes; accumulate counts and self times.

    Use as a context manager around the traced region::

        tracer = LayerTracer()
        with tracer:
            run_workload()
        tracer.counts, tracer.self_s
    """

    def __init__(self):
        self.counts: dict = dict.fromkeys(COUNTERS, 0)
        self.self_s: dict = dict.fromkeys(TIMED_LAYERS, 0.0)
        self._restore: list = []
        # Open timed spans; each frame accumulates the inclusive time of
        # the wrapped calls nested inside it.
        self._stack: list = []

    def reset(self) -> None:
        for key in self.counts:
            self.counts[key] = 0
        for key in self.self_s:
            self.self_s[key] = 0.0

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for probe in PROBES:
            owner, attr = _resolve(probe.target)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = self._wrap(probe, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            # Module function: rebind every loaded repro module global
            # that holds this exact function object.
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "repro"
                                       or name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, probe: Probe, fn):
        counts = self.counts
        count = probe.count
        before, after = probe.before, probe.after
        # ``except ()`` matches nothing: probes without a failure counter.
        exc_type, exc_counter = (), None
        if probe.failure is not None:
            owner, attr = _resolve(probe.failure[0])
            exc_type, exc_counter = getattr(owner, attr), probe.failure[1]

        if probe.layer is None:
            def counted(*args, **kwargs):
                if count is not None:
                    counts[count] += 1
                if before is not None:
                    before(counts, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(counts, args, kwargs, result)
                return result
            return counted

        self_s = self.self_s
        layer = probe.layer
        clock = time.perf_counter
        stack = self._stack
        push, pop = stack.append, stack.pop

        def timed(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if before is not None:
                before(counts, args, kwargs)
            frame = [0.0]
            push(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except exc_type:
                counts[exc_counter] += 1
                raise
            finally:
                elapsed = clock() - t0
                pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(counts, args, kwargs, result)
            return result
        return timed
