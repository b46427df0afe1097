"""Every fast-path refusal must degrade, not fail: ``mode="auto"``
falls back to the event-loop executor and the engines agree.

The scalar engine refuses plans whose semantics it cannot prove it
preserves — stochastic jitter, FIFO admission ties, rendezvous ties,
watchdog races, storage-queue ties.  Refusal is only safe if the public
entry point turns it into an executor evaluation with the *same*
timings an explicit executor run produces; these tests pin that
contract for each refusal path.
"""

import dataclasses

import pytest

from repro.core import ComposableSystem
from repro.plan import (
    ExecutionContext,
    FastPathUnsupported,
    PlanBuilder,
    evaluate_plan,
    fastpath_schedule,
)
from repro.training import Communicator

from .test_fastpath import _compute, make_ctx


def assert_times_agree(a, b):
    assert a.op_times.keys() == b.op_times.keys()
    for uid, (s, e) in a.op_times.items():
        s2, e2 = b.op_times[uid]
        assert s == pytest.approx(s2, rel=1e-9, abs=1e-12), uid
        assert e == pytest.approx(e2, rel=1e-9, abs=1e-12), uid
    assert a.makespan == pytest.approx(b.makespan, rel=1e-9, abs=1e-12)


def assert_falls_back(plan_factory, ctx_factory, match):
    """The refusal fires, auto degrades to the executor, engines agree.

    Fresh contexts per evaluation: the executor leg advances env and
    device state, so the comparison run needs its own world.
    """
    with pytest.raises(FastPathUnsupported, match=match):
        fastpath_schedule(plan_factory(), ctx_factory())
    auto = evaluate_plan(plan_factory(), ctx_factory(), mode="auto")
    assert auto.mode == "executor"
    explicit = evaluate_plan(plan_factory(), ctx_factory(),
                             mode="executor")
    assert_times_agree(auto, explicit)
    return auto


# -- refusal cases: (plan factory, ctx factory, message match) ---------------

def jitter_plan():
    b = PlanBuilder("step", world_size=1)
    f = _compute(b, 0, "forward", jittered=True)
    _compute(b, 0, "opt", deps=[f], flops=1e11)
    return b.build()


def fifo_tie_plan():
    # Two root computes on one rank are ready at t=0: the engine cannot
    # prove which one the stream admits first.
    b = PlanBuilder("step", world_size=1)
    _compute(b, 0, "a")
    _compute(b, 0, "b")
    return b.build()


def rendezvous_tie_plan():
    # Back-to-back collectives whose join arrivals coincide: the
    # rendezvous matcher cannot order the groups.
    b = PlanBuilder("step", world_size=2)
    for rank in range(2):
        b.collective(rank, "g1", "allreduce", 1e6)
        b.collective(rank, "g2", "allreduce", 1e6)
    return b.build()


def watchdog_ctx():
    # A watchdog shorter than a rank's join-to-completion wait.
    system = ComposableSystem()
    active = system.configure("localGPUs")
    gpus = list(active.gpus)[:2]
    comm = Communicator(system.env, system.topology,
                        [g.name for g in gpus], gpus=gpus,
                        watchdog=1e-12)
    return ExecutionContext(
        env=system.env, comm=comm, gpus=gpus,
        topology=system.topology,
        host_node=system.host.dram_node,
        storage=active.storage)


def watchdog_plan():
    b = PlanBuilder("step", world_size=2)
    for rank in range(2):
        # Skew the arrivals so the collective itself is not a t=0 tie —
        # the watchdog is the only refusal left.
        f = _compute(b, rank, "fwd", flops=1e12 * (1 + rank))
        b.collective(rank, "grad", "allreduce", 1e6, deps=[f])
    return b.build()


def depth1_storage_ctx():
    c = make_ctx(world=1)
    c.storage.spec = dataclasses.replace(c.storage.spec, queue_depth=1)
    return c


def storage_tie_plan():
    # Three root writes against a depth-1 command queue, all ready at
    # t=0: admission order is the event loop's to decide.
    b = PlanBuilder("ckpt", world_size=1)
    for i in range(3):
        b.storage_write(0, f"shard-{i}", 1e6)
    return b.build()


#: Every fast-path refusal path, by name.
REFUSALS = {
    # Constant sampler: the executor stays deterministic, so two
    # independent executor runs must also land identically.
    "jitter": (jitter_plan, lambda: make_ctx(world=1, jitter=lambda: 1.0),
               "jitter"),
    "fifo": (fifo_tie_plan, lambda: make_ctx(world=1), "FIFO"),
    "rendezvous": (rendezvous_tie_plan, make_ctx, "rendezvous"),
    "watchdog": (watchdog_plan, watchdog_ctx, "watchdog"),
    "storage": (storage_tie_plan, depth1_storage_ctx, "admission"),
}


class TestRefusalFallbacks:
    def test_stochastic_jitter(self):
        # An opaque sampler might draw differently on replay; the fast
        # path refuses rather than freeze one sample per op.
        assert_falls_back(*REFUSALS["jitter"])

    def test_fifo_admission_tie(self):
        assert_falls_back(*REFUSALS["fifo"])

    def test_rendezvous_tie(self):
        assert_falls_back(*REFUSALS["rendezvous"])

    def test_watchdog_race(self):
        # The fast path cannot decide whether the simulated job
        # survives, so the event loop must deliver the verdict.  Here
        # the race is real — both the auto fallback and an explicit
        # executor run raise the *simulated* failure, not
        # FastPathUnsupported.
        from repro.training import CollectiveTimeout

        with pytest.raises(FastPathUnsupported, match="watchdog"):
            fastpath_schedule(watchdog_plan(), watchdog_ctx())
        with pytest.raises(CollectiveTimeout):
            evaluate_plan(watchdog_plan(), watchdog_ctx(), mode="auto")
        with pytest.raises(CollectiveTimeout):
            evaluate_plan(watchdog_plan(), watchdog_ctx(), mode="executor")

    def test_storage_admission_tie(self):
        assert_falls_back(*REFUSALS["storage"])


class TestBatchedFallback:
    def test_refused_lanes_fall_back_inside_a_batch(self, monkeypatch):
        # The batched evaluator inherits the same contract: a group
        # whose reference recording refuses degrades lane-by-lane.
        from repro.plan import batched
        from repro.plan.batched import evaluate_batch

        monkeypatch.setattr(batched, "_MIN_REPLAY_LANES", 2)
        lanes = [(rendezvous_tie_plan(), make_ctx()) for _ in range(3)]
        result = evaluate_batch(lanes, fallback="auto")
        assert result.batched_lanes == 0
        assert result.fallback_lanes == 3
        for timing in result.timings:
            assert timing.mode == "executor"
        assert_times_agree(result.timings[0], result.timings[1])
