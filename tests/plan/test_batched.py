"""Vectorized batch evaluation: grouping, equivalence, fallback paths."""

import dataclasses

import pytest

from repro.plan import (
    FastPathUnsupported,
    LaneIncompatible,
    PlanBuilder,
    evaluate_batch,
    evaluate_plan,
    fastpath_schedule,
    plan_structure_key,
)
from repro.plan import batched
from repro.plan.batched import FALLBACK_REASONS, _LaneResolver, _record
from repro.plan.fastpath import _Engine, _Tape
from repro.telemetry import Tracer
from repro.telemetry.profile import scale_plan

from . import test_group_collectives
from .test_fastpath import _compute, make_ctx, taxonomy_plan
from .test_fastpath_refusals import (
    REFUSALS,
    depth1_storage_ctx,
    rendezvous_tie_plan,
)


def scaled_lanes(ctx, factors=(0.5, 0.75, 1.0, 1.25, 2.0)):
    plan = taxonomy_plan()
    return [(scale_plan(plan, "compute", f), ctx) for f in factors]


@pytest.fixture
def replay_small_groups(monkeypatch):
    """Let the 2-4 lane groups of a test record and replay a tape."""
    monkeypatch.setattr(batched, "_MIN_REPLAY_LANES", 2)


class TestStructureKey:
    def test_scaling_preserves_key(self):
        ctx = make_ctx()
        lanes = scaled_lanes(ctx)
        keys = {plan_structure_key(p, c) for p, c in lanes}
        assert len(keys) == 1

    def test_extra_op_changes_key(self):
        ctx = make_ctx(world=1)
        b = PlanBuilder("step", world_size=1)
        _compute(b, 0, "forward")
        one = b.build()
        b = PlanBuilder("step", world_size=1)
        f = _compute(b, 0, "forward")
        _compute(b, 0, "backward", deps=[f])
        two = b.build()
        assert plan_structure_key(one, ctx) != plan_structure_key(two, ctx)

    def test_zero_byte_short_circuit_changes_key(self):
        # A transfer under epsilon takes the no-flow path; lanes on the
        # two sides of the threshold must not share a tape.
        ctx = make_ctx(world=1)

        def plan(nbytes):
            b = PlanBuilder("step", world_size=1)
            b.h2d(0, "input", nbytes)
            return b.build()

        assert plan_structure_key(plan(1e6), ctx) != \
            plan_structure_key(plan(0.0), ctx)

    def test_separate_systems_same_key(self):
        # Structure is nominal (device/node names), so lanes built on
        # independent ComposableSystem instances still group.
        assert plan_structure_key(taxonomy_plan(), make_ctx()) == \
            plan_structure_key(taxonomy_plan(), make_ctx())


class TestEquivalence:
    def test_batched_matches_scalar_exactly(self):
        ctx = make_ctx()
        lanes = scaled_lanes(ctx)
        res = evaluate_batch(lanes, assert_equivalence=True)
        assert res.groups == 1
        assert res.batched_lanes == len(lanes)
        assert res.fallback_lanes == 0
        for (plan, c), timing in zip(lanes, res.timings):
            assert timing.mode == "batched"
            scalar = evaluate_plan(plan, c, mode="fastpath")
            # Replay drives the same float arithmetic in the same
            # order, so agreement is bit-exact, not just 1e-9.
            assert timing.op_times == scalar.op_times
            assert timing.makespan == scalar.makespan

    def test_tolerance_criterion(self):
        ctx = make_ctx()
        lanes = scaled_lanes(ctx)
        res = evaluate_batch(lanes)
        for (plan, c), timing in zip(lanes, res.timings):
            scalar = evaluate_plan(plan, c, mode="fastpath")
            for uid, (s, e) in timing.op_times.items():
                assert s == pytest.approx(scalar.op_times[uid][0],
                                          rel=1e-9, abs=1e-12)
                assert e == pytest.approx(scalar.op_times[uid][1],
                                          rel=1e-9, abs=1e-12)

    def test_empty_input(self):
        res = evaluate_batch([])
        assert res.timings == []
        assert res.groups == 0


@pytest.mark.usefixtures("replay_small_groups")
class TestGrouping:
    def test_two_structures_two_groups(self):
        ctx = make_ctx()
        ctx1 = make_ctx(world=1)
        lanes = scaled_lanes(ctx, factors=(1.0, 2.0))
        b = PlanBuilder("solo", world_size=1)
        _compute(b, 0, "forward")
        solo = b.build()
        lanes += [(scale_plan(solo, "compute", f), ctx1)
                  for f in (1.0, 2.0)]
        res = evaluate_batch(lanes)
        assert res.groups == 2
        assert res.batched_lanes == 4

    def test_singleton_group_falls_back(self):
        ctx = make_ctx()
        res = evaluate_batch([(taxonomy_plan(), ctx)])
        assert res.groups == 1
        assert res.batched_lanes == 0
        assert res.fallback_lanes == 1
        assert res.timings[0].mode == "fastpath"

    def test_ineligible_lane_uses_fallback_mode(self):
        ctx = make_ctx()
        traced = make_ctx()
        traced.tracer = Tracer(traced.env)
        lanes = scaled_lanes(ctx, factors=(1.0, 2.0))
        lanes.append((taxonomy_plan(), traced))
        res = evaluate_batch(lanes, fallback="auto")
        assert res.batched_lanes == 2
        assert res.timings[2].mode == "executor"


def chain_plan(s1, s2):
    """Two delay->compute chains on one rank; delays set stream order."""
    b = PlanBuilder("step", world_size=1)
    d1 = b.delay(0, "stall-a", seconds=s1)
    _compute(b, 0, "a", deps=[d1])
    d2 = b.delay(0, "stall-b", seconds=s2)
    _compute(b, 0, "b", deps=[d2])
    return b.build()


@pytest.mark.usefixtures("replay_small_groups")
class TestDivergence:
    def test_flipped_order_falls_back_scalar(self):
        ctx = make_ctx(world=1)
        lanes = [(chain_plan(0.1, 0.2), ctx),   # reference: a before b
                 (chain_plan(0.11, 0.2), ctx),  # same order -> batched
                 (chain_plan(0.2, 0.1), ctx)]   # flipped -> guard fires
        res = evaluate_batch(lanes)
        assert res.diverged == [2]
        assert res.batched_lanes == 2
        assert res.timings[2].mode == "fastpath"
        for (plan, c), timing in zip(lanes, res.timings):
            scalar = evaluate_plan(plan, c, mode="fastpath")
            assert timing.op_times == scalar.op_times

    def test_refused_reference_sends_group_scalar(self):
        # Back-to-back rendezvous joins trip the scalar engine's tie
        # refusal while *recording*; the whole group must fall back to
        # per-lane evaluation (which, under "auto", runs the executor).
        ctx0, ctx1 = make_ctx(world=1), make_ctx(world=1)
        b = PlanBuilder("step", world_size=1)
        g = b.collective(0, "g1", "allreduce", 1e6)
        b.collective(0, "g2", "allreduce", 1e6, deps=[g])
        plan = b.build()
        res = evaluate_batch([(plan, ctx0), (plan, ctx1)],
                             fallback="auto")
        assert res.batched_lanes == 0
        assert res.fallback_lanes == 2
        assert all(t.mode == "executor" for t in res.timings)


def slow_ctx():
    """A context whose every link runs at half the default bandwidth."""
    ctx = make_ctx()
    for link in ctx.topology.links():
        link.spec = dataclasses.replace(
            link.spec, bandwidth=link.spec.bandwidth * 0.5)
    return ctx


@pytest.mark.usefixtures("replay_small_groups")
class TestRatePrecondition:
    def test_capacity_mismatch_is_lane_incompatible(self):
        ctx_ref = make_ctx()
        ctx_slow = slow_ctx()
        plan = taxonomy_plan()
        tape = _record(plan, ctx_ref)
        with pytest.raises(LaneIncompatible, match="capacit"):
            _LaneResolver(tape, plan, ctx_slow).resolve()

    def test_capacity_mismatch_falls_back_via_api(self):
        ctx_ref = make_ctx()
        ctx_slow = slow_ctx()
        plan = taxonomy_plan()
        lanes = [(plan, ctx_ref), (scale_plan(plan, "compute", 1.5),
                                   ctx_ref), (plan, ctx_slow)]
        res = evaluate_batch(lanes)
        assert res.batched_lanes == 2
        assert res.fallback_lanes == 1
        slow_scalar = evaluate_plan(plan, ctx_slow, mode="fastpath")
        assert res.timings[2].op_times == slow_scalar.op_times


class TestFallbackMode:
    def test_unknown_fallback_raises_when_a_lane_falls_back(self):
        # A singleton group always falls back, so the mode is consulted.
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            evaluate_batch([(taxonomy_plan(), make_ctx())],
                           fallback="bogus")


def _traced_ctx():
    ctx = make_ctx()
    ctx.tracer = Tracer(ctx.env)
    return ctx


#: Reason code -> (lanes factory, fallback mode, expected reasons), each
#: at the default replay threshold.
REASON_CASES = {
    "unsupported": (
        lambda: [(taxonomy_plan(), _traced_ctx())], "auto",
        {0: "unsupported"}),
    "small_group": (
        lambda: scaled_lanes(make_ctx(), factors=(1.0, 2.0)), "fastpath",
        {0: "small_group", 1: "small_group"}),
    "record_refused": (
        lambda: [(rendezvous_tie_plan(), make_ctx()) for _ in range(5)],
        "auto", dict.fromkeys(range(5), "record_refused")),
    "lane_incompatible": (
        lambda: scaled_lanes(make_ctx(), factors=(0.5, 1.0, 1.5, 2.0))
        + [(taxonomy_plan(), slow_ctx())],
        "fastpath", {4: "lane_incompatible"}),
    "diverged": (
        lambda: [(chain_plan(s1, s2), make_ctx(world=1))
                 for s1, s2 in ((0.1, 0.2), (0.11, 0.2), (0.12, 0.2),
                                (0.13, 0.2), (0.2, 0.1))],
        "fastpath", {4: "diverged"}),
}


class TestFallbackReasons:
    @pytest.mark.parametrize("code", FALLBACK_REASONS)
    def test_code_is_reported_deterministically(self, code):
        lanes_factory, mode, expected = REASON_CASES[code]
        lanes = lanes_factory()
        res = evaluate_batch(lanes, fallback=mode)
        assert res.fallback_reasons == expected
        assert res.fallback_lanes == len(expected)
        assert res.batched_lanes == len(lanes) - len(expected)
        assert res.diverged == [i for i, why in expected.items()
                                if why == "diverged"]
        again = evaluate_batch(lanes_factory(), fallback=mode)
        assert again.fallback_reasons == res.fallback_reasons


class TestReplayThreshold:
    def test_four_lane_group_runs_scalar(self, monkeypatch):
        ctx = make_ctx()
        lanes = scaled_lanes(ctx, factors=(0.5, 1.0, 1.5, 2.0))
        res = evaluate_batch(lanes)
        assert res.batched_lanes == 0
        assert res.fallback_reasons == dict.fromkeys(range(4),
                                                     "small_group")
        monkeypatch.setattr(batched, "_MIN_REPLAY_LANES", 2)
        replayed = evaluate_batch(lanes)
        assert replayed.batched_lanes == 4
        for scalar, timing in zip(res.timings, replayed.timings):
            assert scalar.mode == "fastpath"
            assert timing.mode == "batched"
            assert scalar.op_times == timing.op_times
            assert scalar.makespan == timing.makespan

    def test_five_lane_group_replays(self):
        lanes = scaled_lanes(make_ctx(),
                             factors=(0.5, 1.0, 1.5, 2.0, 2.5))
        res = evaluate_batch(lanes)
        assert res.batched_lanes == 5
        assert res.fallback_reasons == {}
        assert all(t.mode == "batched" for t in res.timings)


def storage_plan():
    """Checkpoint shards queueing behind each other for storage."""
    b = PlanBuilder("ckpt", world_size=1)
    prev = []
    for i in range(3):
        f = _compute(b, 0, f"fwd-{i}", deps=prev, flops=1e11 * (i + 1))
        w = b.storage_write(0, f"shard-{i}", 4e6, deps=[f])
        prev = [f]
    b.storage_read(0, "reload", 4e6, deps=[f, w])
    return b.build()


def grouped_case():
    _system, ctx = test_group_collectives.make_ctx()
    return test_group_collectives.grouped_plan(), ctx


#: Plans whose recording must reproduce the scalar run exactly.
RECORDED = {
    "taxonomy": lambda: (taxonomy_plan(), make_ctx()),
    "grouped": grouped_case,
    "storage": lambda: (storage_plan(), depth1_storage_ctx()),
}


class TestRecordingParity:
    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_recording_run_times_equal_scalar(self, name):
        plan, ctx = RECORDED[name]()
        tape = _Tape()
        recorded = _Engine(plan, ctx, tape=tape).run()
        assert tape.op_regs.keys() == recorded.op_times.keys()
        assert recorded.op_times == fastpath_schedule(plan, ctx).op_times

    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_recording_refuses_like_scalar(self, name):
        plan_factory, ctx_factory, _match = REFUSALS[name]
        with pytest.raises(FastPathUnsupported) as scalar:
            fastpath_schedule(plan_factory(), ctx_factory())
        with pytest.raises(FastPathUnsupported) as recorded:
            _record(plan_factory(), ctx_factory())
        assert str(recorded.value) == str(scalar.value)
