"""Differential testing: every batched lane equals its own scalar run.

Random per-bucket cost rescalings of hand-built plans are evaluated as
one :func:`~repro.plan.batched.evaluate_batch` call; whether a lane is
replayed from the group's tape or diverges and falls back, its timing
must be bit-identical to :func:`~repro.plan.fastpath.fastpath_schedule`
on that lane alone.
"""

from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.plan import (
    FastPathUnsupported,
    PlanBuilder,
    batched,
    evaluate_batch,
    fastpath_schedule,
)
from repro.telemetry.profile import SCALE_BUCKETS, scale_plan

from .test_fastpath import _compute, make_ctx, taxonomy_plan


def mixed_plan(world=2):
    """Streams, rendezvous, copies, storage, and delays all present."""
    b = PlanBuilder("mixed", world_size=world)
    for rank in range(world):
        h = b.h2d(rank, "input", 4e6)
        f = _compute(b, rank, "forward", deps=[h])
        g = b.collective(rank, "grad", "allreduce", 32e6, deps=[f])
        o = _compute(b, rank, "opt", deps=[g], flops=1e11)
        d = b.delay(rank, "step-gap", seconds=1e-4,
                    elapsed_fraction=0.01, deps=[o])
        if rank == 0:
            dh = b.d2h(0, "ckpt", 8e6, deps=[d])
            b.storage_write(0, "ckpt-write", 8e6, deps=[dh])
    return b.build()


_FACTOR = st.floats(min_value=0.0, max_value=4.0, exclude_min=True)
_LANE = st.fixed_dictionaries({bucket: _FACTOR for bucket in SCALE_BUCKETS})


class TestDifferential:
    @settings(max_examples=20, deadline=None)
    @given(base=st.sampled_from([taxonomy_plan, mixed_plan]),
           lanes=st.lists(_LANE, min_size=2, max_size=4))
    def test_every_lane_equals_its_scalar_run(self, base, lanes):
        ctx = make_ctx()
        plans = []
        for factors in lanes:
            plan = base()
            for bucket, factor in factors.items():
                plan = scale_plan(plan, bucket, factor)
            plans.append(plan)
        scalar = []
        for plan in plans:
            try:
                scalar.append(fastpath_schedule(plan, ctx))
            except FastPathUnsupported:
                assume(False)
        # Replay every group, small ones included (a context manager,
        # since hypothesis runs many examples per function-scoped
        # fixture).
        with mock.patch.object(batched, "_MIN_REPLAY_LANES", 2):
            res = evaluate_batch([(plan, ctx) for plan in plans])
        for timing, expected in zip(res.timings, scalar):
            assert timing.op_times == expected.op_times
            assert timing.makespan == expected.makespan
