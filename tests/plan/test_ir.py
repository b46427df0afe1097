"""Plan IR: builder uid scheme, StepPlan invariants, formatting."""

import pytest

from repro.devices.gpu import Precision
from repro.plan import (
    Collective,
    Compute,
    PlanBuilder,
    PlanError,
    StepPlan,
    format_plan,
)
from repro.plan.ir import collective_schedule


def _compute(b, rank, name, deps=()):
    return b.compute(rank, name, flops=1e9, hbm_bytes=1e6,
                     precision=Precision.FP16, efficiency=0.5, deps=deps)


class TestPlanBuilder:
    def test_uids_are_deterministic(self):
        b = PlanBuilder("p", world_size=2)
        assert _compute(b, 0, "forward") == "r0:forward"
        assert _compute(b, 1, "forward") == "r1:forward"
        # Repeats get an @n suffix in creation order.
        assert _compute(b, 0, "forward") == "r0:forward@1"
        assert _compute(b, 0, "forward") == "r0:forward@2"

    def test_two_compiles_yield_identical_uids(self):
        def compile_once():
            b = PlanBuilder("p", world_size=2)
            f = _compute(b, 0, "forward")
            b.collective(0, "grad", "allreduce", 1e6, deps=[f])
            return [op.uid for op in b.build()]

        assert compile_once() == compile_once()

    def test_rank_out_of_range(self):
        b = PlanBuilder("p", world_size=2)
        with pytest.raises(PlanError, match="out of range"):
            _compute(b, 2, "forward")

    def test_unknown_collective_kind(self):
        b = PlanBuilder("p", world_size=2)
        with pytest.raises(PlanError, match="unknown collective"):
            b.collective(0, "x", "gossip", 1e6)

    def test_p2p_rejects_self_copy(self):
        b = PlanBuilder("p", world_size=2)
        with pytest.raises(PlanError, match="sending rank itself"):
            b.p2p(0, "send", 0, 1e6)

    def test_dangling_dep_rejected_at_build(self):
        b = PlanBuilder("p", world_size=1)
        b.barrier(0, deps=["r0:nonexistent"])
        with pytest.raises(PlanError, match="unknown op"):
            b.build()

    def test_none_deps_are_dropped(self):
        b = PlanBuilder("p", world_size=1)
        f = _compute(b, 0, "forward")
        b.barrier(0, deps=[None, f, None])
        plan = b.build()
        assert plan.op("r0:barrier").deps == (f,)

    def test_conservation_declaration_lands_in_meta(self):
        b = PlanBuilder("p", world_size=1)
        b.declare_conservation("gradients", 5e9)
        assert b.build().meta["conservation"] == {"gradients": 5e9}


class TestStepPlan:
    def _plan(self):
        b = PlanBuilder("p", world_size=2)
        for rank in range(2):
            f = _compute(b, rank, "forward")
            g = b.collective(rank, "grad", "allreduce", 1e6, deps=[f])
            _compute(b, rank, "optimizer", deps=[g])
        return b.build()

    def test_duplicate_uid_rejected(self):
        op = Compute(uid="x", rank=0, name="x", deps=(), flops=1.0,
                     hbm_bytes=0.0, precision=Precision.FP16,
                     efficiency=0.5)
        with pytest.raises(PlanError, match="duplicate"):
            StepPlan("p", 1, [op, op])

    def test_by_rank_preserves_program_order(self):
        plan = self._plan()
        assert [op.name for op in plan.by_rank(1)] == \
            ["forward", "grad", "optimizer"]

    def test_counts_and_bytes(self):
        plan = self._plan()
        assert plan.counts() == {"compute": 4, "collective": 2}
        assert plan.critical_path_bytes() == pytest.approx(2e6)

    def test_topo_order_respects_deps(self):
        order = [op.uid for op in self._plan().topo_order()]
        assert order.index("r0:forward") < order.index("r0:grad") \
            < order.index("r0:optimizer")

    def test_lookup_and_membership(self):
        plan = self._plan()
        assert isinstance(plan.op("r0:grad"), Collective)
        assert "r1:optimizer" in plan and "r9:optimizer" not in plan
        with pytest.raises(PlanError, match="no op"):
            plan.op("r9:optimizer")


class TestFormatPlan:
    def test_listing_mentions_every_op_and_meta(self):
        b = PlanBuilder("demo", world_size=2, meta={"strategy": "test"})
        f = _compute(b, 0, "forward")
        b.collective(0, "grad", "allreduce", 25e6, deps=[f])
        _compute(b, 1, "forward")
        b.declare_conservation("gradients", 25e6)
        text = format_plan(b.build())
        assert "plan demo  world=2" in text
        assert "strategy: test" in text
        assert "conservation: gradients=25.00MB" in text
        assert "rank 0:" in text and "rank 1:" in text
        assert "allreduce" in text

    def test_rank_filter(self):
        b = PlanBuilder("demo", world_size=2)
        _compute(b, 0, "forward")
        _compute(b, 1, "forward")
        text = format_plan(b.build(), ranks=[1])
        assert "rank 1:" in text and "rank 0:" not in text


class TestCollectiveSchedule:
    # (kind, n, root) -> (phases, ring, hops), written out by hand.
    TABLE = [
        ("allreduce", 1, None, (0, True, ((0, 0),))),
        ("allreduce", 2, None, (2, True, ((0, 1), (1, 0)))),
        ("allreduce", 3, None, (4, True, ((0, 1), (1, 2), (2, 0)))),
        ("allreduce", 4, None,
         (6, True, ((0, 1), (1, 2), (2, 3), (3, 0)))),
        ("reduce_scatter", 1, None, (0, True, ((0, 0),))),
        ("reduce_scatter", 3, None, (2, True, ((0, 1), (1, 2), (2, 0)))),
        ("all_gather", 2, None, (1, True, ((0, 1), (1, 0)))),
        ("all_gather", 4, None,
         (3, True, ((0, 1), (1, 2), (2, 3), (3, 0)))),
        ("broadcast", 1, None, (1, False, ())),
        ("broadcast", 2, None, (1, False, ((0, 1),))),
        ("broadcast", 3, 2, (1, False, ((2, 0), (2, 1)))),
        ("broadcast", 4, 1, (1, False, ((1, 0), (1, 2), (1, 3)))),
        ("reduce", 1, 0, (1, False, ())),
        ("reduce", 2, 1, (1, False, ((0, 1),))),
        ("reduce", 3, None, (1, False, ((1, 0), (2, 0)))),
        ("reduce", 4, 3, (1, False, ((0, 3), (1, 3), (2, 3)))),
    ]

    @pytest.mark.parametrize("kind,n,root,want", TABLE)
    def test_table(self, kind, n, root, want):
        assert collective_schedule(kind, n, root) == want

    @pytest.mark.parametrize("ir_name,comm_name", [
        ("all_gather", "allgather"),
        ("allreduce", "allreduce"),
        ("reduce_scatter", "reduce_scatter"),
        ("broadcast", "broadcast"),
        ("reduce", "reduce"),
    ])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ir_and_communicator_names_agree(self, ir_name, comm_name, n):
        root = n - 1
        assert collective_schedule(ir_name, n, root) == \
            collective_schedule(comm_name, n, root)

    @pytest.mark.parametrize("kind", ["all_to_all", "barrier", ""])
    def test_unknown_kind_raises(self, kind):
        with pytest.raises(PlanError, match="unknown collective kind"):
            collective_schedule(kind, 4)
