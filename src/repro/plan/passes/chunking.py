"""Topology-aware collective chunk sizing.

NCCL's transports stage collective payloads through fixed-size bounce
buffers; the staging penalty amortizes with chunk size, and the right
chunk size depends on the wire — a Falcon PCIe uplink wants far larger
staging chunks than an NVLink mesh to hide its per-chunk protocol
overhead (cf. ``NCCL_P2P_NET_CHUNKSIZE`` tuning on real fabrics).

This pass annotates every sized collective with a ``chunk_bytes`` picked
from the *measured* bottleneck bandwidth of the links the schedule will
actually traverse: ring collectives look at consecutive ring-neighbour
pairs of ``ctx.rank_nodes``, rooted collectives at root<->leaf paths.
The chunk covers ~1 ms of streaming on the bottleneck link, clamped to
[1 MB, 64 MB] and never above the payload itself.  The executor forwards
the annotation to the communicator, whose transport model scales its
staging penalty by sqrt(reference/chunk) — so Falcon-attached ranks see
most of their 2.2x byte-inflation amortized away while NVLink (already
near line rate) is essentially unchanged.

The chunk for each rendezvous slot is computed once (from rank 0's
collective sequence) and applied to the matching slot on every rank, so
the rank-symmetry invariant — which includes ``chunk_bytes`` — holds by
construction.  Bytes, dependencies, and op counts are untouched.
"""

from __future__ import annotations

from dataclasses import replace

from ...fabric.topology import NoRouteError
from ..ir import Barrier, Collective, StepPlan, collective_schedule
from .manager import PassContext, PassError, PlanPass

__all__ = ["CollectiveChunkSizing", "DEFAULT_CHUNK_BYTES"]

#: Fallback chunk when no topology is available to measure.
DEFAULT_CHUNK_BYTES = 8e6
#: Chunk covers this much streaming time on the bottleneck link.
_TARGET_SECONDS = 1e-3
_MIN_CHUNK = 1e6
_MAX_CHUNK = 64e6

class CollectiveChunkSizing(PlanPass):
    """Annotate collectives with bandwidth-derived staging chunk sizes."""

    name = "chunk-size"

    def __init__(self, target_seconds: float = _TARGET_SECONDS):
        if target_seconds <= 0:
            raise PassError("target_seconds must be positive")
        self.target_seconds = target_seconds

    def describe(self) -> str:
        return f"chunk-size(target={self.target_seconds * 1e3:g}ms)"

    # -- bandwidth probing -------------------------------------------------
    def _bottleneck(self, ctx: PassContext, op: Collective) -> float:
        """Min measured bandwidth over the links this op's schedule uses
        (0.0 when the context has nothing to measure, including a pair
        of nodes with no route between them)."""
        topo, nodes = ctx.topology, list(ctx.rank_nodes)
        if topo is None:
            return 0.0
        if op.group is not None:
            # Grouped collectives ring/star over the group's nodes only.
            nodes = [nodes[i] for i in op.group if i < len(nodes)]
            root_idx = op.group.index(op.root) if op.root is not None \
                else 0
        else:
            root_idx = op.root or 0
        if len(nodes) < 2:
            return 0.0
        _phases, _ring, hops = collective_schedule(op.comm, len(nodes),
                                                   root_idx)
        bw = []
        for i, j in hops:
            try:
                bw.append(topo.path_bandwidth(nodes[i], nodes[j]))
            except NoRouteError:
                return 0.0
        return min(bw) if bw else 0.0

    def _chunk_for(self, ctx: PassContext, op: Collective) -> float:
        bw = self._bottleneck(ctx, op)
        chunk = bw * self.target_seconds if bw > 0 else DEFAULT_CHUNK_BYTES
        chunk = min(max(chunk, _MIN_CHUNK), _MAX_CHUNK)
        return min(chunk, op.bytes)

    # -- rewrite -----------------------------------------------------------
    def run(self, plan: StepPlan, ctx: PassContext) -> StepPlan:
        from .bucketing import _comm_keys, _sync_ops

        sized: dict = {}        # uid -> annotated op
        # Slots are per communicator (group tuple or world): each
        # communicator's members share an identical slot sequence, and
        # the chunk computed from its first member applies to all.
        for key in _comm_keys(plan):
            member_ranks = range(plan.world_size) if key is None else key
            sync = [_sync_ops(plan, rank, key) for rank in member_ranks]
            if not sync or not sync[0]:
                continue
            chunks: dict = {}   # slot index -> chunk bytes
            for slot, op in enumerate(sync[0]):
                if isinstance(op, Collective) and op.bytes > 0 \
                        and op.chunk_bytes is None:
                    chunks[slot] = self._chunk_for(ctx, op)
            for rank_slots in sync:
                for slot, chunk in chunks.items():
                    op = rank_slots[slot]
                    sized[op.uid] = replace(op, chunk_bytes=chunk)
        if not sized:
            return plan
        ops = [sized.get(op.uid, op) for op in plan.ops]
        return StepPlan(plan.name, plan.world_size, ops, plan.meta)
