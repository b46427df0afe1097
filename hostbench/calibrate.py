"""A fixed kernel that measures how fast the host runs right now.

The benchmark's timings are scaled by it.  On a shared host the CPU
speed of one process drifts by 10-30% over minutes, which moves every
host-time figure by as much, whatever the code does.  Timing this kernel
right before and right after each measured span and dividing by it
removes that common factor.

The kernel is a stand-in for the simulator's own mix, not a copy of any
of it, so no change to ``repro`` can change its speed.  It runs a small
event loop (heap, dicts, sets, slotted objects, float arithmetic), like
the DES and the flow solver, and a loop of small-array numpy gathers and
reductions, like the batched lane replay.  Garbage collection is off
while it runs, so the size of the caller's heap does not change its
time.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

import numpy as np

#: The kernel's median seconds on the 2-vCPU container the benchmark was
#: tuned on.  Scaled seconds are raw seconds x REFERENCE_S / kernel
#: seconds, so on that host they read close to raw seconds.
REFERENCE_S = 0.065

_LINKS = 64
_LIVE_FLOWS = 200
_EVENTS = 3000
_VECTOR_STEPS = 1500


class _Flow:
    __slots__ = ("links", "rate")

    def __init__(self, links):
        self.links = links
        self.rate = 0.0


def _event_loop() -> float:
    rng = random.Random(7)
    capacity = [1.0 + i % 5 for i in range(_LINKS)]
    on_link = [set() for _ in range(_LINKS)]
    flows: dict = {}
    heap: list = []

    def start(fid, now):
        links = tuple(rng.sample(range(_LINKS), 3))
        flows[fid] = _Flow(links)
        for link in links:
            on_link[link].add(fid)
        heapq.heappush(heap, (now + rng.expovariate(1.0), fid))

    for fid in range(_LIVE_FLOWS):
        start(fid, 0.0)
    next_fid = _LIVE_FLOWS
    for _ in range(_EVENTS):
        now, fid = heapq.heappop(heap)
        done = flows.pop(fid)
        for link in done.links:
            on_link[link].discard(fid)
        for link in done.links:
            share = capacity[link] / (len(on_link[link]) or 1)
            for other in on_link[link]:
                flow = flows[other]
                flow.rate = min(share, 0.5 * (flow.rate + share))
        start(next_fid, now)
        next_fid += 1
    return sum(flow.rate for flow in flows.values())


def _vector_loop() -> float:
    rng = np.random.default_rng(3)
    table = rng.random((24, 12))
    rows = rng.integers(0, 24, size=16)
    acc = np.zeros(12)
    for _ in range(_VECTOR_STEPS):
        picked = table[rows]
        peak = np.maximum(picked[:8], picked[8:])
        acc = np.minimum(acc + peak.sum(axis=0), 1e9)
        table[rows[:4]] = 0.5 * peak[:4]
    return float(acc.sum())


def calibrate() -> float:
    """Seconds the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _event_loop()
        _vector_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the kernel's seconds
    right before and right after the measured span."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
