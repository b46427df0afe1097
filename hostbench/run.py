"""Host-time benchmark of the repro simulator.

Usage (from the repository root)::

    python3 hostbench/run.py --workload fig16|autotune|fleet \\
        --seed N --seconds S --trace 0|1

Each run is one single-threaded process (BLAS/OpenMP pools pinned to
one thread) with no process pool and no result cache.  It first times
the workload's set-up several times, each in a fresh interpreter, then
runs the workload's cells round-robin until ``--seconds`` have passed
(at least one full round), clearing the step-plan compile memo before
every cell so each cell costs what it costs in a fresh ``repro``
process.

Every timing is scaled to the host's reference speed by a calibration
kernel timed right before and right after it (see ``calibrate.py``), so
that the host's own speed drift cancels; the raw seconds are reported
beside the metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
whole untraced rounds with whole rounds that have every layer wrapped
(see ``tracing.py``), at least two traced rounds and one untraced round
between them, more while another pair fits before the deadline, and
reports the per-layer metrics.  Every output is
checked against committed references; a traced run also checks that
its counts repeat exactly across rounds and that its outputs equal the
untraced round's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds provenance and per-cell detail.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy can be imported.
THREAD_PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from calibrate import calibrate, scale  # noqa: E402
from tracing import COUNTERS, TIMED_LAYERS, LayerTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_ROUNDS = 9
#: Minimum traced (and untraced) rounds of a traced run, so count
#: repeatability is always checked.
MIN_TRACED_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "plan_evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Counters reported as metrics (the batched-lane count only feeds
#: ``batched.hit_ratio``).
_COUNT_METRICS = tuple(c for c in COUNTERS if c != "batched.batched_lanes")


#: Every per-layer metric name -> unit, in report order.
PER_LAYER = {
    **{name: "count" for name in _COUNT_METRICS},
    "flows.bytes": "bytes",
    "collectives.bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in TIMED_LAYERS},
    "sim.host_us_per_event": "us",
    "maxmin.rerate_ratio": "ratio",
    "batched.hit_ratio": "ratio",
    "fleet.claim_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: What one set-up round runs in a fresh interpreter: import ``repro``
#: and build the workload's inputs.
_SETUP_CODE = """\
import sys
sys.path[:0] = [{src!r}, {here!r}]
import repro
from workloads import WORKLOADS
WORKLOADS[{name!r}]().setup({seed!r})
"""


def timed_setup(name: str, seed: int, rounds: int = SETUP_ROUNDS):
    """Raw and scaled seconds (see ``calibrate.py``) of ``rounds``
    set-ups, each from process start through ``import repro`` and
    building the inputs, in a fresh interpreter under this process's
    thread pin."""
    code = _SETUP_CODE.format(src=str(SRC), here=str(HERE), name=name,
                              seed=seed)
    times, scaled = [], []
    before = calibrate()
    for _ in range(rounds):
        t0 = time.perf_counter()
        # A blocking wait: with a timeout, Popen.wait polls with sleeps
        # of up to 50 ms, which would quantize the measurement.
        child = subprocess.Popen([sys.executable, "-c", code],
                                 stdin=subprocess.DEVNULL,
                                 stdout=subprocess.DEVNULL)
        status = child.wait()
        times.append(time.perf_counter() - t0)
        if status:
            raise RuntimeError(f"set-up of {name} exited with {status}")
        after = calibrate()
        scaled.append(scale(times[-1], before, after))
        before = after
    return times, scaled


def build_workload(name: str, seed: int):
    workload = WORKLOADS[name]()
    workload.setup(seed)
    workload.load_references()
    return workload


class Round:
    """One pass over the cells (all of them, or the first few when it
    was cut at the deadline): raw and scaled seconds, outputs and
    failures."""

    def __init__(self):
        self.seconds: list = []
        self.scaled: list = []
        self.outputs: list = []
        self.problems: list = []
        self.failed = 0


def run_round(workload, tracer=None, deadline=None) -> Round:
    """Run every cell once, or stop before the first cell that would
    start after ``deadline``; with a tracer, also add each cell's
    step-plan compile-memo hits and misses to its counts.

    The calibration kernel runs before the first cell and after every
    cell, and each cell's seconds are scaled by the two runs around it.
    """
    from repro.training.loop import (
        clear_plan_compile_cache,
        plan_compile_stats,
    )

    out = Round()
    before = calibrate()
    for cell in workload.cells:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        clear_plan_compile_cache()
        gc.collect()
        t0 = time.perf_counter()
        try:
            output = workload.run(cell)
            raised = None
        except Exception:  # a raising cell is a failed cell; keep going
            output = None
            raised = traceback.format_exc()
        out.seconds.append(time.perf_counter() - t0)
        after = calibrate()
        out.scaled.append(scale(out.seconds[-1], before, after))
        before = after
        out.outputs.append(output)
        if raised is not None:
            out.problems.append(f"{workload.label(cell)}: raised\n{raised}")
            out.failed += 1
            continue
        if tracer is not None:
            stats = plan_compile_stats()
            tracer.counts["loop.compile_hits"] += stats["hits"]
            tracer.counts["loop.compile_misses"] += stats["misses"]
        problems = workload.check(cell, output)
        if problems:
            out.failed += 1
            out.problems.extend(problems)
    return out


def cell_samples(rounds, kind: str = "scaled") -> list:
    """Per cell, its ``kind`` (``"scaled"`` or ``"seconds"``) seconds in
    every round that reached it."""
    return [[getattr(r, kind)[i] for r in rounds if i < len(r.seconds)]
            for i in range(len(rounds[0].seconds))]


def cell_medians(rounds, kind: str = "scaled") -> list:
    return [statistics.median(samples)
            for samples in cell_samples(rounds, kind)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counts: dict, self_s: dict, untraced_wall: float,
                  traced_wall: float) -> dict:
    values = {name: counts[name] for name in _COUNT_METRICS}
    values.update({f"{layer}.self_s": self_s[layer]
                   for layer in TIMED_LAYERS})
    admits_and_attaches = counts["fleet.admits"] + counts[
        "inventory.attaches"]
    values.update({
        "sim.host_us_per_event": _ratio(untraced_wall * 1e6,
                                        counts["sim.events"]),
        "maxmin.rerate_ratio": _ratio(counts["maxmin.rerated"],
                                      counts["maxmin.live_flows"]),
        "batched.hit_ratio": _ratio(counts["batched.batched_lanes"],
                                    counts["batched.lanes"]),
        "fleet.claim_ratio": _ratio(
            admits_and_attaches - counts["fleet.admit_failed"]
            - counts["inventory.attach_failed"], admits_and_attaches),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def provenance(args) -> dict:
    from repro.experiments.perfbench import collect_provenance

    # Keep the git probe inside the checkout: outside a repository it
    # reports "unknown" instead of walking up into parent directories.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(HERE.parent.parent)
    prov = collect_provenance()
    prov.update({
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_pin": {var: os.environ.get(var) for var in THREAD_PIN_VARS},
    })
    return prov


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    setup_raw, setup_scaled = timed_setup(args.workload, args.seed)
    workload = build_workload(args.workload, args.seed)
    evals = sum(workload.plan_evals(c) for c in workload.cells)
    problems: list = []
    start = time.perf_counter()
    deadline = start + args.seconds
    untraced = [run_round(workload)]
    traced: list = []
    counts: list = []
    self_times: list = []
    if args.trace:
        tracer = LayerTracer()
        pair_s = 0.0
        # After the minimum, start another (untraced, traced) pair only
        # if one as long as the last still ends by the deadline.
        while len(traced) < MIN_TRACED_ROUNDS \
                or time.perf_counter() + pair_s <= deadline:
            pair_start = time.perf_counter()
            # Alternate untraced and traced rounds so that the overhead
            # ratio compares rounds run under the same machine load.
            if traced:
                untraced.append(run_round(workload))
            tracer.reset()
            with tracer:
                traced.append(run_round(workload, tracer))
            counts.append(dict(tracer.counts))
            self_times.append(dict(tracer.self_s))
            pair_s = time.perf_counter() - pair_start
        if any(c != counts[0] for c in counts[1:]):
            problems.append("per-layer counts differ between traced rounds")
        for r in traced:
            if r.outputs != untraced[0].outputs:
                problems.append("traced outputs differ from untraced ones")
                break
        traced_evals = workload.traced_plan_evals(counts[0])
        if traced_evals != evals:
            problems.append(f"traced plan evaluations {traced_evals} "
                            f"!= expected {evals}")
    else:
        while time.perf_counter() < deadline:
            untraced.append(run_round(workload, deadline=deadline))

    rounds = untraced + traced
    attempted = sum(len(r.seconds) for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        problems.extend(r.problems)

    medians = cell_medians(untraced)
    wall_s = sum(medians)
    if args.trace:
        traced_wall = sum(cell_medians(traced))
        self_s = {layer: statistics.median(t[layer] for t in self_times)
                  for layer in TIMED_LAYERS}
        metrics = layer_metrics(counts[0], self_s, wall_s, traced_wall)
    else:
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": wall_s,
            "plan_evals_per_s": evals / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    detail = {
        "provenance": provenance(args),
        "untraced_rounds": len(untraced),
        "traced_rounds": len(traced),
        "run_s": time.perf_counter() - start,
        "raw_setup_s": statistics.median(setup_raw),
        "raw_wall_s": sum(cell_medians(untraced, "seconds")),
        "setup_rounds_s": {"raw": setup_raw, "scaled": setup_scaled},
        "cell_samples_s": {
            workload.label(c): {"raw": raw, "scaled": scaled}
            for c, raw, scaled in zip(workload.cells,
                                      cell_samples(untraced, "seconds"),
                                      cell_samples(untraced))},
        "problems": problems[:20],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
