"""Self-tests of the host-time benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest hostbench/tests -q

They drive single cells of each workload in-process, so they take
seconds, not the minutes of a full benchmark run.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
from calibrate import REFERENCE_S, calibrate, scale  # noqa: E402
from tracing import LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Autotune,
    Fig16,
    Fleet,
    stratified_trace,
)

from repro.sim.monitor import CounterMonitor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WALL_BOUND = next(m["bound"] for m in SPEC["end_to_end"]
                  if m["name"] == "wall_s")


def _workload(cls, labels, seed=0):
    """A workload whose cells are restricted to ``labels``."""
    workload = cls()
    workload.setup(seed)
    workload.load_references()
    workload.cells = [c for c in workload.cells
                      if workload.label(c) in labels]
    assert len(workload.cells) == len(labels)
    return workload


def _small_workloads():
    return [
        _workload(Fig16, {"localGPUs/Pipeline-FP16"}),
        _workload(Autotune, {"localGPUs/DP-FP16"}),
        _workload(Fleet, {"trace"}, seed=1),
    ]


def _traced_round(workload):
    tracer = LayerTracer()
    with tracer:
        result = bench_run.run_round(workload, tracer)
    return result, dict(tracer.counts), dict(tracer.self_s)


# -- the benchmark's declaration matches what run.py reports -------------

def test_benchmark_json_lists_every_reported_metric():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == bench_run.PER_LAYER
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == bench_run.END_TO_END
    assert [w["name"] for w in SPEC["workloads"]] == ["autotune", "fleet"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_setup_is_timed_in_a_fresh_interpreter():
    raw, scaled = bench_run.timed_setup("fleet", 0, rounds=2)
    assert len(raw) == len(scaled) == 2
    # Interpreter start plus numpy and repro imports cannot be free.
    assert min(raw) > 0.05 and min(scaled) > 0.05


def test_scaling_cancels_a_uniform_host_slowdown():
    assert scale(1.0, REFERENCE_S, REFERENCE_S) == pytest.approx(1.0)
    # Host twice as slow: the span and the kernel both take twice as long.
    assert scale(2.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(1.0)
    assert calibrate() > 0


def test_rounds_cut_at_the_deadline_keep_per_cell_samples():
    full, cut = bench_run.Round(), bench_run.Round()
    full.seconds = full.scaled = [1.0, 2.0, 3.0]
    cut.seconds = cut.scaled = [3.0]
    assert bench_run.cell_samples([full, cut]) == [[1.0, 3.0], [2.0], [3.0]]
    assert bench_run.cell_medians([full, cut]) == [2.0, 2.0, 3.0]


# -- references --------------------------------------------------------------

@pytest.mark.parametrize("index", [0, 1, 2], ids=["fig16", "autotune",
                                                  "fleet"])
def test_outputs_match_references(index):
    workload = _small_workloads()[index]
    result = bench_run.run_round(workload)
    assert result.failed == 0, result.problems


def test_perturbed_reference_is_a_failure():
    fig16, autotune, fleet = _small_workloads()
    key = "localGPUs/Pipeline-FP16"
    fig16.reference[key] *= 1 + 1e-6
    cell = autotune.reference[("localGPUs", "DP-FP16")]
    cell["candidates"][0]["makespan_s"] *= 1 + 1e-6
    fleet.reference[0][5] *= 1 + 1e-6
    for workload in (fig16, autotune, fleet):
        result = bench_run.run_round(workload)
        assert result.failed == 1
        assert result.problems


def test_autotune_dropped_lane_or_wrong_winner_is_a_failure():
    workload = _workload(Autotune, {"falconGPUs/DDP-FP16"})
    cell = workload.cells[0]
    output = workload.run(cell)
    assert workload.check(cell, output) == []
    dropped = dict(output, candidates=output["candidates"][:-1])
    assert workload.check(cell, dropped)
    winner = output["tuned_candidate"]
    other = next(c["label"] for c in output["candidates"]
                 if c["label"] != winner)
    assert workload.check(cell, dict(output, tuned_candidate=other))


def test_fleet_seed_without_reference_uses_invariants():
    workload = _workload(Fleet, {"trace"}, seed=10_000)
    assert workload.reference is None
    result = bench_run.run_round(workload)
    assert result.failed == 0, result.problems
    output = result.outputs[0]
    assert output["checks"]["ok"]


def test_stratified_trace_keeps_the_work_fixed_across_seeds():
    def mix(trace):
        return sorted((r.gpus, r.strategy, r.benchmark, r.sim_steps)
                      for r in trace)
    a, b = stratified_trace(0, 48, 5.0), stratified_trace(1, 48, 5.0)
    assert mix(a) == mix(b)
    assert [r.arrival for r in a] != [r.arrival for r in b]
    assert stratified_trace(0, 48, 5.0) == a
    assert {r.gpus for r in a} == {1, 2, 4, 8}


# -- traced runs ---------------------------------------------------------------

def test_traced_counts_repeat_and_outputs_are_unchanged():
    for workload in _small_workloads():
        plain = bench_run.run_round(workload)
        first, counts_a, _ = _traced_round(workload)
        second, counts_b, _ = _traced_round(workload)
        assert counts_a == counts_b
        assert first.outputs == plain.outputs == second.outputs
        evals = sum(workload.plan_evals(c) for c in workload.cells)
        assert workload.traced_plan_evals(counts_a) == evals


def test_tracer_restores_every_wrapped_name():
    import repro.plan.passes.manager as manager
    import repro.plan.validate as validate
    from repro.sim.core import Environment

    before = (Environment.step, manager.assert_valid,
              validate.validate_plan, CounterMonitor.add)
    with LayerTracer():
        assert manager.assert_valid is not before[1]
        assert Environment.step is not before[0]
    assert (Environment.step, manager.assert_valid,
            validate.validate_plan, CounterMonitor.add) == before


def test_layers_are_seen_on_the_workloads_that_run_them():
    fig16, autotune, fleet = _small_workloads()
    _, fig16_counts, _ = _traced_round(fig16)
    _, tune_counts, tune_self = _traced_round(autotune)
    _, fleet_counts, _ = _traced_round(fleet)
    assert fig16_counts["sim.events"] > 0
    assert fig16_counts["monitor.credits"] > 0
    assert fig16_counts["flows.started"] > 0
    assert fig16_counts["maxmin.solves"] > 0
    assert tune_counts["sim.events"] == 0
    assert tune_counts["monitor.credits"] == 0
    assert tune_counts["batched.lanes"] == len(autotune.candidates)
    assert tune_counts["passes.runs"] > 0
    assert tune_counts["diff.calls"] > 0
    assert tune_counts["profile.what_if_calls"] > 0
    assert tune_self["batched"] > 0
    assert fleet_counts["inventory.attaches"] > 0
    assert fleet_counts["fleet.admits"] > 0


# -- layer attribution: a slowdown injected in one layer ----------------------

#: Busy-wait added to every ``CounterMonitor.add`` call.
DELAY_S = 10e-6


def _slow_monitor(mp):
    original = CounterMonitor.add
    clock = time.perf_counter

    def delayed(self, t, amount):
        end = clock() + DELAY_S
        while clock() < end:
            pass
        return original(self, t, amount)

    mp.setattr(CounterMonitor, "add", delayed)


def _walls(workload, repeats=3):
    """Median untraced scaled seconds, as ``wall_s`` counts them, without
    and with the injected delay, alternating so both sides sample the
    same machine conditions."""
    base, slow = [], []
    for _ in range(repeats):
        base.append(sum(bench_run.run_round(workload).scaled))
        with pytest.MonkeyPatch.context() as mp:
            _slow_monitor(mp)
            slow.append(sum(bench_run.run_round(workload).scaled))
    return statistics.median(base), statistics.median(slow)


def test_monitor_delay_shows_on_fig16_only():
    fig16 = _workload(Fig16, {"falconGPUs/Sharded-FP16"})
    autotune = _workload(Autotune, {"localGPUs/Pipeline-FP16"})

    _, base_counts, base_self = _traced_round(fig16)
    with pytest.MonkeyPatch.context() as mp:
        _slow_monitor(mp)
        _, counts, self_s = _traced_round(fig16)
        tune_result, tune_counts, _ = _traced_round(autotune)
    base_wall, wall = _walls(fig16)
    base_tune, tune = _walls(autotune)

    injected = counts["monitor.credits"] * DELAY_S
    assert counts == base_counts
    assert self_s["monitor"] - base_self["monitor"] > 0.8 * injected
    # The other layers do not absorb the injected time.
    for layer in ("sim", "flows", "maxmin"):
        assert self_s[layer] - base_self[layer] < 0.2 * injected
    assert wall > base_wall * (1 + WALL_BOUND)
    assert tune_counts["monitor.credits"] == 0
    assert tune_result.failed == 0
    assert tune <= base_tune * (1 + WALL_BOUND)


# -- the command line --------------------------------------------------------

def test_cli_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "fleet",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
