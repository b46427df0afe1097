"""Perf benchmark suite: the simulator's own speed (tier 2).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` or via
``python -m repro perfbench``.  These assert the perf properties the
fast-path engine was built for:

- fast-path plan evaluation beats the event-loop executor per cell,
- the Fig. 16 grid regenerates >=5x faster than the serial event-loop
  study while producing the same values,
- ``BENCH_<date>.json`` reports carry a stable, diffable schema.
"""

import json

from repro.experiments.perfbench import (
    bench_batched_grid,
    bench_fig16_grid,
    bench_plan_eval,
    run_perfbench,
    write_bench_report,
)


def test_fastpath_beats_executor_overall():
    rows = bench_plan_eval(smoke=True, reps=2)
    assert rows, "smoke grid produced no cells"
    for row in rows:
        # Per-cell wall-clock is noisy on loaded CI runners; no single
        # cell may crater, and the mean must favor the fast path.
        assert row["speedup"] > 0.5, (
            f"fast path cratered on "
            f"{row['configuration']}/{row['variant']}: "
            f"{row['speedup']:.2f}x")
        assert row["sim_step_seconds"] > 0.0
    mean = sum(r["speedup"] for r in rows) / len(rows)
    assert mean > 1.0, f"mean plan-eval speedup {mean:.2f}x"


def test_fig16_grid_speedup_and_equivalence():
    grid = bench_fig16_grid(smoke=True)
    assert grid["values_match"], (
        f"fast-path grid diverged from the event-loop study: "
        f"max relative error {grid['max_rel_err']:.2e}")
    assert grid["speedup"] >= 5.0, (
        f"fig16 grid speedup {grid['speedup']:.2f}x below the 5x floor")


def test_batched_grid_speedup_and_equivalence():
    grid = bench_batched_grid(smoke=True)
    assert grid["values_match"], (
        f"batched replay diverged from the scalar fast path: "
        f"max relative error {grid['max_rel_err']:.2e}")
    assert grid["speedup_vs_scalar"] >= 3.0, (
        f"batched grid speedup {grid['speedup_vs_scalar']:.2f}x "
        f"below the 3x floor")
    assert grid["lanes"] == grid["cells"] * len(grid["factors"])
    assert grid["batched_lanes"] + grid["fallback_lanes"] \
        == grid["lanes"]


def test_serial_run_omits_the_jobs_column():
    # --jobs 1 measures no pooled leg; the key is omitted (never a JSON
    # null) so the committed BENCH ledger stays schema-stable.
    grid = bench_fig16_grid(smoke=True)
    assert "fastpath_jobs_s" not in grid
    pooled = bench_fig16_grid(smoke=True, jobs=2)
    assert pooled["fastpath_jobs_s"] > 0.0


def test_bench_report_schema_and_write(tmp_path):
    report = run_perfbench(smoke=True, jobs=1, reps=1)
    for key in ("meta", "plan_eval", "fig16_grid", "batched_grid",
                "flow_churn"):
        assert key in report
    meta = report["meta"]
    for key in ("date", "python", "platform", "repro_version", "smoke"):
        assert key in meta
    assert "fastpath_jobs_s" not in report["fig16_grid"]
    assert report["batched_grid"]["speedup_vs_eventloop_study"] \
        >= report["batched_grid"]["speedup_vs_scalar"]
    path = write_bench_report(report, str(tmp_path))
    assert path.name == f"BENCH_{meta['date']}.json"
    loaded = json.loads(path.read_text())
    assert loaded["fig16_grid"]["values_match"] is True
    assert loaded["meta"]["smoke"] is True
