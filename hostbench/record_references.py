"""Record the benchmark's own output references.

Run from the repository root at a commit whose outputs are trusted::

    python3 hostbench/record_references.py

It writes ``hostbench/reference/fig16.json`` (Fig. 16 cells that
``tests/training/golden_fig16.json`` predates) and
``hostbench/reference/fleet.json`` (per-job host, GPU names, placement,
finish and step times of the fleet workload for seeds
``0..FLEET_SEEDS-1``).  Seeds outside that range are checked by the
fleet study's structural invariants instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFERENCE_DIR, REPO_ROOT, Fig16, Fleet  # noqa: E402

FLEET_SEEDS = 32


def record_fig16() -> dict:
    golden = json.loads((REPO_ROOT / "tests" / "training"
                         / "golden_fig16.json").read_text())
    workload = Fig16()
    workload.setup(0)
    values = {}
    for cell in workload.cells:
        key = workload.label(cell)
        if key not in golden["values"]:
            values[key] = workload.run(cell)
    return {"description": "Seconds per sample of the Fig. 16 cells "
            "golden_fig16.json predates (bert-large, 4 steps, 1 checkpoint).",
            "values": values}


def record_fleet() -> dict:
    seeds = {}
    for seed in range(FLEET_SEEDS):
        workload = Fleet()
        workload.setup(seed)
        output = workload.run(workload.trace)
        if not all(output["checks"].values()):
            raise SystemExit(f"seed {seed}: invariants failed")
        seeds[str(seed)] = workload.record(output)
    return {"description": "Per seed, per job: [job_id, host, gpu_names, "
            "placed_s, finished_s, step_time_s] of the fleet workload.",
            "jobs": Fleet.JOBS,
            "mean_interarrival_s": Fleet.MEAN_INTERARRIVAL,
            "seeds": seeds}


def _dump(payload: dict) -> str:
    """Indented JSON with each innermost list (one job) on one line."""
    def compact(value, depth):
        pad = " " * depth
        if isinstance(value, dict) and value:
            items = [f"{pad} {json.dumps(k)}: {compact(v, depth + 1)}"
                     for k, v in value.items()]
            return "{\n" + ",\n".join(items) + f"\n{pad}}}"
        if isinstance(value, list) and value \
                and all(isinstance(v, list) for v in value):
            items = [f"{pad} {json.dumps(v)}" for v in value]
            return "[\n" + ",\n".join(items) + f"\n{pad}]"
        return json.dumps(value)
    return compact(payload, 0) + "\n"


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, payload in (("fig16.json", record_fig16()),
                          ("fleet.json", record_fleet())):
        path = REFERENCE_DIR / name
        path.write_text(_dump(payload))
        print(f"wrote {path.relative_to(REPO_ROOT)}")


if __name__ == "__main__":
    main()
