"""The benchmark's three workloads.

Each workload is a single closed batch job: a fixed list of *cells* run
back to back in one process, the next starting when the previous one
returns.  No process pool and no result cache are used.

A workload object provides:

- :meth:`setup` imports the ``repro`` modules it drives and builds the
  inputs (``setup_s`` times exactly this);
- :meth:`load_references` reads the committed reference outputs;
- :meth:`run` runs one cell and returns its simulated output (``wall_s``
  sums these, one median per cell);
- :meth:`check` compares an output with the committed reference and
  returns a list of problems (empty = correct);
- :meth:`plan_evals` is the number of simulated step plans a cell
  evaluates, the numerator of ``plan_evals_per_s``;
  :meth:`traced_plan_evals` reads the same number off a traced run's
  counters, which cross-checks it.

Workload modules are imported inside :meth:`setup`, never at module
level, so that a fresh import of ``repro`` can be timed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

__all__ = ["WORKLOADS", "Fig16", "Autotune", "Fleet", "REFERENCE_DIR",
           "REPO_ROOT", "stratified_trace"]

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Relative tolerance of every simulated-output comparison (the repo's
#: golden-test tolerance).
RTOL = 1e-9

_CONFIGS = ("localGPUs", "falconGPUs")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _grid_label(cell) -> str:
    config, variant = cell
    return f"{config}/{variant.name}"


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Fig16:
    """Paper Fig. 16 through the event-loop simulator.

    Cells: every (configuration, variant) of
    ``software_optimization_study`` for bert-large at 4 simulated steps
    and one checkpoint, the ``repro fig16 --steps 4`` grid.
    """

    name = "fig16"
    SIM_STEPS = 4
    SIM_CHECKPOINTS = 1

    def setup(self, seed: int) -> None:
        del seed  # the grid is fixed
        from repro.experiments.parallel import NullCache
        from repro.experiments.software_opts import (
            VARIANTS,
            software_optimization_study,
        )
        self._study = software_optimization_study
        self._cache = NullCache
        self.cells = [(config, variant) for config in _CONFIGS
                      for variant in VARIANTS]

    def load_references(self) -> None:
        golden = _read_json(REPO_ROOT / "tests" / "training"
                            / "golden_fig16.json")
        if golden["sim_steps"] != self.SIM_STEPS:
            raise ValueError("golden_fig16.json is not a 4-step golden")
        ref = {key: 1.0 / v["throughput"]
               for key, v in golden["values"].items()}
        # Variants that postdate the golden capture.
        ref.update(_read_json(REFERENCE_DIR / "fig16.json")["values"])
        self.reference = ref

    @staticmethod
    def label(cell) -> str:
        return _grid_label(cell)

    def run(self, cell) -> float:
        config, variant = cell
        out = self._study(configurations=(config,), variants=[variant],
                          sim_steps=self.SIM_STEPS, jobs=1,
                          cache=self._cache())
        return out[config][variant.name]

    def check(self, cell, output) -> list:
        key = self.label(cell)
        expected = self.reference.get(key)
        if expected is None:
            return [f"{key}: no reference"]
        if not _close(output, expected):
            return [f"{key}: seconds/sample {output!r} != {expected!r}"]
        return []

    def plan_evals(self, cell) -> int:
        return self.SIM_STEPS + self.SIM_CHECKPOINTS

    @staticmethod
    def traced_plan_evals(counts: dict) -> int:
        return counts["executor.plans"]


class Autotune:
    """The pass-parameter design-space sweep with what-if ceilings.

    Cells: the full Fig. 16 grid (12 configuration × variant cells),
    each tuned over the smoke candidate set (the stock default plus 11
    bucket-cap × chunk × overlap points) with one batched evaluation and
    what-if ceilings on the winner — ``autotune_cell`` as
    ``run_autotune`` calls it.
    """

    name = "autotune"

    def setup(self, seed: int) -> None:
        del seed  # the grid is fixed
        from repro.experiments.autotune import (
            autotune_cell,
            candidate_pipelines,
        )
        from repro.experiments.software_opts import VARIANTS
        self._tune = autotune_cell
        self.candidates = candidate_pipelines(smoke=True)
        self.cells = [(config, variant) for config in _CONFIGS
                      for variant in VARIANTS]

    def load_references(self) -> None:
        table = _read_json(REPO_ROOT / "TUNING.json")
        self.reference = {(c["configuration"], c["variant"]): c
                          for c in table["cells"]}

    @staticmethod
    def label(cell) -> str:
        return _grid_label(cell)

    def run(self, cell) -> dict:
        config, variant = cell
        return self._tune(config, variant, self.candidates,
                          what_if_ceilings=True)

    def check(self, cell, output) -> list:
        key = self.label(cell)
        ref = self.reference.get((cell[0], cell[1].name))
        if ref is None:
            return [f"{key}: not in TUNING.json"]
        problems = []
        labels = [c.label for c in self.candidates]
        got = [c["label"] for c in output["candidates"]]
        if got != labels:
            problems.append(f"{key}: candidates {got!r} != {labels!r}")
        ref_makespan = {c["label"]: c["makespan_s"]
                        for c in ref["candidates"]}
        for cand in output["candidates"]:
            label, makespan = cand["label"], cand["makespan_s"]
            expected = ref_makespan.get(label)
            if expected is None or not _close(makespan, expected):
                problems.append(f"{key} {label}: makespan {makespan!r} "
                                f"!= {expected!r}")
        # The smoke subset holds every TUNING.json winner, so the tuned
        # candidate and its what-if ceilings must match the full sweep's.
        if output["tuned_candidate"] != ref["tuned_candidate"]:
            problems.append(f"{key}: winner {output['tuned_candidate']!r} "
                            f"!= {ref['tuned_candidate']!r}")
        for bucket, expected in ref["whatif_ceilings_s"].items():
            value = output["whatif_ceilings_s"].get(bucket)
            if value is None or not _close(value, expected):
                problems.append(f"{key}: what-if {bucket} {value!r} "
                                f"!= {expected!r}")
        return problems

    def plan_evals(self, cell) -> int:
        return len(self.candidates)

    @staticmethod
    def traced_plan_evals(counts: dict) -> int:
        return counts["batched.lanes"]


def stratified_trace(seed: int, jobs: int, mean_interarrival: float):
    """A seeded trace whose job mix is the PAI-shaped default mix,
    realized exactly instead of sampled.

    The multiset of (GPUs, strategy, benchmark, steps) jobs depends only
    on ``jobs``: each of ``TraceConfig``'s mixes (benchmarks and step
    counts uniform) is apportioned by largest remainder and the
    attribute lists are paired by one fixed shuffle.  The
    seed draws the Poisson arrival gaps and the submission order, so
    every seed does the same amount of simulated work while contention,
    queueing and placement differ.
    """
    from repro.fleet import JobRequest, TraceConfig
    from repro.workloads import get_benchmark

    config = TraceConfig(jobs=jobs, mean_interarrival=mean_interarrival)

    def apportion(mix):
        quotas = [(value, weight * jobs) for value, weight in mix]
        counts = {value: int(q) for value, q in quotas}
        left = jobs - sum(counts.values())
        by_remainder = sorted(quotas, key=lambda vq: int(vq[1]) - vq[1])
        for value, _ in by_remainder[:left]:
            counts[value] += 1
        return [value for value, _ in mix for _ in range(counts[value])]

    lo, hi = config.sim_steps
    steps = list(range(lo, hi + 1))
    attributes = [apportion(config.gpu_mix),
                  apportion(config.strategy_mix),
                  apportion([(b, 1 / len(config.benchmarks))
                             for b in config.benchmarks]),
                  apportion([(s, 1 / len(steps)) for s in steps])]
    # A fixed pairing of the attribute lists: the same for every seed.
    pairing = random.Random(0)
    for values in attributes[1:]:
        pairing.shuffle(values)
    specs = list(zip(*attributes))
    rng = random.Random(seed)
    rng.shuffle(specs)
    requests = []
    t = 0.0
    for job_id, (n_gpus, strategy, benchmark, n_steps) in enumerate(specs):
        t += rng.expovariate(1.0 / mean_interarrival)
        per_gpu = max(1, get_benchmark(benchmark).global_batch // 8)
        requests.append(JobRequest(
            job_id=job_id, arrival=t, gpus=n_gpus, benchmark=benchmark,
            strategy=strategy, sim_steps=n_steps,
            global_batch=per_gpu * n_gpus))
    return tuple(requests)


class Fleet:
    """A seeded multi-job trace on ``FLEET_FOUR_CHASSIS``.

    One cell: the whole trace through ``ClusterScheduler`` on a fresh
    fleet, the body of ``fleet_study``.  The trace is
    :func:`stratified_trace`, twice the default study's 24 jobs.  Jobs
    arrive every 0.5 s on average, against runs of a few seconds, so a
    FIFO queue forms, some jobs spread across chassis, and some
    admissions fail on port exhaustion and are unwound.
    """

    name = "fleet"
    JOBS = 48
    MEAN_INTERARRIVAL = 0.5
    CHECKPOINTS_PER_JOB = 1

    def setup(self, seed: int) -> None:
        from repro.core.fleet import ComposableFleet
        from repro.core.presets import FLEET_FOUR_CHASSIS
        from repro.experiments.fleet import _invariants
        from repro.fleet import ClusterScheduler
        self._fleet = ComposableFleet
        self._spec = FLEET_FOUR_CHASSIS
        self._scheduler = ClusterScheduler
        self._invariants = _invariants
        self.seed = seed
        self.trace = stratified_trace(seed, self.JOBS,
                                      self.MEAN_INTERARRIVAL)
        self.cells = [self.trace]

    def load_references(self) -> None:
        refs = _read_json(REFERENCE_DIR / "fleet.json")
        self.reference = refs["seeds"].get(str(self.seed))

    @staticmethod
    def label(cell) -> str:
        return "trace"

    def run(self, cell):
        result = self._scheduler(self._fleet(self._spec)).run(cell)
        report = result.as_dict()
        report["meta"] = {"smoke": False}
        checks = self._invariants(report, len(cell))
        jobs = tuple(
            (r.job_id, r.host, list(r.gpu_names), r.placed, r.finished,
             r.step_time) for r in result.records)
        return {"jobs": jobs, "checks": checks}

    def check(self, cell, output) -> list:
        if self.reference is None:
            # No recorded reference for this seed: fleet_study's own
            # structural invariants are the check.
            return [f"invariant {name} failed"
                    for name, ok in output["checks"].items() if not ok]
        problems = []
        got = {job[0]: job for job in output["jobs"]}
        for ref in self.reference:
            job = got.get(ref[0])
            if job is None:
                problems.append(f"job {ref[0]}: missing")
            elif not _job_matches(job, ref):
                problems.append(f"job {ref[0]}: {job!r} != {ref!r}")
        if len(got) != len(self.reference):
            problems.append(f"{len(got)} jobs != {len(self.reference)}")
        return problems

    def plan_evals(self, cell) -> int:
        return sum(req.sim_steps + self.CHECKPOINTS_PER_JOB for req in cell)

    @staticmethod
    def traced_plan_evals(counts: dict) -> int:
        return counts["executor.plans"]

    def record(self, output) -> list:
        """The reference entry for this seed's output."""
        return [list(job) for job in output["jobs"]]


def _job_matches(job, ref) -> bool:
    job_id, host, gpus, placed, finished, step_time = job
    return (job_id == ref[0] and host == ref[1] and list(gpus) == ref[2]
            and all(_close(a, b) for a, b in
                    zip((placed, finished, step_time), ref[3:])))


WORKLOADS = {cls.name: cls for cls in (Fig16, Autotune, Fleet)}
