"""Scenario configs for each benchmark workload, made from the workload seed.

Every generator is a pure function of (workload, seed): the same seed gives
the same JSON bytes. The program under test only ever receives these bytes.

Why each workload exists (see README.md for the metric mapping):

- adaptive-long: the bundled adaptive config scaled to 1,000 runs, no faults.
  Per-tick loop cost, event serialization and memory growth dominate.
- table3-sweep: the paper's user workflow, static-LR, static-HR and adaptive
  at 100 runs for K seeds (always including 42) and a compare per seed.
  Interpreter start, import, trace set-up, writers and compare carry a large
  share, and peak RSS stays flat.
- fault-storm: an adaptive config with hundreds of non-overlapping probe and
  registry outages, many user overrides, hysteresis above 0 and a short trace
  period. Fault lookups, dropped registrations and the fallback, override and
  hysteresis paths run.

Only content varies with the seed (config seed, window and override
placement); sizes do not, so timings stay comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Seed at which the artifacts are pinned in golden.json. It is also the seed
# of the bundled Table-3 configs.
DEFAULT_SEED = 42

ADAPTIVE_LONG_RUNS = 1000
SWEEP_SEEDS = 3
FAULT_STORM_RUNS = 300
FAULT_WINDOWS_PER_KIND = 200
FAULT_WINDOW_S = 12
USER_OVERRIDES = 150

BUNDLED = {
    "static-LR": "table3-static-lr.json",
    "static-HR": "table3-static-hr.json",
    "adaptive": "table3-adaptive.json",
}


@dataclass(frozen=True)
class Experiment:
    """One `adastream run` invocation: a name, its config bytes and its size."""

    name: str
    config: bytes
    ticks: int
    # A fixture runs once before timing; the timed rounds only read its output.
    fixture: bool = False

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.config).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    experiments: tuple[Experiment, ...]
    # Each comparison names three experiments, in `adastream compare` order.
    comparisons: tuple[tuple[str, str, str], ...]

    @property
    def timed(self) -> tuple[Experiment, ...]:
        return tuple(e for e in self.experiments if not e.fixture)

    @property
    def fixtures(self) -> tuple[Experiment, ...]:
        return tuple(e for e in self.experiments if e.fixture)


def encode(doc: dict) -> bytes:
    """Scenario JSON as written to disk; reproduces the bundled files byte for byte."""
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def ticks_of(doc: dict) -> int:
    interval_us = round(doc.get("monitor_interval_s", 1.0) * 1_000_000)
    run_us = round(doc["run_duration_s"] * 1_000_000)
    return doc["runs"] * -(-run_us // interval_us)


def _experiment(name: str, doc: dict, fixture: bool = False) -> Experiment:
    return Experiment(name=name, config=encode(doc), ticks=ticks_of(doc), fixture=fixture)


def _bundled(configs_dir: Path, label: str) -> dict:
    return json.loads((configs_dir / BUNDLED[label]).read_text(encoding="utf-8"))


def _companions(configs_dir: Path) -> tuple[Experiment, ...]:
    """The bundled static-LR and static-HR configs, as compare partners."""
    return tuple(
        _experiment(f"{label}@{DEFAULT_SEED}", _bundled(configs_dir, label), fixture=True)
        for label in ("static-LR", "static-HR")
    )


def adaptive_long(seed: int, configs_dir: Path) -> Workload:
    doc = _bundled(configs_dir, "adaptive")
    doc["runs"] = ADAPTIVE_LONG_RUNS
    doc["seed"] = seed
    adaptive = _experiment(f"adaptive-{ADAPTIVE_LONG_RUNS}@{seed}", doc)
    lr, hr = _companions(configs_dir)
    return Workload("adaptive-long", seed, (lr, hr, adaptive), ((lr.name, hr.name, adaptive.name),))


def sweep_seeds(seed: int) -> list[int]:
    rng = random.Random(f"table3-sweep/{seed}")
    seeds = [DEFAULT_SEED]
    while len(seeds) < SWEEP_SEEDS:
        candidate = rng.randrange(1, 2**31)
        if candidate not in seeds:
            seeds.append(candidate)
    return seeds


def table3_sweep(seed: int, configs_dir: Path) -> Workload:
    experiments = []
    comparisons = []
    for config_seed in sweep_seeds(seed):
        names = []
        for label in ("static-LR", "static-HR", "adaptive"):
            doc = _bundled(configs_dir, label)
            doc["seed"] = config_seed
            experiments.append(_experiment(f"{label}@{config_seed}", doc))
            names.append(experiments[-1].name)
        comparisons.append(tuple(names))
    return Workload("table3-sweep", seed, tuple(experiments), tuple(comparisons))


def _windows(rng: random.Random, total_s: int, count: int, length_s: int) -> list[int]:
    """Start times of `count` non-overlapping windows, one per equal slot of the timeline."""
    slot = total_s // count
    return [i * slot + rng.randrange(0, slot - length_s + 1) for i in range(count)]


def fault_storm(seed: int, configs_dir: Path) -> Workload:
    rng = random.Random(f"fault-storm/{seed}")
    doc = _bundled(configs_dir, "adaptive")
    run_s = int(doc["run_duration_s"])
    total_s = FAULT_STORM_RUNS * run_s
    doc["runs"] = FAULT_STORM_RUNS
    # mean - amplitude stays well above 0, so every warmup window averages a
    # positive threshold (clear of the validate/run gap on zero thresholds).
    doc["trace"] = {
        "mean_mbps": 5.0,
        "amplitude_mbps": 2.0,
        "period_s": 17.0,
        "noise_sd_mbps": 0.05,
        "step_s": 1.0,
    }
    warmup_start = float(rng.randrange(0, 200))
    doc["warmup"] = {"duration_s": 10800.0, "start_s": warmup_start, "end_s": warmup_start + 38.0}
    doc["hysteresis_mbps"] = 0.2
    faults = []
    for kind in ("probe-unavailable", "registry-unavailable"):
        for start in _windows(rng, total_s, FAULT_WINDOWS_PER_KIND, FAULT_WINDOW_S):
            faults.append({"start_s": float(start), "end_s": float(start + FAULT_WINDOW_S), "kind": kind})
    doc["faults"] = faults
    at = sorted(rng.sample(range(total_s), USER_OVERRIDES))
    doc["user_overrides"] = [{"at_s": float(t), "target": rng.choice(("LR", "HR"))} for t in at]
    doc["seed"] = seed
    adaptive = _experiment(f"adaptive-storm@{seed}", doc)
    lr, hr = _companions(configs_dir)
    return Workload("fault-storm", seed, (lr, hr, adaptive), ((lr.name, hr.name, adaptive.name),))


GENERATORS = {
    "adaptive-long": adaptive_long,
    "table3-sweep": table3_sweep,
    "fault-storm": fault_storm,
}
WORKLOADS = tuple(GENERATORS)


def make(workload: str, seed: int, configs_dir: Path) -> Workload:
    return GENERATORS[workload](seed, configs_dir)
