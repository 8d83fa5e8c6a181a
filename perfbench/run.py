"""adastream benchmark runner (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the package is imported from
the checkout's `src/`, nothing is installed. Every step runs the real CLI
(`python3 -m adastream.cli`) as a child process, one at a time.

Phases of one benchmark run:

1. Generate the workload's scenario configs from the seed, plus the
   default-seed ones, and check each with `adastream validate`.
2. Golden round: run the default-seed workload once, untimed, and require
   every artifact to match its pinned digest in golden.json. With
   `--trace 1` this round runs traced, so traced artifacts meet the pins.
3. With `--trace 0`: repeat whole rounds of the seeded workload for
   `--seconds`. Per experiment a round times one set-up child and one
   `adastream run` child, then COMPARE_REPEATS `adastream compare` children
   for the comparison it completes, each from spawn to exit. A run of the
   fixed reference job (reference.py) follows each run child and each
   comparison's compare children. A round starts only if it should end
   within `--seconds`. With `--trace 1`:
   measure `import adastream`, then repeat rounds that run every experiment
   untraced and traced (perfbench/layers.py), alternating which goes first.

Artifacts whose config is pinned must match the pin; all others must
replay identically across rounds and between traced and untraced runs.
Every mismatch, nonzero exit or missing artifact is a failed invocation.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics that BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1). Lines before it are a readable report with the
machine facts beside the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = SRC / "adastream" / "configs"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.py"
# Seconds that one reference job stands for: about its wall time on the
# 2-vCPU host the benchmark was written on (0.40-0.55 s, Python 3.11).
REFERENCE_S = 0.5

ARTIFACTS = ("runs.csv", "events.jsonl", "report.csv", "report.txt")
COMPARE_ARTIFACT = "compare.txt"
# Compare children are short, so each round takes several to gather samples as fast as runs.
COMPARE_REPEATS = 3
IMPORT_REPEATS = 5
# The whole run must end within 180 s; no child starts past this budget.
BUDGET_S = 165.0
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

# Set-up as a user pays it: interpreter start, import, load_scenario, and
# Engine(config), which builds both traces and computes the threshold.
SETUP_CHILD = (
    "import sys, time\n"
    "import adastream\n"
    "from adastream.mapek import Engine\n"
    "from adastream.scenario import load_scenario\n"
    "Engine(load_scenario(sys.argv[1]))\n"
    "print(time.monotonic())\n"
)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(level, value): the highest of TAIL_LEVELS with at least TAIL_BEYOND samples above it.

    Nearest-rank percentile. None when there are too few samples for any level.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for level in TAIL_LEVELS:
        rank = math.ceil(round(level / 100 * n, 6))  # round off float error, e.g. 99.9% of 10000
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            best = (level, ordered[rank - 1])
    return best


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def comparison_key(config_digests: list[str]) -> str:
    return hashlib.sha256(",".join(config_digests).encode()).hexdigest()


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    stdout: str


@dataclass
class Bench:
    """Runs children, checks their outputs, and counts attempts and failures."""

    deadline: float
    pins: dict
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    replay: dict = field(default_factory=dict)
    env: dict = field(default_factory=lambda: dict(os.environ, PYTHONPATH=str(SRC)))

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    def spawn(self, argv: list[str], what: str) -> Child | None:
        """Run one child to exit; None (and one failed invocation) unless it exits 0."""
        self.attempted += 1
        log = WORK / "logs"
        log.mkdir(parents=True, exist_ok=True)
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log / "stdout", "w+b") as out, open(log / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()  # interrupted or terminated: leave no child behind
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(errors="replace"), err.read().decode(errors="replace")
        if not self.check(proc.returncode == 0, f"{what}: exit {proc.returncode}: {stderr.strip()[-400:]}"):
            self.failed += 1
            return None
        return Child(wall, usage.ru_maxrss / 1024, stdout)

    def verify(self, what: str, files: dict[str, Path], pin: dict | None, replay_key, require_pin: bool) -> bool:
        """Digest `files`; compare with the pin, else with the first replay of `replay_key`."""
        missing = [name for name, path in files.items() if not path.is_file()]
        if missing:
            ok = self.check(False, f"{what}: missing {missing}")
        else:
            digests = {name: sha256_file(path) for name, path in files.items()}
            if pin is not None:
                expected = {name: pin.get(name) for name in files}
                ok = self.check(digests == expected, f"{what}: artifacts differ from the pinned digests")
            elif require_pin:
                ok = self.check(False, f"{what}: no pinned digests for this config")
            else:
                expected = self.replay.setdefault(replay_key, digests)
                ok = self.check(digests == expected, f"{what}: artifacts differ from an earlier replay")
        if not ok:
            self.failed += 1
        return ok


@dataclass
class Runner:
    """One workload's experiments on disk, run through the CLI or the traced CLI."""

    bench: Bench
    workload: workloads.Workload

    def config_path(self, exp: workloads.Experiment) -> Path:
        return WORK / "configs" / f"{exp.name}.json"

    def out_dir(self, exp: workloads.Experiment, traced: bool) -> Path:
        # Fixtures run once, untraced; traced compares read them as they are.
        return WORK / "out" / (exp.name + (".traced" if traced and not exp.fixture else ""))

    def write_configs(self) -> None:
        for exp in self.workload.experiments:
            path = self.config_path(exp)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(exp.config)

    def _cli(self, args: list[str], traced: bool, what: str):
        """(child, trace summary) for one CLI invocation; child is None on failure."""
        trace_file = WORK / "trace.json"
        trace_file.unlink(missing_ok=True)
        prefix = [str(HERE / "layers.py"), str(trace_file)] if traced else ["-m", "adastream.cli"]
        child = self.bench.spawn([*prefix, *args], what)
        return child, json.loads(trace_file.read_text()) if traced and child is not None else None

    def run(self, exp: workloads.Experiment, traced: bool = False, require_pin: bool = False):
        """(child, trace summary) for one `adastream run`; child is None on failure."""
        out = self.out_dir(exp, traced)
        shutil.rmtree(out, ignore_errors=True)
        what = f"run {exp.name}" + (" (traced)" if traced else "")
        child, summary = self._cli(["run", str(self.config_path(exp)), "--out", str(out)], traced, what)
        pin = self.bench.pins.get("runs", {}).get(exp.digest)
        files = {name: out / name for name in ARTIFACTS}
        if child is None or not self.bench.verify(what, files, pin, ("run", exp.name), require_pin):
            return None, None
        return child, summary

    def compare(self, index: int, traced: bool = False, require_pin: bool = False):
        """(child, trace summary) for one `adastream compare`; child is None on failure."""
        names = self.workload.comparisons[index]
        exps = [next(e for e in self.workload.experiments if e.name == n) for n in names]
        out = WORK / "out" / f"compare-{index}{'.traced' if traced else ''}.txt"
        out.unlink(missing_ok=True)
        what = f"compare {' '.join(names)}" + (" (traced)" if traced else "")
        args = ["compare", *(str(self.out_dir(e, traced)) for e in exps), "--out", str(out)]
        child, summary = self._cli(args, traced, what)
        pin = self.bench.pins.get("compares", {}).get(comparison_key([e.digest for e in exps]))
        if child is None or not self.bench.verify(what, {COMPARE_ARTIFACT: out}, pin, ("compare", names), require_pin):
            return None, None
        return child, summary


def machine_facts() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, loadavg {load}"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def describe(samples: list[float]) -> str:
    level = tail(samples)
    tail_text = f"p{level[0]:g} {level[1]:.4f}" if level else f"none (under {2 * TAIL_BEYOND} samples)"
    return f"median {median(samples):.4f}, min {min(samples, default=math.nan):.4f}, tail {tail_text}, n={len(samples)}"


def median_of_medians(groups: dict[str, list[float]]) -> float:
    """Mean over groups of each group's median: every experiment weighs the same."""
    return statistics.fmean(median(v) for v in groups.values()) if groups else math.nan


def measure_e2e(bench: Bench, runner: Runner, seconds: float, lines: list[str]) -> dict[str, float]:
    """Whole rounds for `seconds`, with the timed children between runs of a reference job.

    The host's speed swings by half in spells of seconds to minutes, and it
    slows the CPU time of a child as much as its wall time. The reference job
    (perfbench/reference.py) runs after every `adastream run` child and after
    each comparison's compare children. A run or compare child is divided by
    the mean of the reference runs just before and just after it; a set-up
    child, which comes right after a reference run and right before a run
    child that may take seconds, by the reference run before it. Times in
    reference-job units stay put when the whole machine slows down; the gated
    times are those units times REFERENCE_S. Raw seconds are reported beside
    them.
    """
    wl = runner.workload
    setup, run_walls, compare_walls, refs = [], [], [], []
    setup_norm, run_norm, compare_norm = {}, {}, {}
    ticks, rss = 0, 0.0

    def reference() -> float | None:
        child = bench.spawn([str(REFERENCE), str(WORK / "reference.jsonl")], "reference job")
        if child is not None:
            refs.append(child.wall_s)
            return child.wall_s
        return None

    last_ref = reference()

    def bracket(walls: list[float], into: list[float]) -> None:
        """Run the next reference job; normalize each of `walls` by the mean of it and the one before."""
        nonlocal last_ref
        before, last_ref = last_ref, reference()
        if before is not None and last_ref is not None:
            into += [wall * REFERENCE_S / ((before + last_ref) / 2) for wall in walls]

    begin = time.monotonic()
    rounds, round_s = 0, 0.0
    # Only whole rounds, so every run weighs the experiments alike.
    while rounds == 0 or time.monotonic() - begin + round_s <= seconds:
        round_start = time.monotonic()
        for exp in wl.timed:
            start = time.monotonic()
            child = bench.spawn(["-c", SETUP_CHILD, str(runner.config_path(exp))], f"setup {exp.name}")
            if child is not None:
                setup.append(float(child.stdout.split()[-1]) - start)
                if last_ref is not None:
                    setup_norm.setdefault(exp.name, []).append(setup[-1] * REFERENCE_S / last_ref)
            child, _ = runner.run(exp)
            if child is not None:
                run_walls.append(child.wall_s)
                ticks += exp.ticks
                rss = max(rss, child.rss_mb)
                bracket([child.wall_s], run_norm.setdefault(exp.name, []))
            # Compare as soon as its experiments have run: the adaptive one is last.
            for index, names in enumerate(wl.comparisons):
                if names[-1] == exp.name:
                    walls = []
                    for _ in range(COMPARE_REPEATS):
                        child, _ = runner.compare(index)
                        if child is not None:
                            walls.append(child.wall_s)
                    compare_walls += walls
                    bracket(walls, compare_norm.setdefault(str(index), []))
        rounds += 1
        round_s = time.monotonic() - round_start
        if time.monotonic() + round_s > bench.deadline:
            break

    run_s = median_of_medians(run_norm)
    values = {
        "setup_s": median_of_medians(setup_norm),
        "run_wall_s": run_s,
        "ticks_per_s": statistics.fmean(e.ticks for e in wl.timed) / run_s,
        "peak_rss_mb": rss or math.nan,
        "compare_wall_s": median_of_medians(compare_norm),
        "ok_ratio": (bench.attempted - bench.failed) / bench.attempted,
        "fail_ratio": bench.failed / bench.attempted,
    }
    lines += [
        f"rounds: {rounds} in {time.monotonic() - begin:.1f} s",
        f"reference job      raw s: {describe(refs)}",
        f"Times in s are normalized to {REFERENCE_S} s per reference job; raw s are as measured.",
        f"setup_s            {values['setup_s']:.4f} s   raw s: {describe(setup)}",
        f"run_wall_s         {values['run_wall_s']:.4f} s   raw s: {describe(run_walls)}",
        f"ticks_per_s        {values['ticks_per_s']:.1f} ticks/s   raw {ticks / sum(run_walls) if run_walls else math.nan:.1f}"
        f" ({ticks} ticks over {sum(run_walls):.3f} s)",
        f"peak_rss_mb        {values['peak_rss_mb']:.1f} MB   highest ru_maxrss of the run children",
        f"compare_wall_s     {values['compare_wall_s']:.4f} s   raw s: {describe(compare_walls)}",
        f"ok_ratio           {values['ok_ratio']:.4f}   fail_ratio {values['fail_ratio']:.4f}"
        f" ({bench.failed} failed of {bench.attempted} attempted)",
    ]
    return values


def events_counts(out: Path) -> dict[str, int]:
    """Counts read back from a traced run's events.jsonl."""
    data = (out / "events.jsonl").read_bytes()
    return {
        "events": data.count(b"\n"),
        "ticks": data.count(b'"event":"monitor"'),
        "planned": data.count(b'"event":"plan","action":"strategy"'),
        "registered": data.count(b'"event":"register","ok":true'),
    }


def add_round(total: dict, summary: dict) -> None:
    for name, row in summary["layers"].items():
        slot = total.setdefault(name, {"calls": 0, "self_s": 0.0})
        slot["calls"] += row["calls"]
        slot["self_s"] += row["self_s"]


def measure_layers(bench: Bench, runner: Runner, seconds: float, lines: list[str]) -> dict[str, float]:
    wl = runner.workload
    bare, imported = [], []
    for _ in range(IMPORT_REPEATS):
        for code, into in (("pass", bare), ("import adastream", imported)):
            child = bench.spawn(["-c", code], f"python -c {code!r}")
            if child is not None:
                into.append(child.wall_s)

    per_round: list[dict] = []
    traced_walls, untraced_walls, root_s = [], [], []
    begin = time.monotonic()
    round_s = 0.0
    while not per_round or time.monotonic() - begin + round_s <= seconds:
        round_start = time.monotonic()
        layer_rows: dict = {}
        counts = {"events": 0, "ticks": 0, "planned": 0, "registered": 0}
        tracer_counts: dict[str, float] = {}
        mem: dict[str, float] = {}
        complete = True
        for exp in wl.timed:
            pair = {}
            for traced in (False, True) if len(per_round) % 2 == 0 else (True, False):
                pair[traced] = runner.run(exp, traced=traced)
            (plain, _), (child, summary) = pair[False], pair[True]
            if plain is None or child is None:
                complete = False
                continue
            untraced_walls.append(plain.wall_s)
            traced_walls.append(child.wall_s)
            root_s.append(summary["root_s"])
            add_round(layer_rows, summary)
            for name, value in summary["counts"].items():
                tracer_counts[name] = tracer_counts.get(name, 0) + value
            for name, value in summary["mem"].items():
                mem[name] = max(mem.get(name, 0.0), value)
            for name, value in events_counts(runner.out_dir(exp, True)).items():
                counts[name] += value
        for index in range(len(wl.comparisons)):
            child, summary = runner.compare(index, traced=True)
            if child is None:
                complete = False
                continue
            add_round(layer_rows, summary)
        if complete:
            per_round.append({"layers": layer_rows, "counts": counts, "tracer": tracer_counts, "mem": mem})
        round_s = time.monotonic() - round_start
        if time.monotonic() + round_s > bench.deadline:
            break
    if not per_round:
        return {}

    # Counts are a pure function of the configs: every round must agree.
    first = per_round[0]
    for later in per_round[1:]:
        same = all(
            later["layers"].get(n, {}).get("calls") == row["calls"] for n, row in first["layers"].items()
        ) and later["counts"] == first["counts"] and later["tracer"] == first["tracer"]
        if not bench.check(same, "traced rounds disagree on call or event counts"):
            bench.failed += 1

    values: dict[str, float] = {}
    for name in layers.LAYER_NAMES:
        values[f"{name}.calls"] = first["layers"].get(name, {}).get("calls", 0)
        values[f"{name}.self_s"] = median([r["layers"].get(name, {}).get("self_s", 0.0) for r in per_round])
    counts, tracer_counts = first["counts"], first["tracer"]
    values.update({
        "cli.import_s": median(imported) - median(bare),
        "netsim.generate_trace.samples": tracer_counts.get("netsim.generate_trace.samples", 0),
        "netsim.warmup.used_ratio": tracer_counts.get("netsim.warmup.used", 0)
        / max(1, tracer_counts.get("netsim.warmup.generated", 0)),
        "mapek.events.count": counts["events"],
        "mapek.events.per_tick": counts["events"] / max(1, counts["ticks"]),
        "mapek.strategies.planned": counts["planned"],
        "kb.registered_ratio": counts["registered"] / max(1, counts["planned"]),
        "experiment.events_jsonl.bytes": tracer_counts.get("experiment.events_jsonl.bytes", 0),
        "trace.overhead_ratio": sum(traced_walls) / sum(untraced_walls),
        "trace.coverage_ratio": sum(root_s) / sum(traced_walls),
    })
    for name in ("mem.after_setup_mb", "mem.after_loop_mb", "mem.after_serialize_mb"):
        values[name] = max(r["mem"].get(name, 0.0) for r in per_round)

    lines.append(f"rounds: {len(per_round)} in {time.monotonic() - begin:.1f} s; "
                 f"import: median {median(imported):.4f} s vs bare {median(bare):.4f} s (n={len(bare)})")
    lines.append(f"{'layer':40} {'calls':>9} {'self_s':>10}")
    for name in layers.LAYER_NAMES:
        lines.append(f"{name:40} {values[name + '.calls']:>9} {values[name + '.self_s']:>10.4f}")
    for name, value in values.items():
        if not name.endswith((".calls", ".self_s")):
            lines.append(f"{name:40} {value:.6g}")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="adastream benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "adastream" / "cli.py").is_file() or not SPEC.is_file():
        print(f"no adastream source tree at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds:g}",
        f"machine at start: {machine_facts()}",
    ]
    bench = Bench(deadline=started + BUDGET_S, pins=json.loads(GOLDEN.read_text(encoding="utf-8")))
    try:
        golden = Runner(bench, workloads.make(args.workload, workloads.DEFAULT_SEED, CONFIGS))
        seeded = Runner(bench, workloads.make(args.workload, args.seed, CONFIGS))
        golden.write_configs()
        seeded.write_configs()

        child = bench.spawn(["-c", "import adastream; print(adastream.__file__)"], "import adastream")
        if child is None or not Path(child.stdout.strip()).is_relative_to(SRC):
            print(f"adastream does not import from {SRC}", file=sys.stderr)
            return 2
        distinct = {exp.digest: (runner, exp) for runner in (golden, seeded) for exp in runner.workload.experiments}
        for runner, exp in distinct.values():
            bench.spawn(["-m", "adastream.cli", "validate", str(runner.config_path(exp))], f"validate {exp.name}")
        for exp in golden.workload.fixtures:
            golden.run(exp, require_pin=True)
        for exp in golden.workload.timed:
            golden.run(exp, traced=bool(args.trace), require_pin=True)
        for index in range(len(golden.workload.comparisons)):
            golden.compare(index, traced=bool(args.trace), require_pin=True)

        measure = measure_layers if args.trace else measure_e2e
        values = measure(bench, seeded, args.seconds, lines)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    lines.append(f"machine at end: {machine_facts()}; wall {time.monotonic() - started:.1f} s")
    for problem in bench.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("\n".join(lines))
    missing = [m["name"] for m in metric_specs if not math.isfinite(values.get(m["name"], math.nan))]
    if missing:
        print(f"no value for metrics {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    result = {"correct": not bench.problems, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
