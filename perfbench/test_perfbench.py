"""Tests of the benchmark itself: span arithmetic, the tail rule, the workload
generators, the pins, and that tracing reaches every layer without changing
any output byte.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

ENV = dict(os.environ, PYTHONPATH=str(run.SRC))


def _cli(*args: str, traced_to: Path | None = None) -> None:
    prefix = [str(run.HERE / "layers.py"), str(traced_to)] if traced_to else ["-m", "adastream.cli"]
    subprocess.run([sys.executable, *prefix, *args], env=ENV, check=True, capture_output=True, timeout=120)


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


# -- span arithmetic --------------------------------------------------------


def test_covered_merges_nested_adjacent_and_overlapping_intervals():
    assert layers.covered([], 0, 10) == 0
    assert layers.covered([(2, 8), (3, 5)], 0, 10) == 6  # nested
    assert layers.covered([(2, 4), (4, 7)], 0, 10) == 5  # adjacent
    assert layers.covered([(2, 6), (5, 9)], 0, 10) == 7  # overlapping
    assert layers.covered([(-5, 2), (9, 20)], 0, 10) == 3  # clipped to [0, 10)


def test_self_time_subtracts_child_spans_once_and_hot_time():
    parent = layers.Span("p", 0.0, 10.0, None, hot_s=1.0)
    nested = [layers.Span("a", 2.0, 8.0, 0, 0.0), layers.Span("b", 3.0, 5.0, 0, 0.0)]
    adjacent = [layers.Span("a", 2.0, 4.0, 0, 0.0), layers.Span("b", 4.0, 7.0, 0, 0.0)]
    assert layers.self_time(parent, nested) == 10 - 6 - 1
    assert layers.self_time(parent, adjacent) == 10 - 5 - 1
    assert layers.self_time(parent, []) == 9


def test_tracer_self_times_add_up_to_the_root_span():
    ticks = iter(range(1000))
    tracer = layers.Tracer(clock=lambda: float(next(ticks)))
    hot = tracer.wrap_hot("hot", lambda: None)
    inner = tracer.wrap_span("inner", lambda: hot())

    def outer_body():
        hot()
        inner()
        hot()

    tracer.wrap_span("outer", outer_body)()
    rows = tracer.layers()
    assert rows["hot"]["calls"] == 3 and rows["inner"]["calls"] == 1
    # Each hot call reads the clock twice (1 unit); inner spans 4 units around one.
    assert rows["hot"]["self_s"] == 3
    assert rows["inner"]["total_s"] == 3 and rows["inner"]["self_s"] == 2
    assert rows["outer"]["total_s"] == 9 and rows["outer"]["self_s"] == 4
    assert sum(r["self_s"] for r in rows.values()) == tracer.root_s() == 9


# -- tail percentile rule ---------------------------------------------------


@pytest.mark.parametrize(
    "n, level",
    [(10, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_level_with_ten_samples_beyond(n, level):
    samples = [float(i) for i in range(n, 0, -1)]
    got = run.tail(samples)
    if level is None:
        assert got is None
        return
    assert got[0] == level
    assert sum(1 for s in samples if s > got[1]) >= run.TAIL_BEYOND


# -- reference job ----------------------------------------------------------


def test_median_of_medians_weighs_every_experiment_alike():
    assert run.median_of_medians({"a": [1.0, 3.0, 2.0], "b": [10.0]}) == 6.0
    assert run.median_of_medians({"a": [4.0]}) == 4.0


def test_reference_job_runs_without_the_program(tmp_path):
    # The machine gauge must not move when the program changes.
    out = tmp_path / "reference.jsonl"
    subprocess.run([sys.executable, "-I", str(run.REFERENCE), str(out)], check=True, timeout=60)
    assert out.read_text().count("\n") == 59_999
    assert "import adastream" not in run.REFERENCE.read_text()
    assert "from adastream" not in run.REFERENCE.read_text()


# -- workloads and pins -----------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_and_seed_changes_content_not_size(name):
    a = workloads.make(name, 7, run.CONFIGS)
    assert a == workloads.make(name, 7, run.CONFIGS)
    b = workloads.make(name, 8, run.CONFIGS)
    assert [e.config for e in a.timed] != [e.config for e in b.timed]
    assert [e.ticks for e in a.timed] == [e.ticks for e in b.timed]


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 0, 1, 12345])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generated_configs_validate(name, seed):
    sys.path.insert(0, str(run.SRC))
    try:
        from adastream.scenario import parse_scenario
    finally:
        sys.path.remove(str(run.SRC))
    for exp in workloads.make(name, seed, run.CONFIGS).experiments:
        config, diagnostics = parse_scenario(json.loads(exp.config))
        assert config is not None, (exp.name, diagnostics)
        assert config.trace.mean_mbps > config.trace.amplitude_mbps


def test_sweep_always_holds_seed_42_as_the_bundled_configs():
    for seed in (1, 42, 999):
        sweep = workloads.make("table3-sweep", seed, run.CONFIGS)
        configs = {e.config for e in sweep.experiments}
        for filename in workloads.BUNDLED.values():
            assert (run.CONFIGS / filename).read_bytes() in configs


def test_every_default_seed_artifact_is_pinned():
    golden = json.loads(run.GOLDEN.read_text())
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, workloads.DEFAULT_SEED, run.CONFIGS)
        for exp in wl.experiments:
            assert set(golden["runs"][exp.digest]) >= set(run.ARTIFACTS), exp.name
        for names in wl.comparisons:
            digests = [e.digest for e in wl.experiments if e.name in names]
            assert run.COMPARE_ARTIFACT in golden["compares"][run.comparison_key(digests)]


def test_bundled_table3_configs_match_their_pins(tmp_path):
    golden = json.loads(run.GOLDEN.read_text())
    for filename in workloads.BUNDLED.values():
        config = run.CONFIGS / filename
        out = tmp_path / filename
        _cli("run", str(config), "--out", str(out))
        pin = golden["runs"][hashlib.sha256(config.read_bytes()).hexdigest()]
        assert _digests(out) == {a: pin[a] for a in run.ARTIFACTS}, filename


def test_spec_lists_every_layer():
    spec = json.loads(run.SPEC.read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    for name in layers.LAYER_NAMES:
        assert {f"{name}.calls", f"{name}.self_s"} <= listed


# -- tracing ----------------------------------------------------------------


def _small_configs(tmp_path: Path) -> dict[str, Path]:
    """An adaptive config that takes every loop path, plus static partners for compare."""
    adaptive = json.loads((run.CONFIGS / "table3-adaptive.json").read_text())
    adaptive.update(
        runs=6,
        hysteresis_mbps=0.1,
        trace={"mean_mbps": 5.0, "amplitude_mbps": 2.0, "period_s": 17.0, "noise_sd_mbps": 0.05, "step_s": 1.0},
        faults=[
            {"start_s": 10.0, "end_s": 20.0, "kind": "probe-unavailable"},
            {"start_s": 40.0, "end_s": 70.0, "kind": "registry-unavailable"},
        ],
        user_overrides=[{"at_s": 5.0, "target": "LR"}, {"at_s": 100.0, "target": "HR"}],
    )
    paths = {"adaptive": tmp_path / "adaptive.json"}
    paths["adaptive"].write_bytes(workloads.encode(adaptive))
    for label in ("static-LR", "static-HR"):
        doc = json.loads((run.CONFIGS / workloads.BUNDLED[label]).read_text())
        doc["runs"] = 2
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_bytes(workloads.encode(doc))
    return paths


def test_traced_cli_reaches_every_layer_and_writes_the_same_bytes(tmp_path):
    configs = _small_configs(tmp_path)
    summaries = []
    for traced in (False, True):
        tag = "traced" if traced else "plain"
        for label, config in configs.items():
            trace_file = tmp_path / f"{tag}-{label}.trace.json"
            _cli("run", str(config), "--out", str(tmp_path / tag / label), traced_to=trace_file if traced else None)
            if traced:
                summaries.append(json.loads(trace_file.read_text()))
        trace_file = tmp_path / f"{tag}-compare.trace.json"
        dirs = [str(tmp_path / tag / label) for label in ("static-LR", "static-HR", "adaptive")]
        _cli("compare", *dirs, "--out", str(tmp_path / tag / "compare.txt"), traced_to=trace_file if traced else None)
        if traced:
            summaries.append(json.loads(trace_file.read_text()))

    for label in configs:
        assert _digests(tmp_path / "traced" / label) == _digests(tmp_path / "plain" / label), label
    assert (tmp_path / "traced" / "compare.txt").read_bytes() == (tmp_path / "plain" / "compare.txt").read_bytes()

    calls = {name: sum(s["layers"].get(name, {}).get("calls", 0) for s in summaries) for name in layers.LAYER_NAMES}
    assert [name for name, n in calls.items() if n == 0] == []
    for summary in summaries:
        self_total = sum(row["self_s"] for row in summary["layers"].values())
        assert self_total == pytest.approx(summary["root_s"], rel=1e-6)
        assert all(row["self_s"] >= -1e-9 for row in summary["layers"].values())
        assert {"netsim.generate_trace.samples", "experiment.events_jsonl.bytes"} <= set(summaries[0]["counts"])


def test_install_rebinds_every_imported_name():
    # Callers look these up through their own `from ... import` bindings.
    bindings = [
        ("adastream.mapek", n) for n in ("probe", "plan", "generate_trace", "compute_threshold")
    ] + [
        ("adastream.experiment", n)
        for n in ("aggregate", "events_jsonl_text", "render_report_csv", "render_report_text", "selection_fractions")
    ] + [
        ("adastream.cli", n) for n in ("run_experiment", "load_scenario", "compare", "render_comparison")
    ]
    code = (
        "import importlib, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import adastream.cli, layers\n"
        "layers.install(layers.Tracer())\n"
        f"for module, name in {bindings!r}:\n"
        "    if not hasattr(getattr(importlib.import_module(module), name), '__wrapped__'):\n"
        "        print(module, name)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(run.HERE)], env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


# -- running outside a checkout ---------------------------------------------


def test_benchmark_fails_without_a_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table3-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
