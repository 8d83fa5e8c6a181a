from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from adastream.cli import main
from adastream.scenario import parse_scenario

from conftest import bundled_config_path


# Each of these costs a CLI child milliseconds to import and nothing needs it.
_HEAVY_MODULES = {"dataclasses", "inspect", "logging", "statistics", "fractions", "hashlib"}


def modules_loaded_by(code: str) -> list[str]:
    """The modules a fresh interpreter adds to sys.modules while it runs `code`."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout.split()


def test_cli_import_loads_no_heavy_module():
    loaded = modules_loaded_by("import adastream.cli")
    assert "adastream.cli" in loaded
    assert _HEAVY_MODULES.isdisjoint(loaded), sorted(_HEAVY_MODULES.intersection(loaded))


def test_bare_package_import_loads_no_submodule():
    # the child's assert fails modules_loaded_by if the package binds a public name
    loaded = modules_loaded_by(
        "import adastream\n"
        "assert adastream.__version__\n"
        "assert [n for n in dir(adastream) if not n.startswith('_')] == [], dir(adastream)"
    )
    assert "adastream" in loaded
    assert [m for m in loaded if m.startswith("adastream.")] == []


def test_the_package_imports_only_the_standard_library():
    # numpy and pytest-benchmark are installed beside it, so an import of
    # either would pass every other test
    package = Path(__file__).resolve().parents[1] / "src" / "adastream"
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = {node.module.split(".")[0]}
            else:
                continue
            assert tops <= sys.stdlib_module_names, (path.name, sorted(tops))


def test_every_error_type_is_caught_by_name_somewhere():
    # a type no `except` names tells no caller anything a SimulationError's message does not
    package = Path(__file__).resolve().parents[1] / "src" / "adastream"
    defined = {
        node.name
        for node in ast.parse((package / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    caught = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                caught |= {n.attr for n in ast.walk(node.type) if isinstance(n, ast.Attribute)}
    assert "SimulationError" in defined
    assert defined <= caught, sorted(defined - caught)


# Every function of the package that holds a `raise`, and why it may. Each rule is checked
# once, where outside data enters; a function past that boundary does not check it again.
RAISE_SITES = {
    "scenario.load_scenario": "reads a scenario file and raises the parser's diagnostics",
    "experiment._read_lines": "reads an out-directory file, which may not be UTF-8",
    "experiment.parse_runs_csv": "parses runs.csv from an out directory",
    "experiment.parse_report_csv": "parses report.csv from an out directory",
    "experiment.ScenarioArtifacts.load": "an out directory may hold no run records",
    "experiment.compare": "the out directories may not be distinct scenarios",
    "experiment.run_experiment": "re-raises once its partial artifacts are removed",
    "kb.Frozen.__setattr__": "a checked value is immutable",
    "kb.Frozen.__delattr__": "a checked value is immutable",
    "kb.AdaptationSpace.__init__": "built from a document; the parser reports its error",
    "netsim.FaultSchedule.__init__": "built from a document; the parser reports its error",
    "kb.RunRecord.__new__": "rebuilt from runs.csv rows; parse_runs_csv reports its error",
    "mapek.Engine.__init__": "what the loop cannot run with, even in a hand-built ScenarioConfig",
    "mapek.Engine.run": "an engine runs once",
    "metrics._quality_at": "a run that streamed nothing has no quality performance",
}


def raise_sites(node: ast.AST, scope: tuple[str, ...]) -> set[str]:
    """The dotted names of the classes and functions under `node` that directly hold a raise."""
    sites = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            sites.add(".".join(scope))
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        sites |= raise_sites(child, scope + (child.name,) if named else scope)
    return sites


def test_every_raise_is_where_data_enters():
    package = Path(__file__).resolve().parents[1] / "src" / "adastream"
    sites = set()
    for path in package.glob("*.py"):
        sites |= raise_sites(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    assert sorted(sites - RAISE_SITES.keys()) == [], "a re-check past the boundary"
    assert sorted(RAISE_SITES.keys() - sites) == [], "a listed function no longer raises"


def test_engine_setup_path_loads_no_report_code():
    # what a set-up child runs before its first tick
    loaded = modules_loaded_by(
        "import adastream\n"
        "from adastream.mapek import Engine\n"
        "from adastream.scenario import load_scenario"
    )
    assert {"adastream.mapek", "adastream.scenario", "adastream.netsim"} <= set(loaded)
    unwanted = {"adastream.experiment", "adastream.metrics", "adastream.cli", "decimal", "argparse"}
    assert unwanted.isdisjoint(loaded), sorted(unwanted.intersection(loaded))


def test_cli_import_loads_every_module_the_tracer_wraps():
    # perfbench/layers.py install() rebinds names only in modules already loaded
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import layers
    finally:
        sys.path.pop(0)
    loaded = modules_loaded_by("import adastream.cli")
    assert {module for _, module, _, _ in layers.TARGETS} <= set(loaded)


def test_run_and_compare_round_trip(tmp_path, capsys):
    config = {
        "schema_version": 1,
        "scenario": "adaptive",
        "runs": 2,
        "run_duration_s": 10.0,
        "seed": 3,
        "warmup": {"duration_s": 60.0, "start_s": 0.0, "end_s": 60.0},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "runs.csv").exists()
    captured = capsys.readouterr()
    assert "adaptive" in captured.out


def test_run_seed_override_changes_outputs(tmp_path):
    path = str(bundled_config_path("table3-adaptive"))
    assert main(["run", path, "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(["run", path, "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    assert (tmp_path / "a" / "events.jsonl").read_bytes() != (tmp_path / "b" / "events.jsonl").read_bytes()


def test_validate_good_config(capsys):
    assert main(["validate", str(bundled_config_path("table3-static-lr"))]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_reports_every_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "scenario": "adaptive", "runs": 0}))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "runs must be >= 1" in err
    assert "run_duration_s" in err
    assert "seed" in err


def test_validate_unreadable_and_malformed(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["validate", str(broken)]) == 1


def test_run_with_invalid_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "scenario": "adaptive", "runs": 0}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def table3_dirs(tmp_path_factory):
    """Out dirs of 2-run static-LR, static-HR and adaptive experiments, in that order."""
    root = tmp_path_factory.mktemp("table3")
    dirs = []
    for name, label in (("lr", "table3-static-lr"), ("hr", "table3-static-hr"), ("ad", "table3-adaptive")):
        small = json.loads(bundled_config_path(label).read_text())
        small["runs"] = 2
        if name != "ad":
            small["warmup"] = {"duration_s": 60.0, "start_s": 0.0, "end_s": 60.0}
        p = root / f"{name}.json"
        p.write_text(json.dumps(small))
        assert main(["run", str(p), "--out", str(root / name)]) == 0
        dirs.append(root / name)
    return dirs


def test_compare_full_pipeline(table3_dirs, tmp_path, capsys):
    capsys.readouterr()
    out_file = tmp_path / "comparison.txt"
    code = main(["compare", *map(str, table3_dirs), "--out", str(out_file)])
    assert code == 0
    table = capsys.readouterr().out
    assert "static-LR" in table and "adaptive" in table
    assert out_file.read_text() == table


def test_compare_with_missing_dir_exits_two(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "x"), str(tmp_path / "y"), str(tmp_path / "z")]) == 2


# the adaptive table3_dirs runs.csv row on line 2, as the run writes it
AD_ROW_2 = b"0,adaptive,30.000000,0.000000,0,0.000000,30.000000"


@pytest.mark.parametrize(
    "artifact, damage, message",
    [
        ("report.csv", lambda data: re.sub(rb"(?m)^p1,.*$", b"p1,0.78", data), "report.csv:4: 1 cells for 3 presets"),
        ("runs.csv", lambda data: b"\xff\xfe", "runs.csv is not UTF-8 text"),
        ("report.csv", lambda data: b"\xff\xfe", "report.csv is not UTF-8 text"),
        ("report.csv", lambda data: data + b"tp,0.10,0.10,0.10\n", "report.csv:7: repeated metric row 'tp'"),
        (
            "report.csv",
            lambda data: re.sub(rb"(?m)^p1,.*$", b"p1,nan,nan,nan", data),
            "report.csv:4: non-finite report cell in 'p1,nan,nan,nan'",
        ),
        ("report.csv", lambda data: data + b"zz,0.10,0.10,0.10\n", "report.csv:7: unknown metric row 'zz'"),
        (
            "report.csv",
            lambda data: data.replace(b"metric,5r5q,9r1q,1r9q", b"metric,5r5q,5r5q,1r9q", 1),
            "report.csv is not a report grid: its header is not 'metric,5r5q,9r1q,1r9q'",
        ),
        (
            "report.csv",
            lambda data: re.sub(rb"(?m)^p1,.*$", b"p1,1.50,0.10,0.10", data),
            "report.csv:4: report cell outside [0, 1] in 'p1,1.50,0.10,0.10'",
        ),
        (
            "runs.csv",
            lambda data: re.sub(rb"(?m)^(0,adaptive,.*)$", rb"\1,9", data),
            "runs.csv:2: 8 cells for 7 columns",
        ),
        (
            "runs.csv",
            lambda data: re.sub(rb"(?m)^1,adaptive,", b"1,static-LR,", data),
            "runs.csv:3: scenario 'static-LR' differs from 'adaptive' on line 2",
        ),
        (
            "runs.csv",
            lambda data: data.replace(b",seconds_HR", b",rate_HR", 1),
            "runs.csv: column 'rate_HR' is not seconds_<config>",
        ),
        (
            "runs.csv",
            lambda data: data.replace(b",seconds_HR", b",seconds_LR", 1),
            "runs.csv: repeated column 'seconds_LR'",
        ),
        (
            "runs.csv",
            lambda data: data.replace(AD_ROW_2, b"0,adaptive,30.000000,0.000000,0,-5.000000,35.000000", 1),
            "runs.csv:2: malformed run row: run 0: negative streamed time in {'LR': -5000000, 'HR': 35000000}",
        ),
        (
            "runs.csv",
            lambda data: data.replace(AD_ROW_2, b"0,adaptive,30.000000,0.000000,-3,0.000000,30.000000", 1),
            "runs.csv:2: malformed run row: run index and switches must be non-negative, got 0 and -3",
        ),
        (
            "runs.csv",
            lambda data: data.replace(AD_ROW_2, b"-1,adaptive,30.000000,0.000000,0,0.000000,30.000000", 1),
            "runs.csv:2: malformed run row: run index and switches must be non-negative, got -1 and 0",
        ),
        (
            "runs.csv",
            lambda data: data.replace(AD_ROW_2, b"0,adaptive,30.000000,0.000000,0,0.000000,29.000000", 1),
            "runs.csv:2: malformed run row: run 0: time accounting broken: "
            "streamed 29000000 + reconfig 0 != duration 30000000",
        ),
        ("runs.csv", lambda data: data.split(b"\n", 1)[0] + b"\n", "holds no run records"),
        ("report.csv", lambda data: re.sub(rb"(?m)^p1,.*\n", b"", data), "report.csv is missing metric rows ['p1']"),
    ],
    ids=[
        "report-row-too-short",
        "runs-csv-not-utf8",
        "report-csv-not-utf8",
        "report-metric-repeated",
        "report-cell-not-finite",
        "report-metric-unknown",
        "report-presets-misnamed",
        "report-cell-out-of-range",
        "runs-row-too-long",
        "runs-scenario-mixed",
        "runs-config-column-misnamed",
        "runs-config-column-repeated",
        "runs-seconds-negative",
        "runs-switches-negative",
        "runs-index-negative",
        "runs-seconds-unbalanced",
        "runs-header-only",
        "report-metric-missing",
    ],
)
def test_compare_on_a_damaged_out_dir_exits_two_with_one_line(
    table3_dirs, tmp_path, capsys, artifact, damage, message
):
    dirs = [tmp_path / d.name for d in table3_dirs]
    for src, dst in zip(table3_dirs, dirs):
        shutil.copytree(src, dst)
    path = dirs[2] / artifact
    path.write_bytes(damage(path.read_bytes()))
    capsys.readouterr()
    assert main(["compare", *map(str, dirs)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_a_run_cut_short_while_replacing_leaves_a_dir_compare_refuses(
    table3_dirs, tmp_path, capsys, monkeypatch
):
    dirs = [tmp_path / d.name for d in table3_dirs]
    for src, dst in zip(table3_dirs, dirs):
        shutil.copytree(src, dst)
    replace = os.replace
    calls = 0

    def failing_replace(src, dst):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise OSError("simulated failure")
        replace(src, dst)

    monkeypatch.setattr("adastream.experiment.os.replace", failing_replace)
    config = str(table3_dirs[2].parent / "ad.json")
    assert main(["run", config, "--out", str(dirs[2]), "--seed", "7"]) == 2
    monkeypatch.undo()
    # events.jsonl is the new run's, report.txt the old one's, and report.csv is gone
    assert (dirs[2] / "events.jsonl").read_bytes() != (table3_dirs[2] / "events.jsonl").read_bytes()
    assert (dirs[2] / "report.txt").read_bytes() == (table3_dirs[2] / "report.txt").read_bytes()
    assert sorted(p.name for p in dirs[2].iterdir()) == ["events.jsonl", "report.txt", "runs.csv"]
    capsys.readouterr()
    assert main(["compare", *map(str, dirs)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("i/o error: ") and "report.csv" in err


def test_run_with_zero_warmup_threshold_exits_two_without_traceback(tmp_path, capsys):
    # The clamped trace is 0 Mbps over the whole warmup window.
    config = {
        "schema_version": 1,
        "scenario": "adaptive",
        "runs": 2,
        "run_duration_s": 10.0,
        "trace": {"mean_mbps": 1.0, "amplitude_mbps": 5.0, "period_s": 100.0},
        "warmup": {"duration_s": 100.0, "start_s": 60.0, "end_s": 90.0},
        "seed": 1,
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(config))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "warmup window [60, 90)" in err and "threshold of 0 Mbps" in err
    assert list(out.iterdir()) == []


def test_run_that_streams_nothing_exits_two_without_traceback(tmp_path, capsys):
    # 1 s runs against a 5 s switch: the first switch covers run 0 whole.
    config = {
        "schema_version": 1,
        "scenario": "adaptive",
        "runs": 6,
        "run_duration_s": 1.0,
        "reconfig_delay_s": 5.0,
        "trace": {"mean_mbps": 0.5, "amplitude_mbps": 6.0, "period_s": 7.0},
        "warmup": {"duration_s": 21.0, "start_s": 0.0, "end_s": 21.0},
        "seed": 3,
    }
    path = tmp_path / "silent.json"
    path.write_text(json.dumps(config))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: run 0 streamed nothing; quality performance undefined\n"
    assert list(out.iterdir()) == []


def test_validate_rejects_a_trace_period_below_the_clock_resolution(tmp_path, capsys):
    # `run` once died in generate_trace's sin with a math domain error
    config = {
        "schema_version": 1,
        "scenario": "adaptive",
        "runs": 1000,
        "run_duration_s": 30000,
        "monitor_interval_s": 30000,
        "trace": {"period_s": 1e-300, "step_s": 100},
        "warmup": {"start_s": 0, "end_s": 600},
        "seed": 1,
    }
    path = tmp_path / "period.json"
    path.write_text(json.dumps(config))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    _, diags = parse_scenario(config)
    assert err.splitlines() == [f"config error: {d}" for d in diags]
    assert "trace.period_s" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "changes, diagnostic",
    [
        (
            {"run_duration_s": 0.001, "monitor_interval_s": 1e-6},
            "runs * run_duration_s (2 * 0.001) is below one trace.step_s",
        ),
        (
            {"warmup": {"duration_s": 60.0, "start_s": 0.3, "end_s": 0.6}},
            "warmup window [0.3, 0.6) selects no trace samples",
        ),
    ],
    ids=["runs-below-one-step", "warmup-between-samples"],
)
def test_validate_and_run_reject_a_config_whose_trace_cannot_serve_it(tmp_path, capsys, changes, diagnostic):
    # `run` used to accept both and stop with exit 2 once the trace was generated
    config = {
        "schema_version": 1,
        "scenario": "adaptive",
        "runs": 2,
        "run_duration_s": 10.0,
        "trace": {"step_s": 1.0},
        "warmup": {"duration_s": 60.0, "start_s": 0.0, "end_s": 60.0},
        "seed": 1,
        **changes,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {diagnostic}\n"
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {diagnostic}\n"
    assert not out.exists()


def test_validate_and_run_reject_a_config_with_too_many_loop_ticks(tmp_path, capsys):
    # 300M ticks and 10M run records on only 300,001 trace samples:
    # `validate` used to accept it
    config = {
        "schema_version": 1,
        "scenario": "adaptive",
        "runs": 10_000_000,
        "run_duration_s": 30,
        "trace": {"step_s": 1000},
        "warmup": {"duration_s": 10800, "start_s": 0, "end_s": 1000},
        "seed": 1,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    line = (
        "config error: experiment needs 300000000 loop ticks; limit is 20000000 "
        "(reduce runs/run_duration_s or raise monitor_interval_s)\n"
    )
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == line
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == line
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [
        json.dumps({"schema_version": 1, "scenario": "adaptive", "runs": 0, "extra": 1}).encode(),
        b"{oops",
        b"\xff\xfe{}",  # not UTF-8
        b'{"runs": 1' + b"0" * 5000 + b"}",  # an integer too long for int()
        b"[" * 100_000 + b"]" * 100_000,  # nested deeper than the decoder recurses
        None,  # no file at all
    ],
    ids=["invalid", "malformed", "not-utf8", "long-int", "deep", "missing"],
)
def test_validate_and_run_print_the_same_errors_for_one_bad_file(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_bytes(content)
    assert main(["validate", str(path)]) == 1
    validate_err = capsys.readouterr().err
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    run_err = capsys.readouterr().err
    assert validate_err == run_err
    assert validate_err and all(line.startswith("config error: ") for line in validate_err.splitlines())
