from __future__ import annotations

import json
import re
import shutil

import pytest

from adastream.cli import main
from adastream.scenario import bundled_config_path, parse_scenario


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


@pytest.mark.parametrize(
    "artifact, damage, message",
    [
        ("report.csv", lambda data: re.sub(rb"(?m)^p1,.*$", b"p1,0.78", data), "report.csv:4: 1 cells for 3 presets"),
        ("runs.csv", lambda data: b"\xff\xfe", "runs.csv is not UTF-8 text"),
        ("report.csv", lambda data: b"\xff\xfe", "report.csv is not UTF-8 text"),
    ],
    ids=["report-row-too-short", "runs-csv-not-utf8", "report-csv-not-utf8"],
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
