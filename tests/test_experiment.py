from __future__ import annotations

import json
import shutil

import pytest

from adastream.errors import SimulationError
from adastream.experiment import (
    ScenarioArtifacts,
    compare,
    parse_report_csv,
    parse_runs_csv,
    render_comparison,
    run_experiment,
)
from adastream.mapek import run_loop
from adastream.metrics import round_half_up, selection_fractions


def test_run_experiment_writes_all_artifacts(tmp_path, scenario_factory):
    out = tmp_path / "out"
    report = run_experiment(scenario_factory(runs=3), out)
    for name in ("runs.csv", "events.jsonl", "report.csv", "report.txt"):
        assert (out / name).exists(), name
    assert report.run_count == 3
    assert report.scenario == "adaptive"


def test_runs_csv_round_trips_records(tmp_path, scenario_factory):
    config = scenario_factory(runs=4)
    run_experiment(config, tmp_path)
    records, names = parse_runs_csv(tmp_path / "runs.csv")
    assert names == ("LR", "HR")
    direct = run_loop(config).records
    assert tuple(records) == direct


def test_events_jsonl_is_parseable_and_ordered(tmp_path, scenario_factory):
    run_experiment(scenario_factory(runs=2), tmp_path)
    events = [json.loads(line) for line in (tmp_path / "events.jsonl").read_text().splitlines()]
    assert [e["seq"] for e in events] == list(range(len(events)))
    kinds = {e["event"] for e in events}
    assert kinds == {"monitor", "analyze", "plan", "register", "execute", "step"} - (
        {"register"} if all(e["event"] != "register" for e in events) else set()
    )


def test_same_seed_byte_identical_outputs(tmp_path, scenario_factory):
    config = scenario_factory(runs=3)
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    for name in ("runs.csv", "events.jsonl", "report.csv", "report.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_report_csv_grid_matches_report(tmp_path, scenario_factory):
    report = run_experiment(scenario_factory(runs=3), tmp_path)
    grid = parse_report_csv(tmp_path / "report.csv")
    assert set(grid) == {"tp", "qp", "p1", "p2", "p3"}
    for metric, row in grid.items():
        for preset, value in row.items():
            assert value == round_half_up(report.grid[metric][preset])


def test_compare_three_scenarios(tmp_path, scenario_factory):
    for label in ("static-LR", "static-HR", "adaptive"):
        run_experiment(scenario_factory(scenario=label, runs=3), tmp_path / label)
    result = compare([tmp_path / "static-LR", tmp_path / "static-HR", tmp_path / "adaptive"])
    assert len(result.verdicts) == 9
    assert all(v in {"static-LR", "static-HR", "adaptive", "tie"} for v in result.verdicts.values())
    assert "LR" in result.adaptive_selection and "HR" in result.adaptive_selection
    text = render_comparison(result)
    assert "best scenario per combined-performance cell" in text
    assert "adaptive selection" in text


def test_compare_identical_reports_tie(tmp_path, scenario_factory):
    # one static-LR run copied under three labels: every verdict must tie
    run_experiment(scenario_factory(scenario="static-LR", runs=2), tmp_path / "a")
    runs_lines = (tmp_path / "a" / "runs.csv").read_text().splitlines(keepends=True)
    dirs = []
    for i in range(3):
        copy = tmp_path / f"s{i}"
        shutil.copytree(tmp_path / "a", copy)
        relabelled = [runs_lines[0]]
        for line in runs_lines[1:]:
            cells = line.split(",")
            cells[1] = f"s{i}"
            relabelled.append(",".join(cells))
        (copy / "runs.csv").write_text("".join(relabelled))
        dirs.append(copy)
    result = compare(dirs)
    assert [a.label for a in result.artifacts] == ["s0", "s1", "s2"]
    assert len(result.verdicts) == 9
    assert set(result.verdicts.values()) == {"tie"}


def test_compare_adaptive_selection_matches_the_loop(tmp_path, scenario_factory):
    config = scenario_factory(runs=20)
    result = run_loop(config)
    run_experiment(config, tmp_path / "adaptive")
    for label in ("static-LR", "static-HR"):
        run_experiment(scenario_factory(scenario=label, runs=2), tmp_path / label)
    cmp = compare([tmp_path / "static-LR", tmp_path / "static-HR", tmp_path / "adaptive"])
    assert list(cmp.adaptive_selection) == list(result.space.names)
    assert cmp.adaptive_selection == selection_fractions(result.records, result.space.names)


def test_compare_rejects_duplicate_scenarios(tmp_path, scenario_factory):
    run_experiment(scenario_factory(scenario="static-LR", runs=2), tmp_path / "a")
    with pytest.raises(SimulationError):
        compare([tmp_path / "a", tmp_path / "a", tmp_path / "a"])


def test_compare_rejects_preset_mismatch(tmp_path, scenario_factory):
    for label in ("static-LR", "static-HR", "adaptive"):
        run_experiment(scenario_factory(scenario=label, runs=2), tmp_path / label)
    report_path = tmp_path / "adaptive" / "report.csv"
    report_path.write_text(report_path.read_text().replace("9r1q", "8r2q"))
    with pytest.raises(SimulationError):
        compare([tmp_path / "static-LR", tmp_path / "static-HR", tmp_path / "adaptive"])


def test_parse_runs_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("not,a,run,ledger\n")
    with pytest.raises(SimulationError):
        parse_runs_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SimulationError):
        parse_runs_csv(empty)


def test_single_run_static_hr_report(tmp_path, scenario_factory):
    report = run_experiment(scenario_factory(scenario="static-HR", runs=1), tmp_path)
    assert set(report.grid["tp"].values()) == {1.0}
    assert abs(report.grid["qp"]["9r1q"] - 0.92) < 1e-9


def test_runs_csv_header_for_default_space(tmp_path, scenario_factory):
    run_experiment(scenario_factory(runs=1), tmp_path)
    header = (tmp_path / "runs.csv").read_text().splitlines()[0]
    assert header == "run,scenario,duration_s,reconfig_s,switches,seconds_LR,seconds_HR"


def _write_reference_artifacts(out, label, grid_rows, dominant):
    """Fabricate report.csv/runs.csv holding a reference grid for compare()."""
    out.mkdir(parents=True)
    lines = ["metric,5r5q,9r1q,1r9q"]
    for metric, cells in grid_rows.items():
        lines.append(metric + "," + ",".join(f"{c:.2f}" for c in cells))
    (out / "report.csv").write_text("\n".join(lines) + "\n")
    seconds = {"LR": "30.000000,0.000000", "HR": "0.000000,30.000000"}[dominant]
    (out / "runs.csv").write_text(
        "run,scenario,duration_s,reconfig_s,switches,seconds_LR,seconds_HR\n"
        f"0,{label},30.000000,0.000000,0,{seconds}\n"
    )


def test_compare_reference_grid_verdicts(tmp_path):
    # the evaluation grid the static scenarios reproduce, plus its adaptive column
    _write_reference_artifacts(tmp_path / "lr", "static-LR", {
        "tp": (1.00, 1.00, 1.00), "qp": (0.74, 0.55, 0.94),
        "p1": (0.87, 0.78, 0.97), "p2": (0.97, 0.96, 0.99), "p3": (0.77, 0.60, 0.95),
    }, dominant="LR")
    _write_reference_artifacts(tmp_path / "hr", "static-HR", {
        "tp": (1.00, 1.00, 1.00), "qp": (0.60, 0.92, 0.28),
        "p1": (0.80, 0.96, 0.64), "p2": (0.96, 0.99, 0.93), "p3": (0.64, 0.93, 0.35),
    }, dominant="HR")
    _write_reference_artifacts(tmp_path / "ad", "adaptive", {
        "tp": (0.91, 0.91, 0.91), "qp": (0.68, 0.78, 0.58),
        "p1": (0.80, 0.85, 0.75), "p2": (0.89, 0.90, 0.88), "p3": (0.70, 0.79, 0.61),
    }, dominant="HR")
    result = compare([tmp_path / "lr", tmp_path / "hr", tmp_path / "ad"])
    # every time-heavy (p2) cell prefers a static scenario
    assert all(
        result.verdicts[("p2", preset)] in {"static-LR", "static-HR"}
        for preset in ("5r5q", "9r1q", "1r9q")
    )
    # when frame rate matters but quality dominates, adaptive beats static HR
    adaptive = next(a for a in result.artifacts if a.label == "adaptive")
    hr = next(a for a in result.artifacts if a.label == "static-HR")
    assert adaptive.grid["p3"]["1r9q"] == 0.61 > hr.grid["p3"]["1r9q"] == 0.35
    # and adaptive beats static LR when frame rate is weighted up under p1
    lr = next(a for a in result.artifacts if a.label == "static-LR")
    assert adaptive.grid["p1"]["9r1q"] > lr.grid["p1"]["9r1q"]


def test_parse_runs_csv_wraps_malformed_rows(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(
        "run,scenario,duration_s,reconfig_s,switches,seconds_LR,seconds_HR\n"
        "0,adaptive,banana,0.000000,0,1.000000,1.000000\n"
    )
    with pytest.raises(SimulationError):
        parse_runs_csv(path)
    # inconsistent accounting surfaces as a domain error too
    path.write_text(
        "run,scenario,duration_s,reconfig_s,switches,seconds_LR,seconds_HR\n"
        "0,adaptive,30.000000,40.000000,0,1.000000,1.000000\n"
    )
    with pytest.raises(SimulationError):
        parse_runs_csv(path)


def test_parse_report_csv_wraps_malformed_cells(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("metric,5r5q,9r1q,1r9q\ntp,abc,1.0,1.0\n")
    with pytest.raises(SimulationError):
        parse_report_csv(path)


def test_adaptive_report_text_shows_model_and_measured_qp(tmp_path, scenario_factory):
    run_experiment(scenario_factory(runs=3), tmp_path / "ad")
    text = (tmp_path / "ad" / "report.txt").read_text()
    assert "mix-model" in text and "measured" in text
    run_experiment(scenario_factory(scenario="static-LR", runs=3), tmp_path / "lr")
    assert "mix-model" not in (tmp_path / "lr" / "report.txt").read_text()
