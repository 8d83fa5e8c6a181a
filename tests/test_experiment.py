from __future__ import annotations

import shutil

from adastream.experiment import compare, render_comparison, run_experiment
from adastream.metrics import format_selection, selection_fractions

from conftest import fold_of, make_scenario, run_dropping_events


def test_compare_identical_reports_tie(tmp_path):
    # one static-LR run copied under three labels: every verdict must tie
    run_experiment(make_scenario(scenario="static-LR", runs=2), tmp_path / "a")
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


def test_compare_adaptive_selection_matches_the_loop(tmp_path):
    config = make_scenario(runs=20)
    direct = run_dropping_events(config)
    run_experiment(config, tmp_path / "adaptive")
    for label in ("static-LR", "static-HR"):
        run_experiment(make_scenario(scenario=label, runs=2), tmp_path / label)
    cmp = compare([tmp_path / "static-LR", tmp_path / "static-HR", tmp_path / "adaptive"])
    adaptive = cmp.artifacts[2]
    assert adaptive.label == "adaptive"
    assert list(adaptive.selection) == list(config.space.names)
    assert adaptive.selection == selection_fractions(fold_of(direct, config.space))
    # render_comparison reads the adaptive selection from the adaptive artifact
    text = render_comparison(cmp)
    lines = [f"  {name}: {format_selection(*fracs)}" for name, fracs in adaptive.selection.items()]
    assert text.endswith("\nadaptive selection:\n" + "\n".join(lines) + "\n")


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
