from __future__ import annotations

import ast
import fcntl
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import tomllib
import warnings
from pathlib import Path

import pytest

import adastream
from adastream.cli import main
from adastream.scenario import parse_scenario

from spec_check import bundled_config_path, small_document


# Each of these costs a CLI child milliseconds to import and nothing needs it.
_HEAVY_MODULES = {"dataclasses", "inspect", "logging", "statistics", "fractions", "hashlib", "decimal"}


def child_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports the package from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def child_stdout(code: str) -> str:
    """What a fresh interpreter, importing the package from this checkout, prints while it runs `code`."""
    return subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True, timeout=60
    ).stdout


def modules_loaded_by(code: str) -> list[str]:
    """The modules a fresh interpreter adds to sys.modules while it runs `code`."""
    return child_stdout(
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    ).split()


def test_cli_import_loads_no_heavy_module():
    loaded = modules_loaded_by("import adastream.cli")
    assert "adastream.cli" in loaded
    assert _HEAVY_MODULES.isdisjoint(loaded), sorted(_HEAVY_MODULES.intersection(loaded))
    # only run and validate need json, and they import it where they read or write
    assert "json" not in loaded


def test_only_the_process_entry_freezes_the_start_up_heap():
    # the installed command runs the entry pyproject.toml names; it freezes the heap and exits
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as file:
        script = tomllib.load(file)["project"]["scripts"]["adastream"]
    assert script == "adastream.cli:entry"
    path = str(bundled_config_path("table3-static-lr"))
    stdout = child_stdout(
        "import gc, sys\n"
        "from adastream.cli import entry\n"
        f"sys.argv = ['adastream', 'validate', {path!r}]\n"
        "try:\n"
        "    entry()\n"
        "except SystemExit as exit:\n"
        "    print(exit.code, gc.get_freeze_count() > 0)\n"
    )
    assert stdout == "valid: scenario static-LR, 100 runs, seed 42\n0 True\n"
    # main, which the tests and the traced CLI call in-process, leaves the collector alone
    frozen = gc.get_freeze_count()
    assert main(["validate", path]) == 0
    assert gc.get_freeze_count() == frozen


def test_bare_package_import_loads_no_submodule():
    # the child's assert fails modules_loaded_by if the package binds a public name
    loaded = modules_loaded_by(
        "import adastream\n"
        "assert adastream.__version__\n"
        "assert [n for n in dir(adastream) if not n.startswith('_')] == [], dir(adastream)"
    )
    assert "adastream" in loaded
    assert [m for m in loaded if m.startswith("adastream.")] == []


def test_the_version_has_one_home():
    # pyproject.toml names adastream.__version__ instead of stating a version of its own
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls its [tool.setuptools] table beta
        project = pyprojecttoml.read_configuration(
            Path(__file__).resolve().parents[1] / "pyproject.toml", expand=True
        )["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == adastream.__version__


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


def test_no_module_imports_a_name_it_never_reads():
    # an import whose last reader went; `# noqa: F401` marks one made for its side effect
    root = Path(__file__).resolve().parents[1]
    unread = []
    for path in sorted([*(root / "src" / "adastream").glob("*.py"), *(root / "tests").glob("*.py")]):
        source = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(source), source.splitlines()
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            if not re.search(r"# noqa: [\w,]*F401", "".join(lines[node.lineno - 1 : node.end_lineno])):
                bound = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unread += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unread == []


def test_no_test_draws_its_inputs_afresh():
    # a derandomized property draws with the literals of every loaded module outside tests/, so an
    # edit under src/ moves its examples; recorded examples do not move
    root = Path(__file__).resolve().parent
    fresh = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.keyword) and node.arg == "derandomize"
    ]
    assert fresh == [], "record the examples with tests/spec_corpus.py and check them in spec_check"


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
    "experiment.run_experiment": "refuses a second writer; re-raises once its partial artifacts are removed",
    "kb.AdaptationSpace.of": "built from a document; the parser reports its error",
    "netsim.FaultSchedule.of": "built from a document; the parser reports its error",
    "kb.RunRecord.of": "rebuilt from runs.csv rows; parse_runs_csv reports its error",
    "mapek.Engine.__init__": "what the loop cannot run with, even in a hand-built ScenarioConfig",
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


def test_the_spec_check_imports_neither_pytest_nor_hypothesis():
    # it runs on Pythons that have neither; the module-load tests above check the package, not tests/
    tests = str(Path(__file__).resolve().parent)
    loaded = modules_loaded_by(f"sys.path.insert(0, {tests!r})\nimport spec_check")
    assert "spec_check" in loaded
    assert [name for name in loaded if name.split(".")[0] in ("pytest", "_pytest", "hypothesis")] == []


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


def test_run_writes_its_artifacts_and_says_where(tmp_path, capsys):
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
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "runs.csv").exists()
    assert capsys.readouterr().out == f"wrote {out}: scenario adaptive, 2 runs\n"


def test_run_seed_override_changes_outputs(tmp_path):
    path = str(bundled_config_path("table3-adaptive"))
    assert main(["run", path, "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(["run", path, "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    assert (tmp_path / "a" / "events.jsonl").read_bytes() != (tmp_path / "b" / "events.jsonl").read_bytes()


def test_a_run_into_a_directory_another_writer_holds_exits_two_and_writes_nothing(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(small_document()))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    command = [sys.executable, "-m", "adastream.cli", "run", str(path), "--out", str(out), "--seed", "7"]
    # this process holds the directory's lock, as a run still writing into it would
    lock = os.open(out, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        refused = subprocess.run(command, env=child_env(), capture_output=True, text=True, timeout=60)
    finally:
        os.close(lock)
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr == f"error: {out} is being written by another run\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert subprocess.run(command, env=child_env(), capture_output=True, timeout=60).returncode == 0


def test_validate_good_config(capsys):
    assert main(["validate", str(bundled_config_path("table3-static-lr"))]) == 0
    assert capsys.readouterr().out == "valid: scenario static-LR, 100 runs, seed 42\n"


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
    # one line naming the first file it could not read, never a traceback
    report = tmp_path / "x" / "report.csv"
    assert capsys.readouterr() == ("", f"i/o error: [Errno 2] No such file or directory: '{report}'\n")


# the adaptive table3_dirs runs.csv row on line 2, as the run writes it
AD_ROW_2 = b"0,adaptive,30.000000,0.000000,0,0.000000,30.000000"
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "artifact, damage, message",
    [
        ("report.csv", lambda data: re.sub(rb"(?m)^p1,.*$", b"p1,0.78", data), "report.csv:4: 1 cells for 3 presets"),
        ("runs.csv", lambda data: b"\xff\xfe", f"runs.csv is not UTF-8 text: {NOT_UTF8}"),
        ("report.csv", lambda data: b"\xff\xfe", f"report.csv is not UTF-8 text: {NOT_UTF8}"),
        ("report.csv", lambda data: data + b"tp,0.10,0.10,0.10\n", "report.csv:7: repeated metric row 'tp'"),
        (
            "report.csv",
            lambda data: re.sub(rb"(?m)^p1,.*$", b"p1,nan,nan,nan", data),
            "report.csv:4: non-finite report cell in 'p1,nan,nan,nan'",
        ),
        (
            "report.csv",
            lambda data: data + b"zz,0.10,0.10,0.10\n",
            "report.csv:7: unknown metric row 'zz', not one of ['tp', 'qp', 'p1', 'p2', 'p3']",
        ),
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
        ("runs.csv", lambda data: b"not,a,run,ledger\n", "runs.csv has unexpected header ['not', 'a', 'run', 'ledger']"),
        ("runs.csv", lambda data: b"", "runs.csv is empty"),
        (
            "runs.csv",
            lambda data: data.replace(AD_ROW_2, b"0,adaptive,banana,0.000000,0,0.000000,30.000000", 1),
            "runs.csv:2: malformed run row: could not convert string to float: 'banana'",
        ),
        (
            "runs.csv",
            lambda data: data.replace(AD_ROW_2, b"0,adaptive,30.000000,40.000000,0,0.000000,30.000000", 1),
            "runs.csv:2: malformed run row: reconfig time 40000000 us outside [0, 30000000] us",
        ),
        (
            "report.csv",
            lambda data: re.sub(rb"(?m)^tp,.*$", b"tp,abc,1.0,1.0", data),
            "report.csv:2: malformed report cell: could not convert string to float: 'abc'",
        ),
        ("runs.csv", lambda data: data.replace(b",adaptive,", b",static-HR,"), "comparison needs distinct scenarios"),
        ("runs.csv", lambda data: data.replace(b"\n", b"\n\n", 1), "runs.csv:2: 1 cells for 7 columns"),
        ("report.csv", lambda data: data.replace(b"\np1,", b"\n\np1,", 1), "report.csv:4: 0 cells for 3 presets"),
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
        "runs-header-foreign",
        "runs-csv-empty",
        "runs-cell-not-float",
        "runs-reconfig-out-of-range",
        "report-cell-not-float",
        "scenarios-not-distinct",
        "runs-line-blank",
        "report-line-blank",
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
    assert err.count("\n") == 1 and err.startswith("error: ") and err.endswith(f"{message}\n")


def test_a_run_cut_short_while_replacing_leaves_a_dir_compare_refuses(table3_dirs, tmp_path, capsys):
    # The crash walk: the k-th file operation of run_experiment raises, for every k until a run
    # completes, each time in a directory that holds a complete previous set. Afterwards the
    # directory holds that set byte for byte, or a set compare refuses with one line.
    previous = {p.name: p.read_bytes() for p in table3_dirs[2].iterdir()}
    config = str(table3_dirs[2].parent / "ad.json")
    operations = k = 0

    def failing(operation):
        def kth_fails(*args, **kwargs):
            nonlocal operations
            if sys._getframe(1).f_globals["__name__"] == "adastream.experiment":
                operations += 1
                if operations == k:
                    raise OSError("simulated failure")
            return operation(*args, **kwargs)

        return kth_fails

    kept = refused = 0
    while True:
        k, operations = k + 1, 0
        dirs = [tmp_path / str(k) / d.name for d in table3_dirs]
        for src, dst in zip(table3_dirs, dirs):
            shutil.copytree(src, dst)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "replace", failing(os.replace))
            for name in ("open", "write_text", "unlink"):
                patch.setattr(Path, name, failing(getattr(Path, name)))
            code = main(["run", config, "--out", str(dirs[2]), "--seed", "7"])
        stderr = capsys.readouterr().err
        if operations < k:  # no k-th operation: the run completed
            assert code == 0 and stderr == ""
            break
        assert (code, stderr) == (2, "i/o error: simulated failure\n"), k
        if {p.name: p.read_bytes() for p in dirs[2].iterdir()} == previous:
            kept += 1
            continue
        assert main(["compare", *map(str, dirs)]) == 2, k
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(("error: ", "i/o error: ")), (k, err)
        refused += 1
    # the two opens, two write_texts and the old report.csv's unlink leave the previous set, and a
    # failed replace leaves a set with no report.csv
    assert (kept, refused) == (5, 4)


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


def test_validate_accepts_a_total_run_time_below_one_trace_step(tmp_path, capsys):
    # the engine generates ceil(total / step) >= 1 samples, and every tick reads one of them
    document = {
        "schema_version": 1,
        "scenario": "adaptive",
        "runs": 2,
        "run_duration_s": 0.001,
        "monitor_interval_s": 1e-6,
        "probe_noise_sd_mbps": 0.5,
        "trace": {"step_s": 1.0},
        "warmup": {"duration_s": 60.0, "start_s": 0.0, "end_s": 60.0},
        "seed": 1,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**document, "reconfig_delay_s": 0.0}))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "instant")]) == 0
    capsys.readouterr()
    # at the default 2.7 s delay, the first noisy probe below the threshold opens
    # a switch that outlasts both 1 ms runs
    path.write_text(json.dumps(document))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "delayed")]) == 2
    assert capsys.readouterr().err == "error: run 1 streamed nothing; quality performance undefined\n"


@pytest.mark.parametrize(
    "content, prefix",
    [
        (json.dumps({"schema_version": 1, "scenario": "adaptive", "runs": 0, "extra": 1}).encode(), None),
        (b"{oops", "{path} is not valid JSON: "),
        (b"\xff\xfe{}", "{path} is not valid JSON: "),  # not UTF-8
        (b'{"runs": 1' + b"0" * 5000 + b"}", "{path} is not valid JSON: "),  # an integer too long for int()
        (b"[" * 100_000 + b"]" * 100_000, "{path} is not valid JSON: "),  # nested deeper than the decoder recurses
        (None, "cannot read {path}: "),  # no file at all
    ],
    ids=["invalid", "malformed", "not-utf8", "long-int", "deep", "missing"],
)
def test_validate_and_run_print_the_same_errors_for_one_bad_file(tmp_path, capsys, content, prefix):
    # the one CLI contract for a bad scenario file; parse_scenario's own table pins each diagnostic
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_bytes(content)
    assert main(["validate", str(path)]) == 1
    validate_err = capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == validate_err
    assert not out.exists()
    if prefix is None:  # a JSON document: one line per diagnostic
        _, diags = parse_scenario(json.loads(content))
        assert validate_err.splitlines() == [f"config error: {d}" for d in diags]
    else:
        assert validate_err.count("\n") == 1 and validate_err.startswith(f"config error: {prefix.format(path=path)}")
