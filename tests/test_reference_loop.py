"""The executable spec in reference_loop.py stands apart from the code it checks.

The acceptance spec tests compare every artifact of `run_experiment` with the
spec's; that check means something only while the spec shares no code with
the engine, the stream, the probe, the metrics or the writers.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import reference_loop


def test_the_reference_imports_only_the_standard_library_and_the_parser():
    tree = ast.parse(Path(reference_loop.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import on line {node.lineno}"
            imported.add(node.module)
    outside = {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == {"adastream.scenario"}
    assert "__import__" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
