"""The immutable value types: one idiom, and one table of checks.

Every type is a plain NamedTuple made from its class body, so equality,
immutability, copying, pickling and `_replace` are the tuple's own. A type
that outside data reaches is built through its checking classmethod `of`,
which rejects each invalid value with the message conftest's `OF_CASES` holds.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple

import pytest

from adastream import experiment, kb, mapek, metrics, netsim, scenario, stream

from conftest import OF_CASES


class _Generated(NamedTuple):
    """A bare NamedTuple: its dunders are the ones NamedTuple makes for a class body."""

    field: int


# The package's services: classes that act, or hold state, rather than carry a value.
SERVICES = {"KnowledgeBase", "Monitor", "Analyzer", "Executor", "Engine", "StreamState", "RunFold", "JsonlFileSink"}


def value_types() -> list[type]:
    """The package's value types, by name: every public class it defines but the services."""
    types = [
        obj
        for module in (kb, netsim, mapek, metrics, scenario, experiment, stream)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and not name.startswith("_") and name not in SERVICES
    ]
    return sorted(types, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", value_types(), ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    # One idiom: a NamedTuple made straight from its class body, with no fields base
    # under it, so no __new__ or _make of its own can check or skip a field.
    assert cls.__bases__ == (tuple,) and "_fields" in vars(cls)
    # The body adds no dunder, so equality, hashing, repr, immutability and
    # pickling are the tuple's own.
    assert {name for name in vars(cls) if name.startswith("__")} <= set(vars(_Generated))


def test_every_based_type_is_in_cases():
    # Checks live where outside data enters, so only the table's types have an `of`:
    # RunRecord is rebuilt from runs.csv rows by `compare`; AdaptationSpace and FaultSchedule
    # are built from a scenario document, and the parser reports their ValueError.
    assert {cls for cls in value_types() if "of" in vars(cls)} == set(OF_CASES)


def direct_builds(node: ast.AST, scope: tuple[str, ...], names: set[str]) -> list[str]:
    """`scope:name` for each call under `node` of a type in `names` by name."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append(f"{'.'.join(scope)}:{name}")
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        found += direct_builds(child, scope + (child.name,) if named else scope, names)
    return found


def test_checked_types_are_built_only_through_of():
    # A direct call would skip the checks, so only the type's own `of` builds it (as `cls`).
    names = {cls.__name__ for cls in OF_CASES}
    package = Path(__file__).resolve().parents[1] / "src" / "adastream"
    found = []
    for path in sorted(package.glob("*.py")):
        found += direct_builds(ast.parse(path.read_text(encoding="utf-8")), (path.stem,), names)
    allowed = {f"{module}.{name}.of:{name}" for module in ("kb", "netsim") for name in names}
    assert [site for site in found if site not in allowed] == []


# Types whose fields are read by tuple unpacking, not by attribute, each with the
# function that unpacks all of its fields at once.
UNPACKED = {
    "TraceParams": "netsim.generate_trace",
    "_Field": "scenario._read",
}


def test_every_field_has_a_reader():
    # A field no code reads changes no output: it goes, or it gets a reader.
    package = Path(__file__).resolve().parents[1] / "src" / "adastream"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    fields = {
        node.name: [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
        for node in nodes
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)
    }
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [
        f"{cls}.{name}"
        for cls, names in fields.items()
        if cls not in UNPACKED
        for name in names
        if name not in read
    ]
    assert unread == []
    # each listed site binds as many names in one tuple target as the type has fields
    for cls, site in UNPACKED.items():
        module, function = site.split(".")
        (body,) = [n for n in trees[module].body if getattr(n, "name", None) == function]
        widths = {
            len(node.elts)
            for node in ast.walk(body)
            if isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Store)
        }
        assert len(fields[cls]) in widths, (cls, site)
