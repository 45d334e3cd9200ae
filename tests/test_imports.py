"""Every name a library module imports is used in that module.

No linter is a dependency of the project, so this test is its unused-import
check, and it runs wherever the tests run.  It parses each module of
`ddfkit` except `__init__.py`, whose imports are its public surface.  A
name counts as used when it is read anywhere in the module, string
annotations included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ddfkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported(tree):
    """(name bound, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used(tree) -> set:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in annotations(tree):
        for node in ast.walk(note):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = used(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in imported(tree) if name not in names]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import os\nfrom x import a, b as c\n\ndef f(y: 'a') -> None:\n    return y\n")
    assert [name for name, _ in imported(tree) if name not in used(tree)] == ["os", "c"]
