"""Every module-level import in ``src/`` is used by its module.

No linter ships with the test dependencies, so this walks each module's
syntax tree instead: a name bound by a module-level ``import`` (also
inside a module-level ``if``/``try``, such as a ``TYPE_CHECKING``
block) must be read somewhere in the module.  Names re-exported through
``__all__`` count as used, and so does a name that appears only inside
a quoted annotation (``"DemandSeries"``).  ``__future__`` imports are
directives, not bindings.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _module_imports(tree: ast.Module) -> dict[str, int]:
    """``{bound name: line}`` of every module-level import."""
    bound: dict[str, int] = {}
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body)
            pending.extend(node.orelse)
            if isinstance(node, ast.Try):
                pending.extend(node.finalbody)
                for handler in node.handlers:
                    pending.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    """Every annotation expression of the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a type
                    continue
                used.update(
                    n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                )
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for name, line in sorted(_module_imports(tree).items())
        if name not in used
    ]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_module_uses_every_import(path):
    assert unused_imports(path) == []


def test_checker_flags_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, Any\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "__all__ = ['Any']\n"
        "def f(p: 'Path') -> None:\n"
        "    return os.path.join(p)\n"
    )
    unused = sorted(set(_module_imports(tree)) - _used_names(tree))
    assert unused == ["json"]
