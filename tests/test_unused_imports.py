"""No module of the package imports a name it never uses.

A stdlib-``ast`` walk over every module under ``src/repro``: each name an
``import`` statement binds must be referenced somewhere in its module — as a
name, the base of an attribute, inside a quoted annotation (a forward
reference to a ``TYPE_CHECKING`` import), or as an ``__all__`` entry.
``__init__.py`` files re-export what they import, so their imports count as
used.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def _annotation_names(annotation: Optional[ast.expr]) -> Iterator[str]:
    """Names inside an annotation, quoted parts included."""
    if annotation is None:
        return
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed.body)


def _referenced(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    return used


def unused_imports(source: str) -> List[str]:
    """``"line: name"`` for every imported name ``source`` never references."""
    tree = ast.parse(source)
    used = _referenced(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{node.lineno}: {bound}")
    return unused


def test_modules_found():
    assert len(MODULES) > 50


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(SRC)) for path in MODULES]
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_what_it_must():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import TYPE_CHECKING, List, Optional\n"
        "import numpy as np\n"
        "from a import exported\n"
        "if TYPE_CHECKING:\n"
        "    from b import Forward\n"
        "__all__ = ['exported']\n"
        "def f(x: 'Optional[Forward]') -> List[int]:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["2: sys", "4: np"]
