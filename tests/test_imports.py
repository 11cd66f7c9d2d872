"""Every imported name is used: a standard-library ``ast`` scan of the
package, the tests and the scripts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts")


def _annotation_names(node: ast.AST):
    """Names inside a string annotation such as ``"Lit | None"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each name an import binds that the module never
    reads, in source order.  ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from typing import Callable, Iterable\n"
        "def f(x: 'Callable[[], int]') -> None:\n"
        "    return osp.join(x)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "Iterable")]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for folder in SCANNED:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for line, name in unused_imports(path.read_text(encoding="utf-8")):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == []
