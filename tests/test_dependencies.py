"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import hopflift

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hopflift"}


def test_src_imports_only_stdlib_numpy_and_the_package():
    src = Path(hopflift.__file__).parent
    found = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(path.name)
    assert "numpy" in found
    assert {top: files for top, files in found.items() if top not in ALLOWED} == {}
