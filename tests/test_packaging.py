from __future__ import annotations

import ast
import sys
from pathlib import Path

import cellmatch


def test_package_imports_only_the_standard_library():
    package = Path(cellmatch.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside, outside


def test_cell_complex_is_constructed_only_in_complexes():
    """The builders own the tables and the cell order, and the constructor
    trusts both, so no other module calls ``CellComplex(...)``."""
    package = Path(cellmatch.__file__).resolve().parent
    callers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "CellComplex" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {"complexes.py"}, callers
