"""The package runs on the Python standard library alone."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "asrlm"


def imported_top_names(source: str) -> set[str]:
    """The top-level names of the absolute imports in `source`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_the_standard_library_and_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "pipeline.py" in modules
    foreign = sorted(
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in modules
        for name in imported_top_names(path.read_text(encoding="utf-8"))
        if name != "asrlm" and name not in sys.stdlib_module_names
    )
    assert foreign == []


def test_imported_top_names_sees_every_import_form():
    source = "import numpy.linalg as la\nfrom scipy import stats\nfrom . import x\nimport os, re\n"
    assert imported_top_names(source) == {"numpy", "scipy", "os", "re"}
