"""Import rules: the package needs nothing outside the standard library,
and the representation oracle in ``reps`` imports no other part of the
package than ``linalg``, so that it stays an independent route."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "extline"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported(path):
    """Names of the modules a file imports, relative ones as extline.<name>."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            modules = [node.module] if node.module else [a.name for a in node.names]
            names.update(f"extline.{m}" for m in modules)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


def test_the_package_has_modules():
    assert PACKAGE / "reps.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_only_the_standard_library_and_extline(path):
    outside = {
        name for name in imported(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"extline"}
    }
    assert not outside


def test_the_oracle_imports_only_linalg():
    assert imported(PACKAGE / "reps.py") <= {"__future__", "extline.linalg"}
