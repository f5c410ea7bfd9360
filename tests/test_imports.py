"""Import rules: the package needs nothing outside the standard library,
the representation oracle in ``reps`` imports no other part of the
package than ``linalg``, so that it stays an independent route, and the
modules are the API: the package re-exports none of their names."""

import ast
import importlib
import sys
import types
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


def test_a_module_is_not_shadowed_by_a_package_attribute():
    # a re-exported function ext_table would replace the module of that name
    # on the package, and a patch through extline.ext_table would miss
    import extline
    import extline.ext_table

    assert isinstance(extline.ext_table, types.ModuleType)
    assert extline.ext_table is importlib.import_module("extline.ext_table")
    public = {name for name in vars(extline) if not name.startswith("_")}
    assert public <= {path.stem for path in MODULES}
