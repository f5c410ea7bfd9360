"""Import rules: the package needs nothing outside the standard library,
the representation oracle in ``reps`` imports no other part of the
package than ``linalg``, and no closed-form module imports ``reps`` or
``certify``, the one bridge between them, so that the two routes stay
independent, and the chain-level ``yoneda`` imports nothing of
``ext_table``, whose closed form its Hom modulo homotopy is checked
against.  ``certify`` reaches ``reps`` and ``linalg`` as modules, so
that a wrapper put on one of their functions sees its calls.  The
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


CLOSED_FORM = ["fields", "linalg", "strings", "homs", "resolutions", "ext_table", "yoneda",
               "path_algebra"]


@pytest.mark.parametrize("module", CLOSED_FORM)
def test_no_closed_form_module_imports_the_oracle_or_its_bridge(module):
    assert not imported(PACKAGE / f"{module}.py") & {"extline.reps", "extline.certify"}


def from_imports(path):
    """(module, name) of each ``from .module import name`` in a file, an
    absolute ``from extline.module`` read as relative."""
    return {(node.module if node.level else node.module.removeprefix("extline."), alias.name)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names}


def test_the_bridge_reaches_the_oracle_as_modules():
    path = PACKAGE / "certify.py"
    assert {"extline.reps", "extline.linalg"} <= imported(path)
    assert not [(m, name) for m, name in from_imports(path) if m in ("reps", "linalg")]


def test_the_chain_level_route_is_blind_to_the_head_criterion():
    # tests/helpers.ext_class_dimension checks the solver's Hom modulo
    # homotopy against ext_table's closed form, so yoneda must not read it
    assert "extline.ext_table" not in imported(PACKAGE / "yoneda.py")


def test_a_module_is_not_shadowed_by_a_package_attribute():
    # a re-exported function ext_table would replace the module of that name
    # on the package, and a patch through extline.ext_table would miss
    import extline
    import extline.ext_table

    assert isinstance(extline.ext_table, types.ModuleType)
    assert extline.ext_table is importlib.import_module("extline.ext_table")
    public = {name for name in vars(extline) if not name.startswith("_")}
    assert public <= {path.stem for path in MODULES}
