"""Reference oracles stay out of production code.

:mod:`repro.oracles` holds the slow reference implementations the
differential suites test against.  No module of :mod:`repro` outside
that package may import it, and none may define a ``*_reference``
function or a ``MODE_*`` switch, so every production class carries
one implementation.  Checked on the source itself (parsed with
:mod:`ast`), not by importing anything.
"""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent
ORACLES = PACKAGE / "oracles"


def _package_of(path: Path) -> str:
    """The dotted package a module file's relative imports start from."""
    return ".".join(path.parent.relative_to(PACKAGE.parent).parts)


def _imported_modules(source: str, package: str):
    """Every module an import statement in ``source`` names, with
    relative imports resolved against ``package``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def _production_modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        if ORACLES not in path.parents:
            yield path, ast.parse(path.read_text())


# ``LocationService.objects_in_region_reference`` is the production
# path for ``min_confidence <= 0``, and perfbench's office workload
# calls it by name; it moves with the next change to the benchmark.
ALLOWED_REFERENCE_NAMES = {
    "service/location_service.py::objects_in_region_reference"}


def test_no_reference_twins_in_production():
    offenders = sorted(
        f"{path.relative_to(PACKAGE).as_posix()}::{node.name}"
        for path, tree in _production_modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_reference"))
    assert set(offenders) <= ALLOWED_REFERENCE_NAMES, offenders


def _mode_names(tree):
    """Every ``MODE_*`` name ``tree`` binds, imports or reads."""
    for node in ast.walk(tree):
        for name in (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None),
                     getattr(node, "asname", None)):
            if isinstance(name, str) and name.startswith("MODE_"):
                yield name


def test_no_reference_mode_in_production():
    offenders = sorted(
        f"{path.relative_to(PACKAGE).as_posix()}::{name}"
        for path, tree in _production_modules()
        for name in _mode_names(tree))
    assert offenders == []


def _is_oracle(name: str) -> bool:
    return name == "repro.oracles" or name.startswith("repro.oracles.")


def test_production_never_imports_oracles():
    offenders = sorted(
        f"{path.relative_to(PACKAGE.parent)} imports {name}"
        for path in PACKAGE.rglob("*.py")
        if ORACLES not in path.parents
        for name in _imported_modules(path.read_text(), _package_of(path))
        if _is_oracle(name))
    assert offenders == []


@pytest.mark.parametrize("source, expected", [
    ("import repro.oracles.orb_json", "repro.oracles.orb_json"),
    ("from repro.oracles import orb_json", "repro.oracles.orb_json"),
    ("from repro import oracles", "repro.oracles"),
    ("from ..oracles import orb_json", "repro.oracles.orb_json"),
    ("from .. import oracles", "repro.oracles"),
])
def test_scanner_sees_every_import_form(source, expected):
    # As seen from a module of repro.service.
    assert expected in set(_imported_modules(source, "repro.service"))
