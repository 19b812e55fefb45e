import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import modwind
from modwind import errors

MODULES = [
    importlib.import_module(f"modwind.{info.name}")
    for info in pkgutil.iter_modules(modwind.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_exist(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_modules_with_exports_found():
    assert sum(hasattr(m, "__all__") for m in MODULES) >= 6


ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    path
    for pattern in ("src/modwind/*.py", "tests/*.py", "demos/*.py")
    for path in ROOT.glob(pattern)
    if path != ROOT / "src" / "modwind" / "__init__.py"  # re-exports only
)


def unused_imports(source: str) -> list:
    """Names bound by an import (other than from __future__) that are never read.

    A name listed in the module's __all__ counts as read.
    """
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_detected():
    assert unused_imports("import cmath\nfrom math import pi, tau\nx = pi\n") == ["cmath", "tau"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from os import sep\n__all__ = ['sep']\n") == []


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


ROW_LAYOUT = ("start", "stop", "digits")
LAYOUT_SCANNED = sorted(
    path
    for pattern in ("src/modwind/*.py", "demos/*.py")
    for path in ROOT.glob(pattern)
    if path != ROOT / "src" / "modwind" / "geodesics.py"
)


def row_layout_reads(source: str) -> list:
    """Attributes of the census row layout (start, stop, digits) that the source reads."""
    return sorted(
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ROW_LAYOUT
    )


def test_row_layout_read_detected():
    source = "census.digits[census.start[0] : census.stop[0]]\ncensus.psi\nstart = 1\n"
    assert row_layout_reads(source) == ["digits", "start", "stop"]


@pytest.mark.parametrize("path", LAYOUT_SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_geodesics_reads_the_row_layout(path):
    assert row_layout_reads(path.read_text()) == []


def census_layout_readers(source: str) -> list:
    """Methods of class Census that read the row layout (start, stop, digits)."""
    (census,) = (
        node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef) and node.name == "Census"
    )
    return sorted(
        method.name
        for method in census.body
        if isinstance(method, ast.FunctionDef)
        and any(
            isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in ROW_LAYOUT
            for node in ast.walk(method)
        )
    )


def test_census_layout_reader_detected():
    source = (
        "class Census:\n"
        "    def __init__(self, start):\n"
        "        self.start = start\n"
        "    def __getitem__(self, i):\n"
        "        return self.digits[self.start[i] : self.stop[i]]\n"
        "    def __len__(self):\n"
        "        return len(self.trace)\n"
    )
    assert census_layout_readers(source) == ["__getitem__"]


def test_census_reads_its_row_layout_in_rows_only():
    # every row is read through rows(); rows_with_entry_at_least reads the
    # bounds and digits as whole columns
    source = (ROOT / "src" / "modwind" / "geodesics.py").read_text()
    assert census_layout_readers(source) == ["rows", "rows_with_entry_at_least"]


# The statistics read a census through its (trace, psi) count table only, so
# they have one input path.
CENSUS_COLUMNS = ("psi", "trace", "length")


def census_column_reads(source: str) -> list:
    """Attributes named like a census column (psi, trace, length) that the source reads."""
    return sorted(
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in CENSUS_COLUMNS
    )


def test_census_column_read_detected():
    source = "census.psi[:3] * census.length\ncensus.counts()\ntrace = census\nrec.trace\n"
    assert census_column_reads(source) == ["length", "psi", "trace"]


def test_stats_reads_only_the_count_table():
    source = (ROOT / "src" / "modwind" / "stats.py").read_text()
    assert census_column_reads(source) == []
    assert "counts" in {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


# The census walk's ragged expansion stays private to the walk.
WALK_HELPERS = ("_segments", "_bounds")


def walk_helper_uses(source: str) -> list:
    """The census walk's helpers (_segments, _bounds) that the source imports or names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names if alias.name in WALK_HELPERS)
        elif isinstance(node, ast.Name) and node.id in WALK_HELPERS:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in WALK_HELPERS:
            found.add(node.attr)
    return sorted(found)


def test_walk_helper_use_detected():
    source = "from .geodesics import _segments\ngeodesics._bounds(x)\n_segments = 1\nsegments(x)\n"
    assert walk_helper_uses(source) == ["_bounds", "_segments"]


@pytest.mark.parametrize("path", LAYOUT_SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_geodesics_uses_the_walk_helpers(path):
    assert walk_helper_uses(path.read_text()) == []


# Each word is checked once: the library builds its words with the private
# geodesics._canonical_word after it has validated and rotated them, and the
# checked CyclicWord(...) is left to outside callers.
PRIVATE_WORD = "_canonical_word"


def word_constructions(source: str) -> list:
    """'CyclicWord' for each call of CyclicWord(...), and the private word
    constructor's name for each place that imports or names it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "CyclicWord":
                found.append("CyclicWord")
        elif isinstance(node, ast.ImportFrom):
            found.extend(alias.name for alias in node.names if alias.name == PRIVATE_WORD)
        elif (isinstance(node, ast.Name) and node.id == PRIVATE_WORD) or (
            isinstance(node, ast.Attribute) and node.attr == PRIVATE_WORD
        ):
            found.append(PRIVATE_WORD)
    return sorted(found)


def test_word_construction_detected():
    source = (
        "CyclicWord((1, 2))\ngeodesics.CyclicWord(w)\nword = CyclicWord\n"
        "from .geodesics import _canonical_word\ngeodesics._canonical_word(e)\n"
        "def _canonical_word(e):\n    return e\n"
    )
    assert word_constructions(source) == ["CyclicWord", "CyclicWord", PRIVATE_WORD, PRIVATE_WORD]


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("src/modwind/*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_library_builds_words_unchecked_in_geodesics_only(path):
    found = word_constructions(path.read_text())
    assert "CyclicWord" not in found
    assert (PRIVATE_WORD in found) == (path.name == "geodesics.py")


# validate_entries returns the entries it checked as Python ints, so a reader
# that drops the result would go on with the unconverted word.
def bare_validations(source: str) -> list:
    """Line numbers of the validate_entries calls that stand alone as statements."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", getattr(node.value.func, "attr", None)) == "validate_entries"
    )


def test_bare_validation_detected():
    source = (
        "validate_entries(w)\nentries = validate_entries(w)\ngeodesics.validate_entries(w)\n"
        "f(validate_entries(w))\nif True:\n    validate_entries(w)\n"
    )
    assert bare_validations(source) == [1, 3, 6]


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("src/modwind/*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_every_validation_result_is_used(path):
    assert bare_validations(path.read_text()) == []


def raised_names(source: str) -> set:
    """Names of the exception classes that the source's raise statements raise."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_raised_error_detected():
    source = "raise A('x')\nraise B\nraise errors.C(1) from None\ntry:\n    f()\nexcept D:\n    raise\n"
    assert raised_names(source) == {"A", "B", "C"}


def test_every_leaf_error_is_raised():
    classes = [
        c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__
    ]
    leaves = {c.__name__ for c in classes if not c.__subclasses__()}
    raised = set().union(*(raised_names(p.read_text()) for p in ROOT.glob("src/modwind/*.py")))
    assert len(leaves) >= 12
    assert sorted(leaves - raised) == []


# The exact layer computes with integers; rationals appear only in the
# Dedekind-sum oracle, in dedekind_sum's return value, and in verify.
FRACTION_USERS = {
    "matrices.py": {"<module>", "sawtooth", "dedekind_sum_direct", "dedekind_sum"},
    "verify.py": None,  # any
}


def fraction_users(source: str) -> set:
    """Top-level functions and classes (or "<module>") that name Fraction or the fractions module."""
    users = set()
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if (
                (isinstance(node, ast.Name) and node.id in ("Fraction", "fractions"))
                or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
                or (isinstance(node, ast.ImportFrom) and node.module == "fractions")
                or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
            ):
                users.add(owner)
    return users


def test_fraction_use_detected():
    source = (
        "from fractions import Fraction as F\n"
        "def f(x):\n    return F(x) if x else fractions.Fraction(1)\n"
        "def g(x):\n    return x\n"
        "class C:\n    def h(self):\n        import fractions\n"
    )
    assert fraction_users(source) == {"<module>", "f", "C"}
    assert fraction_users("def f(x):\n    return Fraction(x)\n") == {"f"}


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("src/modwind/*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_fraction_only_in_the_oracle(path):
    users = fraction_users(path.read_text())
    allowed = FRACTION_USERS.get(path.name, set())
    if allowed is not None:
        assert sorted(users - allowed) == []


# The exact symbols compute on plain integers: no matrix product, and a Mat2
# built only where a caller asks for a generator's matrix.
def matrix_builders(source: str) -> set:
    """(owner, "@") for each matrix product and (owner, "Mat2") for each Mat2 call,
    with owner the top-level function or class (or "<module>") that holds it."""
    found = set()
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.add((owner, "@"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Mat2":
                found.add((owner, "Mat2"))
    return found


def test_matrix_builder_detected():
    source = (
        "I = Mat2(1, 0, 0, 1)\n"
        "def f(g, h):\n    return g @ h\n"
        "def k(x):\n    x @= x\n    return Mat2(*x.entries())\n"
        "def n(x):\n    return x.Mat2(1) * 2\n"
    )
    assert matrix_builders(source) == {("<module>", "Mat2"), ("f", "@"), ("k", "@"), ("k", "Mat2")}


def imported_names(source: str) -> set:
    """Names the source imports with from-imports."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_exact_symbols_compute_on_integers():
    src = ROOT / "src" / "modwind"
    rademacher = (src / "rademacher.py").read_text()
    assert matrix_builders(rademacher) == {("word_factor_matrix", "Mat2")}
    assert sorted(imported_names(rademacher) & {"IDENTITY", "S", "T", "omega"}) == []
    assert ("omega", "@") not in matrix_builders((src / "matrices.py").read_text())


# The continued-fraction walk runs on the two integers (P, Q), and the routes
# take their axis from its reduced state, not from a rebuilt matrix.
def test_walk_and_routes_build_no_matrix():
    src = ROOT / "src" / "modwind"
    assert matrix_builders((src / "geodesics.py").read_text()) == {("word_to_matrix", "Mat2")}
    winding = (src / "winding.py").read_text()
    assert matrix_builders(winding) == set()
    assert sorted(imported_names(winding) & {"fixed_points", "reduced_conjugate"}) == []


# The benchmark and the demos import the program by name, and tier-1 does not
# run the benchmark, so a deleted public name must fail here.
IMPORTERS = sorted(
    path for pattern in ("perfbench/*.py", "demos/*.py") for path in ROOT.glob(pattern)
)


def missing_imports(source: str) -> list:
    """'module.name' for each name that the source imports from modwind or a
    modwind submodule and that the module does not define."""
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module == "modwind" or node.module.startswith("modwind."))
        for alias in node.names
        if not hasattr(importlib.import_module(node.module), alias.name)
    ]


def test_missing_import_detected():
    source = (
        "import gen\nfrom gen import anything\nfrom modwind import psi, no_such_name\n"
        "from modwind.winding import e2_period, LogDeltaValue\n"
    )
    assert missing_imports(source) == ["modwind.no_such_name", "modwind.winding.LogDeltaValue"]


def test_importers_found():
    names = {path.parent.name for path in IMPORTERS}
    assert names == {"perfbench", "demos"}


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: str(p.relative_to(ROOT)))
def test_imported_names_exist(path):
    assert missing_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "path", [p for p in IMPORTERS if p.parent.name == "demos"], ids=lambda p: p.name
)
def test_demo_runs(path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
