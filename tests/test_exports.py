import ast
import copy
import dataclasses
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modwind
from modwind import DomainError, errors
from modwind.geodesics import CyclicWord, EnumerationConfig, GeodesicRecord
from modwind.matrices import Mat2
from modwind.stats import DistributionReport, TwistedSumReport, WindingHistogram
from modwind.verify import SuiteResult
from modwind.winding import WindingResult, _Axis

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


def quoted_constants(text: str) -> list:
    """(name, value) of each `NAME = N` the text quotes, commas dropped from N."""
    pattern = r"`([A-Z][A-Z0-9_]*) = ([0-9][0-9,]*(?:\.[0-9]+)?)`"
    return [(name, ast.literal_eval(value.replace(",", ""))) for name, value in re.findall(pattern, text)]


def constant_drift(quoted: list) -> list:
    """The quoted (name, value) pairs that are not the value of that modwind constant."""
    return [
        (name, value)
        for name, value in quoted
        if {getattr(m, name) for m in MODULES if hasattr(m, name)} != {value}
    ]


def test_readme_constant_drift_detected():
    text = "`MAX_SAMPLE = 10,000`, `MAX_TRACE_CAP = 8,056`, `NO_SUCH = 1.5` and MAX_SAMPLE = 9"
    quoted = quoted_constants(text)
    assert quoted == [("MAX_SAMPLE", 10000), ("MAX_TRACE_CAP", 8056), ("NO_SUCH", 1.5)]
    assert constant_drift(quoted) == [("MAX_TRACE_CAP", 8056), ("NO_SUCH", 1.5)]


def test_readme_quotes_the_constants():
    quoted = quoted_constants((ROOT / "README.md").read_text())
    assert {"MAX_TRACE_CAP", "VERIFY_MAX_TRACE_CAP"} <= {name for name, _ in quoted}
    assert constant_drift(quoted) == []


def exported_names(tree: ast.Module) -> set:
    """The names in the module's __all__ (none if it has no __all__)."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def unused_imports(source: str) -> list:
    """Names bound by an import (other than from __future__) that are never read.

    A name listed in the module's __all__ counts as read.
    """
    tree = ast.parse(source)
    imported = set()
    used = exported_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_unused_import_detected():
    assert unused_imports("import cmath\nfrom math import pi, tau\nx = pi\n") == ["cmath", "tau"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from os import sep\n__all__ = ['sep']\n") == []


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


ROW_LAYOUT = ("walk_index", "words")
LAYOUT_SCANNED = sorted(
    path
    for pattern in ("src/modwind/*.py", "demos/*.py")
    for path in ROOT.glob(pattern)
    if path != ROOT / "src" / "modwind" / "geodesics.py"
)


def row_layout_reads(source: str) -> list:
    """Attributes of the census row layout (walk_index, words) that the source reads."""
    return sorted(
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ROW_LAYOUT
    )


def test_row_layout_read_detected():
    source = "census.words[0][census.walk_index[0]]\ncensus.psi\nwalk_index = 1\naxis.at(t)\n"
    assert row_layout_reads(source) == ["walk_index", "words"]


@pytest.mark.parametrize("path", LAYOUT_SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_geodesics_reads_the_row_layout(path):
    assert row_layout_reads(path.read_text()) == []


def census_layout_readers(source: str) -> list:
    """Methods of class Census that read the row layout (walk_index, words)."""
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
        "    def __init__(self, walk_index):\n"
        "        self.walk_index = walk_index\n"
        "    def __getitem__(self, i):\n"
        "        return self.words[0][self.walk_index[i]]\n"
        "    def __len__(self):\n"
        "        return len(self.trace)\n"
    )
    assert census_layout_readers(source) == ["__getitem__"]


def test_census_reads_its_row_layout_in_rows_only():
    # every row is read through rows(); rows_with_entry_at_least reads the
    # walk index and the word blocks whole
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


# Each matrix is checked once, as each word is: matrices.py builds a product,
# negation or inverse of checked matrices with the private _mat2, and every
# matrix from outside (cli._parse_gamma, word_to_matrix, word_factor_matrix)
# is built by the checked Mat2(...).
PRIVATE_MATRIX = "_mat2"


def private_matrix_uses(source: str) -> list:
    """The private matrix constructor's name for each place that imports or names it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.extend(alias.name for alias in node.names if alias.name == PRIVATE_MATRIX)
        elif (isinstance(node, ast.Name) and node.id == PRIVATE_MATRIX) or (
            isinstance(node, ast.Attribute) and node.attr == PRIVATE_MATRIX
        ):
            found.append(PRIVATE_MATRIX)
    return found


def test_private_matrix_use_detected():
    source = (
        "from .matrices import _mat2\nmatrices._mat2(1, 0, 0, 1)\nm = _mat2\n"
        "Mat2(1, 0, 0, 1)\nmat2(g)\ng._mat2x\n"
    )
    assert private_matrix_uses(source) == [PRIVATE_MATRIX] * 3


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("src/modwind/*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_library_builds_matrices_unchecked_in_matrices_only(path):
    assert bool(private_matrix_uses(path.read_text())) == (path.name == "matrices.py")


def test_cli_builds_its_matrix_checked():
    # word_to_matrix and word_factor_matrix are held to Mat2(...) by the
    # matrix_builders tests below
    cli = (ROOT / "src" / "modwind" / "cli.py").read_text()
    assert ("_parse_gamma", "Mat2") in matrix_builders(cli)


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
    assert len(leaves) >= 6
    assert sorted(leaves - raised) == []


# The statistics and the multiplier system read the orbifold's normalisation,
# pi/V = 3 for the area V = pi/3, from one constant, matrices._PI_OVER_AREA:
# no 3, 6 (2 pi/V) or 12 (4 pi/V) is written out in them.
NORMALISATION_VALUES = (3, 6, 12)


def normalisation_literals(source: str, functions=None) -> list:
    """(line, value) of each numeric literal equal to 3, 6 or 12 in the source,
    or only in its top-level functions named in `functions`."""
    return sorted(
        (node.lineno, node.value)
        for top in ast.parse(source).body
        if functions is None or (isinstance(top, ast.FunctionDef) and top.name in functions)
        for node in ast.walk(top)
        if isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and node.value in NORMALISATION_VALUES
    )


def test_normalisation_literal_detected():
    source = (
        "def f(x):\n    return 3.0 / x + 12\n"
        "def g(x):\n    return -6 * x - 4 * N  # 6\n"
        "Y = 2 * 6\nZ = '3'\nB = True + 3j\n"
    )
    assert normalisation_literals(source) == [(2, 3.0), (2, 12), (4, 6), (5, 6)]
    assert normalisation_literals(source, {"g"}) == [(4, 6)]


def test_normalisation_from_one_constant():
    src = ROOT / "src" / "modwind"
    assert normalisation_literals((src / "stats.py").read_text()) == []
    rademacher = (src / "rademacher.py").read_text()
    assert normalisation_literals(rademacher, {"s_symbol", "chi_r"}) == []


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


# Both routes sum the q-series in one place, _series, which skips it at the
# flat nodes: no other function may name _horner or form q, the exponential
# of an imaginary multiple of the point.
def series_evaluators(source: str) -> list:
    """Innermost functions (or "<module>") that name _horner or call exp on an
    argument holding an imaginary constant."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        name = getattr(node, "id", getattr(node, "attr", None))
        if isinstance(node, (ast.Name, ast.Attribute)) and name == "_horner":
            found.add(owner)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "exp":
            if any(
                isinstance(leaf, ast.Constant) and isinstance(leaf.value, complex)
                for arg in node.args
                for leaf in ast.walk(arg)
            ):
                found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_series_evaluator_detected():
    source = (
        "def _series(coeffs, z):\n    return _horner(coeffs, np.exp(2j * math.pi * z))\n"
        "def _e2(z):\n    q = cmath.exp(z * 2j)\n    return q\n"
        "def at(t):\n    return 1j * np.exp(t)\n"
        "def outer():\n    def inner(q):\n        return winding._horner(C, q)\n    return inner\n"
        "series = _horner\n"
    )
    assert series_evaluators(source) == ["<module>", "_e2", "_series", "inner"]


def test_winding_sums_the_series_in_one_place():
    assert series_evaluators((ROOT / "src" / "modwind" / "winding.py").read_text()) == ["_series"]


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


# A public function earns its place by a caller in the program, a demo or the
# benchmark; one that only tests call is dead weight in the API.
CALLER_SOURCES = sorted(
    path
    for pattern in ("src/modwind/*.py", "demos/*.py", "perfbench/*.py")
    for path in ROOT.glob(pattern)
    if path.name != "__init__.py" and not path.name.startswith("test_")
)


def names_read(source: str) -> set:
    """Names the source reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def uncalled_exports(source: str, callers: list) -> list:
    """Top-level functions in the source's __all__ that no caller source names."""
    tree = ast.parse(source)
    exported = exported_names(tree)
    read = set().union(*map(names_read, callers))
    return sorted(
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in exported and node.name not in read
    )


def test_uncalled_export_detected():
    source = (
        "__all__ = ['f', 'g', 'h', 'C', 'K']\n"
        "def f():\n    return g()\n"
        "def g():\n    pass\n"
        "def h():\n    pass\n"
        "def private():\n    pass\n"
        "class C:\n    pass\n"
        "K = 1\n"
    )
    assert uncalled_exports(source, [source]) == ["f", "h"]
    assert uncalled_exports(source, [source, "import m\nm.f()\nx = h\n"]) == []


def test_caller_sources_found():
    assert {path.parent.name for path in CALLER_SOURCES} == {"modwind", "demos", "perfbench"}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in ROOT.glob("src/modwind/*.py") if p.name != "__init__.py"),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_every_exported_function_has_a_caller(path):
    callers = [p.read_text() for p in CALLER_SOURCES]
    assert uncalled_exports(path.read_text(), callers) == []


# Value classes are slotted: an instance holds its fields and no dict, which
# is 40 B less per Mat2 and 80 B less per census row (a record and its word).
def unslotted_dataclasses(source: str) -> list:
    """Names of the classes whose dataclass decorator does not pass slots=True."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            func = call.func if call else deco
            if getattr(func, "id", getattr(func, "attr", None)) != "dataclass":
                continue
            slots = [k.value for k in (call.keywords if call else ()) if k.arg == "slots"]
            if not (slots and isinstance(slots[0], ast.Constant) and slots[0].value is True):
                found.append(node.name)
    return found


def test_unslotted_dataclass_detected():
    source = (
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(frozen=True)\nclass B:\n    x: int\n"
        "@dataclasses.dataclass(slots=False)\nclass C:\n    x: int\n"
        "@dataclass(frozen=True, slots=True)\nclass D:\n    x: int\n"
        "@dataclasses.dataclass(slots=True)\nclass E:\n    x: int\n"
        "@other(slots=False)\nclass F:\n    pass\n"
    )
    assert unslotted_dataclasses(source) == ["A", "B", "C"]


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("src/modwind/*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_every_dataclass_is_slotted(path):
    assert unslotted_dataclasses(path.read_text()) == []


def value_instances() -> dict:
    """One instance of each dataclass under src/modwind, keyed by its name."""
    word = CyclicWord((1, 2))
    values = [
        Mat2(2**70 + 1, 2**70, 1, 1),
        word,
        GeodesicRecord(word, 3, 1.9248473002384139, 1),
        EnumerationConfig(1.0),
        _Axis(1.0, -1.0, 1.0, 0.0),
        WindingResult(1, 1e-9, 24),
        WindingHistogram(1.0, {0: 1}, 1),
        DistributionReport(0.1, [(0.0, 0.5)], [(0.0, 0.5)]),
        TwistedSumReport(0.1, 1 + 0j, None, None),
        SuiteResult("suite", 1, 0),
    ]
    return {type(v).__name__: v for v in values}


def test_no_value_instance_has_a_dict():
    classes = {
        c.__name__
        for module in MODULES
        for c in vars(module).values()
        if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__ == module.__name__
    }
    values = value_instances()
    assert sorted(values) == sorted(classes)
    assert [name for name, v in values.items() if hasattr(v, "__dict__")] == []


# Slotted frozen values pickle through the __getstate__ that dataclass writes,
# and copies compare and hash as the original does.
@pytest.mark.parametrize("name", ["Mat2", "CyclicWord", "GeodesicRecord", "WindingResult"])
def test_value_survives_pickle_and_copy(name):
    value = value_instances()[name]
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
    field = dataclasses.fields(value)[-1].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))


def test_replace_goes_through_the_checks():
    replace = dataclasses.replace
    values = value_instances()
    m = values["Mat2"]
    assert replace(m, a=1, b=0, c=0, d=1).trace == 2
    with pytest.raises(DomainError, match="determinant"):
        replace(m, b=m.b + 1)
    w = values["CyclicWord"]
    assert replace(w, entries=(1, 3)).entries == (1, 3)
    with pytest.raises(DomainError, match="canonical rotation"):
        replace(w, entries=(2, 1, 1, 1))
    assert replace(values["GeodesicRecord"], psi=-1).psi == -1
    assert replace(values["WindingResult"], steps=25).steps == 25
