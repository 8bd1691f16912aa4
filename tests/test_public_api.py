"""The public surface of the package, pinned: adding or removing an export
changes this list on purpose.  The list is explicit, so the submodules
(``isoprod.search`` and the rest) stay importable but are not exported.
Every module-level import of a package module is used in that module, and
no package module imports ``dataclasses``: the value types are written out,
and each keeps equality, hashing, immutability and a readable ``repr``."""

from __future__ import annotations

import ast
import enum
from pathlib import Path

import pytest

import isoprod
from conftest import run_fresh
from isoprod import (
    AbelianGroup,
    AlgebraicDatum,
    Aut0Result,
    Aut0Status,
    DatumReport,
    EigenDimTable,
    GeneratingVector,
    HodgeDiamond,
    InvariantFactors,
    NumericalInvariants,
    QuotientStructure,
    SearchSpec,
    SurveyResult,
    ValidationOutcome,
    VectorSpec,
    eigendim_table,
    example1,
    quotient_structure,
)

MODULES = sorted(Path(isoprod.__file__).resolve().parent.glob("*.py"))

PUBLIC = [
    "AbelianGroup", "AlgebraicDatum", "Aut0Result", "Aut0Status", "Character",
    "ConsistencyError", "DatumReport", "EigenDimTable", "GeneratingVector",
    "GroupElement", "HodgeDiamond",
    "InvariantFactors", "IsoprodError", "NumericalInvariants", "OracleScaleError",
    "OverflowLimitError", "ParentMismatchError", "QuotientStructure", "RigidityClass",
    "SchemaError", "SearchCapError", "SearchSpec", "Subgroup",
    "SurveyResult", "TheoremViolationError", "UnsupportedDatumError",
    "ValidationOutcome", "VectorSpec", "admissible_characters", "aut0", "build_example",
    "cw_dimension", "datum_document", "direct_product", "dumps",
    "eigendim_table", "enumerate_data", "estimate_space", "example1", "example2a",
    "example2b", "example3", "example4", "genus", "hodge_diamond", "invariants",
    "isotypic_decomposition", "loads", "parse_datum_document",
    "quotient_structure", "representation_kernel", "rigidity_class",
    "smith_normal_form", "stabilizer_union", "subgroup_quotient", "survey",
    "validate_datum", "verify_generator",
]


def test_public_surface_is_pinned():
    assert sorted(isoprod.__all__) == PUBLIC


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    # No linter runs on the package, so an import left behind by a change
    # shows up here.  A name counts as used when the module reads it; the
    # package imports nothing to re-export it.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(((a.asname or a.name).split(".")[0], node.lineno)
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    # ``@dataclass`` generates and compiles its methods at import time, which
    # every short ``isoprod`` process pays for.
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "dataclasses" not in imported


def _module_level_imports(path: Path) -> set[str]:
    """The modules a file imports at its top level, as written: ``.oracle``
    for ``from .oracle import x`` and for ``from . import oracle``."""
    imported = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add("." * node.level + node.module)
        elif isinstance(node, ast.ImportFrom):
            imported.update("." * node.level + a.name for a in node.names)
    return imported


def test_only_the_command_line_imports_click_or_the_oracle_eagerly():
    # A report (``isoprod.cli.build_report``) loads neither click nor the
    # oracle: click belongs to the command module, and the report imports
    # the oracle when its cross-check is first asked for.
    clicking = {path.name for path in MODULES
                if any(m.split(".")[0] == "click" for m in _module_level_imports(path))}
    assert clicking == {"__main__.py"}
    cli = next(path for path in MODULES if path.name == "cli.py")
    assert not {".oracle", "isoprod.oracle"} & _module_level_imports(cli)


class TestLazyNamespace:
    """``import isoprod`` loads no package module, and each public name
    loads its home module on first read.  Each check runs in a fresh
    interpreter, since this one has loaded every module."""

    def test_import_loads_no_package_module(self):
        assert run_fresh("import json, sys, isoprod\n"
                         "print(json.dumps([m for m in sys.modules if m.startswith('isoprod.')]))"
                         ) == []

    def test_a_document_loads_no_later_layer(self):
        script = """
import json, sys
from isoprod import datum_document, example1
datum_document(example1())
print(json.dumps([m for m in ("aut0", "hodge", "search", "cli", "oracle")
                  if "isoprod." + m in sys.modules]))
"""
        assert run_fresh(script) == []

    @pytest.mark.parametrize("cli_first", [True, False])
    def test_aut0_is_the_function_whatever_is_imported_first(self, cli_first):
        script = """
import importlib, json, sys, types
if sys.argv[1] == "True":
    import isoprod.cli
import isoprod
from isoprod import aut0
seen = [isoprod.aut0, aut0]
import isoprod.cli
from isoprod import aut0
seen += [isoprod.aut0, aut0]
module = importlib.import_module("isoprod.aut0")
print(json.dumps([isinstance(module, types.ModuleType) and module.__name__,
                  all(f is module.aut0 for f in seen)]))
"""
        assert run_fresh(script, str(cli_first)) == ["isoprod.aut0", True]

    def test_every_name_is_the_object_of_its_home_module(self):
        script = """
import importlib, json, isoprod
star = {}
exec("from isoprod import *", star)
wrong = [name for name in isoprod.__all__
         if not (name in star and star[name].__module__.startswith("isoprod.")
                 and getattr(importlib.import_module(star[name].__module__), name)
                 is star[name] is getattr(isoprod, name))]
print(json.dumps([wrong, sorted(set(isoprod.__all__) - set(dir(isoprod)))]))
"""
        assert run_fresh(script) == [[], []]

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="^module 'isoprod' has no attribute 'nope'$"):
            isoprod.nope  # noqa: B018


Z2xZ4 = AbelianGroup((2, 4))
E1 = example1()
Q = quotient_structure(Z2xZ4, Z2xZ4.trivial_subgroup())
OUTCOME = ValidationOutcome(())

# Each public value type: a construction from an integer ``k`` (equal for
# equal ``k``; ``k = 1`` changes one field against ``k = 0``) and a field
# to assign.
VALUE_TYPES = {
    "AbelianGroup": (lambda k: AbelianGroup((2, 4 + 2 * k)), "orders"),
    "GroupElement": (lambda k: Z2xZ4.element((1, k)), "exponents"),
    "Character": (lambda k: Z2xZ4.character((1, k)), "exponents"),
    "Subgroup": (lambda k: Z2xZ4.subgroup([Z2xZ4.element((0, 1 + k))]), "basis"),
    "InvariantFactors": (lambda k: InvariantFactors((2, 4 + 4 * k)), "factors"),
    "QuotientStructure": (lambda k: QuotientStructure(
        Q.numerator, Q.denominator, Q.invariant_factors, Q.generators[::1 - 2 * k], Q.group,
        Q._proj), "generators"),
    "VectorSpec": (lambda k: VectorSpec(1 + k, E1.raw_vectors[0].branch, ()), "g_prime"),
    "GeneratingVector": (lambda k: GeneratingVector(Z2xZ4, k, (Z2xZ4.element((0, 2)),) * 2, ()),
                         "g_prime"),
    "ValidationOutcome": (lambda k: ValidationOutcome(("broken",) * k), "violations"),
    "AlgebraicDatum": (lambda k: AlgebraicDatum(E1.group, E1.kernels, E1.vectors, E1.quotients,
                                                E1.raw_vectors[::1 - 2 * k]), "raw_vectors"),
    "DatumReport": (lambda k: DatumReport(True, None, True, None, (OUTCOME,) * 3, (5, 5, 5),
                                          3 + k, True, True), "irregularity"),
    "NumericalInvariants": (lambda k: NumericalInvariants((5, 5, 5), -8, 0, -384 + k),
                            "canonical_cube"),
    "EigenDimTable": (lambda k: EigenDimTable(example1(1 + k), eigendim_table(E1)._classes),
                      "datum"),
    "HodgeDiamond": (lambda k: HodgeDiamond(((1, 3 + k),)), "h"),
    "Aut0Result": (lambda k: Aut0Result(Aut0Status.PROVEN, InvariantFactors(()), (), (k, 0),
                                        Z2xZ4, None, None, None), "admissible_counts"),
    "SearchSpec": (lambda k: SearchSpec((2, 2), max_branch=3 + k), "max_branch"),
    "SurveyResult": (lambda k: SurveyResult(k, {}, {}), "count"),
}


def test_every_public_class_is_a_value_type():
    classes = {name for name in PUBLIC
               if isinstance(getattr(isoprod, name), type)
               and not issubclass(getattr(isoprod, name), (Exception, enum.Enum))}
    assert classes == set(VALUE_TYPES)


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_type(name):
    build, field = VALUE_TYPES[name]
    a, b, other = build(0), build(0), build(1)
    assert type(a) is getattr(isoprod, name)
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert repr(a).startswith(name + "(")
    if name == "SurveyResult":
        # The one mutable result: unhashable, and its fields can be set.
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, field, 1)
        assert a == other
        return
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_values_built_twice_hash_equal():
    # Two separate constructions share no object, so the quotients'
    # projection data are compared and hashed by value.
    assert hash(example1()) == hash(example1())
    assert hash(eigendim_table(example1())) == hash(eigendim_table(example1()))
    assert len({example1(), example1(), example1(2)}) == 2
