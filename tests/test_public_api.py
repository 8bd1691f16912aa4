"""The public surface of the package, pinned: adding or removing an export
changes this list on purpose.  The list is explicit, so the submodules
(``isoprod.search`` and the rest) stay importable but are not exported.
Every module-level import of a package module is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import isoprod

MODULES = sorted(Path(isoprod.__file__).resolve().parent.glob("*.py"))

PUBLIC = [
    "AbelianGroup", "AlgebraicDatum", "Aut0Result", "Aut0Status", "Character",
    "ConsistencyError", "DatumReport", "EigenDimTable", "GeneratingVector",
    "GroupElement", "HodgeDiamond",
    "InvariantFactors", "IsoprodError", "NumericalInvariants", "OracleScaleError",
    "OverflowLimitError", "ParentMismatchError", "QuotientStructure", "RigidityClass",
    "SchemaError", "SearchCapError", "SearchSpec", "StructuralError", "Subgroup",
    "SurveyResult", "TheoremViolationError", "UnsupportedDatumError",
    "ValidationOutcome", "VectorSpec", "admissible_characters", "aut0", "build_example",
    "cw_dimension", "datum_document", "diagonal_subgroup", "direct_product", "dumps",
    "eigendim_table", "enumerate_data", "estimate_space", "example1", "example2a",
    "example2b", "example3", "example4", "genus", "hodge_diamond", "invariants",
    "isotypic_decomposition", "loads", "parse_datum_document",
    "quotient_structure", "representation_kernel", "rigidity_class",
    "smith_normal_form", "stabilizer_union", "subgroup_quotient", "survey",
    "validate_datum", "validate_generating_vector", "verify_generator",
]


def test_public_surface_is_pinned():
    assert sorted(isoprod.__all__) == PUBLIC


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    # No linter runs on the package, so an import left behind by a change
    # shows up here.  A name counts as used when the module reads it or
    # exports it through ``__all__``.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(((a.asname or a.name).split(".")[0], node.lineno)
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    assert {name: line for name, line in imported.items() if name not in used} == {}
