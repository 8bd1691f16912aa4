"""Exact invariants of 3-folds isogenous to a product of curves.

The package takes the algebraic datum of such a 3-fold (finite abelian
group, three kernels, three generating vectors over the quotients),
validates it, computes the Hodge diamond and coarse numerical invariants,
and determines the group of numerically trivial automorphisms as an
explicit finite abelian group.  All arithmetic is exact.

Importing the package loads none of its modules: each public name loads
its home module on first read (PEP 562), so a process pays only for the
layers it uses.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_NAMES = {
    "aut0": ("Aut0Result", "Aut0Status", "admissible_characters", "aut0",
             "representation_kernel", "verify_generator"),
    "covering": ("GeneratingVector", "ValidationOutcome", "cw_dimension", "genus",
                 "stabilizer_union", "validate_generating_vector"),
    "datum": ("AlgebraicDatum", "DatumReport", "NumericalInvariants", "RigidityClass",
              "VectorSpec", "invariants", "rigidity_class", "validate_datum"),
    "docio": ("datum_document", "dumps", "loads", "parse_datum_document"),
    "errors": ("ConsistencyError", "IsoprodError", "OracleScaleError", "OverflowLimitError",
               "ParentMismatchError", "SchemaError", "SearchCapError", "StructuralError",
               "TheoremViolationError", "UnsupportedDatumError"),
    "examples": ("build_example", "example1", "example2a", "example2b", "example3", "example4"),
    "groups": ("AbelianGroup", "Character", "GroupElement", "InvariantFactors",
               "QuotientStructure", "Subgroup", "direct_product", "quotient_structure",
               "smith_normal_form", "subgroup_quotient"),
    "hodge": ("EigenDimTable", "HodgeDiamond", "eigendim_table", "hodge_diamond",
              "isotypic_decomposition"),
    "search": ("SearchSpec", "SurveyResult", "enumerate_data", "estimate_space", "survey"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    # The first read of a public name imports its home module and keeps the
    # object here, so later reads are plain attribute reads.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """The package module.  A public name keeps its object when a submodule
    of the same name is imported: ``isoprod.aut0`` is the function, and the
    module is ``sys.modules["isoprod.aut0"]``."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _HOME and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
