"""Exact invariants of 3-folds isogenous to a product of curves.

The package takes the algebraic datum of such a 3-fold (finite abelian
group, three kernels, three generating vectors over the quotients),
validates it, computes the Hodge diamond and coarse numerical invariants,
and determines the group of numerically trivial automorphisms as an
explicit finite abelian group.  All arithmetic is exact.
"""

from .aut0 import (
    Aut0Result,
    Aut0Status,
    admissible_characters,
    aut0,
    representation_kernel,
    verify_generator,
)
from .covering import (
    GeneratingVector,
    ValidationOutcome,
    cw_dimension,
    genus,
    stabilizer_union,
    validate_generating_vector,
)
from .datum import (
    AlgebraicDatum,
    DatumReport,
    NumericalInvariants,
    RigidityClass,
    VectorSpec,
    invariants,
    rigidity_class,
    validate_datum,
)
from .docio import datum_document, dumps, loads, parse_datum_document
from .errors import (
    ConsistencyError,
    IsoprodError,
    OracleScaleError,
    OverflowLimitError,
    ParentMismatchError,
    SchemaError,
    SearchCapError,
    StructuralError,
    TheoremViolationError,
    UnsupportedDatumError,
)
from .examples import build_example, example1, example2a, example2b, example3, example4
from .groups import (
    AbelianGroup,
    Character,
    GroupElement,
    InvariantFactors,
    QuotientStructure,
    Subgroup,
    direct_product,
    quotient_structure,
    smith_normal_form,
    subgroup_quotient,
)
from .hodge import (
    EigenDimTable,
    HodgeDiamond,
    eigendim_table,
    hodge_diamond,
    isotypic_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    # aut0
    "Aut0Result", "Aut0Status", "admissible_characters", "aut0", "representation_kernel",
    "verify_generator",
    # covering
    "GeneratingVector", "ValidationOutcome", "cw_dimension", "genus", "stabilizer_union",
    "validate_generating_vector",
    # datum
    "AlgebraicDatum", "DatumReport", "NumericalInvariants", "RigidityClass", "VectorSpec",
    "invariants", "rigidity_class", "validate_datum",
    # docio
    "datum_document", "dumps", "loads", "parse_datum_document",
    # errors
    "ConsistencyError", "IsoprodError", "OracleScaleError", "OverflowLimitError",
    "ParentMismatchError", "SchemaError", "SearchCapError", "StructuralError",
    "TheoremViolationError", "UnsupportedDatumError",
    # examples
    "build_example", "example1", "example2a", "example2b", "example3", "example4",
    # groups
    "AbelianGroup", "Character", "GroupElement", "InvariantFactors", "QuotientStructure",
    "Subgroup", "direct_product", "quotient_structure",
    "smith_normal_form", "subgroup_quotient",
    # hodge
    "EigenDimTable", "HodgeDiamond", "eigendim_table", "hodge_diamond",
    "isotypic_decomposition",
    # search
    "SearchSpec", "SurveyResult", "enumerate_data", "estimate_space", "survey",
]

_SEARCH_NAMES = ("SearchSpec", "SurveyResult", "enumerate_data", "estimate_space", "survey")


def __getattr__(name: str):
    # The survey names load ``isoprod.search`` on first read, so that a
    # report process never imports it; they are not stored here.
    if name in _SEARCH_NAMES:
        from . import search
        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
