"""The algebraic datum of a 3-fold isogenous to a product of unmixed type.

A datum is ``(G, K_1, K_2, K_3, V_1, V_2, V_3)``: an ambient finite
abelian group, three pairwise trivially-intersecting kernels, and a
generating vector over each quotient ``G/K_i``.  Branch and handle
elements are supplied as representatives in ``G`` and reduced to the
quotients internally.

Validation is built from two private pieces, the one place for each of
their facts.  ``_kernel_checks`` decides minimality with its witness; the
survey filters its kernel triples with it.  ``_factor_checks`` reads one
factor alone: the vector outcome, the genus and ``fixing``, the nontrivial
elements of the stabilizer preimage in ``G`` as reduced exponent tuples,
which both freeness checks read.  ``validate_datum`` computes both for a
lone datum; a caller that holds them already, such as the survey (once
per kernel triple and once per factor branch), passes them in as
``kernel_checks`` and ``factors``, and only the three-way freeness
intersection is left to do.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Sequence

from .covering import GeneratingVector, ValidationOutcome, _cyclic_union, genus
from .errors import ConsistencyError, OverflowLimitError, SchemaError
from .groups import (
    AbelianGroup,
    GroupElement,
    QuotientStructure,
    Subgroup,
    _Frozen,
    _set,
    quotient_structure,
)

# The most sums ``|K_i| (1 + sum(m_j - 1))`` that one factor's stabilizer
# preimage lists (``_fixing``).  No tested or benchmarked datum lists more
# than 256: example1 at n = 64, 128 kernel elements times 2.  The same bound
# holds one factor's Chevalley-Weil classes (``hodge._class_lattice``).
MAX_FIXING = 2 ** 20


class VectorSpec(_Frozen):
    """Raw input for one generating vector: representatives in the ambient group."""

    _fields = ("g_prime", "branch", "eta")

    def __init__(self, g_prime: int, branch: tuple[GroupElement, ...],
                 eta: tuple[GroupElement, ...]):
        _set(self, "g_prime", g_prime)
        _set(self, "branch", branch)
        _set(self, "eta", eta)


class AlgebraicDatum(_Frozen):
    _fields = ("group", "kernels", "vectors", "quotients", "raw_vectors")

    def __init__(self, group: AbelianGroup, kernels: tuple[Subgroup, Subgroup, Subgroup],
                 vectors: tuple[GeneratingVector, GeneratingVector, GeneratingVector],
                 quotients: tuple[QuotientStructure, QuotientStructure, QuotientStructure],
                 raw_vectors: tuple[VectorSpec, VectorSpec, VectorSpec]):
        _set(self, "group", group)
        _set(self, "kernels", kernels)
        _set(self, "vectors", vectors)
        _set(self, "quotients", quotients)
        _set(self, "raw_vectors", raw_vectors)

    @staticmethod
    def build(group: AbelianGroup,
              kernel_generators: Sequence[Sequence[GroupElement]],
              vector_specs: Sequence[VectorSpec]) -> "AlgebraicDatum":
        if len(kernel_generators) != 3:
            raise SchemaError(f"expected 3 kernels, got {len(kernel_generators)}")
        if len(vector_specs) != 3:
            raise SchemaError(f"expected 3 generating vectors, got {len(vector_specs)}")
        kernels = []
        for i, gens in enumerate(kernel_generators):
            for g in gens:
                if g.group != group:
                    raise SchemaError(f"kernel {i + 1} generator outside the ambient group")
            kernels.append(group.subgroup(gens))
        quotients = tuple(quotient_structure(group, k) for k in kernels)
        vectors = []
        for i, spec in enumerate(vector_specs):
            for g in spec.branch + spec.eta:
                if g.group != group:
                    raise SchemaError(f"vector {i + 1} entry outside the ambient group")
            q = quotients[i]
            vectors.append(GeneratingVector(
                q.group, spec.g_prime,
                tuple(q.project(g) for g in spec.branch),
                tuple(q.project(g) for g in spec.eta)))
        return AlgebraicDatum(group, tuple(kernels), tuple(vectors),
                              quotients, tuple(vector_specs))

    # Validation reads ``_fixing``; the tests and ``bench/tracing.py`` read this.
    def stabilizer_preimage(self, i: int) -> frozenset[GroupElement]:
        """Elements of G acting with a fixed point on the i-th curve: the
        full preimage of the stabilizer union of V_i, which contains K_i."""
        fixing = _fixing(self.group, self.kernels[i], self.quotients[i], self.vectors[i])
        return frozenset(GroupElement(self.group, t) for t in fixing) | {self.group.zero}


def _fixing(group: AbelianGroup, kernel: Subgroup, quotient: QuotientStructure,
            vector: GeneratingVector) -> frozenset[tuple[int, ...]]:
    """The nontrivial elements of one factor's stabilizer preimage as
    reduced exponent tuples of G: ``K`` and the cosets ``K + c l`` for the
    lift ``l`` of each distinct branch element, of order ``m``, and
    ``0 < c < m``.  Refuses when those sums exceed ``MAX_FIXING``, before
    listing any."""
    branch = {sigma: sigma.order for sigma in set(vector.branch)}
    multiples = 1 + sum(m - 1 for m in branch.values())
    if kernel.order * multiples > MAX_FIXING:
        raise OverflowLimitError(
            f"the stabilizer preimage of {kernel.order} kernel elements times "
            f"{multiples} branch multiples exceeds the listing bound of {MAX_FIXING}")
    steps = [(quotient.lift(sigma).exponents, m) for sigma, m in branch.items()]
    return frozenset(_cyclic_union(list(kernel._element_tuples()), steps, group.orders)
                     - {group.zero.exponents})


class RigidityClass(enum.Enum):
    TRIVIAL_BY_RIGIDITY = "TrivialByRigidity"
    AUT0_COMPUTABLE = "Aut0Computable"
    KERNEL_ONLY = "KernelOnly"
    UNSUPPORTED = "Unsupported"


class DatumReport(_Frozen):
    _fields = ("minimality_ok", "minimality_witness", "freeness_ok", "freeness_witness",
               "vector_outcomes", "genera", "irregularity", "all_bases_elliptic",
               "all_genera_at_least_two")

    def __init__(self, minimality_ok: bool, minimality_witness: tuple[int, int] | None,
                 freeness_ok: bool, freeness_witness: GroupElement | None,
                 vector_outcomes: tuple[ValidationOutcome, ValidationOutcome, ValidationOutcome],
                 genera: tuple[int | None, int | None, int | None], irregularity: int,
                 all_bases_elliptic: bool, all_genera_at_least_two: bool):
        _set(self, "minimality_ok", minimality_ok)
        _set(self, "minimality_witness", minimality_witness)
        _set(self, "freeness_ok", freeness_ok)
        _set(self, "freeness_witness", freeness_witness)
        _set(self, "vector_outcomes", vector_outcomes)
        _set(self, "genera", genera)
        _set(self, "irregularity", irregularity)
        _set(self, "all_bases_elliptic", all_bases_elliptic)
        _set(self, "all_genera_at_least_two", all_genera_at_least_two)

    @property
    def vectors_ok(self) -> bool:
        return all(v.ok for v in self.vector_outcomes)

    # The report is frozen, so the verdict is read once and kept.
    @cached_property
    def ok(self) -> bool:
        """Full validity: minimal, free, valid vectors, fibre genera >= 2."""
        return (self.minimality_ok and self.freeness_ok and self.vectors_ok
                and self.all_genera_at_least_two)

    @property
    def is_product_quotient(self) -> bool:
        """Structurally sound but with a non-free action."""
        return (self.minimality_ok and self.vectors_ok
                and self.all_genera_at_least_two and not self.freeness_ok)


class _KernelChecks(_Frozen):
    """The checks that read the kernel triple alone."""

    _fields = ("minimality_witness",)

    def __init__(self, minimality_witness: tuple[int, int] | None):
        _set(self, "minimality_witness", minimality_witness)


def _kernel_checks(kernels: Sequence[Subgroup]) -> _KernelChecks:
    """Minimality: the first pair of kernels meeting nontrivially, if any."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if not kernels[i]._meets_trivially(kernels[j]):
            return _KernelChecks((i + 1, j + 1))
    return _KernelChecks(None)


class _FactorChecks(_Frozen):
    """The checks that read one factor alone: its vector outcome, its genus
    and the nontrivial elements of its stabilizer preimage in G as reduced
    exponent tuples (``fixing``)."""

    _fields = ("outcome", "genus", "fixing")

    def __init__(self, outcome: ValidationOutcome, genus: int | None,
                 fixing: frozenset[tuple[int, ...]]):
        _set(self, "outcome", outcome)
        _set(self, "genus", genus)
        _set(self, "fixing", fixing)


def _factor_checks(group: AbelianGroup, kernel: Subgroup, quotient: QuotientStructure,
                   vector: GeneratingVector) -> _FactorChecks:
    """The factor's checks.  An invalid vector may give no genus: that is one
    more violation, and its genus is ``None``.  A valid vector gives one."""
    outcome, g = vector.validate(), None
    try:
        g = genus(vector)
    except ConsistencyError as exc:
        if outcome.ok:
            raise
        outcome = ValidationOutcome(outcome.violations + (str(exc),))
    return _FactorChecks(outcome, g, _fixing(group, kernel, quotient, vector))


def _common_fixed_point(group: AbelianGroup, fixing: Sequence[frozenset[tuple[int, ...]]],
                        ) -> GroupElement | None:
    """The least element in all three ``fixing`` sets."""
    least = min(fixing[0] & fixing[1] & fixing[2], default=None)
    return None if least is None else GroupElement(group, least)


def validate_datum(datum: AlgebraicDatum, kernel_checks: _KernelChecks | None = None,
                   factors: Sequence[_FactorChecks] | None = None) -> DatumReport:
    """Minimality, freeness (evaluated through preimages in G), vector
    validity, genera, and the hypothesis flags of the classification.

    ``kernel_checks`` and ``factors`` are the datum's own pieces (see the
    module docstring); each is computed here when not given.
    """
    if kernel_checks is None:
        kernel_checks = _kernel_checks(datum.kernels)
    if factors is None:
        factors = [_factor_checks(datum.group, datum.kernels[i], datum.quotients[i],
                                  datum.vectors[i]) for i in range(3)]
    witness = _common_fixed_point(datum.group, [f.fixing for f in factors])
    genera = tuple(f.genus for f in factors)
    g_primes = [v.g_prime for v in datum.vectors]
    return DatumReport(
        minimality_ok=kernel_checks.minimality_witness is None,
        minimality_witness=kernel_checks.minimality_witness,
        freeness_ok=witness is None,
        freeness_witness=witness,
        vector_outcomes=tuple(f.outcome for f in factors),
        genera=genera,
        irregularity=sum(g_primes),
        all_bases_elliptic=all(gp == 1 for gp in g_primes),
        all_genera_at_least_two=all(g is not None and g >= 2 for g in genera),
    )


class NumericalInvariants(_Frozen):
    _fields = ("genera", "chi_structure_sheaf", "euler_number", "canonical_cube")

    def __init__(self, genera: tuple[int, int, int], chi_structure_sheaf: int,
                 euler_number: int, canonical_cube: int):
        _set(self, "genera", genera)
        _set(self, "chi_structure_sheaf", chi_structure_sheaf)
        _set(self, "euler_number", euler_number)
        _set(self, "canonical_cube", canonical_cube)


def invariants(datum: AlgebraicDatum) -> NumericalInvariants:
    """Coarse invariants of the free quotient: etale multiplicativity gives
    ``chi(O) = -prod(g_i - 1)/|G|``, ``e = prod(2 - 2 g_i)/|G|`` and
    ``K^3 = 48 prod(g_i - 1)/|G|``."""
    genera = tuple(genus(v) for v in datum.vectors)
    order = datum.group.order
    top = (genera[0] - 1) * (genera[1] - 1) * (genera[2] - 1)
    e_top = (2 - 2 * genera[0]) * (2 - 2 * genera[1]) * (2 - 2 * genera[2])
    if top % order or e_top % order:
        raise ConsistencyError(
            "group order does not divide the product invariants; the action cannot be free")
    return NumericalInvariants(
        genera=genera,
        chi_structure_sheaf=-top // order,
        euler_number=e_top // order,
        canonical_cube=48 * top // order,
    )


def rigidity_class(datum: AlgebraicDatum) -> RigidityClass:
    """Status logic consumed by the automorphism computation."""
    g_primes = [v.g_prime for v in datum.vectors]
    q = sum(g_primes)
    if any(gp == 0 for gp in g_primes) or q <= 2:
        return RigidityClass.UNSUPPORTED
    if q >= 4:
        return RigidityClass.TRIVIAL_BY_RIGIDITY
    if all(k.is_cyclic for k in datum.kernels):
        return RigidityClass.AUT0_COMPUTABLE
    return RigidityClass.KERNEL_ONLY
