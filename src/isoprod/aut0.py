"""Numerically trivial automorphisms of the quotient 3-fold.

The automorphisms descended from the product form ``G^3 / K Delta_G``; an
element is numerically trivial iff every admissible character of ``G^3``
vanishes on it.  The intersection of those kernels is computed dually (one
annihilator call on the subgroup of the dual generated by the admissible
characters), and the quotient by ``K Delta_G`` is reported through its
invariant factors and explicit generator cosets.

The admissible characters are enumerated on packed characters (see
``groups.PackedCharacters``) from the packed pre-admissible set of each
factor, which comes from its Chevalley-Weil classes
(``hodge._pre_admissible_classes``, also behind the eigenspace table); the
first kind is one packed convolution of the three sets, the only one a
report makes (``hodge_diamond`` counts classes instead).  Each admissible
character is a plain character of ``G^3``, built from its triple of
packed characters (``PackedCharacters.cube_characters``); its kind is the
list it is in.

Every admissible character lies in the sum-zero plane
``c_1 + c_2 + c_3 = 0``, so it is fixed by ``(c_1, c_2)``, its first
``2r`` exponents, and vanishes on ``Delta_G``.  ``_admissible_span``
therefore Hermite-reduces those rows at width ``2r`` rather than ``3r``,
and the kernel (``_span_kernel``) is the Hermite dual of that span in
``G^2``, placed in the first two slots, plus ``Delta_G``.  Each generator
coset is written with trivial third component and reduced once, top-down,
against the Hermite basis of the remaining adjustment subgroup; the result
is the lexicographically least such representative.

``admissible_characters`` owns the enumeration.  ``aut0`` calls it once
and forms the ``(3,0)`` kernel from that list, as ``representation_kernel``
does.  A caller that holds the pieces passes them in: the three
pre-admissible sets (``pre``) and the ``_KernelPieces`` of the kernel
triple (``G^3``, ``K Delta_G`` and the adjustment subgroup).  The survey
computes the first once per factor branch and the second once per kernel
triple; a report (``cli._Analysis``) reads the sets off its eigenspace
table.

Within one kernel triple the rest depends only on the three sets, so
``aut0`` keeps it in ``_KernelPieces.memo`` under them, as a ``_Solved``:
the admissible characters, the annihilator, the quotient by ``K Delta_G``
and the canonical generators.  The last three depend only on the
admissible span, so a memo miss forms the span and builds them only when
it is new to ``_KernelPieces.spans``.  A report's kernels and oracle
sections read the memo (``_solved``).  The enumeration, the status and
the theorem bounds run on every ``aut0`` call.  ``verify_generator``
enumerates again on purpose: it is the survey's independent re-check, so
its pre-admissible sets come from the walk over ``Ann(K_i)``
(``_pre_admissible_set``), not from the classes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from .covering import stabilizer_union
from .datum import AlgebraicDatum, DatumReport, RigidityClass, rigidity_class, validate_datum
from .errors import ConsistencyError, TheoremViolationError, UnsupportedDatumError
from .groups import (
    AbelianGroup,
    Character,
    GroupElement,
    InvariantFactors,
    PackedCharacters,
    QuotientStructure,
    Subgroup,
    _hermite_dual,
    diagonal_subgroup,
    direct_product,
    product_element,
    product_subgroup,
    row_hermite,
    split_element,
    subgroup_quotient,
)
from .hodge import _factor_walk, _pre_admissible_classes


class Aut0Status(enum.Enum):
    PROVEN = "Proven"
    TRIVIAL_BY_RIGIDITY = "TrivialByRigidity"
    KERNEL_ONLY = "KernelOnly"
    NON_FREE_KERNEL_ONLY = "NonFreeKernelOnly"


@dataclass(frozen=True)
class Aut0Result:
    status: Aut0Status
    invariant_factors: InvariantFactors
    generators: tuple[GroupElement, ...]
    admissible_counts: tuple[int, int]
    cube: AbelianGroup
    kernel: Subgroup | None
    k_delta: Subgroup | None
    quotient: QuotientStructure | None

    @property
    def order(self) -> int:
        return self.invariant_factors.order

    def same_coset(self, rep_a: GroupElement, rep_b: GroupElement) -> bool:
        if self.k_delta is None:
            return rep_a == rep_b
        return self.k_delta.contains(rep_a - rep_b)

    def cosets_generate(self, reps: list[GroupElement]) -> bool:
        """Do the given representatives generate the whole quotient?"""
        if self.quotient is None:
            return not self.invariant_factors.factors
        images = [self.quotient.project(r) for r in reps]
        sub = self.quotient.group.subgroup(images)
        return sub.order == self.quotient.group.order


def pre_admissible(datum: AlgebraicDatum, i: int, chi: Character) -> bool:
    """Does ``chi`` vanish on ``K_i`` and act nontrivially on some element
    with a fixed point on the i-th curve?"""
    for gen in datum.kernels[i].generators:
        if chi.pairing(gen):
            return False
    q = datum.quotients[i]
    for sigma in stabilizer_union(datum.vectors[i]):
        if chi.pairing(q.lift(sigma)):
            return True
    return False


def _pre_admissible_set(datum: AlgebraicDatum, i: int, codec: PackedCharacters) -> list[int]:
    """The pre-admissible characters of the i-th factor, packed and sorted,
    from the integer walk over ``Ann(K_i)`` (``hodge._factor_walk``), which
    shares no code with the classes of ``hodge._class_lattice``."""
    return sorted(x for x, v in _factor_walk(datum, i, codec).items() if any(v))


def admissible_characters(datum: AlgebraicDatum, pre: Sequence[list[int]] | None = None,
                          ) -> tuple[list[Character], list[Character]]:
    """Complete enumeration of the admissible characters: the lists of the
    first and of the second kind, each of characters of ``G^3`` sorted by
    exponent tuple.

    First kind: every component pre-admissible.  Second kind: exactly one
    component trivial, the other two pre-admissible and conjugate.  Both
    kinds are found on triples of packed characters, which
    ``PackedCharacters.cube_characters`` sorts and turns into characters of
    ``G^3``.  ``pre`` holds the three packed pre-admissible sets when the
    caller has them already; otherwise they come from each factor's
    Chevalley-Weil classes (``hodge._pre_admissible_classes``).
    """
    codec = PackedCharacters(datum.group)
    neg = codec.neg
    if pre is None:
        pre = [_pre_admissible_classes(datum, i, codec) for i in range(3)]
    pre = [dict.fromkeys(p, 1) for p in pre]
    # First kind: c1 + c2 + c3 = 0, so c1 + c2 must be the negative of some c3.
    terms = codec.convolve(pre[0], pre[1], {neg(c3): 1 for c3 in pre[2]})
    second = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for chi in pre[i]:
            if neg(chi) in pre[j]:
                comps = [0, 0, 0]
                comps[i], comps[j] = chi, neg(chi)
                second.append(tuple(comps))
    return (codec.cube_characters((c1, c2, neg(s)) for c1, c2, s, _ in terms),
            codec.cube_characters(second))


def _k_delta(datum: AlgebraicDatum) -> Subgroup:
    return product_subgroup(list(datum.kernels)).sum(
        diagonal_subgroup(datum.group, 3))


def representation_kernel(datum: AlgebraicDatum, p: int, q: int) -> Subgroup:
    """Kernel in ``G^3`` of the action on ``H^{p,q}``: the annihilator of
    the dual subgroup generated by the characters appearing in that summand.

    With elliptic bases the nontrivial characters of ``H^{3,0}`` are the
    admissible ones of the first and second kind.  Conjugating one Kunneth
    slot for ``H^{2,1}`` lands back in the same set: a surviving piece
    ``bar(W_1^chi) (x) W_2^{c_2} (x) W_3^{c_3}`` needs ``chi = c_2 + c_3``,
    so its character ``(-chi, c_2, c_3)`` again sums to zero with
    pre-admissible components.  Likewise ``H^{1,1}`` and ``H^{2,0}`` both
    see exactly the second kind up to negation, which does not change the
    annihilator.  Hence the two kernel equalities hold at the level of
    character sets, and the CLI's kernels section reads ``(2,1)`` from the
    ``(3,0)`` kernel and ``(1,1)`` from the ``(2,0)`` kernel.
    """
    if (p, q) not in {(3, 0), (2, 1), (2, 0), (1, 1)}:
        raise ValueError(f"representation kernel supported for (3,0),(2,1),(2,0),(1,1); "
                         f"got ({p},{q})")
    first, second = admissible_characters(datum)
    characters = first + second if p + q == 3 else second
    cube = direct_product([datum.group] * 3)
    return _annihilated_kernel(cube, characters, _k_delta(datum), (p, q))


def _annihilated_kernel(cube: AbelianGroup, characters: list[Character],
                        k_delta: Subgroup, pq: tuple[int, int]) -> Subgroup:
    """The subgroup of ``G^3`` on which every given character vanishes,
    checked to contain ``K Delta_G``: ``_span_kernel`` of the characters'
    ``_admissible_span``."""
    return _span_kernel(cube, _admissible_span(cube, characters), k_delta, pq)


def _admissible_span(cube: AbelianGroup, characters: list[Character],
                     ) -> tuple[tuple[int, ...], ...]:
    """The Hermite basis, at width ``2r``, of the rows ``(c_1, c_2)`` of the
    given characters plus the relations of ``G^2``.

    Every admissible character has ``c_1 + c_2 + c_3 = 0``, so it maps
    ``(g_1, g_2, g_3)`` to ``c_1 (g_1 - g_3) + c_2 (g_2 - g_3)`` and is
    fixed by its row.  The basis is canonical, so equal spans give equal
    tuples.
    """
    r = cube.rank // 3
    plane = cube.orders[: 2 * r]
    rows = [psi.exponents[: 2 * r] for psi in characters]
    relations = [[n if c == j else 0 for c in range(2 * r)] for j, n in enumerate(plane)]
    return row_hermite(rows + relations, 2 * r)


def _span_kernel(cube: AbelianGroup, span: tuple[tuple[int, ...], ...],
                 k_delta: Subgroup, pq: tuple[int, int]) -> Subgroup:
    """The kernel ``(Ann_{G^2}(S) x 0) + Delta_G`` of the characters whose
    ``_admissible_span`` is ``span``, checked to contain ``K Delta_G``: the
    Hermite dual of the span, placed in the first two slots, with the ``r``
    diagonal rows."""
    r = cube.rank // 3
    diagonal = [tuple(int(c == j) for c in range(r)) * 3 for j in range(r)]
    kernel = Subgroup(cube, tuple(
        GroupElement(cube, row) for row in
        [dual + (0,) * r for dual in _hermite_dual(span, cube.orders[: 2 * r])] + diagonal))
    if not k_delta.is_subgroup_of(kernel):
        p, q = pq
        raise ConsistencyError(
            f"K Delta_G is not contained in the ({p},{q}) kernel; "
            "the admissible enumeration is inconsistent")
    return kernel


def verify_generator(datum: AlgebraicDatum, rep: GroupElement,
                     walked: Sequence[list[int]] | None = None) -> bool:
    """Independent check that a triple is numerically trivial: every
    admissible character must vanish on it.  No annihilator machinery.

    The characters are enumerated afresh from the three packed sets of
    the walk over ``Ann(K_i)`` (``_pre_admissible_set``), which a caller
    may pass as ``walked``; sets from the classes would make the check
    depend on what it checks.
    """
    cube = direct_product([datum.group] * 3)
    if rep.group != cube:
        rep = cube.element(rep.exponents)
    if walked is None:
        codec = PackedCharacters(datum.group)
        walked = [_pre_admissible_set(datum, i, codec) for i in range(3)]
    first, second = admissible_characters(datum, walked)
    return all(psi.pairing(rep) == 0 for psi in first + second)


@dataclass
class _Solved:
    """``aut0``'s work on one pre-admissible triple: the admissible characters
    and, once formed, the (3,0) kernel, its quotient and generators."""

    admissible: tuple[list[Character], list[Character]]
    kernel: Subgroup | None = None
    quotient: QuotientStructure | None = None
    generators: tuple[GroupElement, ...] = ()


@dataclass(frozen=True)
class _KernelPieces:
    """What ``aut0`` reads of the kernel triple alone: the cube ``G^3``,
    ``K Delta_G``, and the adjustment subgroup of the canonical
    representatives.

    ``memo`` holds the rest of ``aut0``'s work, which within one kernel
    triple depends only on the pre-admissible sets: it maps the tuple of
    the three packed sets to their ``_Solved``.  ``spans`` maps each
    ``_admissible_span`` to the kernel, quotient and generators that the
    triples of that span share.
    """

    cube: AbelianGroup
    k_delta: Subgroup
    adjustment: Subgroup
    memo: dict[tuple, _Solved] = field(default_factory=dict, compare=False, repr=False)
    spans: dict[tuple, tuple[Subgroup, QuotientStructure, tuple[GroupElement, ...]]] = field(
        default_factory=dict, compare=False, repr=False)


def _solved(datum: AlgebraicDatum, kernel_pieces: _KernelPieces, pre: Sequence[list[int]],
            admissible: tuple | None = None) -> _Solved:
    """The memo entry of ``pre``, made on a miss from ``admissible`` or else
    from a new enumeration."""
    memo, key = kernel_pieces.memo, tuple(tuple(p) for p in pre)
    if key not in memo:
        memo[key] = _Solved(admissible or admissible_characters(datum, pre))
    return memo[key]


def _kernel_pieces(datum: AlgebraicDatum) -> _KernelPieces:
    cube = direct_product([datum.group] * 3)
    return _KernelPieces(cube, _k_delta(datum), _adjustment_subgroup(datum, cube))


def _adjustment_subgroup(datum: AlgebraicDatum, cube: AbelianGroup) -> Subgroup:
    """The freedom left once a coset representative has trivial third
    component: the triples ``(k1 - k3, k2 - k3, 0)``."""
    g = datum.group
    gens = []
    for k in datum.kernels[0].generators:
        gens.append(product_element(cube, (k, g.zero, g.zero)))
    for k in datum.kernels[1].generators:
        gens.append(product_element(cube, (g.zero, k, g.zero)))
    for k in datum.kernels[2].generators:
        gens.append(product_element(cube, (-k, -k, g.zero)))
    return cube.subgroup(gens)


def _canonical_representative(datum: AlgebraicDatum, rep: GroupElement,
                              cube: AbelianGroup,
                              adjustment: Subgroup | None = None) -> GroupElement:
    """Normalize the third component to the identity, then pick the
    lexicographically least representative of the coset."""
    g = datum.group
    parts = split_element(rep, [g, g, g])
    rep = product_element(cube, (parts[0] - parts[2], parts[1] - parts[2], g.zero))
    if adjustment is None:
        adjustment = _adjustment_subgroup(datum, cube)
    return adjustment.coset_minimum(rep)


def aut0(datum: AlgebraicDatum, report: DatumReport | None = None,
         kernel_pieces: _KernelPieces | None = None,
         pre: Sequence[list[int]] | None = None) -> Aut0Result:
    """The group of numerically trivial automorphisms (or the kernel
    quotient standing in for it), with generators and a proof status.

    A caller that holds the datum's pieces already passes them in: its
    ``report``, the ``kernel_pieces`` of its kernel triple (``G^3``,
    ``K Delta_G`` and the adjustment subgroup) and the three packed
    pre-admissible sets ``pre`` (else read off the Chevalley-Weil classes).
    Each is computed here when not given.  The admissible characters,
    kernel, quotient and generators are looked up in, or added to,
    ``kernel_pieces.memo`` under ``pre``, where the caller can read them
    afterwards; on a miss the last three come from ``kernel_pieces.spans``.
    """
    if report is None:
        report = validate_datum(datum)
    klass = rigidity_class(datum)
    if klass is RigidityClass.UNSUPPORTED:
        raise UnsupportedDatumError(
            "the classification needs irregularity 3 with no rational base curve "
            "(or irregularity >= 4)")
    if kernel_pieces is None:
        kernel_pieces = _kernel_pieces(datum)
    cube, k_delta = kernel_pieces.cube, kernel_pieces.k_delta
    if pre is None:
        codec = PackedCharacters(datum.group)
        pre = [_pre_admissible_classes(datum, i, codec) for i in range(3)]
    first, second = admissible_characters(datum, pre)
    solved = _solved(datum, kernel_pieces, pre, (first, second))
    counts = (len(first), len(second))

    if report.freeness_ok and klass is RigidityClass.TRIVIAL_BY_RIGIDITY:
        return Aut0Result(Aut0Status.TRIVIAL_BY_RIGIDITY, InvariantFactors(()), (),
                          counts, cube, None, None, None)

    if solved.kernel is None:
        span = _admissible_span(cube, first + second)
        lattice = kernel_pieces.spans.get(span)
        if lattice is None:
            kernel = _span_kernel(cube, span, k_delta, (3, 0))
            quotient = subgroup_quotient(kernel, k_delta)
            lattice = kernel_pieces.spans[span] = (kernel, quotient, tuple(
                _canonical_representative(datum, gen, cube, kernel_pieces.adjustment)
                for gen in quotient.generators))
        solved.kernel, solved.quotient, solved.generators = lattice
    kernel, quotient, generators = solved.kernel, solved.quotient, solved.generators

    if not report.freeness_ok:
        status = Aut0Status.NON_FREE_KERNEL_ONLY
    elif klass is RigidityClass.AUT0_COMPUTABLE:
        status = Aut0Status.PROVEN
    else:
        status = Aut0Status.KERNEL_ONLY

    factors = quotient.invariant_factors
    # The theorem speaks of valid data only: an invalid datum keeps its
    # status, and its quotient goes unchecked.
    if report.ok and status is Aut0Status.PROVEN:
        if factors.order > 4 or any(d != 2 for d in factors):
            raise TheoremViolationError(
                f"datum satisfies the cyclic-kernel hypotheses but the quotient is "
                f"{factors}; expected a 2-elementary group of order <= 4")
    if report.ok and status is Aut0Status.KERNEL_ONLY and factors.order > 4:
        raise TheoremViolationError(
            f"free datum with irregularity 3 has kernel quotient of order "
            f"{factors.order} > 4")
    return Aut0Result(status, factors, generators, counts, cube, kernel, k_delta, quotient)
