"""Numerically trivial automorphisms of the quotient 3-fold.

The automorphisms descended from the product form ``G^3 / K Delta_G``; an
element is numerically trivial iff every admissible character of ``G^3``
vanishes on it.  The intersection of those kernels is computed dually (one
annihilator call on the subgroup of the dual generated by the admissible
characters), and the quotient by ``K Delta_G`` is reported through its
invariant factors and explicit generator cosets.

Every admissible character lies in the sum-zero plane
``c_1 + c_2 + c_3 = 0``, so it is fixed by ``(c_1, c_2)``, its first
``2r`` exponents, and vanishes on ``Delta_G``.  What ``aut0`` needs of the
characters is their two counts and their span at width ``2r``, the
canonical Hermite basis of those rows (``_admissible_span``).  The kernel
(``_span_kernel``) is the Hermite dual of the span in ``G^2``, placed in
the first two slots, plus ``Delta_G``.  Each generator coset is reduced
once, top-down, against the Hermite basis of ``K Delta_G`` read in slot
order (3, 1, 2): ``Delta_G`` zeroes the third component, and the result is
the lexicographically least representative with trivial third component.

``aut0``'s one input is each factor's Chevalley-Weil classes
(``hodge._ClassLattice``; its ``support`` is the rule for the
pre-admissible ones).  Within one kernel triple ``A_i`` fixes the
pre-admissible set ``Ann(K_i) \\ A_i``, so ``aut0`` keeps its work in
``_KernelPieces.memo`` under the three ``A_i`` bases as a ``_Solved``: the
two counts and the spans of the (3,0) and (2,0) kernels, no characters.
A miss fills it by one of two routes, chosen by one rule on the size of
the listing (``LISTING_PAIRS``):

- small data list the characters (``admissible_characters``) from the
  packed pre-admissible sets (``groups.PackedCharacters``), which the
  pieces read off the classes (``hodge._pre_from_classes``) once per
  factor and ``A_i``, as the (3,0) and (2,0) Kunneth pieces of their 0/1
  tables (``hodge._kunneth_pieces``);
- large data read the counts and spans off the classes ``x + A_i``
  themselves (``_admissible_from_classes``), by the matching rule of the
  Hodge sums (``hodge._class_matches``).

The lattice depends only on a span, and ``_KernelPieces`` is the one place
that forms it: ``kernel`` the kernel of a span, and ``lattice`` its
quotient by ``K Delta_G`` and canonical generators, each once per span.
The survey passes the classes once per factor branch and the pieces once
per kernel triple; a report (``cli._Analysis``) passes the classes of its
eigenspace table, and its kernels section and ``representation_kernel``
read the same memo (``_solved``).  The status and the theorem bounds run
on every ``aut0`` call, and nowhere else.  ``verify_generator`` lists on
purpose: it is the survey's independent re-check, so its pre-admissible
sets come from the walk over ``Ann(K_i)`` (``_pre_admissible_set``), not
from the classes, and the report's oracle lists the same way.
"""

from __future__ import annotations

import enum
import itertools
from math import prod
from typing import Sequence

from .covering import stabilizer_union
from .datum import (AlgebraicDatum, DatumReport, RigidityClass, _refuse_over, rigidity_class,
                    validate_datum)
from .errors import ConsistencyError, TheoremViolationError, UnsupportedDatumError
from .groups import (
    AbelianGroup,
    Character,
    GroupElement,
    InvariantFactors,
    PackedCharacters,
    QuotientStructure,
    Subgroup,
    _coset_key,
    _diagonal,
    _Frozen,
    _hermite_dual,
    _set,
    direct_product,
    product_element,
    row_hermite,
    subgroup_quotient,
)
from .hodge import (_class_lattice, _class_matches, _ClassLattice, _factor_walk, _kunneth_pieces,
                    _pre_from_classes)

# The listing route runs while the first-kind convolution visits at most
# this many pairs ``|P_1| |P_2|``; above it the counts and spans come from
# the classes.  Timed on 88 data of the example families with up to 5,184
# pairs, listing was the faster route on 55 of the 60 data up to 256
# pairs and the classes on 26 of the 28 above, both near 0.75 ms there.
LISTING_PAIRS = 256


class Aut0Status(enum.Enum):
    PROVEN = "Proven"
    TRIVIAL_BY_RIGIDITY = "TrivialByRigidity"
    KERNEL_ONLY = "KernelOnly"
    NON_FREE_KERNEL_ONLY = "NonFreeKernelOnly"


class Aut0Result(_Frozen):
    _fields = ("status", "invariant_factors", "generators", "admissible_counts", "cube",
               "kernel", "k_delta", "quotient")

    def __init__(self, status: Aut0Status, invariant_factors: InvariantFactors,
                 generators: tuple[GroupElement, ...], admissible_counts: tuple[int, int],
                 cube: AbelianGroup, kernel: Subgroup | None, k_delta: Subgroup | None,
                 quotient: QuotientStructure | None):
        _set(self, "status", status)
        _set(self, "invariant_factors", invariant_factors)
        _set(self, "generators", generators)
        _set(self, "admissible_counts", admissible_counts)
        _set(self, "cube", cube)
        _set(self, "kernel", kernel)
        _set(self, "k_delta", k_delta)
        _set(self, "quotient", quotient)

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


# The tests' per-character reference for the packed pre-admissible sets.
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


def _walked_admissible(datum: AlgebraicDatum, walked: Sequence[list[int]] | None = None,
                       ) -> list[Character]:
    """Both kinds of admissible characters, listed from the three packed sets
    of the walk over ``Ann(K_i)`` (``walked``, else made here), never from
    the classes: the listing of the checks of the fast path."""
    if walked is None:
        codec = PackedCharacters(datum.group)
        walked = [_pre_admissible_set(datum, i, codec) for i in range(3)]
    first, second = admissible_characters(datum, walked)
    return first + second


def admissible_characters(datum: AlgebraicDatum, pre: Sequence[list[int]] | None = None,
                          ) -> tuple[list[Character], list[Character]]:
    """Complete enumeration of the admissible characters: the lists of the
    first and of the second kind, each of characters of ``G^3`` sorted by
    exponent tuple.

    First kind: every component pre-admissible.  Second kind: exactly one
    component trivial, the other two pre-admissible and conjugate.  These
    are the Kunneth pieces of ``H^{3,0}`` and ``H^{2,0}`` of the 0/1
    tables of the three packed pre-admissible sets
    (``hodge._kunneth_pieces``), which ``PackedCharacters.cube_characters``
    sorts and turns into characters of ``G^3``.  ``pre`` holds those sets
    when the caller has them already; otherwise they come from each
    factor's Chevalley-Weil classes (``hodge._pre_from_classes``).
    """
    codec = PackedCharacters(datum.group)
    if pre is None:
        pre = [_pre_from_classes(codec, _class_lattice(datum, i)) for i in range(3)]
    tables = [dict.fromkeys(p, 1) for p in pre]
    return tuple(codec.cube_characters(key for key, _ in _kunneth_pieces(codec, tables, *pq))
                 for pq in ((3, 0), (2, 0)))


def _k_delta(datum: AlgebraicDatum) -> Subgroup:
    """``K Delta_G`` as one subgroup of ``G^3``: the kernels, then the diagonal."""
    g = datum.group
    cube = direct_product([g] * 3)
    slots = [(g.zero,) * i + (k,) + (g.zero,) * (2 - i)
             for i, h in enumerate(datum.kernels) for k in h.generators]
    slots += [(g.basis_element(j),) * 3 for j in range(g.rank)]
    return cube.subgroup(product_element(cube, parts) for parts in slots)


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
    character sets, and ``_Solved.span`` gives ``(2,1)`` the ``(3,0)``
    span and ``(1,1)`` the ``(2,0)`` one.

    The span of those characters is ``aut0``'s, from the datum's classes
    (``_solved``), so large data list nothing here either.
    """
    if (p, q) not in {(3, 0), (2, 1), (2, 0), (1, 1)}:
        raise ValueError(f"representation kernel supported for (3,0),(2,1),(2,0),(1,1); "
                         f"got ({p},{q})")
    pieces = _kernel_pieces(datum)
    solved = _solved(datum, pieces, [_class_lattice(datum, i) for i in range(3)])
    return pieces.kernel(solved.span((p, q)), (p, q))


def _admissible_span(cube: AbelianGroup, characters: list[Character],
                     within: tuple[tuple[int, ...], ...] = (),
                     ) -> tuple[tuple[int, ...], ...]:
    """The Hermite basis, at width ``2r``, of the rows ``(c_1, c_2)`` of the
    given characters plus the relations of ``G^2``, or plus the rows of an
    ``_admissible_span`` ``within``, which holds those relations.

    Every admissible character has ``c_1 + c_2 + c_3 = 0``, so it maps
    ``(g_1, g_2, g_3)`` to ``c_1 (g_1 - g_3) + c_2 (g_2 - g_3)`` and is
    fixed by its row.  The basis is canonical, so equal spans give equal
    tuples.
    """
    r = cube.rank // 3
    rows = [psi.exponents[: 2 * r] for psi in characters]
    if within:
        return row_hermite([*within, *rows], 2 * r)
    return row_hermite(rows + _diagonal(cube.orders[: 2 * r]), 2 * r)


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


def _listing_pairs(classes: Sequence[_ClassLattice]) -> int:
    """The pairs ``|P_1| |P_2|`` that the first-kind convolution of the
    listing visits, with ``|P_i| = |A_i|`` times the classes in the support."""
    return prod(sum(c.support) * c.order for c in classes[:2])


def _admissible_from_classes(group: AbelianGroup, classes: Sequence[_ClassLattice],
                             ) -> tuple[tuple[int, int], tuple, tuple]:
    """The admissible counts ``(first, second)``, and the
    ``_admissible_span`` of both kinds and of the second kind alone, read
    off each factor's classes (``hodge._class_lattice``) without listing a
    character.

    The pre-admissible set is the union of the classes in the ``support``,
    so with it as weights the totals of ``hodge._class_matches`` count both
    kinds.  The first-kind characters of a feasible class triple are one
    coset of the sum-zero part ``L`` of ``A_1 x A_2 x A_3``.

    The characters of the first kind span ``W meet Z``, where ``Z`` is the
    sum-zero plane and ``W`` is generated by the feasible class triples
    and ``A_1 x A_2 x A_3``: each triple is a character up to an element of
    ``A_1 x A_2 x A_3``, and the span holds ``L``, the difference of two
    characters of one class triple.  The second-kind characters of slots
    ``(i, j)`` span the same with the feasible pairs and ``A_i x A_j``.
    Each such piece is found apart (intersecting with ``Z`` does not
    distribute over sums), and the pieces add up at width ``2r``.

    ``placed`` writes each row in the coordinates
    ``(c_1 + c_2 + c_3, c_1, c_2)``, the sum left unreduced: a unimodular
    change that maps the relations ``diag(n)^3`` onto themselves.  In the
    upper-triangular Hermite basis of ``W`` and those relations, the
    members whose first ``r`` coordinates are 0 are the combinations of
    the rows after the first ``r``.  The relations of the first block make
    a sum that is 0 modulo the orders one that is 0, so those members are
    ``W meet Z``, and the rows cut to their last ``2r`` columns are the
    canonical Hermite basis of its ``(c_1, c_2)`` (H. Cohen, 2.4).
    """
    r = group.rank
    zero = (0,) * r

    def placed(slots: dict[int, Sequence[int]]) -> tuple[int, ...]:
        c = [slots.get(s, zero) for s in range(3)]
        return (*map(sum, zip(*c)), *c[0], *c[1])

    def feasible(idx: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
        # The characters of the feasible class tuples in the slots ``idx``:
        # their number, and the span of the tuples ``placed``, refused over
        # ``MAX_FIXING`` tuples.
        chosen = [classes[i] for i in idx]
        ((count, found),) = _class_matches(group, chosen, [c.support for c in chosen],
                                           [(1,) * len(idx)])
        _refuse_over(sum(prod(len(reps) for _, reps in buckets) for buckets in found),
                     "Chevalley-Weil class tuples")
        if not found:
            return count, ()
        rows = [placed(dict(zip(idx, reps))) for buckets in found
                for reps in itertools.product(*(reps for _, reps in buckets))]
        rows += [placed({i: a}) for i in idx for a in classes[i].rows]
        return count, tuple(row[r:] for row in row_hermite(rows + _diagonal(group.orders * 3),
                                                            3 * r)[r:])

    (first, rows30), *pairs = (feasible(idx) for idx in ((0, 1, 2), (0, 1), (0, 2), (1, 2)))
    span20 = row_hermite([row for _, rows in pairs for row in rows]
                         + _diagonal(group.orders * 2), 2 * r)
    return (first, sum(count for count, _ in pairs)), row_hermite([*span20, *rows30], 2 * r), span20


def verify_generator(datum: AlgebraicDatum, rep: GroupElement) -> bool:
    """Independent check that a triple is numerically trivial: every
    admissible character must vanish on it.  No annihilator machinery.

    The characters are enumerated afresh from the three packed sets of
    the walk over ``Ann(K_i)`` (``_pre_admissible_set``); sets from the
    classes would make the check depend on what it checks.
    """
    return _verify_generators(datum, [rep])


def _verify_generators(datum: AlgebraicDatum, reps: Sequence[GroupElement],
                       walked: Sequence[list[int]] | None = None) -> bool:
    """``verify_generator`` of every triple in ``reps`` on one enumeration,
    from the walk's three packed sets (``walked``, which the survey keeps
    per branch, else made here)."""
    cube = direct_product([datum.group] * 3)
    reps = [rep if rep.group == cube else cube.element(rep.exponents) for rep in reps]
    return all(psi.pairing(rep) == 0 for psi in _walked_admissible(datum, walked) for rep in reps)


class _Solved(_Frozen):
    """``aut0``'s work on one triple of factors: the admissible counts and
    the ``_admissible_span`` of the characters of the (3,0) kernel (both
    kinds) and of the (2,0) kernel (the second kind alone)."""

    _fields = ("counts", "span30", "span20")

    def __init__(self, counts: tuple[int, int], span30: tuple[tuple[int, ...], ...],
                 span20: tuple[tuple[int, ...], ...]):
        _set(self, "counts", counts)
        _set(self, "span30", span30)
        _set(self, "span20", span20)

    def span(self, pq: tuple[int, int]) -> tuple[tuple[int, ...], ...]:
        """The span of the ``(p,q)`` kernel's characters."""
        return self.span30 if sum(pq) == 3 else self.span20


class _KernelPieces:
    """What ``aut0`` reads of the kernel triple alone: ``K Delta_G``, its
    ambient cube ``G^3``, and its Hermite basis in slot order (3, 1, 2) for
    the canonical representatives; and the one place where a span's
    lattice is formed.  It is a cache of one kernel triple's work, not a
    value.

    ``memo`` holds the rest of ``aut0``'s work, which within one kernel
    triple depends only on the ``A_i``: it maps the tuple of the three
    ``A_i`` bases to their ``_Solved``.  ``kernel`` forms the kernel of
    each ``_admissible_span`` once, and ``lattice`` its quotient by
    ``K Delta_G`` and canonical generators once.  ``_pre`` keeps the packed
    pre-admissible set of each factor index and ``A_i`` basis for the
    listings of memo misses: ``Ann(K_i)`` differs between the factors.
    """

    def __init__(self, k_delta: Subgroup):
        self.cube, self.k_delta = k_delta.ambient, k_delta
        r = self.cube.rank // 3
        self._rotated = row_hermite([row[2 * r:] + row[: 2 * r] for row in k_delta.basis],
                                    3 * r)
        self.memo: dict[tuple, _Solved] = {}
        self._kernels: dict[tuple, Subgroup] = {}
        self._lattices: dict[tuple, tuple[QuotientStructure, tuple[GroupElement, ...]]] = {}
        self._pre: dict[tuple, list[int]] = {}

    def pre_admissible(self, group: AbelianGroup, classes: Sequence[_ClassLattice],
                       ) -> list[list[int]]:
        """The three factors' packed pre-admissible sets, each made from its
        classes (``hodge._pre_from_classes``) once per ``A_i``."""
        codec = PackedCharacters(group)
        for i, c in enumerate(classes):
            if (i, c.rows) not in self._pre:
                self._pre[i, c.rows] = _pre_from_classes(codec, c)
        return [self._pre[i, c.rows] for i, c in enumerate(classes)]

    def kernel(self, span: tuple[tuple[int, ...], ...], pq: tuple[int, int]) -> Subgroup:
        """The kernel of the characters whose ``_admissible_span`` is
        ``span`` (``_span_kernel``), formed once per span; ``pq`` names it
        if it fails its check."""
        kernel = self._kernels.get(span)
        if kernel is None:
            kernel = self._kernels[span] = _span_kernel(self.cube, span, self.k_delta, pq)
        return kernel

    def lattice(self, span: tuple[tuple[int, ...], ...],
                ) -> tuple[QuotientStructure, tuple[GroupElement, ...]]:
        """The quotient of the (3,0) kernel of ``span`` by ``K Delta_G`` and
        the canonical representatives of its generators, formed once per
        span."""
        lattice = self._lattices.get(span)
        if lattice is None:
            quotient = subgroup_quotient(self.kernel(span, (3, 0)), self.k_delta)
            lattice = self._lattices[span] = (
                quotient, tuple(map(self.canonical, quotient.generators)))
        return lattice

    def canonical(self, rep: GroupElement) -> GroupElement:
        """The least member of ``rep + K Delta_G`` read in slot order
        (3, 1, 2): ``Delta_G`` gives every third component, so its pivots
        are 1 and the third component is the identity."""
        r = self.cube.rank // 3
        e = rep.exponents
        key = _coset_key(self._rotated, e[2 * r:] + e[: 2 * r])
        return GroupElement(self.cube, key[r:] + key[:r])


def _solved(datum: AlgebraicDatum, kernel_pieces: _KernelPieces,
            classes: Sequence[_ClassLattice]) -> _Solved:
    """The memo entry of the datum's classes, filed under the ``A_i`` bases,
    which fix the pre-admissible sets within a kernel triple.  A miss lists
    the admissible characters while the listing visits at most
    ``LISTING_PAIRS`` pairs, and reads the counts and spans off the classes
    above; either way it keeps only the counts and the two spans."""
    memo = kernel_pieces.memo
    key = tuple(c.rows for c in classes)
    solved = memo.get(key)
    if solved is None:
        if _listing_pairs(classes) <= LISTING_PAIRS:
            first, second = admissible_characters(
                datum, kernel_pieces.pre_admissible(datum.group, classes))
            cube = kernel_pieces.cube
            # The (3,0) span adds the first kind to the (2,0) span, so each
            # character enters one Hermite basis.
            span20 = _admissible_span(cube, second)
            solved = _Solved((len(first), len(second)),
                             _admissible_span(cube, first, span20), span20)
        else:
            solved = _Solved(*_admissible_from_classes(datum.group, classes))
        memo[key] = solved
    return solved


def _kernel_pieces(datum: AlgebraicDatum) -> _KernelPieces:
    return _KernelPieces(_k_delta(datum))


def aut0(datum: AlgebraicDatum, report: DatumReport | None = None,
         kernel_pieces: _KernelPieces | None = None,
         classes: Sequence[_ClassLattice] | None = None) -> Aut0Result:
    """The group of numerically trivial automorphisms (or the kernel
    quotient standing in for it), with generators and a proof status.

    A caller that holds the datum's pieces already passes them in: its
    ``report``, the ``kernel_pieces`` of its kernel triple (built from
    ``K Delta_G`` alone), and the three factors' ``classes``
    (``hodge._class_lattice``; else made here).  The counts and
    spans are looked up in, or added to, ``kernel_pieces.memo`` (``_solved``),
    where the caller can read them afterwards; the kernel, quotient and
    generators come from ``kernel_pieces.kernel`` and ``lattice``.
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
    if classes is None:
        classes = [_class_lattice(datum, i) for i in range(3)]
    solved = _solved(datum, kernel_pieces, classes)
    counts = solved.counts

    if report.freeness_ok and klass is RigidityClass.TRIVIAL_BY_RIGIDITY:
        return Aut0Result(Aut0Status.TRIVIAL_BY_RIGIDITY, InvariantFactors(()), (),
                          counts, cube, None, None, None)

    kernel = kernel_pieces.kernel(solved.span30, (3, 0))
    quotient, generators = kernel_pieces.lattice(solved.span30)

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
    # The engine's own bound, stricter than the paper's |Aut_0| <= 6 (README).
    if report.ok and status is Aut0Status.KERNEL_ONLY and factors.order > 4:
        raise TheoremViolationError(
            f"free datum with irregularity 3 has kernel quotient of order "
            f"{factors.order} > 4")
    return Aut0Result(status, factors, generators, counts, cube, kernel, k_delta, quotient)
