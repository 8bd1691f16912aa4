"""Numerically trivial automorphisms of the quotient 3-fold.

The automorphisms descended from the product form ``G^3 / K Delta_G``; an
element is numerically trivial iff every admissible character of ``G^3``
vanishes on it.  The intersection of those kernels is the Hermite dual of
the characters' span, and its quotient by ``K Delta_G`` is reported
through its invariant factors and explicit generator cosets.

Every admissible character lies in the sum-zero plane
``c_1 + c_2 + c_3 = 0``, so it vanishes on ``Delta_G``, and ``aut0`` works
on the slice ``x_1 = 0`` of ``G^3 / Delta_G``, which is ``G^2``
(``_KernelPieces``).  It needs of the characters their two counts and the
canonical Hermite bases of their rows ``(c_2, c_3)``, which one rule forms
from rows that generate each kind (``_spans``).  ``G^3`` is formed only
where it is asked for: ``representation_kernel`` and the report's oracle
lift a kernel (``_lifted``).

``aut0``'s one input is each factor's Chevalley-Weil classes
(``hodge._ClassLattice``; its ``support`` is the rule for the
pre-admissible ones).  Within one kernel triple ``A_i`` fixes the
pre-admissible set ``Ann(K_i) \\ A_i``, so ``aut0`` keeps its work in
``_KernelPieces.memo`` under the three ``A_i`` bases as a ``_Solved``: the
two counts and the spans of the (3,0) and (2,0) kernels, no characters.
A miss fills it by one of two routes, chosen by one rule on the size of
the listing (``LISTING_PAIRS``), each handing its counts and rows to
``_spans``:

- small data list the characters (``admissible_characters``) from the
  packed pre-admissible sets (``groups.PackedCharacters``), which the
  pieces read off the classes (``hodge._pre_from_classes``) once per
  factor and ``A_i``, as the (3,0) and (2,0) Kunneth pieces of their 0/1
  tables (``hodge._kunneth_pieces``);
- large data read the counts and rows off the classes ``x + A_i``
  themselves (``_admissible_from_classes``), by the matching rule of the
  Hodge sums (``hodge._class_matches``).

The lattice depends only on a span, and ``_KernelPieces`` is the one place
that forms it, once per span.  The survey passes the classes once per
factor branch and the pieces once per kernel triple; a report
(``cli._Analysis``) passes the classes of its eigenspace table, and its
kernels section and ``representation_kernel`` read the same memo
(``_solved``).  The status and the theorem bounds run on every ``aut0``
call, and nowhere else.  ``verify_generator`` lists on purpose: it is the
survey's independent re-check, so its pre-admissible sets come from the
walk over ``Ann(K_i)`` (``_pre_admissible_set``), not from the classes,
and the report's oracle lists the same way.
"""

from __future__ import annotations

import enum
import itertools
from math import prod
from typing import Sequence

from .covering import stabilizer_union
from .datum import AlgebraicDatum, RigidityClass, _refuse_over, rigidity_class, validate_datum
from .errors import (ConsistencyError, ParentMismatchError, TheoremViolationError,
                     UnsupportedDatumError)
from .groups import (
    AbelianGroup,
    Character,
    GroupElement,
    InvariantFactors,
    PackedCharacters,
    Subgroup,
    _coset_key,
    _diagonal,
    _Frozen,
    _hermite_dual,
    _set,
    direct_product,
    row_hermite,
    subgroup_quotient,
)
from .hodge import (_class_lattice, _class_matches, _ClassLattice, _factor_walk, _kunneth_pieces,
                    _pre_from_classes)

# The listing route runs while the first-kind convolution visits at most
# this many pairs ``|P_1| |P_2|``, else the counts and rows come from the
# classes.  On ``_solved`` over the 8 report-ladder data, listing won at 4
# and 16 pairs (0.14 ms against 0.31-0.33), tied at 64 (0.30 ms) and lost
# from 192 up (0.33 against 0.21; 5.6 against 0.19 at 16,384).  Each miss
# of the basis and ``"cyclic"`` Z2^3 surveys lists 4 to 16 pairs.
LISTING_PAIRS = 256


class Aut0Status(enum.Enum):
    PROVEN = "Proven"
    TRIVIAL_BY_RIGIDITY = "TrivialByRigidity"
    KERNEL_ONLY = "KernelOnly"
    NON_FREE_KERNEL_ONLY = "NonFreeKernelOnly"


class Aut0Result(_Frozen):
    _fields = ("status", "invariant_factors", "generators", "admissible_counts")

    def __init__(self, status: Aut0Status, invariant_factors: InvariantFactors,
                 generators: tuple[GroupElement, ...], admissible_counts: tuple[int, int]):
        _set(self, "status", status)
        _set(self, "invariant_factors", invariant_factors)
        _set(self, "generators", generators)
        _set(self, "admissible_counts", admissible_counts)

    @property
    def order(self) -> int:
        return self.invariant_factors.order


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


def _plus_diagonal(group: AbelianGroup, rows: list[tuple[int, ...]]) -> Subgroup:
    """The subgroup of ``G^3`` with generators ``rows``, then ``Delta_G``."""
    cube = direct_product([group] * 3)
    units = (group.basis_element(j).exponents for j in range(group.rank))
    return cube.subgroup(map(cube.element, rows + [e * 3 for e in units]))


def _k_delta(datum: AlgebraicDatum) -> Subgroup:
    """``K Delta_G`` as one subgroup of ``G^3``: the kernels, then the diagonal."""
    zero = (0,) * datum.group.rank
    return _plus_diagonal(datum.group, [zero * i + k.exponents + zero * (2 - i)
                                        for i, h in enumerate(datum.kernels) for k in h.generators])


def _lifted(group: AbelianGroup, kernel: Subgroup) -> Subgroup:
    """The subgroup ``(0, kernel) + Delta_G`` of ``G^3`` for a ``kernel`` on
    the slice ``x_1 = 0`` (``_KernelPieces``)."""
    return _plus_diagonal(group, [(0,) * group.rank + y.exponents for y in kernel.generators])


def _lifted_order(group: AbelianGroup, kernel: Subgroup) -> int:
    """The order of ``_lifted(group, kernel)``, whose summands meet trivially."""
    return group.order * kernel.order


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
    (``_solved``), so large data list nothing here either; the kernel is
    lifted from the slice (``_lifted``).
    """
    if (p, q) not in {(3, 0), (2, 1), (2, 0), (1, 1)}:
        raise ValueError(f"representation kernel supported for (3,0),(2,1),(2,0),(1,1); "
                         f"got ({p},{q})")
    pieces = _KernelPieces(datum)
    solved = _solved(datum, pieces, [_class_lattice(datum, i) for i in range(3)])
    return _lifted(datum.group, pieces.kernel(solved.span((p, q)), (p, q)))


def _spans(group: AbelianGroup, first: Sequence[tuple[int, ...]],
           second: Sequence[tuple[int, ...]]) -> tuple[tuple, tuple]:
    """The spans ``(span30, span20)`` of ``_Solved`` from the rows
    ``(c_2, c_3)`` that generate the characters of the first kind
    (``first``) and of the second kind (``second``): the Hermite bases, at
    width ``2r``, of ``second`` plus the relations of ``G^2``, and of that
    basis plus ``first``, so each row enters one Hermite form.

    Every admissible character has ``c_1 + c_2 + c_3 = 0``, so it vanishes
    on ``Delta_G``, maps the slice point ``(0, y_2, y_3)`` to
    ``c_2 y_2 + c_3 y_3`` and is fixed by its row.  The bases are
    canonical, so equal spans give equal tuples.
    """
    r = group.rank
    span20 = row_hermite([*second, *_diagonal(group.orders * 2)], 2 * r)
    return row_hermite([*span20, *first], 2 * r), span20


def _listing_pairs(classes: Sequence[_ClassLattice]) -> int:
    """The pairs ``|P_1| |P_2|`` that the first-kind convolution of the
    listing visits, with ``|P_i| = |A_i|`` times the classes in the support."""
    return prod(sum(c.support) * c.order for c in classes[:2])


def _admissible_from_classes(group: AbelianGroup, classes: Sequence[_ClassLattice],
                             ) -> tuple[tuple[int, int], tuple, list]:
    """The admissible counts ``(first, second)``, and rows ``(c_2, c_3)``
    that generate the characters of the first kind and of the second kind,
    for ``_spans``, read off each factor's classes (``hodge._class_lattice``)
    without listing a character.

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
    distribute over sums), and ``_spans`` adds the pieces up at width ``2r``.

    ``placed`` writes each row in the coordinates
    ``(c_1 + c_2 + c_3, c_2, c_3)``, the sum left unreduced: a unimodular
    change that maps the relations ``diag(n)^3`` onto themselves.  In the
    upper-triangular Hermite basis of ``W`` and those relations, the
    members whose first ``r`` coordinates are 0 are the combinations of
    the rows after the first ``r``.  The relations of the first block make
    a sum that is 0 modulo the orders one that is 0, so those members are
    ``W meet Z``, and the rows cut to their last ``2r`` columns are the
    canonical Hermite basis of its ``(c_2, c_3)`` (H. Cohen, 2.4).
    """
    r = group.rank
    zero = (0,) * r

    def placed(slots: dict[int, Sequence[int]]) -> tuple[int, ...]:
        c = [slots.get(s, zero) for s in range(3)]
        return (*map(sum, zip(*c)), *c[1], *c[2])

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
    return ((first, sum(count for count, _ in pairs)), rows30,
            [row for _, rows in pairs for row in rows])


def verify_generator(datum: AlgebraicDatum, rep: GroupElement) -> bool:
    """Independent check that a triple is numerically trivial: every
    admissible character must vanish on it.  No annihilator machinery.

    The characters are enumerated afresh from the three packed sets of
    the walk over ``Ann(K_i)`` (``_pre_admissible_set``); sets from the
    classes would make the check depend on what it checks.  It refuses an
    element outside ``G^3``, even where no character is admissible.
    """
    if rep.group.orders != datum.group.orders * 3:
        raise ParentMismatchError("element outside G^3 of the datum")
    return _verify_generators(datum, [rep])


def _verify_generators(datum: AlgebraicDatum, reps: Sequence[GroupElement],
                       walked: Sequence[list[int]] | None = None) -> bool:
    """``verify_generator`` of every triple in ``reps`` on one enumeration,
    from the walk's three packed sets (``walked``, which the survey keeps
    per branch, else made here)."""
    return all(psi.pairing(rep) == 0 for psi in _walked_admissible(datum, walked) for rep in reps)


class _Solved(_Frozen):
    """``aut0``'s work on one triple of factors: the admissible counts and
    the ``_spans`` of the characters of the (3,0) kernel (both kinds) and
    of the (2,0) kernel (the second kind alone)."""

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
    """What ``aut0`` reads of the kernel triple alone, on the slice
    ``x_1 = 0`` of ``G^3 / Delta_G``, which is ``G^2``: ``K Delta_G`` meets
    it in ``k = <(-k_1, -k_1), (k_2, 0), (0, k_3)>``; the Hermite basis of
    its image on ``x_3 = 0`` serves the canonical representatives.  It is
    a cache of one kernel triple's work, not a value.

    ``memo`` maps the three ``A_i`` bases to their ``_Solved``; ``kernel``
    and ``lattice`` form a span's kernel and its quotient by ``k`` once.
    ``_pre`` keeps the packed pre-admissible set of each factor index and
    ``A_i`` basis for the listings of memo misses.
    """

    def __init__(self, datum: AlgebraicDatum):
        self.group = g = datum.group
        self.plane = plane = direct_product([g, g])
        self._cube = direct_product([g, g, g])
        zero = (0,) * g.rank
        k1, k2, k3 = ([h.exponents for h in k.generators] for k in datum.kernels)
        # (k_1, 0, 0), (0, k_2, 0) and (0, 0, k_3) read on x_1 = 0 and on x_3 = 0.
        self.k = plane.subgroup(map(plane.element, [tuple(-x for x in h) * 2 for h in k1]
                                    + [h + zero for h in k2] + [zero + h for h in k3]))
        self._image = row_hermite([h + zero for h in k1] + [zero + h for h in k2]
                                  + [tuple(-x for x in h) * 2 for h in k3]
                                  + _diagonal(plane.orders), 2 * g.rank)
        self.memo: dict[tuple, _Solved] = {}
        self._kernels: dict[tuple, Subgroup] = {}
        self._lattices: dict[tuple, tuple] = {}
        self._pre: dict[tuple, list[int]] = {}

    def pre_admissible(self, classes: Sequence[_ClassLattice]) -> list[list[int]]:
        """The three factors' packed pre-admissible sets, each made from its
        classes (``hodge._pre_from_classes``) once per ``A_i``."""
        codec = PackedCharacters(self.group)
        for i, c in enumerate(classes):
            if (i, c.rows) not in self._pre:
                self._pre[i, c.rows] = _pre_from_classes(codec, c)
        return [self._pre[i, c.rows] for i, c in enumerate(classes)]

    def kernel(self, span: tuple[tuple[int, ...], ...], pq: tuple[int, int]) -> Subgroup:
        """The kernel on the slice of the characters whose span (``_spans``)
        is ``span``, its Hermite dual, checked to contain ``k`` and formed
        once per span; ``pq`` names it if it fails its check."""
        kernel = self._kernels.get(span)
        if kernel is None:
            kernel = self.plane.subgroup(map(self.plane.element,
                                             _hermite_dual(span, self.plane.orders)))
            if not self.k.is_subgroup_of(kernel):
                p, q = pq
                raise ConsistencyError(
                    f"K Delta_G is not contained in the ({p},{q}) kernel; "
                    "the admissible enumeration is inconsistent")
            self._kernels[span] = kernel
        return kernel

    def lattice(self, span: tuple[tuple[int, ...], ...],
                ) -> tuple[InvariantFactors, tuple[GroupElement, ...]]:
        """The invariant factors of the (3,0) kernel of ``span`` modulo
        ``K Delta_G`` and the canonical representatives of its generators,
        formed once per span on the slice.

        They are those of the quotient in ``G^3``.  Both lattices there
        contain ``Delta_G``, so their Hermite bases have pivot 1 in each of
        the first ``r`` columns, and their other rows are the Hermite bases
        of the slice lattices: the relation matrix is ``[[T, X], [0, R]]``,
        ``T`` unit upper triangular and ``R`` that of the slice.
        ``groups._smith`` takes those unit pivots first, each the first
        minimal entry it scans; it clears ``X`` by column operations, which
        change only the first ``r`` rows of ``V^{-1}``; then it runs on
        ``R`` as it would alone.  So the generators in ``G^3`` are ``(0, y)``
        for the slice generators ``y``.
        """
        lattice = self._lattices.get(span)
        if lattice is None:
            quotient = subgroup_quotient(self.kernel(span, (3, 0)), self.k)
            r = self.group.rank
            # (0, y_2, y_3) is (-y_3, y_2 - y_3) on x_3 = 0.
            lattice = self._lattices[span] = (quotient.invariant_factors, tuple(
                self._least([-b for b in e[r:]] + [a - b for a, b in zip(e, e[r:])])
                for e in (y.exponents for y in quotient.generators)))
        return lattice

    def _least(self, x: list[int]) -> GroupElement:
        """``(x, 0)`` in ``G^3``, ``x`` reduced against ``K``'s image on ``x_3 = 0``."""
        return GroupElement(self._cube, _coset_key(self._image, x) + (0,) * self.group.rank)


def _solved(datum: AlgebraicDatum, kernel_pieces: _KernelPieces,
            classes: Sequence[_ClassLattice]) -> _Solved:
    """The memo entry of the datum's classes, filed under the ``A_i`` bases,
    which fix the pre-admissible sets within a kernel triple.  A miss lists
    the admissible characters while the listing visits at most
    ``LISTING_PAIRS`` pairs, and reads the counts and rows off the classes
    above; either way ``_spans`` turns the rows of each kind into the two
    spans, and the entry keeps only them and the counts."""
    memo = kernel_pieces.memo
    key = tuple(c.rows for c in classes)
    solved = memo.get(key)
    if solved is None:
        if _listing_pairs(classes) <= LISTING_PAIRS:
            r = datum.group.rank
            kinds = admissible_characters(datum, kernel_pieces.pre_admissible(classes))
            counts = tuple(map(len, kinds))
            first, second = ([psi.exponents[r:] for psi in kind] for kind in kinds)
        else:
            counts, first, second = _admissible_from_classes(datum.group, classes)
        solved = memo[key] = _Solved(counts, *_spans(datum.group, first, second))
    return solved


def aut0(datum: AlgebraicDatum, *, kernel_pieces: _KernelPieces | None = None,
         classes: Sequence[_ClassLattice] | None = None) -> Aut0Result:
    """The group of numerically trivial automorphisms (or the kernel
    quotient standing in for it), with generators and a proof status.

    The status reads the datum's own report (``validate_datum``).
    ``kernel_pieces`` is the cache of the datum's kernel triple (built from
    the kernels alone) and ``classes`` the three factors' Chevalley-Weil
    classes (``hodge._class_lattice``); each is made here when not given.
    The counts and spans are looked up in, or added to,
    ``kernel_pieces.memo`` (``_solved``), where the caller can read them
    afterwards; the quotient and its generators come from
    ``kernel_pieces.lattice``.
    """
    report = validate_datum(datum)
    klass = rigidity_class(datum)
    if klass is RigidityClass.UNSUPPORTED:
        raise UnsupportedDatumError(
            "the classification needs irregularity 3 with no rational base curve "
            "(or irregularity >= 4)")
    if kernel_pieces is None:
        kernel_pieces = _KernelPieces(datum)
    if classes is None:
        classes = [_class_lattice(datum, i) for i in range(3)]
    solved = _solved(datum, kernel_pieces, classes)
    counts = solved.counts

    if report.freeness_ok and klass is RigidityClass.TRIVIAL_BY_RIGIDITY:
        return Aut0Result(Aut0Status.TRIVIAL_BY_RIGIDITY, InvariantFactors(()), (), counts)

    factors, generators = kernel_pieces.lattice(solved.span30)

    if not report.freeness_ok:
        status = Aut0Status.NON_FREE_KERNEL_ONLY
    elif klass is RigidityClass.AUT0_COMPUTABLE:
        status = Aut0Status.PROVEN
    else:
        status = Aut0Status.KERNEL_ONLY

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
    return Aut0Result(status, factors, generators, counts)
