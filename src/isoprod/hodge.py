"""Hodge diamond of the quotient 3-fold by Chevalley-Weil class counting.

Each curve factor contributes a table of character eigenspace dimensions
``D_i``, supported on the annihilator of its kernel; the Hodge numbers of
the quotient are multiplicities of the trivial character in the Kunneth
products.

Chevalley-Weil gives ``D_i = F_i + [chi = 0]`` with
``F_i(chi) = (g' - 1) + sum_j k_j / m_j``, where ``k_j / m_j`` is the value
of ``chi`` on the lift of the j-th branch point.  So ``F_i`` is constant on
the classes of ``Ann(K_i)`` modulo ``A_i = Ann(T_i)``,
``T_i = K_i + <branch lifts>``: two characters share a class exactly when
they take the same values on the lifts.  ``_class_lattice`` lists one
representative per class without visiting the other characters: with the
Hermite bases ``B`` of ``Ann(K_i)`` and ``A`` of ``A_i``, the box
``sum c_j B_j``, ``0 <= c_j < A[j][j] / B[j][j]``, meets every class once,
and its first point is zero.  ``eigendim_table`` reads one integer ``f``
per class off its representative's values, checked in integers, without
``Fraction``.  The pre-admissible set is ``Ann(K_i)`` minus ``A_i``, the
nonzero classes translated by the elements of ``A_i``
(``_pre_from_classes``).  A factor's classes are one record
(``_ClassLattice``: the basis and order of ``A_i``, the representatives
and, once checked, each class's ``f``), which the table keeps and
``aut0`` takes as its one input.

For classes ``x_i + A_i`` the triples ``c_1 + c_2 + c_3 = 0`` number the
fibre size
``|A_1| |A_2| |A_3| / |A_1 + A_2 + A_3|`` when ``x_1 + x_2 + x_3`` lies in
``A_1 + A_2 + A_3``, and none otherwise; the pairs ``c_i + c_j = 0`` number
``|A_i meet A_j| = |A_i| |A_j| / |A_i + A_j|`` when ``x_i + x_j`` lies in
``A_i + A_j``.  Hence, with ``h^{1,0} = sum g'_i``:

- ``h^{3,0}``: the sum of ``F_1 F_2 F_3`` over ``c_1 + c_2 + c_3 = 0``, the
  three sums of ``F_i(c) F_j(-c)``, and ``sum F_i(0) + 1`` from the
  trivial character;
- ``h^{2,1}``: ``2 h^{1,0}`` plus three such 3-fold counts, each with one
  slot conjugated (its representatives negated);
- ``h^{2,0}`` and ``h^{1,1}``: pair counts of ``F_i(c) F_j(-c)`` and of
  ``F_i(c) F_j(c)``, with the same trivial-character terms.

``_class_matches`` is the one rule that matches classes: per sum subgroup
it forms the Hermite basis and the fibre size once and buckets classes by
their canonical coset representative against that basis, so the cost
depends on the number of classes (the order of the subgroup of ``G / K_i``
that the branch points generate), not on ``|G|``.  A triple sum pairs the
buckets of two factors, so class matching grows with the square of the
number of classes.  ``_class_counts`` folds the matched buckets into the
sums above, weighted by ``f``, and ``aut0._admissible_from_classes`` into
the admissible counts and spans.

``isotypic_decomposition`` lists the pieces themselves, whose number is of
order ``|G|^2``: ``_kunneth_pieces`` convolves the packed tables, and the
totals are checked against ``hodge_diamond``, an independent count.

The views of the eigenspace table expand the checked classes on first
read into the full tables over ``Ann(K_i)`` (``_packed`` and ``tables``,
which ``isotypic_decomposition`` and the API read), where every character
of ``rep + A_i`` gets the class's ``f`` and the trivial character
``f + 1``.  The integer walk over all of ``Ann(K_i)`` (``_factor_walk``)
serves only the listings that check the fast path (``aut0.verify_generator``
and the report's oracle), whose pre-admissible sets must not come from the
classes, and the tests' reference.  A report without the oracle makes no
walk.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import mul
from typing import Sequence

from .covering import genus
from .datum import MAX_FIXING, AlgebraicDatum, DatumReport, invariants, validate_datum
from .errors import ConsistencyError, OverflowLimitError
from .groups import (AbelianGroup, Character, GroupElement, PackedCharacters, _coset_key, _Frozen,
                     _hermite_box, _hermite_dual, _hermite_order, _set, row_hermite)


class _ClassLattice(_Frozen):
    """One factor's characters up to the branch points: ``A = Ann(T)`` for
    ``T = K_i + <lifts of the branch points>``, given by the
    upper-triangular Hermite basis of its lattice (``rows``) and its order;
    one character per class of ``Ann(K_i) / A`` (exponent tuples from the
    box of ``_class_lattice``; the first is the class of zero); and, once
    ``eigendim_table`` has checked them, the integer
    ``f = (g' - 1) + sum_j k_j / m_j`` shared by the members of each class
    (``dims``, empty for a bare lattice).
    """

    _fields = ("rows", "order", "reps", "dims")

    def __init__(self, rows: tuple[tuple[int, ...], ...], order: int,
                 reps: tuple[tuple[int, ...], ...], dims: tuple[int, ...] = ()):
        _set(self, "rows", rows)
        _set(self, "order", order)
        _set(self, "reps", reps)
        _set(self, "dims", dims)


class EigenDimTable(_Frozen):
    """For each factor, the map ``chi -> dim W_i^chi`` over characters of G.

    The table holds each factor's checked Chevalley-Weil classes
    (``_classes``).  Views expand them on first read into the full
    annihilator support, zero entries included, keyed by packed characters
    (``_packed``) or by ``Character`` (``tables``).
    """

    _fields = ("datum", "_classes")

    def __init__(self, datum: AlgebraicDatum, _classes: tuple[_ClassLattice, ...]):
        _set(self, "datum", datum)
        _set(self, "_classes", _classes)

    @cached_property
    def _packed(self) -> tuple[dict[int, int], ...]:
        codec = PackedCharacters(self.datum.group)
        out = []
        for classes in self._classes:
            members = _packed_box(codec, classes.rows)
            table = {}
            for rep, f in zip(classes.reps, classes.dims):
                table.update(dict.fromkeys(codec.sums([codec.pack(rep)], members), f))
            table[0] += 1
            out.append(table)
        return tuple(out)

    # No package code reads it: the tests and ``bench/tracing.py`` do.
    @cached_property
    def tables(self) -> tuple[dict[Character, int], ...]:
        codec = PackedCharacters(self.datum.group)
        return tuple({codec.character(x): dim for x, dim in t.items()} for t in self._packed)


def _branch_lifts(datum: AlgebraicDatum, i: int) -> tuple[GroupElement, ...]:
    # Any lifts will do: lifts that differ by elements of K_i span the same
    # T_i and take the same values on Ann(K_i).
    return datum.raw_vectors[i].branch


def _scaled_lifts(datum: AlgebraicDatum, i: int) -> list[tuple[int, ...]]:
    """The branch lifts with coordinate ``j`` scaled by ``e / n_j``, for
    ``e = exponent(G)``: a character's value on a lift is then one dot
    product, mod ``e``, over ``e``."""
    den = datum.group.exponent
    scales = [den // n for n in datum.group.orders]
    return [tuple(e * s % den for e, s in zip(lift.exponents, scales))
            for lift in _branch_lifts(datum, i)]


def _factor_walk(datum: AlgebraicDatum, i: int, codec: PackedCharacters,
                 ) -> dict[int, tuple[int, ...]]:
    """One integer pass over the annihilator of ``K_i``: for each character
    (packed, in annihilator order) its values ``(v_1, ..., v_r)`` on the
    branch lifts, each a dot product scaled to ``e = exponent(G)`` and
    reduced mod ``e``, so that ``v_j / e = k_j / m_j``.  The pre-admissible
    characters are those with some ``v_j != 0`` (``aut0._pre_admissible_set``).
    """
    den = datum.group.exponent
    scaled = _scaled_lifts(datum, i)
    return {codec.pack(chi): tuple(sum(map(mul, chi, lift)) % den for lift in scaled)
            for chi in datum.kernels[i].annihilator()._element_tuples()}


def _class_lattice(datum: AlgebraicDatum, i: int) -> _ClassLattice:
    """The Hermite basis and order of ``A_i = Ann(T_i)`` and one character
    per class of ``Ann(K_i) / A_i``, the class of zero first.

    ``A_i`` is the Hermite dual of ``T_i``'s basis.  Its lattice lies in
    that of ``Ann(K_i)``, whose stored Hermite basis ``B`` has pivots
    dividing those of ``A_i``'s, so the box ``sum c_j B_j`` with
    ``0 <= c_j < A[j][j] / B[j][j]`` holds one point per class
    (``groups._hermite_box``).  No character outside the box is visited,
    and a box of more than ``MAX_FIXING`` classes is refused before any is
    listed: validation bounds the stabilizer preimage, not this count.
    """
    group = datum.group
    t_basis = row_hermite([*datum.kernels[i].basis,
                           *(lift.exponents for lift in _branch_lifts(datum, i))], group.rank)
    a_basis = row_hermite(_hermite_dual(t_basis, group.orders), group.rank)
    b_basis = datum.kernels[i].annihilator().basis
    counts = [a[j] // b[j] for j, (a, b) in enumerate(zip(a_basis, b_basis))]
    if prod(counts) > MAX_FIXING:
        raise OverflowLimitError(f"factor {i + 1}: {prod(counts)} Chevalley-Weil classes "
                                 f"exceed the listing bound of {MAX_FIXING}")
    reps = _hermite_box(b_basis, group.orders, counts)
    return _ClassLattice(a_basis, _hermite_order(group, a_basis), tuple(reps))


def _packed_box(codec: PackedCharacters, a_basis: Sequence[Sequence[int]]) -> list[int]:
    """The packed elements of ``A_i``, from the Hermite box of its basis."""
    return [codec.pack(a) for a in _hermite_box(a_basis, codec.group.orders)]


def _pre_from_classes(codec: PackedCharacters, classes: _ClassLattice) -> list[int]:
    """The sorted packed pre-admissible set: ``Ann(K_i)`` outside ``A_i``,
    the nonzero classes of ``_class_lattice`` translated by ``A_i``."""
    return sorted(codec.sums([codec.pack(rep) for rep in classes.reps[1:]],
                             _packed_box(codec, classes.rows)))


def eigendim_table(datum: AlgebraicDatum) -> EigenDimTable:
    """The Chevalley-Weil classes of each factor.

    Chevalley-Weil in integers on one representative per class, with its
    values ``v_j`` on the branch lifts scaled to ``e = exponent(G)``:
    ``e f = (g' - 1) e + sum_j v_j`` must divide to an integer, and every
    dimension (``f``, or ``f + 1`` for the trivial character) must be
    nonnegative.  Distinct classes must take distinct values, and the
    dimensions must sum to the genus: ``sum f |A_i| + 1 = g``.
    """
    group = datum.group
    den = group.exponent
    classes = []
    for i, vector in enumerate(datum.vectors):
        lattice = _class_lattice(datum, i)
        order, reps = lattice.order, lattice.reps
        scaled = _scaled_lifts(datum, i)
        dims, seen = [], set()
        for c, rep in enumerate(reps):
            vals = tuple(sum(a * v for a, v in zip(rep, lift)) % den for lift in scaled)
            total = (vector.g_prime - 1) * den + sum(vals)
            # The least dimension in the class: f, or f + 1 when the class
            # of zero is the trivial character alone.
            least = total + (den if c == 0 and order == 1 else 0)
            if total % den or least < 0:
                raise ConsistencyError(
                    f"factor {i + 1}: eigenspace dimension {least}/{den} for character "
                    f"{group.character(rep)} is not a nonnegative integer")
            dims.append(total // den)
            seen.add(vals)
        if len(seen) != len(reps):
            raise ConsistencyError(
                f"factor {i + 1}: {len(reps)} Chevalley-Weil classes take "
                f"{len(seen)} value vectors on the branch lifts")
        g = genus(vector)
        if sum(dims) * order + 1 != g:
            raise ConsistencyError(
                f"factor {i + 1}: {len(reps)} Chevalley-Weil classes of |Ann(T)| = {order} "
                f"give dimensions summing to {sum(dims) * order + 1}, genus is {g}")
        classes.append(_ClassLattice(lattice.rows, order, reps, tuple(dims)))
    return EigenDimTable(datum, tuple(classes))


class HodgeDiamond(_Frozen):
    """Hodge numbers ``h[p][q]`` for ``0 <= p, q <= 3``."""

    _fields = ("h",)

    def __init__(self, h: tuple[tuple[int, int, int, int], ...]):
        _set(self, "h", h)

    def __getitem__(self, pq: tuple[int, int]) -> int:
        return self.h[pq[0]][pq[1]]

    def chi_structure_sheaf(self) -> int:
        return sum((-1) ** q * self.h[0][q] for q in range(4))

    def euler_number(self) -> int:
        return sum((-1) ** (p + q) * self.h[p][q] for p in range(4) for q in range(4))

    def betti(self, k: int) -> int:
        return sum(self.h[p][k - p] for p in range(4) if 0 <= k - p <= 3)

    def check_symmetries(self) -> None:
        for p in range(4):
            for q in range(4):
                if self.h[p][q] != self.h[q][p]:
                    raise ConsistencyError(f"Hodge symmetry fails at ({p},{q})")
                if self.h[p][q] != self.h[3 - p][3 - q]:
                    raise ConsistencyError(f"Serre duality fails at ({p},{q})")
        if self.h[0][0] != 1 or self.h[3][3] != 1:
            raise ConsistencyError("h^{0,0} and h^{3,3} must be 1")


def _assemble_diamond(h10: int, h20: int, h30: int, h11: int, h21: int) -> HodgeDiamond:
    h = [[0] * 4 for _ in range(4)]
    h[0][0] = h[3][3] = 1
    h[1][0] = h[0][1] = h[2][3] = h[3][2] = h10
    h[2][0] = h[0][2] = h[1][3] = h[3][1] = h20
    h[3][0] = h[0][3] = h30
    h[1][1] = h[2][2] = h11
    h[2][1] = h[1][2] = h21
    diamond = HodgeDiamond(tuple(tuple(row) for row in h))
    diamond.check_symmetries()
    return diamond


def _kunneth_pieces(codec: PackedCharacters, tables: Sequence[dict[int, int]], p: int, q: int,
                    ) -> list[tuple[tuple[int, int, int], int]]:
    """The Kunneth pieces of ``H^{p,q}`` for ``(p, q)`` in ``(3,0), (2,1),
    (2,0), (1,1)``, as (packed character triple summing to zero, dimension).

    A triple may repeat; the constant terms sit at the trivial triple.
    """
    d1, d2, d3 = tables
    neg = codec.neg
    if (p, q) == (3, 0):
        return [((x, y, neg(s)), dim)
                for x, y, s, dim in codec.convolve(d1, d2, {neg(z): d for z, d in d3.items()})]
    if (p, q) == (2, 1):
        # Conjugating one slot: a piece bar(W_1^chi) (x) W_2^c2 (x) W_3^c3
        # survives when chi = c2 + c3, with character (-chi, c2, c3).  The
        # three fibration classes add 2 per base 1-form.
        return ([((0, 0, 0), 2 * sum(t.get(0, 0) for t in tables))]
                + [((neg(s), y, z), dim) for y, z, s, dim in codec.convolve(d2, d3, d1)]
                + [((x, neg(s), z), dim) for x, z, s, dim in codec.convolve(d1, d3, d2)]
                + [((x, y, neg(s)), dim) for x, y, s, dim in codec.convolve(d1, d2, d3)])
    # H^{2,0} pairs chi with -chi; H^{1,1} pairs chi with chi and carries
    # both orderings of the conjugate pair.
    h20 = (p, q) == (2, 0)
    pieces = [] if h20 else [((0, 0, 0), 3)]
    for i, j, a, b in ((0, 1, d1, d2), (0, 2, d1, d3), (1, 2, d2, d3)):
        for x, dim in a.items():
            y = neg(x)
            dim *= b.get(y if h20 else x, 0)
            if not dim:
                continue
            for u, v in ((x, y),) if h20 else ((x, y), (y, x)):
                comps = [0, 0, 0]
                comps[i], comps[j] = u, v
                pieces.append((tuple(comps), dim))
    return pieces


def _class_matches(group: AbelianGroup, classes: Sequence[_ClassLattice],
                   weights: Sequence[Sequence[int]], patterns: Sequence[Sequence[int]],
                   ) -> tuple[int, list[list[tuple[list, ...]]]]:
    """The matches of the classes ``x_k + A_k`` of two or three factors:
    the fibre ``prod |A_k| / |sum A_k|``, and per sign pattern ``s`` the
    tuples of buckets, one per factor, with ``sum_k s_k x_k in sum_k A_k``;
    each such class tuple has ``fibre`` solutions of ``sum_k s_k c_k = 0``.

    A bucket ``[w, reps]`` holds the classes of nonzero weight
    (``weights[k]``, one per class) of one factor whose signed
    representatives have one key, the canonical coset representative
    against the Hermite basis of the sum (``groups._coset_key``), and
    their summed weight.  A tuple matches when the key of the sum of its
    leading keys is the key of its last entry negated.
    """
    basis = row_hermite([row for c in classes for row in c.rows], group.rank)
    fibre = prod(c.order for c in classes) // _hermite_order(group, basis)
    buckets: dict[tuple[int, int], dict[tuple[int, ...], list]] = {}

    def bucketed(k: int, sign: int) -> dict[tuple[int, ...], list]:
        out = buckets.get((k, sign))
        if out is None:
            out = buckets[k, sign] = {}
            for rep, w in zip(classes[k].reps, weights[k]):
                if w:
                    bucket = out.setdefault(_coset_key(basis, [sign * e for e in rep]), [0, []])
                    bucket[0] += w
                    bucket[1].append(rep)
        return out

    matches = []
    for signs in patterns:
        head, last = bucketed(0, signs[0]), bucketed(len(signs) - 1, -signs[-1])
        if len(signs) == 2:
            matches.append([(b, last[key]) for key, b in head.items() if key in last])
            continue
        found = []
        for k2, b2 in bucketed(1, signs[1]).items():
            for k1, b1 in head.items():
                key = _coset_key(basis, [x + y for x, y in zip(k1, k2)])
                if key in last:
                    found.append((b1, b2, last[key]))
        matches.append(found)
    return fibre, matches


def _class_counts(group: AbelianGroup, classes: Sequence[_ClassLattice],
                  ) -> tuple[int, int, int, int]:
    """The sums of ``F_1 F_2 F_3`` and ``F_i F_j`` that the Hodge numbers
    need, by class (``_class_matches``, weighted by ``f``):
    ``(t30, t21, same, opp)``.

    ``t30`` sums ``F_1(x_1) F_2(x_2) F_3(x_3)`` over ``x_1 + x_2 + x_3 = 0``
    and ``t21`` the three such sums with one slot conjugated; ``same`` sums
    ``F_i(x) F_j(-x)`` and ``opp`` sums ``F_i(x) F_j(x)`` over the three
    pairs.
    """
    def total(fibre: int, found: list[tuple[list, ...]]) -> int:
        return fibre * sum(prod(w for w, _ in buckets) for buckets in found)

    fibre, (t30, *t21) = _class_matches(group, classes, [c.dims for c in classes],
                                        [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)])
    same = opp = 0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        # x_i + x_j (x_i - x_j) in A_i + A_j; each class pair has
        # |A_i meet A_j| = meet solutions.
        meet, (plus, minus) = _class_matches(group, (classes[i], classes[j]),
                                             (classes[i].dims, classes[j].dims), [(1, 1), (1, -1)])
        same += total(meet, plus)
        opp += total(meet, minus)
    return total(fibre, t30), sum(total(fibre, found) for found in t21), same, opp


def hodge_diamond(datum: AlgebraicDatum, table: EigenDimTable | None = None,
                  report: DatumReport | None = None) -> HodgeDiamond:
    """Hodge diamond by Chevalley-Weil class counting (see the module notes).

    For free data the holomorphic Euler characteristic and the topological
    Euler number are cross-checked against the product formulas.  A caller
    that has validated the datum already passes its ``report``.
    """
    if table is None:
        table = eigendim_table(datum)
    # D_i = F_i + [chi = 0] with F_i(0) = g'_i - 1: the trivial character
    # adds the pair sums to the triple sums and constants to both.
    h10 = sum(c.dims[0] + 1 for c in table._classes)
    t30, t21, same, opp = _class_counts(datum.group, table._classes)
    h30 = t30 + same + h10 - 2
    h21 = 2 * h10 + t21 + same + 2 * opp + 3 * (h10 - 2)
    h20 = same + 2 * h10 - 3
    h11 = 2 * opp + 4 * h10 - 3

    diamond = _assemble_diamond(h10, h20, h30, h11, h21)

    if report is None:
        report = validate_datum(datum)
    if report.ok:
        inv = invariants(datum)
        if diamond.chi_structure_sheaf() != inv.chi_structure_sheaf:
            raise ConsistencyError(
                f"chi(O) mismatch: diamond gives {diamond.chi_structure_sheaf()}, "
                f"product formula gives {inv.chi_structure_sheaf}")
        if diamond.euler_number() != inv.euler_number:
            raise ConsistencyError(
                f"Euler number mismatch: diamond gives {diamond.euler_number()}, "
                f"product formula gives {inv.euler_number}")
    return diamond


def isotypic_decomposition(datum: AlgebraicDatum, p: int, q: int,
                           table: EigenDimTable | None = None,
                           report: DatumReport | None = None,
                           ) -> list[tuple[Character, int]]:
    """Isotypic pieces of ``H^{p,q}(X)`` under the descended product action.

    Returns pairs ``(psi, dim)`` with ``psi`` a character of ``G^3`` whose
    components multiply to the trivial character; only positive dimensions
    are listed, sorted by character exponents.  Supported for
    ``(p, q) in {(3,0), (2,1), (2,0), (1,1)}``; the other summands follow
    by conjugation and duality.  The total is cross-checked against
    ``hodge_diamond``, which receives ``table`` and ``report``.
    """
    if (p, q) not in {(3, 0), (2, 1), (2, 0), (1, 1)}:
        raise ValueError(f"unsupported Hodge summand ({p},{q})")
    if table is None:
        table = eigendim_table(datum)
    codec, tables = PackedCharacters(datum.group), table._packed
    acc: dict[tuple[int, int, int], int] = {}
    for key, dim in _kunneth_pieces(codec, tables, p, q):
        acc[key] = acc.get(key, 0) + dim

    # ``cube_characters`` sorts in the same (triple) order.
    keys = sorted(key for key, dim in acc.items() if dim)
    out = list(zip(codec.cube_characters(keys), (acc[key] for key in keys)))
    total = sum(dim for _, dim in out)
    expected = hodge_diamond(datum, table, report)[p, q]
    if total != expected:
        raise ConsistencyError(
            f"isotypic dimensions for ({p},{q}) sum to {total}, "
            f"Hodge number is {expected}")
    return out
