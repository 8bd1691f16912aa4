"""Exact arithmetic for finite abelian groups.

A group is presented as a direct sum of cyclic groups ``Z_{n_1} + ... +
Z_{n_k}``; elements and characters are exponent tuples.  Subgroups are
represented by a canonical Hermite-reduced basis of the corresponding
integer lattice in ``Z^k`` (the lattice always contains the relation
lattice ``diag(n_1, ..., n_k) Z^k``), built by inserting the rows one at
a time.  The Hermite basis alone answers membership, order, exponent and
cyclicity, coset minima, and element listing (H. Cohen, *A Course in
Computational Algebraic Number Theory*, 2.4), and its dual basis, found by
exact forward substitution, generates the annihilator.  Intersections are
dual to sums: ``H_1 & H_2 = Ann(Ann H_1 + Ann H_2)``.  Smith forms serve
quotients ``A / B``, whose elimination carries ``V^{-1}`` along.  No
rational arithmetic is involved.  The size bound ``MAX_GROUP_ORDER`` holds
for input groups (``AbelianGroup``); ``direct_product`` builds ``G^3`` of a
checked ``G`` without checking.

All values are immutable after construction: the value types derive from
``_Frozen``, whose ``__setattr__`` and ``__delattr__`` raise
``AttributeError``, and each ``__init__`` sets its fields once through
``object.__setattr__``.  ``_Record`` gives them ``==`` and ``hash`` over
the fields named in ``_fields`` and a ``repr`` of the public ones; the
classes are written out, so importing the package generates no code.  The
lazily cached values are a group's full subgroup, a subgroup's annihilator,
order, exponent and cyclicity, and its verdicts on meeting other subgroups
trivially (and a datum's report and classes, see ``datum``), stored in the
instance ``__dict__`` by their first read; instances stay safe to share
between threads, because each value is a pure function of the instance and
a racing first read writes an equal value.
"""

from __future__ import annotations

import itertools
import sys
from functools import cached_property
from math import gcd, lcm, prod
from operator import add, mod, sub
from typing import Iterable, Iterator, Sequence

from .errors import ConsistencyError, OverflowLimitError, ParentMismatchError

# Guard against accidental astronomically-sized input groups; exhaustive
# scans carry their own much smaller caps (canonicalization, oracles).
MAX_GROUP_ORDER = 2 ** 62

Matrix = list[list[int]]

# Sets a field of a ``_Frozen`` instance in its ``__init__``.
_set = object.__setattr__


class _Record:
    """Value semantics over the fields named in ``_fields``: ``==`` between
    instances of one class, ``hash`` of the tuple of the values, and a
    ``repr`` of the fields whose names do not start with ``_``."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name[0] != "_")
        return f"{type(self).__qualname__}({shown})"


class _Frozen(_Record):
    """A ``_Record`` that refuses assignment after ``__init__``."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Integer matrix normal forms
# ---------------------------------------------------------------------------


def _diagonal(entries: Sequence[int]) -> Matrix:
    """The rows of ``diag(entries)``; for the orders of a group, its relations."""
    return [[n if c == j else 0 for c in range(len(entries))] for j, n in enumerate(entries)]


def _smith(a: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """Return ``(S, U, V, V^{-1})`` with ``U @ A @ V = S``.

    Every column operation applied to ``V`` is mirrored by the inverse row
    operation on ``V^{-1}``, so the inverse costs no extra elimination.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    s = [list(row) for row in a]
    for row in s:
        if len(row) != n:
            raise ValueError("ragged matrix")
    u = _diagonal([1] * m)
    v = _diagonal([1] * n)
    v_inv = _diagonal([1] * n)

    def row_sub(i: int, j: int, q: int) -> None:
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i: int, j: int, q: int) -> None:
        # V <- V E with E = I - q e_j e_i^T, so V^{-1} <- (I + q e_j e_i^T) V^{-1}.
        for row in s:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]
        v_inv[j] = [x + q * y for x, y in zip(v_inv[j], v_inv[i])]

    def row_swap(i: int, j: int) -> None:
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    t = 0
    while t < min(m, n):
        # Choose a pivot of minimal absolute value in the trailing block.
        # Whenever clearing leaves a remainder the loop restarts with a
        # strictly smaller pivot, so the stage terminates.
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] and (best is None or abs(s[i][j]) < best):
                    best = abs(s[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])

        clean = True
        for i in range(t + 1, m):
            if s[i][t]:
                row_sub(i, t, s[i][t] // s[t][t])
                if s[i][t]:
                    clean = False
        for j in range(t + 1, n):
            if s[t][j]:
                col_sub(j, t, s[t][j] // s[t][t])
                if s[t][j]:
                    clean = False
        if not clean:
            continue
        # Enforce the divisibility chain: every trailing entry must be a
        # multiple of the pivot.  Mixing the offending row into row t puts a
        # non-multiple in row t, which the next rounds shrink the pivot on.
        bad = None
        for i in range(t + 1, m):
            if any(s[i][j] % s[t][t] for j in range(t + 1, n)):
                bad = i
                break
        if bad is not None:
            row_sub(t, bad, -1)
            continue
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return s, u, v, v_inv


# Public; in the package only ``unimodular_inverse`` reads it, and the bench times it by name.
def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Return ``(S, U, V)`` with ``U @ A @ V = S``.

    ``S`` is diagonal with ``d_1 | d_2 | ...`` and nonnegative entries;
    ``U`` and ``V`` are unimodular.
    """
    s, u, v, _ = _smith(a)
    return s, u, v


def row_hermite(rows: Iterable[Sequence[int]], width: int) -> tuple[tuple[int, ...], ...]:
    """Canonical upper-triangular Hermite basis of a full-rank row lattice.

    The input lattice must have rank ``width`` (guaranteed here because the
    ambient relation rows ``diag(n_j)`` are always stacked in).  Pivots are
    positive and entries above each pivot are reduced into ``[0, pivot)``.

    Each row is pushed down a basis of at most one row per column; at a
    taken column, Euclid's algorithm on the two rows leaves the gcd in the
    basis row and a zero in the pushed one, which moves on (H. Cohen, 2.4).
    Signs and entries above the pivots are reduced last, bottom row first.
    """
    basis: list[list[int] | None] = [None] * width
    for row in rows:
        v = list(row)
        for col in range(width):
            if not v[col]:
                continue
            b = basis[col]
            if b is None:
                basis[col] = v
                break
            while v[col]:
                q = v[col] // b[col]
                v = [s - q * t for s, t in zip(v, b)]
                if v[col]:
                    b, v = v, b
            basis[col] = b
    if None in basis:
        raise ConsistencyError("lattice not of full rank")
    for j in range(width - 1, -1, -1):
        row = basis[j] if basis[j][j] > 0 else [-x for x in basis[j]]
        for c in range(j + 1, width):
            q = row[c] // basis[c][c]
            if q:
                row = [s - q * t for s, t in zip(row, basis[c])]
        basis[j] = row
    return tuple(map(tuple, basis))


def solve_upper(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int] | None:
    """Integer coefficients ``x`` with ``x . basis = vec``, or None."""
    v = list(vec)
    k = len(basis)
    coeffs = []
    for j in range(k):
        p = basis[j][j]
        if v[j] % p:
            return None
        c = v[j] // p
        if c:
            v = [x - c * y for x, y in zip(v, basis[j])]
        coeffs.append(c)
    if any(v):
        return None
    return coeffs


def _coset_key(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> tuple[int, ...]:
    """The least point of ``vec + L`` in the box ``0 <= x_j < basis[j][j]``,
    for the lattice ``L`` of an upper-triangular Hermite ``basis`` of full
    rank: one top-down pass, one floor division per column.  ``vec`` may
    hold any integers; each coset of ``L`` has exactly one point in the box.
    It is the coset's lexicographically least point with entries in
    ``[0, n_j)``: two such points that agree before column ``j`` differ
    there by a multiple of the pivot ``basis[j][j]`` (H. Cohen, 2.4).
    """
    v = list(vec)
    for j, row in enumerate(basis):
        q = v[j] // row[j]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)


def _hermite_order(group: "AbelianGroup", basis: Sequence[Sequence[int]]) -> int:
    """The order of the subgroup of ``group`` whose lattice has the
    upper-triangular Hermite ``basis``: ``|G|`` over the lattice's index."""
    return group.order // prod(row[j] for j, row in enumerate(basis))


def _hermite_box(basis: Sequence[Sequence[int]], orders: Sequence[int],
                 counts: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
    """The points ``sum c_j basis[j]`` with ``0 <= c_j < counts[j]``, reduced
    mod ``orders``, zero first.

    For the upper-triangular Hermite basis of a lattice ``L`` and the pivots
    ``p_j`` of a sublattice ``M`` containing ``diag(orders)``, the counts
    ``p_j / basis[j][j]`` give one point per coset of ``M`` in ``L``: two
    points in one coset differ by ``sum d_j basis[j]`` with
    ``|d_j| < counts[j]``, and reading the triangular basis column by column
    forces every ``d_j = 0``.  With ``M = diag(orders)``, the default
    counts, the box lists the subgroup of ``L`` once per element.
    """
    if counts is None:
        counts = [n // row[j] for j, (n, row) in enumerate(zip(orders, basis))]
    multiples = [[tuple(c * x for x in row) for c in range(count)]
                 for row, count in zip(basis, counts) if count > 1]
    zero = (0,) * len(orders)
    for terms in itertools.product(*multiples):
        yield tuple(x % n for x, n in zip(map(sum, zip(zero, *terms)), orders))


def _hermite_dual(basis: Sequence[Sequence[int]], orders: Sequence[int]) -> list[tuple[int, ...]]:
    """The rows of ``M`` with ``B^T M = diag(orders)``, for the upper-triangular
    Hermite basis ``B`` of a lattice containing ``diag(orders)``: they
    generate the annihilator lattice (see ``Subgroup.annihilator``).
    """
    k = len(orders)
    cols = []
    for c, n in enumerate(orders):
        x = [0] * k
        for i in range(c, k):
            t = (n if i == c else 0) - sum(basis[j][i] * x[j] for j in range(c, i))
            q, r = divmod(t, basis[i][i])
            if r:
                raise ConsistencyError("Hermite dual is not integral")
            x[i] = q
        cols.append(x)
    return list(zip(*cols))


# No caller in the package: kept because ``bench/tracing.py`` times it by name.
def unimodular_inverse(m: Sequence[Sequence[int]]) -> Matrix:
    """Exact inverse of a unimodular integer matrix.

    ``U M V = S`` is the identity exactly when ``M`` is unimodular, and
    then ``M^{-1} = V U``.
    """
    n = len(m)
    s, u, v = smith_normal_form(m)
    if any(len(row) != n for row in m) or any(s[i][i] != 1 for i in range(n)):
        raise ConsistencyError("matrix is not unimodular")
    return [[sum(v[i][t] * u[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


# ---------------------------------------------------------------------------
# Groups, elements, characters
# ---------------------------------------------------------------------------


class AbelianGroup(_Frozen):
    """Finite abelian group ``Z_{n_1} + ... + Z_{n_k}``.

    Order-1 factors are dropped on construction (normalization is
    idempotent); the trivial group has an empty order tuple.
    """

    _fields = ("orders",)
    orders: tuple[int, ...]

    def __init__(self, orders: Iterable[int]):
        cleaned = []
        for n in orders:
            if type(n) is not int or n < 1:
                raise ValueError(f"cyclic order must be an integer >= 1, got {n!r}")
            if n > 1:
                cleaned.append(n)
        _set(self, "orders", tuple(cleaned))
        order = prod(cleaned)
        if order > MAX_GROUP_ORDER:
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            shown = f"of {order.bit_length()} bits" if limit and order >= 10 ** limit else order
            raise OverflowLimitError(
                f"group order {shown} exceeds the supported scale (|G| <= {MAX_GROUP_ORDER})")

    # Groups are compared wherever two objects must share one; these skip
    # the generic field tuple.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.orders == other.orders
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.orders,))

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        return prod(self.orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1

    @property
    def is_trivial(self) -> bool:
        return not self.orders

    def element(self, exponents: Iterable[int]) -> "GroupElement":
        return GroupElement(self, tuple(exponents))

    @property
    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def basis_element(self, j: int) -> "GroupElement":
        return GroupElement(self, tuple(int(i == j) for i in range(self.rank)))

    def elements(self) -> Iterator["GroupElement"]:
        """Every element, in lexicographic order of exponent tuples."""
        for exps in itertools.product(*(range(n) for n in self.orders)):
            yield GroupElement(self, exps)

    def character(self, exponents: Iterable[int]) -> "Character":
        return Character(self, tuple(exponents))

    def characters(self) -> Iterator["Character"]:
        for exps in itertools.product(*(range(n) for n in self.orders)):
            yield Character(self, exps)

    def subgroup(self, generators: Iterable["GroupElement"]) -> "Subgroup":
        return Subgroup(self, tuple(generators))

    def full_subgroup(self) -> "Subgroup":
        """The whole group, stored on the instance by the first call."""
        if "_full" not in self.__dict__:
            _set(self, "_full", Subgroup(self, tuple(map(self.basis_element, range(self.rank)))))
        return self._full


def _reduce(exps: tuple[int, ...], orders: tuple[int, ...]) -> tuple[int, ...]:
    if len(exps) != len(orders):
        raise ParentMismatchError(
            f"exponent width {len(exps)} does not match group rank {len(orders)}")
    return tuple(map(mod, exps, orders))


class _Exponents(_Frozen):
    """An exponent tuple over ``group``, reduced on construction: what an
    element and a character share.  An element never equals a character,
    and their sum or difference raises ``TypeError``; over two groups,
    ``ParentMismatchError``."""

    _fields = ("group", "exponents")

    def __init__(self, group: AbelianGroup, exponents: tuple[int, ...]):
        _set(self, "group", group)
        _set(self, "exponents", _reduce(tuple(exponents), group.orders))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.exponents == other.exponents and self.group == other.group
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.group, self.exponents))

    def _combine(self, other: object, op) -> "_Exponents":
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.group != other.group:
            raise ParentMismatchError("operands over different groups")
        return self.__class__(self.group, tuple(map(op, self.exponents, other.exponents)))

    def __add__(self, other: object) -> "_Exponents":
        return self._combine(other, add)

    def __sub__(self, other: object) -> "_Exponents":
        return self._combine(other, sub)

    def __neg__(self) -> "_Exponents":
        return self.__class__(self.group, tuple(-a for a in self.exponents))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.exponents)) + ")"


class GroupElement(_Exponents):
    """Element of an :class:`AbelianGroup`, stored in canonical reduced form."""

    def __mul__(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(k * a for a in self.exponents))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def order(self) -> int:
        if not self.exponents:
            return 1
        return lcm(*(n // gcd(e, n) for e, n in zip(self.exponents, self.group.orders)))


class Character(_Exponents):
    """Character of an :class:`AbelianGroup`, written additively.

    The dual group is identified coordinate-wise with the group itself: the
    character with exponents ``(a_1, ..., a_k)`` maps ``g`` to
    ``exp(2*pi*i * sum a_j g_j / n_j)``.
    """

    def pairing(self, g: GroupElement) -> int:
        """The integer ``v = sum a_j g_j e / n_j mod e``, ``0 <= v < e``, with
        ``chi(g) = exp(2*pi*i * v / e)`` for ``e = exponent(G)``: zero exactly
        when ``chi(g) = 1``, and additive mod ``e`` in ``chi`` and in ``g``."""
        if g.group != self.group:
            raise ParentMismatchError("character and element over different groups")
        den = self.group.exponent
        return sum(a * e * (den // n)
                   for a, e, n in zip(self.exponents, g.exponents, self.group.orders)) % den

    @property
    def is_trivial(self) -> bool:
        return all(a == 0 for a in self.exponents)


def _reduced_character(group: AbelianGroup, exponents: tuple[int, ...]) -> Character:
    # The exponents are reduced already, so ``Character``'s reduction is
    # skipped.
    chi = object.__new__(Character)
    _set(chi, "group", group)
    _set(chi, "exponents", exponents)
    return chi


class PackedCharacters:
    """Characters of one group packed into single integers.

    Coordinate ``j`` of a character occupies a bit field of ``width`` bits,
    the first coordinate in the most significant field, so integer order
    is the lexicographic order of exponent tuples.  The top bit of every
    field is a guard: a field holds values below ``2 ** (width - 1)``,
    which exceeds every order, so the sum of two reduced characters never
    carries into the next field.  Adding the per-field offset
    ``2 ** (width - 1) - n_j`` sets exactly the guard bits of the fields
    that reached ``n_j``; spreading each guard bit over its field selects
    the ``n_j`` to subtract.  Sum and negation are then a few integer
    operations, with no loop over coordinates and no lookup table.
    """

    def __init__(self, group: AbelianGroup):
        self.group = group
        self.width = max(group.orders, default=1).bit_length() + 1
        self.shifts = tuple(range(self.width * (group.rank - 1), -1, -self.width))
        top = 1 << (self.width - 1)
        self._guard = sum(top << s for s in self.shifts)
        self._moduli = sum(n << s for n, s in zip(group.orders, self.shifts))
        # Field by field, the offset is ``top - n_j``: no field borrows.
        self._offset = self._guard - self._moduli

    def pack(self, exponents: Iterable[int]) -> int:
        """Pack a reduced exponent tuple."""
        return sum(e << s for e, s in zip(exponents, self.shifts))

    def unpack(self, packed: int) -> tuple[int, ...]:
        mask = (1 << self.width) - 1
        return tuple((packed >> s) & mask for s in self.shifts)

    def character(self, packed: int) -> Character:
        return _reduced_character(self.group, self.unpack(packed))

    def cube_characters(self, triples: Iterable[tuple[int, int, int]]) -> list[Character]:
        """The characters ``(x, y, z)`` of ``G^3`` of the given triples of
        packed characters of ``G``, sorted by exponent tuple (integer order
        on packed characters is lexicographic order).  Each distinct
        component is unpacked once."""
        cube = direct_product([self.group] * 3)
        keys = sorted(triples)
        parts = {x: self.unpack(x) for x in {x for key in keys for x in key}}
        return [_reduced_character(cube, parts[x] + parts[y] + parts[z]) for x, y, z in keys]

    def neg(self, x: int) -> int:
        # Field j of n_j - x holds n_j exactly where x_j = 0; reduce it to 0.
        s = self._moduli - x
        g = ((s + self._offset) & self._guard) >> (self.width - 1)
        return s - (((g << self.width) - g) & self._moduli)

    def sums(self, a: Iterable[int], b: Sequence[int]) -> list[int]:
        """Every sum ``x + y``, for ``x`` in ``a`` and then ``y`` in ``b``."""
        offset, guard, moduli = self._offset, self._guard, self._moduli
        width, low = self.width, self.width - 1
        out = []
        for x in a:
            xo = x + offset
            for y in b:
                g = ((xo + y) & guard) >> low
                out.append(x + y - (((g << width) - g) & moduli))
        return out

    def convolve(self, a: dict[int, int], b: dict[int, int], c: dict[int, int],
                 ) -> list[tuple[int, int, int, int]]:
        """Every term ``(x, y, x + y, a[x] * b[y] * c[x + y])`` with a
        nonzero value, in the order of ``a`` then ``b``.

        The three maps send packed characters to integer weights; entries
        of weight zero are skipped.
        """
        offset, guard, moduli = self._offset, self._guard, self._moduli
        width, low = self.width, self.width - 1
        b_items = [(y, by) for y, by in b.items() if by]
        get = c.get
        out = []
        for x, ax in a.items():
            if not ax:
                continue
            xo = x + offset
            for y, by in b_items:
                g = ((xo + y) & guard) >> low
                s = x + y - (((g << width) - g) & moduli)
                cz = get(s)
                if cz:
                    out.append((x, y, s, ax * by * cz))
        return out


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------


class Subgroup(_Frozen):
    """Subgroup of a finite abelian group with canonical lattice basis.

    Two subgroups with the same element set have identical bases, so
    equality of representations is equality of subgroups: ``==`` and
    ``hash`` read the ambient group and the basis, not the generators.
    """

    _fields = ("ambient", "generators", "basis")
    basis: tuple[tuple[int, ...], ...]

    def __init__(self, ambient: AbelianGroup, generators: tuple[GroupElement, ...]):
        generators = tuple(generators)
        for g in generators:
            if g.group != ambient:
                raise ParentMismatchError("generator not in the ambient group")
        _set(self, "ambient", ambient)
        _set(self, "generators", generators)
        rows = [list(g.exponents) for g in generators] + _diagonal(ambient.orders)
        _set(self, "basis", row_hermite(rows, ambient.rank))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    @cached_property
    def order(self) -> int:
        """``_hermite_order``, stored on the instance by the first read."""
        return _hermite_order(self.ambient, self.basis)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @cached_property
    def exponent(self) -> int:
        """The lcm of the orders of the basis rows, which generate H; stored
        on the instance by the first read."""
        orders = self.ambient.orders
        return lcm(1, *(n // gcd(x, n) for row in self.basis for x, n in zip(row, orders)))

    @cached_property
    def is_cyclic(self) -> bool:
        return self.exponent == self.order

    def contains(self, g: GroupElement) -> bool:
        if g.group != self.ambient:
            raise ParentMismatchError("element from a different group")
        return solve_upper(self.basis, g.exponents) is not None

    def __contains__(self, g: GroupElement) -> bool:
        return self.contains(g)

    def is_subgroup_of(self, other: "Subgroup") -> bool:
        if self.ambient != other.ambient:
            raise ParentMismatchError("subgroups of different groups")
        return all(other.contains(GroupElement(self.ambient, row)) for row in self.basis)

    def intersection(self, other: "Subgroup") -> "Subgroup":
        """``Ann(Ann H_1 + Ann H_2)``: the Hermite dual of the Hermite basis
        of the two annihilator bases, which are cached on the instances."""
        if self.ambient != other.ambient:
            raise ParentMismatchError("subgroups of different groups")
        amb = self.ambient
        joined = row_hermite(self.annihilator().basis + other.annihilator().basis, amb.rank)
        return Subgroup(amb, tuple(GroupElement(amb, row)
                                   for row in _hermite_dual(joined, amb.orders)))

    def _meets_trivially(self, other: "Subgroup") -> bool:
        """Whether ``self & other`` is trivial, without forming it: its order
        is the product of the pivots of the joined basis of ``intersection``.
        Each verdict is stored on the instance, keyed by what ``==`` reads."""
        verdicts = self.__dict__.setdefault("_meets", {})
        key = (other.ambient.orders, other.basis)
        verdict = verdicts.get(key)
        if verdict is None:
            joined = row_hermite(self.annihilator().basis + other.annihilator().basis,
                                 self.ambient.rank)
            verdict = verdicts[key] = all(row[j] == 1 for j, row in enumerate(joined))
        return verdict

    def __and__(self, other: "Subgroup") -> "Subgroup":
        return self.intersection(other)

    def elements(self) -> Iterator[GroupElement]:
        """All elements, in the order of :meth:`_element_tuples`."""
        for exps in self._element_tuples():
            yield GroupElement(self.ambient, exps)

    def _element_tuples(self) -> Iterator[tuple[int, ...]]:
        """All elements as reduced exponent tuples, each once (``_hermite_box``)."""
        return _hermite_box(self.basis, self.ambient.orders)

    def annihilator(self) -> "Subgroup":
        """Characters vanishing on this subgroup, as a subgroup of the dual.

        The dual group shares the coordinate presentation of the ambient
        group, so the result is a :class:`Subgroup` of the same
        :class:`AbelianGroup` whose elements are character exponent tuples.

        A character ``a`` vanishes on ``H`` exactly when ``B D^{-1} a`` is
        integral, for the upper-triangular Hermite basis ``B`` of the
        lattice of ``H`` and ``D = diag(n)``; so the annihilator lattice is
        spanned by the rows of ``M = B^{-T} D`` (H. Cohen, *A Course in
        Computational Algebraic Number Theory*, 2.4).  The lattice of ``B``
        contains ``D``, so ``D = C B`` for an integer matrix ``C`` and
        ``M = C^T`` is integral.  ``B^T M = D`` is lower triangular, and
        forward substitution solves it one column at a time; every
        division by a pivot of ``B`` is exact because ``M`` is integral.
        The ``k`` rows of ``M`` are the generators, so the result always
        has exactly ``rank`` generators.

        The result is stored on the instance by the first call.
        """
        cached = self.__dict__.get("_annihilator")
        if cached is not None:
            return cached
        amb = self.ambient
        result = Subgroup(amb, tuple(GroupElement(amb, row)
                                     for row in _hermite_dual(self.basis, amb.orders)))
        _set(self, "_annihilator", result)
        return result


# ---------------------------------------------------------------------------
# Invariant factors and quotients
# ---------------------------------------------------------------------------


class InvariantFactors(_Frozen):
    """Divisibility chain ``d_1 | d_2 | ...`` with every ``d_i >= 2``.

    The empty chain denotes the trivial group.
    """

    _fields = ("factors",)
    factors: tuple[int, ...]

    def __init__(self, factors: Iterable[int]):
        factors = tuple(factors)
        for d in factors:
            if type(d) is not int or d < 2:
                raise ValueError(f"invariant factor {d!r} is not an integer >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError(f"broken divisibility chain {factors}")
        _set(self, "factors", factors)

    @property
    def order(self) -> int:
        return prod(self.factors)

    def __iter__(self) -> Iterator[int]:
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return "[" + ", ".join(map(str, self.factors)) + "]"


class QuotientStructure(_Frozen):
    """The quotient ``A / B`` of nested subgroups, with explicit generators.

    ``generators[i]`` is a representative in the ambient group whose coset
    has order ``invariant_factors.factors[i]``; together the cosets generate
    the quotient.  ``project`` and ``lift`` convert between ambient
    representatives and exponent tuples of the abstract quotient group.
    """

    _fields = ("numerator", "denominator", "invariant_factors", "generators", "group", "_proj")

    def __init__(self, numerator: Subgroup, denominator: Subgroup,
                 invariant_factors: InvariantFactors, generators: tuple[GroupElement, ...],
                 group: AbelianGroup, _proj: tuple):
        _set(self, "numerator", numerator)
        _set(self, "denominator", denominator)
        _set(self, "invariant_factors", invariant_factors)
        _set(self, "generators", generators)
        _set(self, "group", group)
        _set(self, "_proj", _proj)

    def project(self, g: GroupElement) -> GroupElement:
        basis, v_mat, diags, kept = self._proj
        if g.group != self.numerator.ambient:
            raise ParentMismatchError("element from a different group")
        if self.numerator.ambient.rank == 0:
            return self.group.zero
        coeffs = solve_upper(basis, g.exponents)
        if coeffs is None:
            raise ParentMismatchError("element not in the numerator subgroup")
        y = [sum(coeffs[i] * v_mat[i][j] for i in range(len(coeffs)))
             for j in range(len(v_mat[0]))]
        return self.group.element(y[j] % diags[j] for j in kept)

    def lift(self, q: GroupElement) -> GroupElement:
        if q.group != self.group:
            raise ParentMismatchError("element not in the quotient group")
        amb = self.numerator.ambient
        pairs = list(zip(q.exponents, self.generators))
        return GroupElement(amb, tuple(sum(c * gen.exponents[j] for c, gen in pairs)
                                       for j in range(amb.rank)))


def subgroup_quotient(a: Subgroup, b: Subgroup) -> QuotientStructure:
    """Structure of ``A / B`` for subgroups ``B <= A`` of one ambient group."""
    if a.ambient != b.ambient:
        raise ParentMismatchError("subgroups of different groups")
    amb = a.ambient
    k = amb.rank
    if k == 0:
        group = AbelianGroup(())
        return QuotientStructure(a, b, InvariantFactors(()), (), group, ((), (), (), ()))
    # Express the denominator lattice in the basis of the numerator lattice;
    # the quotient is Z^k modulo the row space of that integer matrix.  A
    # row with no solution is a denominator not contained in the numerator.
    rel = []
    for row in b.basis:
        coeffs = solve_upper(a.basis, row)
        if coeffs is None:
            raise ParentMismatchError("denominator is not contained in the numerator")
        rel.append(coeffs)
    s, _, v, v_inv = _smith(rel)
    diags = tuple(s[j][j] for j in range(k))
    kept = tuple(j for j in range(k) if diags[j] > 1)
    factors = InvariantFactors(diags[j] for j in kept)
    gens = []
    for j in kept:
        vec = [sum(v_inv[j][i] * a.basis[i][c] for i in range(k)) for c in range(k)]
        gens.append(GroupElement(amb, tuple(vec)))
    group = AbelianGroup(factors.factors)
    if group.order != a.order // b.order:
        raise ConsistencyError(
            f"quotient order {group.order} != |A|/|B| = {a.order // b.order}")
    return QuotientStructure(a, b, factors, tuple(gens), group,
                             (a.basis, tuple(map(tuple, v)), diags, kept))


def quotient_structure(group: AbelianGroup, h: Subgroup) -> QuotientStructure:
    """Structure of ``G / H`` with generator cosets."""
    if h.ambient != group:
        raise ParentMismatchError("subgroup of a different group")
    return subgroup_quotient(group.full_subgroup(), h)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def direct_product(groups: Sequence[AbelianGroup]) -> AbelianGroup:
    """The product of checked groups, not normalized or bounded again."""
    product = object.__new__(AbelianGroup)
    _set(product, "orders", tuple(n for g in groups for n in g.orders))
    return product
