"""Brute-force reference implementations of the lattice computations.

Everything here works by exhaustive enumeration over explicit element
lists and shares no code with the Smith/Hermite fast paths: subgroups are
closed out coset by coset, quotients are built as literal coset tables
with invariant factors read off the element-order census, kernels are
found by scanning ``G^3``, and Hodge numbers come from loops over pairs of
characters on an explicit addition table.  Elements are packed into
integers by the oracle's own codec (``_Codec``).  Used only by tests and
the CLI's ``--oracle`` cross-check mode.

Costs, in packed additions (each member of a shifted coset counts one):

- ``enumerate_subgroup``: O(|H|), at most ``2|H|`` additions;
- ``brute_quotient``: O(|A|) for ``A / B`` after the closures (each coset
  is visited once); an ``ElementSet`` numerator is taken as listed, so the
  CLI closes its fast ``(3,0)`` kernel once for the kernel and quotient checks;
- ``brute_kernel``: O(|G| * #characters) dot products for the three
  slices, one addition per pair of ``G^2``, plus one step per member of
  the kernel;
- ``brute_hodge``: O(|G|^2) table lookups over pairs of characters.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import prod
from operator import mul
from typing import Iterable, Sequence

from .datum import AlgebraicDatum
from .errors import ConsistencyError, OracleScaleError, ParentMismatchError
from .groups import (AbelianGroup, Character, GroupElement, InvariantFactors, Subgroup, _Frozen,
                     _set)
from .hodge import HodgeDiamond

SUBGROUP_CAP = 2 ** 18
HODGE_GROUP_CAP = 64

Exponents = tuple[int, ...]


class _Codec:
    """Reduced exponent tuples over ``orders`` packed into integers.

    Coordinate ``j`` is a bit field, the first coordinate the most
    significant, so integer order is lexicographic order.  The top bit of
    each field is a guard above every ``n_j``: the sum of two reduced
    tuples carries into no other field, and adding ``guard - n_j`` to a
    field sets its guard exactly when the field reached ``n_j``.
    """

    def __init__(self, orders: Sequence[int]):
        self.orders = tuple(orders)
        self.width = width = max(self.orders, default=1).bit_length() + 1
        self.shifts = tuple(range(width * (len(self.orders) - 1), -1, -width))
        self._low = width - 1
        self._spread = (1 << width) - 1
        self._guard = sum(1 << (s + width - 1) for s in self.shifts)
        self._moduli = sum(n << s for n, s in zip(self.orders, self.shifts))
        self._offset = self._guard - self._moduli

    def pack(self, exponents: Iterable[int]) -> int:
        return sum(e << s for e, s in zip(exponents, self.shifts))

    def unpack(self, code: int) -> Exponents:
        return tuple((code >> s) & self._spread for s in self.shifts)

    def every(self) -> list[int]:
        """Every element of the group, in increasing order."""
        codes = [0]
        for n, s in zip(self.orders, self.shifts):
            codes = [c + (k << s) for c in codes for k in range(n)]
        return codes

    def _reduce(self, s: int) -> int:
        # Subtract ``n_j`` from each field that reached it.
        return s - ((((s + self._offset) & self._guard) >> self._low) * self._spread
                    & self._moduli)

    def add(self, a: int, b: int) -> int:
        return self._reduce(a + b)

    def neg(self, a: int) -> int:
        # Field j of ``n_j - a`` is ``n_j`` exactly where ``a_j = 0``.
        return self._reduce(self._moduli - a)

    def shift(self, codes: Iterable[int], x: int) -> list[int]:
        """``c + x`` for every ``c`` in ``codes``, in the same order."""
        xo, guard, moduli = x + self._offset, self._guard, self._moduli
        low, spread = self._low, self._spread
        return [c + x - ((((xo + c) & guard) >> low) * spread & moduli) for c in codes]


class ElementSet(_Frozen):
    """An explicit subset of a group: the sorted codes of its members."""

    _fields = ("ambient", "codes")

    def __init__(self, ambient: AbelianGroup, codes: tuple[int, ...]):
        _set(self, "ambient", ambient)
        _set(self, "codes", codes)

    @staticmethod
    def of(ambient: AbelianGroup, elements: object) -> "ElementSet":
        pack = _Codec(ambient.orders).pack
        return ElementSet(ambient, tuple(sorted({
            pack(e.exponents if isinstance(e, GroupElement) else e) for e in elements})))

    @cached_property
    def codec(self) -> _Codec:
        return _Codec(self.ambient.orders)

    @cached_property
    def members(self) -> tuple[Exponents, ...]:
        """The members as exponent tuples, in lexicographic order."""
        return tuple(map(self.codec.unpack, self.codes))

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def _code_set(self) -> frozenset[int]:
        return frozenset(self.codes)

    def __contains__(self, element: GroupElement) -> bool:
        return self.codec.pack(element.exponents) in self._code_set

    def elements(self) -> list[GroupElement]:
        return [self.ambient.element(e) for e in self.members]


def enumerate_subgroup(subgroup: Subgroup, cap: int = SUBGROUP_CAP) -> ElementSet:
    """Close the generators under addition, one generator at a time.

    A generator ``g`` already in the closure ``S`` adds nothing.  Otherwise
    ``S`` gains the cosets ``S + g, S + 2g, ...`` until a multiple of ``g``
    falls back into ``S``.  The coset ``S + kg`` is ``S`` shifted by ``kg``:
    one addition per new element, and one more for the next multiple of
    ``g``, so the closure of ``H`` takes at most ``2|H|`` additions.
    """
    ambient = subgroup.ambient
    codec = _Codec(ambient.orders)
    closure = [0]
    seen = {0}
    for g in (codec.pack(gen.exponents) for gen in subgroup.generators):
        if g in seen:
            continue
        base = closure[:]
        step = g
        while step not in seen:
            if len(closure) + len(base) > cap:
                raise OracleScaleError(
                    f"subgroup closure exceeds the oracle cap of {cap} elements")
            coset = codec.shift(base, step)
            closure.extend(coset)
            seen.update(coset)
            step = codec.add(step, g)
    closure.sort()
    return ElementSet(ambient, tuple(closure))


def _invariant_factors_from_census(census: Counter[int], order: int) -> InvariantFactors:
    """Recover the invariant factors from the multiset of element orders.

    Per prime p, the number of cyclic p^k-factors with k >= j is
    ``s_j - s_{j-1}`` where ``p^{s_j}`` counts the elements killed by p^j;
    matching the p-parts largest-with-largest yields the factors.
    """
    primes = []
    n = order
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)

    per_prime: list[list[int]] = []
    for p in primes:
        parts = []
        prev_s = 0
        j = 1
        while True:
            killed = sum(cnt for o, cnt in census.items() if (p ** j) % o == 0)
            s = 0
            while p ** (s + 1) <= killed and killed % (p ** (s + 1)) == 0:
                s += 1
            if p ** s != killed:
                raise ConsistencyError(
                    f"{killed} elements killed by {p}^{j}: not a power of {p}")
            count_ge_j = s - prev_s
            if count_ge_j == 0:
                break
            parts.append(count_ge_j)
            prev_s = s
            j += 1
        # parts[j-1] = number of factors with exponent >= j; convert to the
        # sorted list of p-power factor exponents, largest first.
        exps = []
        for j, cnt in enumerate(parts, start=1):
            following = parts[j] if j < len(parts) else 0
            exps = [j] * (cnt - following) + exps
        per_prime.append(sorted((p ** e for e in exps), reverse=True))

    width = max((len(f) for f in per_prime), default=0)
    factors = []
    for i in range(width):
        factors.append(prod(f[i] for f in per_prime if i < len(f)))
    factors.reverse()
    result = InvariantFactors(tuple(factors))
    if result.order != order:
        raise ConsistencyError(
            f"census-derived factors {list(result)} have order {result.order}, "
            f"group has order {order}")
    return result


def brute_quotient(numerator: AbelianGroup | Subgroup | ElementSet, denominator: Subgroup,
                   cap: int = SUBGROUP_CAP) -> InvariantFactors:
    """Invariant factors of ``numerator / denominator`` via the coset table.

    The numerator is walked in lexicographic order, in which a group, a
    closure and an ``ElementSet`` all list it.  An element without a coset
    yet is the least member of its coset; the whole coset is then marked,
    so every element of the numerator is reached once.
    """
    if isinstance(numerator, AbelianGroup):
        if numerator.order > cap:
            raise OracleScaleError(f"group of order {numerator.order} exceeds the oracle cap")
        numerator = ElementSet(numerator, tuple(_Codec(numerator.orders).every()))
    elif isinstance(numerator, Subgroup):
        numerator = enumerate_subgroup(numerator, cap)
    codec, top = numerator.codec, numerator.codes
    bottom = enumerate_subgroup(denominator, cap).codes

    in_top = set(top)
    coset_of: dict[int, int] = {}
    cosets = []
    for x in top:
        if x in coset_of:
            continue
        coset = codec.shift(bottom, x)
        if not in_top.issuperset(coset):
            y = next(y for y in coset if y not in in_top)
            raise ConsistencyError(
                f"coset member {codec.unpack(y)} lies outside the numerator")
        coset_of.update(dict.fromkeys(coset, len(cosets)))
        cosets.append(x)
    if len(cosets) * len(bottom) != len(top):
        raise ConsistencyError("coset table does not tile the numerator")

    census: Counter[int] = Counter()
    for r in cosets:
        acc = r
        k = 1
        while coset_of[acc] != coset_of[0]:
            acc = codec.add(acc, r)
            k += 1
        census[k] += 1
    return _invariant_factors_from_census(census, len(cosets))


def brute_kernel(datum: AlgebraicDatum, characters: Iterable[Character],
                 cap: int = SUBGROUP_CAP) -> ElementSet:
    """Scan every triple of ``G^3`` against every supplied character of
    ``G^3`` (such as the admissible ones), read once after the cap check,
    so a lazy iterable lists nothing over the cap.  A character ``a`` kills
    ``x`` when ``sum a_j x_j e / n_j`` is divisible by ``e = exponent(G^3)``.
    The sum splits over the three ``G``-slices of ``G^3``, so each slice
    gets a table of value vectors in ``(Z_e)^m``, one value per character,
    packed.  The third slice is bucketed by its negated vector, and each
    pair ``(x1, x2)`` reads off the bucket of its summed vectors.
    """
    from .groups import direct_product

    g = datum.group
    cube = direct_product([g, g, g])
    if cube.order > cap:
        raise OracleScaleError(f"|G|^3 = {cube.order} exceeds the oracle cap of {cap}")
    orders = cube.orders
    den = cube.exponent
    weights = []
    for chi in characters:
        if chi.group != cube:
            raise ParentMismatchError("character and element over different groups")
        weights.append(tuple(a * (den // n) for a, n in zip(chi.exponents, orders)))
    rank = g.rank
    codec = _Codec(g.orders)
    elements = codec.every()
    exponents = list(map(codec.unpack, elements))
    values_codec = _Codec((den,) * len(weights))

    def values(s: int) -> list[int]:
        return [values_codec.pack([sum(map(mul, w[s * rank:(s + 1) * rank], x)) % den
                                   for w in weights]) for x in exponents]

    first, second, third = values(0), values(1), values(2)
    buckets: dict[int, list[int]] = {}
    for x, v in zip(elements, third):
        buckets.setdefault(values_codec.neg(v), []).append(x)
    # ``G`` and ``G^3`` have the same field width, so a member of ``G^3``
    # is its three slices side by side.  Slices, pairs and buckets all run
    # in increasing order, so the members come sorted.
    width = codec.width * rank
    members = []
    for x1, v1 in zip(elements, first):
        high = x1 << 2 * width
        for x2, key in zip(elements, values_codec.shift(second, v1)):
            bucket = buckets.get(key)
            if bucket:
                head = high | (x2 << width)
                members.extend([head | x3 for x3 in bucket])
    return ElementSet(cube, tuple(members))


def _brute_eigendims(datum: AlgebraicDatum, i: int, kernel_sets: list[ElementSet],
                     chars: list[Exponents]) -> list[int]:
    """Eigenspace dimensions of factor i, one per character of ``chars``
    (zero unless it kills K_i), from the raw branch representatives in G."""
    g = datum.group
    spec = datum.raw_vectors[i]
    codec, members = kernel_sets[i].codec, kernel_sets[i]._code_set
    kernel = kernel_sets[i].members
    den = g.exponent
    scale = tuple(den // n for n in g.orders)

    def order_mod(rep: GroupElement) -> int:
        step = acc = codec.pack(rep.exponents)
        m = 1
        while acc not in members:
            acc = codec.add(acc, step)
            m += 1
        return m

    branch = [(rep.exponents, order_mod(rep)) for rep in spec.branch]
    dims = []
    for chi in chars:
        w = tuple(map(mul, chi, scale))
        if any(sum(map(mul, w, k)) % den for k in kernel):
            dims.append(0)
            continue
        # The dimension times e: the value exp(2 pi i v / e) of chi on a
        # branch element adds v / e = k / m.
        total = (spec.g_prime - 1) * den
        for rep, m in branch:
            # chi kills K_i, so its value on rep is an m-th root of unity.
            v = sum(map(mul, w, rep)) % den
            if v * m % den:
                raise ConsistencyError(
                    f"character {chi} is no {m}-th root of unity on {rep}")
            total += v
        if not any(chi):
            total += den
        dim, r = divmod(total, den)
        if r or dim < 0:
            raise ConsistencyError(f"non-integral eigenspace dimension {total}/{den}")
        dims.append(dim)
    return dims


def brute_hodge(datum: AlgebraicDatum) -> HodgeDiamond:
    """Hodge diamond by loops over pairs of characters of ``G``.

    The characters are indexed in lexicographic order and added through an
    explicit ``|G| x |G|`` table; in each Kunneth sum over ``(a, b, c)`` the
    pair ``(a, b)`` fixes ``c``.
    """
    g = datum.group
    if g.order > HODGE_GROUP_CAP:
        raise OracleScaleError(
            f"|G| = {g.order} exceeds the Hodge oracle cap of {HODGE_GROUP_CAP}")
    codec = _Codec(g.orders)
    codes = codec.every()
    chars = list(map(codec.unpack, codes))
    kernel_sets = [enumerate_subgroup(k) for k in datum.kernels]
    d0, d1, d2 = (_brute_eigendims(datum, i, kernel_sets, chars) for i in range(3))
    index = {c: j for j, c in enumerate(codes)}
    n = len(codes)
    # Addition is commutative: each unordered pair is added once.
    plus = [[0] * n for _ in range(n)]
    for i in range(n):
        for j, c in enumerate(codec.shift(codes[i:], codes[i]), start=i):
            plus[i][j] = plus[j][i] = index[c]
    origin = index[0]
    neg = [row.index(origin) for row in plus]

    h20 = h30 = h11 = h21 = 0
    for a in range(n):
        row = plus[a]
        for b in range(n):
            ab = row[b]
            # h30: a + b + c = 0.
            h30 += d0[a] * d1[b] * d2[neg[ab]]
            # h21: c = a + b, c = b - a and c = a - b.
            h21 += d0[ab] * d1[a] * d2[b]
            h21 += d0[a] * d1[b] * d2[plus[b][neg[a]]]
            h21 += d0[b] * d1[row[neg[b]]] * d2[a]
        # c = 0 with a + b = 0 (h20) or with a = b (h11).
        b = neg[a]
        h20 += d0[a] * d1[b] + d0[a] * d2[b] + d1[a] * d2[b]
        h11 += 2 * (d0[a] * d1[a] + d0[a] * d2[a] + d1[a] * d2[a])
    # Degenerate Kunneth assignments: the base 1-forms and polarizations.
    h10 = d0[origin] + d1[origin] + d2[origin]
    h11 += 3
    h21 += 2 * h10

    h = [[0] * 4 for _ in range(4)]
    h[0][0] = h[3][3] = 1
    h[1][0] = h[0][1] = h[2][3] = h[3][2] = h10
    h[2][0] = h[0][2] = h[1][3] = h[3][1] = h20
    h[3][0] = h[0][3] = h30
    h[1][1] = h[2][2] = h11
    h[2][1] = h[1][2] = h21
    return HodgeDiamond(tuple(tuple(row) for row in h))
