"""Brute-force reference implementations of the lattice computations.

Everything here works by exhaustive enumeration over explicit element
lists and shares no code with the Smith/Hermite fast paths: subgroups are
closed out coset by coset, quotients are built as literal coset tables
with invariant factors read off the element-order census, kernels are
found by scanning ``G^3``, and Hodge numbers come from loops over pairs of
characters on an explicit addition table.  Used only by tests and the
CLI's ``--oracle`` cross-check mode.

Costs, in additions or dot products of exponent tuples:

- ``enumerate_subgroup``: O(|H|), at most ``2|H|`` additions;
- ``brute_quotient``: O(|A|) for ``A / B`` after the closures (each coset
  is visited once); an ``ElementSet`` numerator is taken as listed, so the
  CLI closes its fast ``(3,0)`` kernel once for the kernel and quotient checks;
- ``brute_kernel``: O(|G|^2 * #characters) to scan ``G^3``, plus one step
  per member of the kernel;
- ``brute_hodge``: O(|G|^2) table lookups over pairs of characters.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import prod
from operator import add, mod, mul
from typing import Iterable

from .datum import AlgebraicDatum
from .errors import ConsistencyError, OracleScaleError, ParentMismatchError
from .groups import AbelianGroup, Character, GroupElement, InvariantFactors, Subgroup
from .hodge import HodgeDiamond

SUBGROUP_CAP = 2 ** 18
HODGE_GROUP_CAP = 64

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class ElementSet:
    """An explicit subset of a group: sorted canonical exponent tuples."""

    ambient: AbelianGroup
    members: tuple[Exponents, ...]

    @staticmethod
    def of(ambient: AbelianGroup, elements: object) -> "ElementSet":
        exps = {e.exponents if isinstance(e, GroupElement) else tuple(e)
                for e in elements}
        return ElementSet(ambient, tuple(sorted(exps)))

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _member_set(self) -> frozenset[Exponents]:
        return frozenset(self.members)

    def __contains__(self, element: GroupElement) -> bool:
        return element.exponents in self._member_set

    def elements(self) -> list[GroupElement]:
        return [self.ambient.element(e) for e in self.members]


def _add(orders: tuple[int, ...], a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(mod, map(add, a, b), orders))


def enumerate_subgroup(subgroup: Subgroup, cap: int = SUBGROUP_CAP) -> ElementSet:
    """Close the generators under addition, one generator at a time.

    A generator ``g`` already in the closure ``S`` adds nothing.  Otherwise
    ``S`` gains the cosets ``S + g, S + 2g, ...`` until a multiple of ``g``
    falls back into ``S``; each coset is the previous one shifted by ``g``.
    Every new element costs one addition and every generator outside ``S``
    one more, for the multiple that returns, so the closure of ``H`` takes
    at most ``2|H|`` additions.
    """
    ambient = subgroup.ambient
    orders = ambient.orders
    zero = tuple([0] * len(orders))
    closure = [zero]
    seen = {zero}
    for g in (gen.exponents for gen in subgroup.generators):
        if g in seen:
            continue
        size = len(closure)
        coset = closure[:]
        # ``closure[0]`` is zero, so ``coset[0]`` is ``k*g`` for ``S + k*g``.
        step = _add(orders, coset[0], g)
        while step not in seen:
            if len(closure) + size > cap:
                raise OracleScaleError(
                    f"subgroup closure exceeds the oracle cap of {cap} elements")
            coset = [step] + [_add(orders, x, g) for x in coset[1:]]
            closure.extend(coset)
            seen.update(coset)
            step = _add(orders, coset[0], g)
    return ElementSet(ambient, tuple(sorted(closure)))


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
        numerator = ElementSet(numerator, tuple(
            itertools.product(*(range(n) for n in numerator.orders))))
    elif isinstance(numerator, Subgroup):
        numerator = enumerate_subgroup(numerator, cap)
    ambient, top = numerator.ambient, numerator.members
    bottom = enumerate_subgroup(denominator, cap).members
    orders = ambient.orders

    in_top = set(top)
    rep_of: dict[Exponents, Exponents] = {}
    cosets = []
    for x in top:
        if x in rep_of:
            continue
        cosets.append(x)
        for h in bottom:
            y = _add(orders, x, h)
            if y not in in_top:
                raise ConsistencyError(
                    f"coset member {y} lies outside the numerator")
            rep_of[y] = x
    if len(cosets) * len(bottom) != len(top):
        raise ConsistencyError("coset table does not tile the numerator")

    zero = tuple([0] * len(orders))
    census: Counter[int] = Counter()
    for r in cosets:
        acc = r
        k = 1
        while rep_of[acc] != rep_of[zero]:
            acc = _add(orders, acc, r)
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
    gets a table of value vectors, one value per character.  The third
    slice is bucketed by its vector, and each pair ``(x1, x2)`` reads off
    the bucket of the negated partial sums.
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
    elements = list(itertools.product(*(range(n) for n in g.orders)))

    def values(s: int) -> list[tuple[int, ...]]:
        return [tuple(sum(map(mul, w[s * rank:(s + 1) * rank], x)) % den for w in weights)
                for x in elements]

    first, second, third = values(0), values(1), values(2)
    buckets: dict[tuple[int, ...], list[Exponents]] = {}
    for x, v in zip(elements, third):
        buckets.setdefault(v, []).append(x)
    # Slices, pairs and buckets all run in lexicographic order, so the
    # members come sorted.
    members = []
    for x1, v1 in zip(elements, first):
        for x2, v2 in zip(elements, second):
            bucket = buckets.get(tuple((-a - b) % den for a, b in zip(v1, v2)))
            if bucket:
                head = x1 + x2
                members.extend(head + x3 for x3 in bucket)
    return ElementSet(cube, tuple(members))


def _brute_eigendims(datum: AlgebraicDatum, i: int,
                     kernel_sets: list[ElementSet]) -> dict[Exponents, int]:
    """Eigenspace dimensions of factor i, indexed by characters of G that
    kill K_i, from the raw branch representatives in G."""
    g = datum.group
    spec = datum.raw_vectors[i]
    members = set(kernel_sets[i].members)
    kernel = kernel_sets[i].elements()

    def order_mod(rep: GroupElement) -> int:
        acc = rep
        m = 1
        while acc.exponents not in members:
            acc = acc + rep
            m += 1
        return m

    branch = [(rep, order_mod(rep)) for rep in spec.branch]
    den = g.exponent
    table: dict[Exponents, int] = {}
    for chi in g.characters():
        if any(chi.pairing(k) for k in kernel):
            continue
        total = Fraction(spec.g_prime - 1)
        for rep, m in branch:
            # chi kills K_i, so its value on rep is an m-th root of unity.
            k, r = divmod(chi.pairing(rep) * m, den)
            if r:
                raise ConsistencyError(f"{chi} is no {m}-th root of unity on {rep}")
            total += Fraction(k, m)
        if chi.is_trivial:
            total += 1
        if total.denominator != 1 or total < 0:
            raise ConsistencyError(f"non-integral eigenspace dimension {total}")
        table[chi.exponents] = int(total)
    return table


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
    kernel_sets = [enumerate_subgroup(k) for k in datum.kernels]
    dims = [_brute_eigendims(datum, i, kernel_sets) for i in range(3)]
    chars = [chi.exponents for chi in g.characters()]
    orders = g.orders
    zero = tuple([0] * len(orders))
    index = {chi: j for j, chi in enumerate(chars)}
    n = len(chars)
    # Addition is commutative: each unordered pair is added once.
    plus = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            plus[i][j] = plus[j][i] = index[_add(orders, chars[i], chars[j])]
    origin = index[zero]
    neg = [row.index(origin) for row in plus]
    d0, d1, d2 = ([dims[i].get(chi, 0) for chi in chars] for i in range(3))

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
