"""Brute-force reference implementations of the lattice computations.

Everything here works by exhaustive enumeration over explicit element
lists and shares no code with the Smith/Hermite fast paths: subgroups are
closed out by breadth-first addition, quotients are built as literal coset
tables with invariant factors read off the element-order census, kernels
are found by scanning ``G^3``, and Hodge numbers come from naive triple
loops over the character cube.  Used only by tests and the CLI's
``--oracle`` cross-check mode.

Costs, in additions or dot products of exponent tuples:

- ``enumerate_subgroup``: O(|H| * #generators);
- ``brute_quotient``: O(|A|) for ``A / B`` after the two closures (each
  coset is visited once);
- ``brute_kernel``: O(|G|^3 * #characters);
- ``brute_hodge``: O(|G|^3) over the character cube.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import add, mod, mul

from .datum import AlgebraicDatum
from .errors import ConsistencyError, OracleScaleError, ParentMismatchError
from .groups import AbelianGroup, GroupElement, InvariantFactors, Subgroup
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

    def __contains__(self, element: GroupElement) -> bool:
        return element.exponents in set(self.members)

    def elements(self) -> list[GroupElement]:
        return [self.ambient.element(e) for e in self.members]


def _add(orders: tuple[int, ...], a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(mod, map(add, a, b), orders))


def enumerate_subgroup(subgroup: Subgroup, cap: int = SUBGROUP_CAP) -> ElementSet:
    """Close the generators under addition, one element at a time."""
    ambient = subgroup.ambient
    orders = ambient.orders
    gens = [g.exponents for g in subgroup.generators]
    seen = {tuple([0] * len(orders))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _add(orders, x, g)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise OracleScaleError(
                            f"subgroup closure exceeds the oracle cap of {cap} elements")
                    nxt.append(y)
        frontier = nxt
    return ElementSet(ambient, tuple(sorted(seen)))


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


def brute_quotient(numerator: AbelianGroup | Subgroup, denominator: Subgroup,
                   cap: int = SUBGROUP_CAP) -> InvariantFactors:
    """Invariant factors of ``numerator / denominator`` via the coset table.

    The numerator is walked in lexicographic order (the order in which
    both branches below list it).  An element without a coset yet is the
    least member of its coset; the whole coset is then marked, so every
    element of the numerator is reached once.
    """
    if isinstance(numerator, AbelianGroup):
        ambient = numerator
        if ambient.order > cap:
            raise OracleScaleError(f"group of order {ambient.order} exceeds the oracle cap")
        top = tuple(itertools.product(*(range(n) for n in ambient.orders)))
    else:
        ambient = numerator.ambient
        top = enumerate_subgroup(numerator, cap).members
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


def brute_kernel(datum: AlgebraicDatum, characters: list, cap: int = SUBGROUP_CAP,
                 ) -> ElementSet:
    """Scan every triple of ``G^3`` against every supplied character.

    Characters may be given on ``G^3`` directly or as admissible triples
    with an ``on_cube`` method.  A character ``a`` kills ``x`` when
    ``sum a_j x_j e / n_j`` is divisible by ``e = exponent(G^3)``; the
    weights ``a_j e / n_j`` are formed once per character.
    """
    from .groups import direct_product

    g = datum.group
    cube = direct_product([g, g, g])
    if cube.order > cap:
        raise OracleScaleError(f"|G|^3 = {cube.order} exceeds the oracle cap of {cap}")
    orders = cube.orders
    den = cube.exponent
    weights = []
    for psi in characters:
        chi = psi.on_cube(cube) if hasattr(psi, "on_cube") else psi
        if chi.group != cube:
            raise ParentMismatchError("character and element over different groups")
        weights.append(tuple(a * (den // n) for a, n in zip(chi.exponents, orders)))
    # The product runs in lexicographic order, so the members come sorted.
    members = [x for x in itertools.product(*(range(n) for n in orders))
               if not any(sum(map(mul, w, x)) % den for w in weights)]
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
    table: dict[Exponents, int] = {}
    for chi in g.characters():
        if not all(chi.pairing(k).is_zero for k in kernel):
            continue
        total = Fraction(spec.g_prime - 1)
        for rep, m in branch:
            total += Fraction(chi.pairing(rep).scaled_numerator(m), m)
        if chi.is_trivial:
            total += 1
        if total.denominator != 1 or total < 0:
            raise ConsistencyError(f"non-integral eigenspace dimension {total}")
        table[chi.exponents] = int(total)
    return table


def brute_hodge(datum: AlgebraicDatum) -> HodgeDiamond:
    """Hodge diamond by naive triple loops over the character cube."""
    g = datum.group
    if g.order > HODGE_GROUP_CAP:
        raise OracleScaleError(
            f"|G| = {g.order} exceeds the Hodge oracle cap of {HODGE_GROUP_CAP}")
    kernel_sets = [enumerate_subgroup(k) for k in datum.kernels]
    dims = [_brute_eigendims(datum, i, kernel_sets) for i in range(3)]
    chars = [chi.exponents for chi in g.characters()]
    orders = g.orders
    zero = tuple([0] * len(orders))

    def d(i: int, chi: Exponents) -> int:
        return dims[i].get(chi, 0)

    h10 = h20 = h30 = h11 = h21 = 0
    for a in chars:
        for b in chars:
            ab = _add(orders, a, b)
            for c in chars:
                if _add(orders, ab, c) == zero:
                    h30 += d(0, a) * d(1, b) * d(2, c)
                if c == zero and ab == zero:
                    h20 += d(0, a) * d(1, b) + d(0, a) * d(2, b) + d(1, a) * d(2, b)
                if c == zero and a == b:
                    h11 += 2 * (d(0, a) * d(1, b) + d(0, a) * d(2, b) + d(1, a) * d(2, b))
                if ab == c:
                    h21 += d(0, c) * d(1, a) * d(2, b)
                if _add(orders, a, c) == b:
                    h21 += d(0, a) * d(1, b) * d(2, c)
                if _add(orders, b, c) == a:
                    h21 += d(0, b) * d(1, c) * d(2, a)
    # Degenerate Kunneth assignments: the base 1-forms and polarizations.
    h10 = d(0, zero) + d(1, zero) + d(2, zero)
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
