"""Core abelian-group machinery: normal forms, subgroups, duality, quotients."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from math import prod

import pytest
from hypothesis import given, strategies as st

from conftest import (abelian_groups, diagonal_subgroup, embed_factor, group_elements,
                      groups_with_subgroup, product_subgroup, random_group, random_subgroup,
                      subgroups)
from isoprod.errors import ConsistencyError, OverflowLimitError, ParentMismatchError
from isoprod.groups import (
    AbelianGroup,
    Character,
    InvariantFactors,
    PackedCharacters,
    Subgroup,
    _diagonal,
    _smith,
    direct_product,
    product_element,
    quotient_structure,
    row_hermite,
    smith_normal_form,
    solve_upper,
    subgroup_quotient,
    unimodular_inverse,
)
from isoprod.oracle import _invariant_factors_from_census, enumerate_subgroup


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def check_snf(a):
    s, u, v = smith_normal_form(a)
    m, n = len(a), len(a[0])
    assert matmul(matmul(u, a), v) == s
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [s[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert s[i][j] == 0
    for d1, d2 in zip(diag, diag[1:]):
        assert d1 >= 0
        if d1:
            assert d2 % d1 == 0
        else:
            assert d2 == 0
    return s, u, v


def reference_row_hermite(rows, width):
    """The Hermite basis by Euclid on the least entry of each column over
    all remaining rows, the reference for ``row_hermite``'s insertion."""
    mat = [list(r) for r in rows]
    pivot_row = 0
    for col in range(width):
        while True:
            nz = [i for i in range(pivot_row, len(mat)) if mat[i][col]]
            if not nz:
                raise ConsistencyError("lattice not of full rank")
            i0 = min(nz, key=lambda i: abs(mat[i][col]))
            mat[pivot_row], mat[i0] = mat[i0], mat[pivot_row]
            if len(nz) == 1:
                break
            p = mat[pivot_row][col]
            for i in range(pivot_row + 1, len(mat)):
                if mat[i][col]:
                    q = mat[i][col] // p
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[pivot_row])]
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-x for x in mat[pivot_row]]
        p = mat[pivot_row][col]
        for i in range(pivot_row):
            q = mat[i][col] // p
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
    return tuple(tuple(row) for row in mat[:pivot_row])


@st.composite
def hermite_inputs(draw):
    """``(width, rows)``: random rows of width 1-12 with negative entries,
    zero rows and duplicates, stacked with the relation rows of a group and
    shuffled."""
    group = draw(abelian_groups(max_rank=12, max_order=9 ** 12))
    width, bound = group.rank, 3 * max(group.orders)
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=width,
                                  max_size=width), max_size=8))
    rows += [[0] * width] * draw(st.integers(0, 2))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return width, draw(st.permutations(rows + _diagonal(group.orders)))


class TestSmithNormalForm:
    def test_known_2x2(self):
        s, _, _ = check_snf([[2, 4], [6, 8]])
        assert [s[0][0], s[1][1]] == [2, 4]

    def test_identity(self):
        s, _, _ = check_snf([[1, 0], [0, 1]])
        assert [s[0][0], s[1][1]] == [1, 1]

    def test_zero_matrix(self):
        s, _, _ = check_snf([[0, 0], [0, 0]])
        assert s == [[0, 0], [0, 0]]

    def test_divisibility_forcing(self):
        # gcd of entries is 1 even though no entry is 1.
        s, _, _ = check_snf([[2, 0], [0, 3]])
        assert [s[0][0], s[1][1]] == [1, 6]

    def test_rectangular(self):
        check_snf([[2, 4, 6]])
        check_snf([[2], [4], [6]])

    def test_random_500(self):
        rng = random.Random(20240817)
        for _ in range(500):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            check_snf(a)

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
                    min_size=1, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_property(self, a):
        check_snf(a)

    def test_tracked_inverse(self):
        rng = random.Random(20261018)
        for _ in range(300):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            s, u, v, v_inv = _smith(a)
            assert (s, u, v) == smith_normal_form(a)
            assert matmul(v, v_inv) == matmul(v_inv, v) == [
                [int(i == j) for j in range(n)] for i in range(n)]

    def test_invariant_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(20261019)
        for _ in range(200):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            s, _, _ = smith_normal_form(a)
            expected = invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)
            assert [s[i][i] for i in range(min(m, n))] == [int(d) for d in expected]


class TestHermite:
    def test_canonical_under_row_ops(self):
        rows = [[2, 3, 1], [0, 4, 2]]
        relations = [[8, 0, 0], [0, 8, 0], [0, 0, 8]]
        h1 = row_hermite(rows + relations, 3)
        h2 = row_hermite(list(reversed(rows)) + relations, 3)
        combo = [[a + b for a, b in zip(rows[0], rows[1])], rows[1]]
        h3 = row_hermite(combo + relations, 3)
        assert h1 == h2 == h3

    def test_shape(self):
        h = row_hermite([[4, 0], [0, 4], [2, 2]], 2)
        for j, row in enumerate(h):
            assert row[j] > 0
            assert all(row[i] == 0 for i in range(j))
        for i in range(len(h)):
            for j in range(i + 1, len(h)):
                assert 0 <= h[i][j] < h[j][j]

    @given(hermite_inputs())
    def test_insertion_matches_the_reference(self, case):
        width, rows = case
        basis = row_hermite(rows, width)
        assert basis == reference_row_hermite(rows, width)
        assert len(basis) == width

    @given(hermite_inputs(), st.data())
    def test_rank_deficient_input_raises(self, case, data):
        # Zeroing one column, or keeping fewer rows than the width, leaves
        # a lattice of rank below the width.
        width, rows = case
        col = data.draw(st.integers(0, width - 1))
        for deficient in ([[0 if j == col else x for j, x in enumerate(r)] for r in rows],
                          rows[:width - 1]):
            for hermite in (row_hermite, reference_row_hermite):
                with pytest.raises(ConsistencyError, match="lattice not of full rank"):
                    hermite(deficient, width)

    @given(abelian_groups(max_rank=4, max_order=128), st.data())
    def test_trailing_rows_span_the_members_with_leading_zeros(self, group, data):
        # Cut to their last columns, the rows after the first t of a
        # full-rank Hermite basis are the Hermite basis of the members
        # whose first t coordinates are 0: the relations of those
        # coordinates turn "0 modulo the orders" into 0.
        orders, width = group.orders, group.rank
        rows = data.draw(st.lists(st.lists(st.integers(-20, 20), min_size=width,
                                           max_size=width), max_size=4))
        t = data.draw(st.integers(0, width))
        basis = row_hermite(rows + _diagonal(orders), width)
        sub = group.subgroup([group.element([x % n for x, n in zip(row, orders)])
                              for row in rows])
        members = [e.exponents[t:] for e in sub.elements() if not any(e.exponents[:t])]
        assert tuple(row[t:] for row in basis[t:]) == \
            row_hermite(members + _diagonal(orders[t:]), width - t)

    def test_solve_upper_roundtrip(self):
        basis = row_hermite([[4, 0], [0, 4], [2, 2]], 2)
        for vec, expect_in in (((2, 2), True), ((1, 1), False), ((0, 4), True)):
            coeffs = solve_upper(basis, vec)
            if expect_in:
                got = [sum(coeffs[i] * basis[i][j] for i in range(len(basis)))
                       for j in range(2)]
                assert tuple(got) == vec
            else:
                assert coeffs is None


class TestUnimodularInverse:
    def test_roundtrip(self):
        m = [[1, 2], [1, 3]]
        inv = unimodular_inverse(m)
        assert matmul(m, inv) == [[1, 0], [0, 1]]

    def test_rejects_non_unimodular(self):
        with pytest.raises(ConsistencyError):
            unimodular_inverse([[2, 0], [0, 1]])

    def test_random_products_of_elementary_matrices(self):
        rng = random.Random(20261020)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(8):
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if i != j:
                    q = rng.randint(-3, 3)
                    m[i] = [x + q * y for x, y in zip(m[i], m[j])]
                else:
                    m[i] = [-x for x in m[i]]
            assert matmul(m, unimodular_inverse(m)) == [
                [int(i == j) for j in range(n)] for i in range(n)]
        with pytest.raises(ConsistencyError):
            unimodular_inverse([[1, 0, 0], [0, 1, 0]])


class TestGroupBasics:
    def test_normalization_drops_trivial_factors(self):
        assert AbelianGroup([1, 2, 1, 3]).orders == (2, 3)
        assert AbelianGroup([1]).is_trivial

    def test_element_reduction(self):
        g = AbelianGroup([2, 4])
        assert g.element((3, 7)).exponents == (1, 3)
        assert (g.element((1, 3)) + g.element((1, 1))).is_zero

    def test_parent_mismatch(self):
        a = AbelianGroup([2, 2]).zero
        b = AbelianGroup([4]).zero
        with pytest.raises(ParentMismatchError):
            a + b

    @given(abelian_groups().flatmap(
        lambda g: st.tuples(st.just(g), group_elements(g))))
    def test_element_order(self, pair):
        group, g = pair
        k = g.order
        assert (k * g).is_zero
        assert all(not (j * g).is_zero for j in range(1, k))
        assert group.exponent % k == 0

    def test_pairing_is_an_integer_over_the_exponent(self):
        # exp(2 pi i (1/2 + 2/3)) = exp(2 pi i * 1/6) over e = 6.
        g = AbelianGroup([2, 3])
        assert g.character((1, 1)).pairing(g.element((1, 2))) == 1
        assert g.character((1, 0)).pairing(g.element((1, 0))) == 3
        assert g.character((0, 1)).pairing(g.element((1, 0))) == 0

    @given(abelian_groups().flatmap(
        lambda g: st.tuples(st.just(g), group_elements(g), group_elements(g),
                            group_elements(g))))
    def test_character_pairing_is_bilinear(self, quad):
        group, a, b, c = quad
        chi = group.character(a.exponents)
        psi = group.character(b.exponents)
        e = group.exponent
        assert 0 <= chi.pairing(c) < e
        assert chi.pairing(b + c) == (chi.pairing(b) + chi.pairing(c)) % e
        assert (chi + psi).pairing(c) == (chi.pairing(c) + psi.pairing(c)) % e
        assert (-chi).pairing(c) == -chi.pairing(c) % e


class TestSubgroups:
    def test_known_orders(self):
        g = AbelianGroup([4, 4])
        h = g.subgroup([g.element((2, 2))])
        assert h.order == 2
        assert h.is_cyclic
        assert g.full_subgroup().order == 16
        assert g.trivial_subgroup().is_trivial

    def test_membership_matches_enumeration(self):
        rng = random.Random(11)
        for _ in range(30):
            from conftest import random_group, random_subgroup
            group = random_group(rng, max_order=64)
            h = random_subgroup(rng, group)
            members = {e.exponents for e in h.elements()}
            for g in group.elements():
                assert h.contains(g) == (g.exponents in members)
            assert len(members) == h.order

    @given(groups_with_subgroup(), st.data())
    def test_lattice_identities(self, pair, data):
        group, a = pair
        b = data.draw(subgroups(group))
        meet = a & b
        join = a | b
        assert meet.is_subgroup_of(a) and meet.is_subgroup_of(b)
        assert a.is_subgroup_of(join) and b.is_subgroup_of(join)
        assert meet == (b & a)
        assert join == (b | a)
        # |A||B| = |A+B| |A∩B| in any abelian group.
        assert a.order * b.order == join.order * meet.order

    @given(groups_with_subgroup())
    def test_canonical_equality(self, pair):
        group, h = pair
        regenerated = group.subgroup(list(h.elements()))
        assert regenerated == h
        assert hash(regenerated) == hash(h)


class TestCachedInvariants:
    """``Subgroup.order`` and ``is_cyclic`` are stored on the instance by
    the first read."""

    @pytest.mark.parametrize("orders", [(2, 2, 2), (2, 4), (3, 9)])
    def test_two_generator_subgroups_against_the_oracle(self, orders):
        group = AbelianGroup(orders)
        generators = {}
        for pair in itertools.combinations_with_replacement(list(group.elements()), 2):
            generators.setdefault(group.subgroup(pair).basis, pair)
        for pair in generators.values():
            h, twin = group.subgroup(pair), group.subgroup(pair)
            members = enumerate_subgroup(twin).elements()
            census = Counter(g.order for g in members)
            cyclic = len(_invariant_factors_from_census(census, len(members)).factors) <= 1
            before = hash(h)
            assert (h.order, h.is_cyclic) == (len(members), cyclic)
            assert {"order", "is_cyclic"} <= vars(h).keys()
            assert (h.order, h.is_cyclic) == (len(members), cyclic)
            assert h == twin and hash(h) == before == hash(twin)
        assert len(generators) > 1


class TestIntersection:
    """``H_1 & H_2 = Ann(Ann H_1 + Ann H_2)`` against the closure oracle."""

    @given(groups_with_subgroup(), st.data())
    def test_matches_the_intersection_of_the_closures(self, pair, data):
        group, a = pair
        b = group.subgroup(data.draw(st.lists(group_elements(group), max_size=3)))
        meet = a & b
        expected = sorted(set(enumerate_subgroup(a).members)
                          & set(enumerate_subgroup(b).members))
        assert list(enumerate_subgroup(meet).members) == expected
        assert sorted(meet._element_tuples()) == expected

    def test_rank_zero_group(self):
        g = AbelianGroup(())
        meet = g.full_subgroup() & g.trivial_subgroup()
        assert meet.ambient == g and meet.basis == () and meet.order == 1
        assert g.zero in meet and meet == g.full_subgroup()
        assert list(enumerate_subgroup(meet).members) == [()]

    @given(abelian_groups(), st.data())
    def test_trivial_meet_without_the_intersection(self, group, data):
        # At most two generators each, so that both verdicts come up.
        a, b = (group.subgroup(data.draw(st.lists(group_elements(group), max_size=2)))
                for _ in range(2))
        assert a._meets_trivially(b) == b._meets_trivially(a) == (a & b).is_trivial

    def test_both_verdicts_of_the_meet_check(self):
        g = AbelianGroup([2, 4])
        a, b, c = (g.subgroup([g.element(e)]) for e in ((1, 0), (0, 1), (1, 1)))
        assert a._meets_trivially(b) and a._meets_trivially(g.trivial_subgroup())
        assert not b._meets_trivially(c) and not a._meets_trivially(g.full_subgroup())
        rank_zero = AbelianGroup(())
        assert rank_zero.full_subgroup()._meets_trivially(rank_zero.trivial_subgroup())


# Random subgroups of these groups exercise high rank, a prime power
# ambient and mixed coprime orders.
HERMITE_GROUPS = (AbelianGroup([16, 16, 16]), AbelianGroup([2, 2, 2, 2]),
                  AbelianGroup([4, 8, 3]))


@st.composite
def hermite_subgroup_pairs(draw):
    """``(B, A)`` with ``B <= A`` in one of :data:`HERMITE_GROUPS`."""
    group = draw(st.sampled_from(HERMITE_GROUPS))
    a = draw(subgroups(group))
    b = a & draw(subgroups(group))
    return b, a


class TestHermitePaths:
    """Element listing, cyclicity and quotients read from the Hermite basis,
    checked against the closure oracle and the Smith structure."""

    @given(hermite_subgroup_pairs())
    def test_elements_match_the_closure_oracle(self, pair):
        _, h = pair
        listed = [e.exponents for e in h.elements()]
        assert len(listed) == len(set(listed)) == h.order
        assert sorted(listed) == list(enumerate_subgroup(h).members)

    @given(hermite_subgroup_pairs())
    def test_cyclicity_matches_the_invariant_factors(self, pair):
        for h in pair:
            factors = subgroup_quotient(h, h.ambient.trivial_subgroup()).invariant_factors
            assert h.is_cyclic == (len(factors) <= 1)
            assert h.exponent == max(factors, default=1)

    @given(hermite_subgroup_pairs(), st.data())
    def test_lift_and_project_are_inverse(self, pair, data):
        b, a = pair
        q = subgroup_quotient(a, b)
        # The tracked V^{-1} builds the generators and V projects: the j-th
        # generator must land on the j-th unit vector.
        for j, gen in enumerate(q.generators):
            assert q.project(gen) == q.group.basis_element(j)
        for _ in range(5):
            x = data.draw(group_elements(q.group))
            assert q.project(q.lift(x)) == x
        members = list(a.elements())
        for _ in range(5):
            g = data.draw(st.sampled_from(members))
            assert b.contains(q.lift(q.project(g)) - g)

    @given(hermite_subgroup_pairs())
    def test_quotient_factors_match_sympy(self, pair):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        _, h = pair
        # G/H is Z^k modulo the lattice of H, whose Hermite basis is h.basis.
        expected = invariant_factors(sympy.Matrix(h.basis), domain=sympy.ZZ)
        q = quotient_structure(h.ambient, h)
        assert list(q.invariant_factors) == [int(d) for d in expected if d != 1]


class TestCosetMinimum:
    def test_matches_the_least_element_of_the_coset(self):
        from conftest import random_element, random_group, random_subgroup

        rng = random.Random(12)
        for _ in range(60):
            group = random_group(rng, max_order=128)
            h = random_subgroup(rng, group)
            g = random_element(rng, group)
            coset = [(g + x).exponents for x in enumerate_subgroup(h).elements()]
            assert h.coset_minimum(g).exponents == min(coset)


class TestPackedCharacters:
    @given(abelian_groups(), st.data())
    def test_arithmetic_and_order_match_characters(self, group, data):
        codec = PackedCharacters(group)
        chi, psi = (group.character(data.draw(group_elements(group)).exponents)
                    for _ in range(2))
        x, y = codec.pack(chi.exponents), codec.pack(psi.exponents)
        assert codec.unpack(x) == chi.exponents
        assert codec.character(y) == psi
        assert codec.neg(x) == codec.pack((-chi).exponents)
        assert (x < y) == (chi.exponents < psi.exponents)
        total = codec.pack((chi + psi).exponents)
        assert codec.convolve({x: 2}, {y: 3}, {total: 5}) == [(x, y, total, 30)]

    def test_character_equals_the_reducing_constructor(self):
        rng = random.Random(29)
        for _ in range(40):
            group = random_group(rng)
            codec = PackedCharacters(group)
            for _ in range(10):
                exps = tuple(rng.randrange(n) for n in group.orders)
                chi = codec.character(codec.pack(exps))
                want = Character(group, exps)
                assert type(chi) is Character
                assert chi == want and hash(chi) == hash(want)
                assert chi.group is group and chi.exponents == want.exponents
                assert -chi == -want and chi + want == want + want

    def test_convolution_matches_character_sums(self):
        from conftest import random_group

        rng = random.Random(13)
        for _ in range(30):
            group = random_group(rng, max_order=64)
            codec = PackedCharacters(group)
            chars = list(group.characters())
            a, b, c = ({chi: rng.choice([0, 1, 1, 2])
                        for chi in rng.sample(chars, rng.randint(1, len(chars)))}
                       for _ in range(3))
            want = [(x, y, x + y, a[x] * b[y] * c[x + y])
                    for x in a for y in b if a[x] * b[y] * c.get(x + y, 0)]
            got = codec.convolve(*({codec.pack(chi.exponents): w for chi, w in t.items()}
                                   for t in (a, b, c)))
            assert got == [tuple(codec.pack(chi.exponents) for chi in term[:3]) + term[3:]
                           for term in want]

    @pytest.mark.parametrize("orders", [(5,), (2, 4, 8), (2, 3, 4, 5, 6, 7, 8, 9, 10)])
    def test_fields_equal_the_per_field_formulas(self, orders):
        # Ranks 1, 3 and 9: the shifts run down from the top field, and the
        # offset is ``top - n_j`` in every field.
        group = AbelianGroup(orders)
        codec = PackedCharacters(group)
        width, rank = codec.width, group.rank
        shifts = tuple(width * (rank - 1 - j) for j in range(rank))
        top = 1 << (width - 1)
        assert tuple(codec.shifts) == shifts
        assert codec._guard == sum(top << s for s in shifts)
        assert codec._offset == sum((top - n) << s for n, s in zip(orders, shifts))
        assert codec._moduli == sum(n << s for n, s in zip(orders, shifts))


class TestAnnihilator:
    @given(groups_with_subgroup())
    def test_order_and_double_dual(self, pair):
        group, h = pair
        ann = h.annihilator()
        assert ann.order * h.order == group.order
        assert ann.annihilator() == h

    @given(groups_with_subgroup())
    def test_annihilator_vanishes_exactly(self, pair):
        group, h = pair
        if group.order > 128:
            return
        ann = h.annihilator()
        members = {e.exponents for e in h.elements()}
        for chi_elem in ann.elements():
            chi = group.character(chi_elem.exponents)
            assert all(chi.pairing(group.element(m)) == 0 for m in members)
        # Characters outside the annihilator fail on some element of H.
        for chi in group.characters():
            if not ann.contains(group.element(chi.exponents)):
                assert any(chi.pairing(group.element(m)) for m in members)

    def test_reverses_inclusion(self):
        g = AbelianGroup([4, 4])
        small = g.subgroup([g.element((2, 2))])
        big = g.subgroup([g.element((1, 1))])
        assert small.is_subgroup_of(big)
        assert big.annihilator().is_subgroup_of(small.annihilator())

    @pytest.mark.parametrize("orders", [(2, 2, 2), (4, 2), (6,), (3, 3), ()])
    def test_matches_a_brute_scan_on_cubes(self, orders):
        # Cubes G^3 as in the Aut_0 kernel, at most 729 characters each;
        # the empty order list is the rank-0 group.
        cube = direct_product([AbelianGroup(orders)] * 3)
        rng = random.Random(str(orders))
        hs = [cube.trivial_subgroup(), cube.full_subgroup()]
        hs += [random_subgroup(rng, cube, max_gens=4) for _ in range(6)]
        for h in hs:
            ann = h.annihilator()
            rows = [cube.element(row) for row in h.basis]
            brute = sorted(chi.exponents for chi in cube.characters()
                           if all(chi.pairing(g) == 0 for g in rows))
            assert sorted(ann._element_tuples()) == brute
            assert h.order * ann.order == cube.order
            assert ann.annihilator() == h
            assert len(ann.generators) == cube.rank

    def test_is_stored_on_the_instance(self):
        g = AbelianGroup([4, 6, 2])
        h = g.subgroup([g.element((2, 3, 1))])
        twin = g.subgroup([g.element((2, 3, 1)), g.element((0, 0, 0))])
        assert h.annihilator() is h.annihilator()
        assert twin is not h and twin == h
        assert twin.annihilator() == h.annihilator()
        assert hash(h) == hash(twin)


class TestElementTuples:
    def test_match_the_element_listing(self):
        rng = random.Random(11)
        for _ in range(60):
            group = random_group(rng, max_rank=4)
            h = random_subgroup(rng, group)
            tuples = list(h._element_tuples())
            assert tuples == [e.exponents for e in h.elements()]
            assert len(set(tuples)) == len(tuples) == h.order
            assert all(0 <= x < n for t in tuples for x, n in zip(t, group.orders))
            assert all(h.contains(group.element(t)) for t in tuples)


class TestQuotients:
    def test_known_structure(self):
        g = AbelianGroup([4, 4])
        h = g.subgroup([g.element((2, 2))])
        q = quotient_structure(g, h)
        assert list(q.invariant_factors) == [2, 4]
        assert q.group.order == 8

    def test_quotient_by_trivial(self):
        g = AbelianGroup([2, 6])
        q = quotient_structure(g, g.trivial_subgroup())
        assert list(q.invariant_factors) == [2, 6]

    def test_quotient_by_full(self):
        g = AbelianGroup([2, 6])
        q = quotient_structure(g, g.full_subgroup())
        assert list(q.invariant_factors) == []

    @given(groups_with_subgroup())
    def test_projection_is_surjective_homomorphism(self, pair):
        group, h = pair
        q = quotient_structure(group, h)
        assert q.group.order * h.order == group.order
        if group.order > 128:
            return
        images = set()
        for a in group.elements():
            images.add(q.project(a).exponents)
        assert len(images) == q.group.order
        rng = random.Random(5)
        from conftest import random_element
        for _ in range(10):
            a, b = random_element(rng, group), random_element(rng, group)
            assert q.project(a + b) == q.project(a) + q.project(b)

    @given(groups_with_subgroup())
    def test_lift_section(self, pair):
        group, h = pair
        q = quotient_structure(group, h)
        for coset in q.group.elements():
            assert q.project(q.lift(coset)) == coset
        for gen, d in zip(q.generators, q.invariant_factors):
            assert h.contains(d * gen)
            assert all(not h.contains(c * gen) for c in range(1, d))

    def test_kernel_of_projection(self):
        g = AbelianGroup([4, 4])
        h = g.subgroup([g.element((2, 0)), g.element((0, 2))])
        q = quotient_structure(g, h)
        for a in g.elements():
            assert q.project(a).is_zero == h.contains(a)

    def test_subgroup_quotient_requires_containment(self):
        g = AbelianGroup([4, 4])
        a = g.subgroup([g.element((2, 0))])
        b = g.subgroup([g.element((0, 2))])
        with pytest.raises(ParentMismatchError, match="denominator is not contained"):
            subgroup_quotient(a, b)

    @given(abelian_groups(max_rank=2, max_order=16), st.data())
    def test_quotient_over_the_diagonal_is_read_on_the_slice(self, group, data):
        # Subgroups B <= A of G^3 that contain Delta_G: A / B has the
        # invariant factors of the slices x_1 = 0, read in G^2, and its
        # generators are (0, y) for that quotient's generators y, equal as
        # elements.  aut0's kernel layer rests on this; it fails if
        # ``_smith`` changes its pivot rule.
        cube, plane, r = direct_product([group] * 3), direct_product([group] * 2), group.rank
        diagonal = [product_element(cube, [group.basis_element(j)] * 3) for j in range(r)]
        tops = data.draw(st.lists(group_elements(cube), max_size=3))
        combos = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=len(tops),
                                             max_size=len(tops)), max_size=3))
        bottoms = [sum((t * c for t, c in zip(tops, cs)), cube.zero) for cs in combos]

        def on_slice(gens):
            # g - (g_1, g_1, g_1) lies on x_1 = 0; with Delta_G they generate.
            return plane.subgroup(plane.element(
                [x - y for x, y in zip(g.exponents[r:], g.exponents[:r] * 2)]) for g in gens)

        whole = subgroup_quotient(cube.subgroup(tops + diagonal),
                                  cube.subgroup(bottoms + diagonal))
        part = subgroup_quotient(on_slice(tops), on_slice(bottoms))
        assert whole.invariant_factors == part.invariant_factors
        assert [g.exponents for g in whole.generators] == \
            [(0,) * r + y.exponents for y in part.generators]

    def test_subgroup_quotient_refuses_exactly_the_non_contained(self):
        rng = random.Random(31)
        for _ in range(200):
            group = random_group(rng, max_order=64)
            a, b = random_subgroup(rng, group), random_subgroup(rng, group)
            if b.is_subgroup_of(a):
                assert subgroup_quotient(a, b).group.order * b.order == a.order
            else:
                with pytest.raises(ParentMismatchError, match="denominator is not contained"):
                    subgroup_quotient(a, b)


class TestInvariantFactors:
    def test_validation(self):
        assert InvariantFactors((2, 4)).order == 8
        assert len(InvariantFactors(())) == 0
        with pytest.raises(ValueError):
            InvariantFactors((1, 2))
        with pytest.raises(ValueError):
            InvariantFactors((4, 2))
        with pytest.raises(ValueError):
            InvariantFactors((2, 3))


class TestProducts:
    def test_split_embed_roundtrip(self):
        a = AbelianGroup([2, 4])
        b = AbelianGroup([3])
        p = direct_product([a, b])
        x = a.element((1, 3))
        y = b.element((2,))
        joined = product_element(p, [x, y])
        assert joined.exponents == x.exponents + y.exponents
        assert embed_factor(p, [a, b], 0, x) == product_element(p, [x, b.zero])

    def test_size_bound_holds_for_input_groups_only(self):
        # The product of checked groups is not bounded again: G^3 of a
        # group of order 2^21 has order 2^63, over the bound of 2^62.
        g = AbelianGroup([2 ** 7] * 3)
        cube = direct_product([g] * 3)
        assert cube.orders == (2 ** 7,) * 9 and cube.order == 2 ** 63
        assert cube.element([1] * 9).order == 2 ** 7
        with pytest.raises(OverflowLimitError, match="exceeds the supported scale"):
            AbelianGroup(cube.orders)
        with pytest.raises(OverflowLimitError):
            AbelianGroup([2 ** 31, 2 ** 32])
        assert AbelianGroup([2 ** 31, 2 ** 31]).order == 2 ** 62

    def test_diagonal_and_product_subgroup(self):
        g = AbelianGroup([2, 2, 2])
        assert diagonal_subgroup(g, 3).order == g.order
        ks = [g.subgroup([g.basis_element(i)]) for i in range(3)]
        assert product_subgroup(ks).order == 8

    def test_k_delta_order(self):
        # (K1 x K2 x K3) + diagonal in (Z2^3)^3 has order 8 * 8.
        g = AbelianGroup([2, 2, 2])
        ks = [g.subgroup([g.basis_element(i)]) for i in range(3)]
        k_delta = product_subgroup(ks).sum(diagonal_subgroup(g, 3))
        assert k_delta.order == 64
