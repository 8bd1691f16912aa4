"""The brute-force oracle agrees with the structured implementations."""

from __future__ import annotations

import random

import pytest

from conftest import random_element, random_group, random_subgroup
from isoprod.aut0 import admissible_characters, representation_kernel, _k_delta
from isoprod.errors import ConsistencyError, OracleScaleError
from isoprod.examples import example1, example2a, example2b, example3, example4
from isoprod.groups import (
    AbelianGroup,
    diagonal_subgroup,
    direct_product,
    subgroup_quotient,
)
from isoprod.hodge import hodge_diamond
from isoprod.oracle import (
    ElementSet,
    brute_hodge,
    brute_kernel,
    brute_quotient,
    enumerate_subgroup,
)


class TestEnumerateSubgroup:
    def test_trivial_subgroup(self):
        g = AbelianGroup([4, 2])
        closed = enumerate_subgroup(g.trivial_subgroup())
        assert closed.members == ((0, 0),)

    def test_known_cyclic(self):
        g = AbelianGroup([4, 4])
        closed = enumerate_subgroup(g.subgroup([g.element((2, 2))]))
        assert closed.members == ((0, 0), (2, 2))

    def test_diagonal_in_cube(self):
        g = AbelianGroup([2, 2, 2])
        cube = direct_product([g, g, g])
        closed = enumerate_subgroup(diagonal_subgroup(g, 3))
        assert len(closed) == 8
        for m in closed.members:
            assert m[0:3] == m[3:6] == m[6:9]

    def test_matches_structured_order(self):
        rng = random.Random(20240818)
        for _ in range(40):
            g = random_group(rng, max_rank=3, max_order=200)
            h = random_subgroup(rng, g)
            assert len(enumerate_subgroup(h)) == h.order

    def test_cap_enforced(self):
        g = AbelianGroup([1 << 10, 1 << 10])
        with pytest.raises(OracleScaleError):
            enumerate_subgroup(g.full_subgroup(), cap=100)


class TestBruteQuotient:
    def test_known_example(self):
        g = AbelianGroup([4, 4])
        h = g.subgroup([g.element((2, 2))])
        assert list(brute_quotient(g, h)) == [2, 4]

    def test_trivial_and_full(self):
        g = AbelianGroup([2, 6])
        assert list(brute_quotient(g, g.full_subgroup())) == []
        assert list(brute_quotient(g, g.trivial_subgroup())) == [2, 6]

    def test_subgroup_numerator(self):
        g = AbelianGroup([8])
        top = g.subgroup([g.element((2,))])
        bottom = g.subgroup([g.element((4,))])
        assert list(brute_quotient(top, bottom)) == [2]

    def test_matches_structured(self):
        rng = random.Random(20240819)
        for _ in range(60):
            g = random_group(rng, max_rank=3, max_order=200)
            b = random_subgroup(rng, g)
            expected = subgroup_quotient(g.full_subgroup(), b).invariant_factors
            assert list(brute_quotient(g, b)) == list(expected)

    def test_cap_enforced(self):
        g = AbelianGroup([1 << 12])
        with pytest.raises(OracleScaleError):
            brute_quotient(g, g.trivial_subgroup(), cap=100)

    @pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [2, 3]])
    def test_subgroup_numerator_matches_structured(self, orders):
        rng = random.Random(20240822 + sum(orders))
        g = AbelianGroup(orders)
        cube = direct_product([g, g, g])
        for _ in range(25):
            a = random_subgroup(rng, cube, max_gens=4)
            # Random integer combinations of A's generators generate B <= A.
            b = cube.subgroup(
                sum((rng.randrange(8) * x for x in a.generators), cube.zero)
                for _ in range(rng.randint(0, 3)))
            expected = subgroup_quotient(a, b).invariant_factors
            assert list(brute_quotient(a, b)) == list(expected)

    def test_denominator_outside_numerator_raises(self):
        g = AbelianGroup([4, 2])
        a = g.subgroup([g.element((1, 0))])
        b = g.subgroup([g.element((0, 1))])
        with pytest.raises(ConsistencyError):
            brute_quotient(a, b)
        with pytest.raises(ConsistencyError):
            brute_quotient(g.trivial_subgroup(), b)


class TestBruteKernel:
    def test_no_characters_gives_whole_cube(self):
        d = example1()
        kernel = brute_kernel(d, [])
        assert len(kernel) == d.group.order ** 3

    @pytest.mark.parametrize("factory", [example1, example2a, example2b,
                                         example4, lambda: example3(1)])
    def test_matches_structured_kernel(self, factory):
        d = factory()
        first, second = admissible_characters(d)
        brute = brute_kernel(d, first + second)
        structured = representation_kernel(d, 3, 0)
        assert len(brute) == structured.order
        assert all(x in brute for x in structured.generators)

    def test_contains_k_delta(self):
        d = example2b()
        first, second = admissible_characters(d)
        kernel = brute_kernel(d, first + second)
        for gen in _k_delta(d).generators:
            assert gen in kernel

    def test_cap_enforced(self):
        with pytest.raises(OracleScaleError):
            brute_kernel(example1(3, 3, 3), [], cap=1000)

    def test_plain_cube_characters_match_pairing_scan(self):
        rng = random.Random(20240823)
        d = example2b()
        g = d.group
        cube = direct_product([g, g, g])
        for _ in range(5):
            chars = [cube.character(random_element(rng, cube).exponents)
                     for _ in range(rng.randint(1, 3))]
            expected = sorted(x.exponents for x in cube.elements()
                              if all(psi.pairing(x).is_zero for psi in chars))
            assert list(brute_kernel(d, chars).members) == expected


class TestBruteHodge:
    @pytest.mark.parametrize("factory", [example1, example2a, example2b,
                                         example4, lambda: example1(2, 1, 1),
                                         lambda: example3(1)])
    def test_matches_structured_diamond(self, factory):
        d = factory()
        assert brute_hodge(d).h == hodge_diamond(d).h

    def test_cap_enforced(self):
        with pytest.raises(OracleScaleError):
            brute_hodge(example1(3, 3, 3))


class TestElementSet:
    def test_membership_and_elements(self):
        g = AbelianGroup([4])
        s = ElementSet.of(g, [g.element((2,)), (0,), (2,)])
        assert s.members == ((0,), (2,))
        assert g.element((2,)) in s
        assert g.element((1,)) not in s
        assert [e.exponents for e in s.elements()] == [(0,), (2,)]
