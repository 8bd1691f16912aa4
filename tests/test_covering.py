"""Generating vectors: validation, genus, stabilizers, eigenspace dimensions."""

from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from conftest import random_element, random_group
from isoprod.covering import (
    GeneratingVector,
    cw_dimension,
    genus,
    stabilizer_union,
)
from isoprod.errors import ConsistencyError, ParentMismatchError
from isoprod.groups import AbelianGroup


def dimension_sum(v):
    """The eigenspace dimensions of every character, summed; Chevalley-Weil
    and Riemann-Hurwitz are independent, so this must be the genus."""
    return sum(cw_dimension(v, chi) for chi in v.quotient_group.characters())


def vector(orders, g_prime, branch, eta=()):
    q = AbelianGroup(orders)
    return GeneratingVector(q, g_prime,
                            tuple(q.element(b) for b in branch),
                            tuple(q.element(e) for e in eta))


@st.composite
def closed_vectors(draw):
    """Vectors with the product relation forced; other conditions may fail."""
    orders = draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=1, max_size=2))
    q = AbelianGroup(orders)
    r = draw(st.integers(min_value=1, max_value=4))
    branch = []
    for _ in range(r):
        g = q.element([draw(st.integers(0, n - 1)) for n in q.orders])
        if not g.is_zero:
            branch.append(g)
    total = q.zero
    for g in branch:
        total = total + g
    if not total.is_zero:
        branch.append(-total)
    g_prime = draw(st.integers(min_value=1, max_value=2))
    eta = [q.element([draw(st.integers(0, n - 1)) for n in q.orders])
           for _ in range(2 * g_prime)]
    return GeneratingVector(q, g_prime, tuple(branch), tuple(eta))


class TestValidation:
    def test_valid_example(self):
        v = vector([2, 2], 1, [(0, 1), (0, 1)], [(1, 0), (0, 1)])
        assert v.validate().ok

    def test_trivial_branch_element(self):
        v = vector([2, 2], 1, [(0, 0)], [(1, 0), (0, 1)])
        assert any("trivial" in msg for msg in v.validate().violations)

    def test_product_relation(self):
        v = vector([4], 1, [(1,)], [(1,), (0,)])
        assert any("product relation" in msg for msg in v.validate().violations)

    def test_eta_count(self):
        v = vector([2, 2], 1, [(0, 1), (0, 1)], [(1, 0)])
        assert any("eta" in msg for msg in v.validate().violations)

    def test_generation(self):
        v = vector([2, 2], 1, [(0, 1), (0, 1)], [(0, 1), (0, 0)])
        assert any("generate" in msg for msg in v.validate().violations)

    def test_parent_mismatch(self):
        q = AbelianGroup([2])
        other = AbelianGroup([4])
        with pytest.raises(ParentMismatchError):
            GeneratingVector(q, 1, (other.element((1,)),), ())

    def test_base_genus_must_be_an_integer(self):
        # A float is not truncated and a bool is not read as a number.
        q = AbelianGroup([2])
        for g_prime in (1.5, 2.0, True, -1):
            with pytest.raises(ValueError, match="base genus must be a nonnegative integer"):
                GeneratingVector(q, g_prime, (), ())


class TestGenus:
    def test_known_values(self):
        # [1; 2, 2] over Z2 x Z2: 2g - 2 = 4(0 + 1/2 + 1/2) = 4.
        assert genus(vector([2, 2], 1, [(0, 1), (0, 1)], [(1, 0), (0, 1)])) == 3
        # Unramified elliptic cover stays at genus 1.
        assert genus(vector([2], 1, [], [(1,), (0,)])) == 1
        # [0; 2, 2, 2, 2] over Z2: the classic genus-1 double cover.
        assert genus(vector([2], 0, [(1,)] * 4)) == 1
        # [0; 3, 3, 3] over Z3: 2g - 2 = 3(-2 + 3 * 2/3) = 0 -> g = 1.
        assert genus(vector([3], 0, [(1,), (1,), (1,)])) == 1

    def test_branch_permutation_invariance(self):
        base = [(0, 1), (1, 0), (1, 1)]
        genera = set()
        for perm in itertools.permutations(base):
            genera.add(genus(vector([2, 2], 1, list(perm), [(1, 0), (0, 1)])))
        assert len(genera) == 1

    @given(closed_vectors())
    def test_riemann_hurwitz_always_integral(self, v):
        assert genus(v) >= 0


class TestStabilizerUnion:
    def test_union_of_cyclic_groups(self):
        v = vector([4], 1, [(2,), (2,)], [(1,), (0,)])
        assert {g.exponents for g in stabilizer_union(v)} == {(0,), (2,)}

    def test_identity_always_present(self):
        v = vector([2], 1, [], [(1,), (0,)])
        assert {g.exponents for g in stabilizer_union(v)} == {(0,)}

    @given(closed_vectors())
    def test_closed_under_powers(self, v):
        union = stabilizer_union(v)
        for sigma in v.branch:
            g = sigma
            while not g.is_zero:
                assert g in union
                g = g + sigma


class TestEigenspaceDimensions:
    def test_trivial_character_dimension_is_base_genus(self):
        v = vector([2, 2], 1, [(0, 1), (0, 1)], [(1, 0), (0, 1)])
        assert cw_dimension(v, v.quotient_group.character((0, 0))) == 1
        w = vector([2], 2, [(1,), (1,)], [(1,), (0,), (1,), (0,)])
        assert cw_dimension(w, w.quotient_group.character((0,))) == 2

    def test_known_table(self):
        # Factor 1 of the smallest worked example: branch (e2', e2') over
        # Z2 x Z2 with elliptic base.
        v = vector([2, 2], 1, [(0, 1), (0, 1)], [(1, 0), (0, 1)])
        table = {chi.exponents: cw_dimension(v, chi) for chi in v.quotient_group.characters()}
        assert table == {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 1}

    @pytest.mark.parametrize("g_prime, branch, message", [
        # Without the product relation the sum is 1/2.
        (1, [(1,)], "dimension 1/2 for character (1) is not"),
        # A rational base without branch points gives -1.
        (0, [], "dimension -2/2 for character (1) is not"),
    ], ids=["non_integral", "negative"])
    def test_dimension_that_is_no_nonnegative_integer(self, g_prime, branch, message):
        v = vector([2], g_prime, branch)
        with pytest.raises(ConsistencyError, match=re.escape(message)):
            cw_dimension(v, v.quotient_group.character((1,)))

    @given(closed_vectors())
    def test_table_sums_to_genus(self, v):
        assert dimension_sum(v) == genus(v)

    @given(closed_vectors())
    def test_nonvanishing_criterion(self, v):
        # For an elliptic base and nontrivial chi: d > 0 iff chi is
        # nontrivial somewhere on the stabilizer union.  For g' >= 2 the
        # base contribution g' - 1 already makes every eigenspace nonzero.
        union = stabilizer_union(v)
        for chi in v.quotient_group.characters():
            if chi.is_trivial:
                continue
            d = cw_dimension(v, chi)
            if v.g_prime >= 2:
                assert d > 0
            else:
                detects = any(chi.pairing(s) for s in union)
                assert (d > 0) == detects

    def test_branch_permutation_invariance(self):
        base = [(0, 1), (1, 0), (1, 1)]
        tables = set()
        for perm in itertools.permutations(base):
            v = vector([2, 2], 1, list(perm), [(1, 0), (0, 1)])
            tables.add(tuple((chi.exponents, cw_dimension(v, chi))
                             for chi in v.quotient_group.characters()))
        assert len(tables) == 1

    def test_random_vectors_integrality(self):
        rng = random.Random(3)
        for _ in range(50):
            q = random_group(rng, max_rank=2, max_order=36)
            branch = []
            total = q.zero
            for _ in range(rng.randint(0, 3)):
                g = random_element(rng, q)
                if not g.is_zero:
                    branch.append(g)
                    total = total + g
            if not total.is_zero:
                branch.append(-total)
            v = GeneratingVector(q, 1, tuple(branch),
                                 (random_element(rng, q), random_element(rng, q)))
            assert dimension_sum(v) == genus(v)
