"""Acceptance suite: one test per release criterion, with time budgets.

Each criterion asserts exact values (no tolerances; all arithmetic is
integral) and that the computation fits its runtime budget.
"""

from __future__ import annotations

import itertools
import random
import time
from math import prod

import pytest

from conftest import cosets_generate, random_group, random_subgroup, reference_quotient
from isoprod.aut0 import (
    Aut0Status,
    admissible_characters,
    aut0,
    representation_kernel,
    verify_generator,
    _k_delta,
)
from isoprod.covering import cw_dimension, genus
from isoprod.datum import invariants, validate_datum
from isoprod.examples import example1, example2a, example2b, example3, example4
from isoprod.groups import (
    product_element,
    smith_normal_form,
    subgroup_quotient,
)
from isoprod.hodge import hodge_diamond
from isoprod.oracle import (
    brute_hodge,
    brute_kernel,
    brute_quotient,
    enumerate_subgroup,
)
from isoprod.search import SearchSpec, survey


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, \
            f"criterion exceeded its {self.seconds}s budget ({elapsed:.1f}s)"


def triple(datum, cube, exps1, exps2, exps3):
    g = datum.group
    return product_element(cube, [g.element(exps1), g.element(exps2),
                                  g.element(exps3)])


REGRESSION_DATA = [
    example1(), example1(2, 1, 3), example2a(), example2a(2, 2, 2),
    example2b(), example2b(3, 2, 1), example3(1), example3(2), example4(),
]


def test_criterion_1_first_family_regression():
    budget = Budget(10)
    for n1, n2, n3 in itertools.product((1, 2, 3), repeat=3):
        d = example1(n1, n2, n3)
        r, (q, _) = aut0(d), reference_quotient(d)
        assert list(r.invariant_factors) == [2, 2]
        a = triple(d, q.numerator.ambient, (0, n2, 0), (n1, 0, 0), (0, 0, 0))
        b = triple(d, q.numerator.ambient, (0, n2, 0), (0, 0, n3), (0, 0, 0))
        assert verify_generator(d, a) and verify_generator(d, b)
        assert cosets_generate(q, [a, b])
    budget.check()


def test_criterion_1_first_family_at_n16():
    # G = Z32^3, |G| = 32,768; the values agree with the product formulas.
    budget = Budget(30)
    d = example1(16, 16, 16)
    report = validate_datum(d)
    assert report.ok
    assert list(report.genera) == [513, 513, 513]
    inv = invariants(d)
    assert (inv.chi_structure_sheaf, inv.euler_number, inv.canonical_cube) == \
        (-4096, -32768, 196608)
    assert hodge_diamond(d).h == ((1, 3, 3, 4097), (3, 9, 12297, 3),
                                  (3, 12297, 9, 3), (4097, 3, 3, 1))
    r = aut0(d, report)
    assert r.status is Aut0Status.PROVEN
    assert list(r.invariant_factors) == [2, 2]
    orders = [representation_kernel(d, p, q).order
              for p, q in ((3, 0), (2, 1), (2, 0), (1, 1))]
    assert orders == [2 ** 32, 2 ** 32, 2 ** 45, 2 ** 45]
    budget.check()


def test_criterion_2_second_family_regression():
    budget = Budget(10)
    for n1, n2, n3 in itertools.product((1, 2, 3), repeat=3):
        d = example2a(n1, n2, n3)
        r, (q, _) = aut0(d), reference_quotient(d)
        assert list(r.invariant_factors) == [2]
        gen = triple(d, q.numerator.ambient, (0, n2, 0), (0, 0, 0), (0, 0, 0))
        assert verify_generator(d, gen) and cosets_generate(q, [gen])
    for n1, n2, n3 in itertools.product((2, 3), (1, 2, 3), (1, 2, 3)):
        d = example2b(n1, n2, n3)
        r, (q, _) = aut0(d), reference_quotient(d)
        gen = triple(d, q.numerator.ambient, (0, n2, 0), (0, 0, n3), (0, 0, 0))
        assert verify_generator(d, gen)
        if n1 == 2:
            # The doubled branch element has order 2 in its quotient, so
            # the slot-2 character exponents are only constrained mod 2 and
            # the extra class (e2^{n2}, e1^2, 1) survives: Z2 x Z2, not the
            # Z2 that holds for every n1 >= 3.
            assert list(r.invariant_factors) == [2, 2]
            extra = triple(d, q.numerator.ambient, (0, n2, 0), (2, 0, 0), (0, 0, 0))
            assert verify_generator(d, extra)
            assert cosets_generate(q, [gen, extra])
        else:
            assert list(r.invariant_factors) == [2]
            assert cosets_generate(q, [gen])
    budget.check()


def test_criterion_3_singular_family_regression():
    budget = Budget(5)
    for n in (1, 2, 3):
        d = example3(n)
        report = validate_datum(d)
        assert not report.freeness_ok
        assert report.freeness_witness == d.group.element((0, n, n))
        first, second = admissible_characters(d)
        assert first == []
        r, (q, _) = aut0(d, report), reference_quotient(d)
        assert r.status is Aut0Status.NON_FREE_KERNEL_ONLY
        assert list(r.invariant_factors) == [2 * n]
        gen = triple(d, q.numerator.ambient, (0, 0, 0), (1, 0, 0), (0, 0, 0))
        assert verify_generator(d, gen) and cosets_generate(q, [gen])
    budget.check()


def test_criterion_4_non_cyclic_kernel_fixture():
    budget = Budget(1)
    d = example4()
    first, second = admissible_characters(d)
    got = sorted([adm.exponents[k:k + 4] for k in (0, 4, 8)] for adm in first + second)
    assert got == sorted([
        [(1, 0, 1, 0), (1, 0, 1, 0), (0, 0, 0, 0)],
        [(1, 1, 1, 0), (1, 0, 1, 0), (0, 1, 0, 0)],
        [(1, 1, 1, 0), (1, 0, 1, 1), (0, 1, 0, 1)],
    ])
    r, (q, _) = aut0(d), reference_quotient(d)
    assert list(r.invariant_factors) == [2]
    gen = triple(d, q.numerator.ambient, (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 0, 0))
    assert verify_generator(d, gen) and cosets_generate(q, [gen])
    budget.check()


def test_criterion_5_theorem_conformance_over_search_spaces():
    budget = Budget(60)
    basis = (((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))
    surveys = [
        survey(SearchSpec(group_orders=(2, 2, 2), kernels=(basis,),
                          max_branch=4)),
        survey(SearchSpec(group_orders=(2, 4),
                          kernels=((((), ((1, 0),), ((0, 2),))),
                                   (((), ((0, 2),), ((1, 2),)))),
                          max_branch=3)),
    ]
    assert surveys[0].count == 423936
    assert surveys[1].count == 2 * 138240
    for result in surveys:
        for key, weight in result.histogram.items():
            assert weight > 0
            assert prod(key) <= 4
        proven = result.status_counts.get("Proven", 0)
        assert proven == result.count  # every datum here meets the hypotheses
        for key in result.histogram:
            assert key in ((), (2,), (2, 2))
    budget.check()


@pytest.mark.parametrize("datum", REGRESSION_DATA)
def test_criterion_6_kernel_chain(datum):
    k30 = representation_kernel(datum, 3, 0)
    k21 = representation_kernel(datum, 2, 1)
    k20 = representation_kernel(datum, 2, 0)
    k11 = representation_kernel(datum, 1, 1)
    assert k30.basis == k21.basis
    assert k20.basis == k11.basis
    assert k30.is_subgroup_of(k20)


@pytest.mark.parametrize("datum", REGRESSION_DATA)
def test_criterion_7_hodge_consistency(datum):
    report = validate_datum(datum)
    if not report.ok:
        # The product formulas for chi(O) and e assume a free action.
        pytest.skip("criterion applies to valid data only")
    hd = hodge_diamond(datum)
    g_order = datum.group.order
    genera = report.genera
    # (a) eigenspace dimensions sum to the Riemann-Hurwitz genus.
    for i in range(3):
        v = datum.vectors[i]
        assert sum(cw_dimension(v, chi) for chi in v.quotient_group.characters()) == genera[i]
        assert genus(datum.vectors[i]) == genera[i]
    # (b), (c) product formulas for chi(O) and the Euler number.
    num = (genera[0] - 1) * (genera[1] - 1) * (genera[2] - 1)
    assert num % g_order == 0
    assert hd.chi_structure_sheaf() == -num // g_order
    e_num = (2 - 2 * genera[0]) * (2 - 2 * genera[1]) * (2 - 2 * genera[2])
    assert e_num % g_order == 0
    assert hd.euler_number() == e_num // g_order
    # (d) canonical degree.
    assert -48 * hd.chi_structure_sheaf() == 48 * num // g_order


def test_criterion_8_oracle_equivalence():
    budget = Budget(120)
    rng = random.Random(20240820)
    for _ in range(200):
        g = random_group(rng, max_rank=3, max_order=256)
        h = random_subgroup(rng, g)
        closed = enumerate_subgroup(h)
        assert len(closed) == h.order
        assert all(closed.ambient.element(m) in h
                   for m in closed.members)
        ann = h.annihilator()
        assert len(enumerate_subgroup(ann)) == ann.order
        assert ann.order * h.order == g.order
        fast = subgroup_quotient(g.full_subgroup(), h).invariant_factors
        assert list(brute_quotient(g, h)) == list(fast)

    full_data = [
        example1(), example1(2, 1, 1), example1(1, 2, 1), example1(1, 1, 2),
        example1(2, 2, 1), example1(2, 1, 2), example1(1, 2, 2),
        example1(2, 2, 2), example1(3, 1, 1), example1(1, 3, 1),
        example2a(), example2a(2, 1, 1), example2a(1, 2, 1), example2a(1, 1, 2),
        example2b(), example2b(2, 2, 1), example2b(2, 1, 2),
        example3(1), example3(2), example4(),
    ]
    assert len(full_data) == 20
    for d in full_data:
        assert d.group.order ** 3 <= 2 ** 18
        first, second = admissible_characters(d)
        brute = brute_kernel(d, first + second)
        fast_kernel = representation_kernel(d, 3, 0)
        assert len(brute) == fast_kernel.order
        assert all(fast_kernel.contains(x) for x in brute.elements())
        if d.group.order <= 64:
            assert brute_hodge(d).h == hodge_diamond(d).h
    budget.check()


def test_criterion_9_smith_normal_form_properties():
    budget = Budget(5)
    rng = random.Random(20240821)

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                 for j in range(len(b[0]))] for i in range(len(a))]

    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        return sum((-1) ** j * mat[0][j] * det(
            [row[:j] + row[j + 1:] for row in mat[1:]]) for j in range(n))

    for _ in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        s, u, v = smith_normal_form(a)
        assert matmul(matmul(u, a), v) == s
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        diag = [s[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert s[i][j] == 0
        nonzero = [d for d in diag if d]
        assert diag == nonzero + [0] * (len(diag) - len(nonzero))
        for x, y in zip(nonzero, nonzero[1:]):
            assert x > 0 and y % x == 0
    budget.check()
