"""Admissible characters and the numerically trivial automorphism group."""

from __future__ import annotations

import importlib
import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from conftest import (EXAMPLE_LADDER, ORACLE_EXAMPLES, brute_minimum, cosets_generate,
                      diagonal_subgroup, listed_kernel, product_subgroup, random_element,
                      random_group, random_subgroup, reference_quotient)

from isoprod.aut0 import (
    Aut0Status,
    admissible_characters,
    aut0,
    pre_admissible,
    representation_kernel,
    verify_generator,
    _k_delta,
    _KernelPieces,
    _pre_admissible_set,
)
from isoprod.datum import AlgebraicDatum, VectorSpec, validate_datum
from isoprod.errors import ConsistencyError, TheoremViolationError, UnsupportedDatumError
from isoprod.examples import build_example, example1, example2a, example2b, example3, example4
from isoprod.groups import (
    AbelianGroup,
    PackedCharacters,
    Subgroup,
    direct_product,
    product_element,
)
from isoprod.search import SearchSpec, survey

# The package exports the function ``aut0`` under the submodule's name.
aut0_module = importlib.import_module("isoprod.aut0")
groups_module = importlib.import_module("isoprod.groups")


def triple(datum, cube, exps1, exps2, exps3):
    g = datum.group
    return product_element(cube, [g.element(exps1), g.element(exps2),
                                  g.element(exps3)])


def thirds(psi):
    """The three components of a character of ``G^3``, as exponent tuples."""
    r = len(psi.exponents) // 3
    return [psi.exponents[k * r:(k + 1) * r] for k in range(3)]


class TestPreAdmissible:
    def test_must_kill_kernel(self):
        d = example1()
        chi = d.group.character((1, 0, 0))  # nontrivial on K_1 = <e_1>
        assert not pre_admissible(d, 0, chi)

    def test_must_detect_a_stabilizer(self):
        d = example1()
        # Vanishes on K_1 and on sigma_1 = e_3: invisible to every fixed point.
        assert not pre_admissible(d, 0, d.group.character((0, 1, 0)))
        assert pre_admissible(d, 0, d.group.character((0, 0, 1)))

    def test_closed_under_negation(self):
        d = example1(2, 1, 3)
        for i in range(3):
            for elem in d.kernels[i].annihilator().elements():
                chi = d.group.character(elem.exponents)
                assert pre_admissible(d, i, chi) == pre_admissible(d, i, -chi)


    @pytest.mark.parametrize("factory", [lambda: example1(2, 1, 3), example2a,
                                         lambda: example2b(3, 2, 1), example4,
                                         lambda: example3(2)])
    def test_packed_set_matches_the_definition(self, factory):
        d = factory()
        codec = PackedCharacters(d.group)
        for i in range(3):
            packed = _pre_admissible_set(d, i, codec)
            assert [codec.character(x) for x in packed] == \
                [chi for chi in d.group.characters() if pre_admissible(d, i, chi)]


class TestAdmissibleSets:
    def test_smallest_case_single_character(self):
        first, second = admissible_characters(example1())
        assert len(first) == 1 and len(second) == 0
        assert thirds(first[0]) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_general_parameters_all_odd_exponents(self):
        # Membership rule for the first family: every component exponent odd.
        d = example1(2, 1, 3)
        first, second = admissible_characters(d)
        assert (len(first), len(second)) == (2 * 1 * 3, 0)
        for adm in first:
            c1, c2, c3 = thirds(adm)
            assert c1[0] == c2[1] == c3[2] == 0
            assert all(e % 2 == 1 for e in (c1[1], c1[2], c2[0], c2[2],
                                            c3[0], c3[1]))

    def test_second_family_membership_rule(self):
        # k1 odd, k2 even (and nonzero mod 2 n3 jointly), k3 arbitrary.
        d = example2a(2, 2, 2)
        first, second = admissible_characters(d)
        for adm in first:
            c1, c2, c3 = thirds(adm)
            assert c2[0] % 2 == 1        # phi_1 exponent odd
            assert c3[1] % 2 == 0        # phi_2 exponent even on slot 3
        assert second  # the second kind is nonempty for this family

    def test_singular_family_is_second_kind_only(self):
        for n in (1, 2, 3):
            first, second = admissible_characters(example3(n))
            assert first == []
            assert len(second) == 2 * n  # k_2, k_3 odd; two trivial-slot shapes
            shapes = {tuple(not any(c) for c in thirds(adm)) for adm in second}
            assert shapes == {(False, False, True), (False, True, False)}
            for adm in first + second:
                assert (adm in second) == any(not any(c) for c in thirds(adm))

    def test_non_cyclic_kernel_example_exact_set(self):
        first, second = admissible_characters(example4())
        got = sorted(thirds(adm) for adm in first + second)
        assert got == sorted([
            [(1, 0, 1, 0), (1, 0, 1, 0), (0, 0, 0, 0)],
            [(1, 1, 1, 0), (1, 0, 1, 0), (0, 1, 0, 0)],
            [(1, 1, 1, 0), (1, 0, 1, 1), (0, 1, 0, 1)],
        ])

    def test_components_sum_to_zero(self):
        for factory in (example1, example2a, example2b, example4,
                        lambda: example3(2)):
            d = factory()
            first, second = admissible_characters(d)
            for adm in first + second:
                total = sum((d.group.element(c) for c in thirds(adm)), d.group.zero)
                assert total.is_zero


class TestRepresentationKernel:
    @pytest.mark.parametrize("factory", [example1, example2a, example2b,
                                         example4, lambda: example3(3)])
    def test_kernel_chain(self, factory):
        d = factory()
        k30 = representation_kernel(d, 3, 0)
        k21 = representation_kernel(d, 2, 1)
        k20 = representation_kernel(d, 2, 0)
        k11 = representation_kernel(d, 1, 1)
        assert k30.basis == k21.basis
        assert k20.basis == k11.basis
        assert k30.is_subgroup_of(k20)

    def test_contains_k_delta(self):
        d = example1(2, 2, 3)
        kernel = representation_kernel(d, 3, 0)
        assert _k_delta(d).is_subgroup_of(kernel)

    def test_unsupported_summand(self):
        with pytest.raises(ValueError):
            representation_kernel(example1(), 1, 0)

    @pytest.mark.parametrize("n", [2, 4])
    def test_equals_the_listing_on_both_routes(self, n):
        # example1 n=2 lists (64 pairs) and n=4 reads the classes (1,024
        # pairs, see TestClassRoute); either way the kernel is that of the
        # listed characters.
        d = example1(n, n, n)
        for p, q in ((3, 0), (2, 1), (2, 0), (1, 1)):
            assert representation_kernel(d, p, q) == listed_kernel(d, p, q)

    def test_large_datum_lists_nothing(self, monkeypatch):
        calls = Counter()
        for name in ("admissible_characters", "_pre_from_classes"):
            TestOneEnumeration().spy(monkeypatch, calls, name)
        d = example1(8, 8, 8)
        orders = [representation_kernel(d, p, q).order for p, q in ((3, 0), (2, 0))]
        assert calls == {}
        assert orders == [2 ** 26, 2 ** 36]


class TestKDelta:
    @pytest.mark.parametrize("name,params", EXAMPLE_LADDER + ORACLE_EXAMPLES)
    def test_equals_the_product_plus_the_diagonal(self, name, params):
        # One subgroup of the stacked rows, with the same generators in the
        # same order as the sum of the two subgroups.
        d = build_example(name, params)
        reference = product_subgroup(list(d.kernels)).sum(diagonal_subgroup(d.group, 3))
        k_delta = _k_delta(d)
        assert k_delta == reference
        assert k_delta.generators == reference.generators


class TestOneEnumeration:
    def spy(self, monkeypatch, calls, name):
        real = getattr(aut0_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(aut0_module, name, wrapper)

    def test_aut0_enumerates_and_builds_k_delta_once(self, monkeypatch):
        # K Delta_G enters as K's image on the slice, in ``_KernelPieces``;
        # the subgroup of G^3 is never formed.
        calls = Counter()
        for name in ("admissible_characters", "_KernelPieces", "_k_delta"):
            self.spy(monkeypatch, calls, name)
        result = aut0(example1())
        assert calls == {"admissible_characters": 1, "_KernelPieces": 1}
        quotient, generators = reference_quotient(example1())
        assert result.invariant_factors == quotient.invariant_factors
        assert [g.exponents for g in result.generators] == generators

    def test_lone_call_goes_through_the_memo(self):
        # Without ``classes`` they come from the class lattice, and the work
        # is filed in the memo under the A_i bases like any other caller's,
        # on the listing route too: the counts and the spans of the listed
        # characters, not the characters.
        d = example2b()
        pieces = _KernelPieces(d)
        result = aut0(d, kernel_pieces=pieces)
        key = tuple(aut0_module._class_lattice(d, i).rows for i in range(3))
        assert list(pieces.memo) == [key]
        first, second = admissible_characters(d)
        assert pieces.memo[key] == aut0_module._Solved(
            (len(first), len(second)), aut0_module._admissible_span(d.group, first + second),
            aut0_module._admissible_span(d.group, second))
        assert pieces.lattice(pieces.memo[key].span30)[1] is result.generators
        assert aut0(d, kernel_pieces=pieces) == result and len(pieces.memo) == 1

    @pytest.mark.parametrize("factory", [example2b, lambda: example1(8, 8, 8)])
    def test_memo_hit_lists_nothing(self, factory, monkeypatch):
        # A second call on the same classes and pieces reads the memo: no
        # listing and no pre-admissible set, whichever route the miss took.
        d = factory()
        pieces = _KernelPieces(d)
        classes = [aut0_module._class_lattice(d, i) for i in range(3)]
        result = aut0(d, kernel_pieces=pieces, classes=classes)
        calls = Counter()
        for name in ("admissible_characters", "_pre_from_classes", "_admissible_from_classes"):
            self.spy(monkeypatch, calls, name)
        assert aut0(d, kernel_pieces=pieces, classes=classes) == result
        assert calls == {}

    def test_aut0_keeps_the_k_delta_check(self, monkeypatch):
        d = example1()
        # Sum-zero and nonzero on K_1 = <(1,0,0)> in the first slot, so its
        # kernel misses K Delta_G.
        bogus = direct_product([d.group] * 3).character((1, 0, 0) + (-1, 0, 0) + (0, 0, 0))
        monkeypatch.setattr(aut0_module, "admissible_characters",
                            lambda datum, pre=None: ([bogus], []))
        with pytest.raises(ConsistencyError, match=r"\(3,0\) kernel"):
            aut0(d)


class TestClassRoute:
    """Above ``LISTING_PAIRS`` pairs ``aut0`` reads its counts and span off
    the classes instead of listing the admissible characters."""

    def test_the_rule_splits_the_examples(self):
        pairs = [aut0_module._listing_pairs([
            aut0_module._class_lattice(d, i) for i in range(3)])
            for d in (example1(), example1(2, 2, 2), example1(4, 4, 4), example1(8, 8, 8))]
        assert pairs == [4, 64, 1024, 16384]
        assert pairs[1] <= aut0_module.LISTING_PAIRS < pairs[2]

    def test_large_datum_lists_nothing(self, monkeypatch):
        calls = Counter()
        TestOneEnumeration().spy(monkeypatch, calls, "admissible_characters")
        d = example1(8, 8, 8)
        pieces = _KernelPieces(d)
        result = aut0(d, kernel_pieces=pieces)
        assert calls["admissible_characters"] == 0
        assert result.admissible_counts == (512, 0)
        assert list(result.invariant_factors) == [2, 2]
        # Filed under the A_i bases.
        (key, solved), = pieces.memo.items()
        assert key == tuple(aut0_module._class_lattice(d, i).rows for i in range(3))
        assert pieces.lattice(solved.span30)[1] is result.generators
        assert aut0(d, kernel_pieces=pieces) == result and len(pieces.memo) == 1

    def test_aut0_keeps_the_k_delta_check(self, monkeypatch):
        d = example1(8, 8, 8)
        real = aut0_module._admissible_from_classes
        # The row (c_2, c_3) of the sum-zero character ((-1,0,0), (1,0,0), 0),
        # nonzero on K_1 = <(1,0,0)> in the first slot, so its kernel misses
        # K Delta_G.
        bogus = (1, 0, 0, 0, 0, 0)

        def with_bogus_row(group, classes):
            counts, span30, span20 = real(group, classes)
            return counts, aut0_module.row_hermite([bogus, *span30], 6), span20

        monkeypatch.setattr(aut0_module, "_admissible_from_classes", with_bogus_row)
        with pytest.raises(ConsistencyError, match=r"\(3,0\) kernel"):
            aut0(d)


class TestExampleAut0:
    def test_first_family_all_parameters(self):
        for n1, n2, n3 in itertools.product((1, 2, 3), repeat=3):
            d = example1(n1, n2, n3)
            r, (q, generators) = aut0(d), reference_quotient(d)
            cube = q.numerator.ambient
            assert [g.exponents for g in r.generators] == generators
            assert r.status is Aut0Status.PROVEN
            assert list(r.invariant_factors) == [2, 2]
            a = triple(d, cube, (0, n2, 0), (n1, 0, 0), (0, 0, 0))
            b = triple(d, cube, (0, n2, 0), (0, 0, n3), (0, 0, 0))
            assert verify_generator(d, a) and verify_generator(d, b)
            assert cosets_generate(q, [a, b])
            assert not q.denominator.contains(a - b)

    def test_second_family_variant_a(self):
        for n1, n2, n3 in itertools.product((1, 2, 3), repeat=3):
            d = example2a(n1, n2, n3)
            r, (q, generators) = aut0(d), reference_quotient(d)
            cube = q.numerator.ambient
            assert [g.exponents for g in r.generators] == generators
            assert r.status is Aut0Status.PROVEN
            assert list(r.invariant_factors) == [2]
            gen = triple(d, cube, (0, n2, 0), (0, 0, 0), (0, 0, 0))
            assert verify_generator(d, gen)
            assert cosets_generate(q, [gen])

    def test_second_family_variant_b(self):
        # For n1 >= 3 the group is Z_2 generated by (e2^{n2}, e3^{n3}, 1).
        # At n1 = 2 the doubled branch element has order 2 in its quotient,
        # the slot-2 character exponents are only constrained mod 2, and a
        # second class (e2^{n2}, e1^2, 1) survives: the group is Z_2 x Z_2.
        for n1, n2, n3 in itertools.product((2, 3), (1, 2, 3), (1, 2, 3)):
            d = example2b(n1, n2, n3)
            r, (q, generators) = aut0(d), reference_quotient(d)
            cube = q.numerator.ambient
            assert [g.exponents for g in r.generators] == generators
            assert r.status is Aut0Status.PROVEN
            gen = triple(d, cube, (0, n2, 0), (0, 0, n3), (0, 0, 0))
            assert verify_generator(d, gen)
            if n1 == 2:
                assert list(r.invariant_factors) == [2, 2]
                extra = triple(d, cube, (0, n2, 0), (2, 0, 0), (0, 0, 0))
                assert verify_generator(d, extra)
                assert cosets_generate(q, [gen, extra])
            else:
                assert list(r.invariant_factors) == [2]
                assert cosets_generate(q, [gen])

    def test_singular_family(self):
        for n in (1, 2, 3):
            d = example3(n)
            r, (q, generators) = aut0(d), reference_quotient(d)
            cube = q.numerator.ambient
            assert [g.exponents for g in r.generators] == generators
            assert r.status is Aut0Status.NON_FREE_KERNEL_ONLY
            assert list(r.invariant_factors) == [2 * n]
            gen = triple(d, cube, (0, 0, 0), (1, 0, 0), (0, 0, 0))
            assert verify_generator(d, gen)
            assert cosets_generate(q, [gen])

    def test_non_cyclic_kernel_example(self):
        d = example4()
        r, (q, generators) = aut0(d), reference_quotient(d)
        cube = q.numerator.ambient
        assert r.status is Aut0Status.KERNEL_ONLY
        assert list(r.invariant_factors) == [2]
        gen = triple(d, cube, (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 0, 0))
        assert verify_generator(d, gen)
        assert cosets_generate(q, [gen])
        # The canonical representative differs but names the same coset.
        assert q.denominator.contains(r.generators[0] - gen)
        assert [g.exponents for g in r.generators] == generators


class TestNoSubgroupOfTheCube:
    """``aut0`` works in ``G^3 / Delta_G = G^2``: it forms no subgroup of
    ``G^3``, and each of its quotients, and the survey's, is of ``G^2`` or
    of a group of rank at most ``r`` (``G`` or a factor quotient)."""

    @pytest.mark.parametrize("run", ["example1(8,8,8)", "basis_r4_survey"])
    def test_aut0_forms_no_subgroup_of_the_cube(self, run, monkeypatch):
        d = example1(8, 8, 8)
        group = d.group if run == "example1(8,8,8)" else AbelianGroup((2, 2, 2))
        subgroups, quotients = [], []
        real_init, real_quotient = Subgroup.__init__, groups_module.subgroup_quotient

        def init(self, ambient, generators):
            subgroups.append(ambient.orders)
            real_init(self, ambient, generators)

        def quotient(a, b):
            quotients.append(a.ambient.orders)
            return real_quotient(a, b)

        monkeypatch.setattr(Subgroup, "__init__", init)
        for module in (groups_module, aut0_module):
            monkeypatch.setattr(module, "subgroup_quotient", quotient)
        if run == "example1(8,8,8)":
            assert list(aut0(d).invariant_factors) == [2, 2]
        else:
            basis = (((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))
            assert survey(SearchSpec(group_orders=(2, 2, 2), kernels=(basis,),
                                     max_branch=4)).count
        assert subgroups and group.orders * 3 not in subgroups
        assert group.orders * 2 in quotients
        assert all(orders == group.orders * 2 or len(orders) <= group.rank
                   for orders in quotients)


class TestCanonicalRepresentative:
    """Generators are the least representatives of their cosets among the
    triples with trivial third component: ``rep`` moves by
    ``(k1 - k3, k2 - k3, 1)`` with ``k_i`` in ``K_i``."""

    brute_minimum = staticmethod(brute_minimum)

    def test_random_small_kernels(self):
        rng = random.Random(31)
        for _ in range(40):
            group = random_group(rng, max_order=16)
            datum = SimpleNamespace(
                group=group, kernels=tuple(random_subgroup(rng, group) for _ in range(3)))
            cube = direct_product([group] * 3)
            rep = random_element(rng, cube)
            got = _KernelPieces(datum).canonical(rep)
            assert got.exponents == self.brute_minimum(datum, rep)

    def test_adjustment_subgroup_beyond_two_to_the_sixteen(self):
        # K_i = <e_i> of order 42: the triples (k1 - k3, k2 - k3, 0) of
        # K Delta_G number 42^3 = 74,088, and the least representative has
        # first coordinate 0.
        d = example1(21, 21, 21)
        cube = direct_product([d.group] * 3)
        rep = triple(d, cube, (5, 3, 1), (2, 7, 4), (1, 1, 1))
        got = _KernelPieces(d).canonical(rep)
        assert got.exponents == self.brute_minimum(d, rep)
        assert got.exponents[0] == 0


class TestStatuses:
    def test_trivial_by_rigidity(self):
        g = AbelianGroup([2])
        e = g.basis_element(0)
        # Unramified double covers of genus-2 bases: free, and every base
        # has genus >= 2, so rigidity applies.
        spec = VectorSpec(2, (), (e, g.zero, e, g.zero))
        d = AlgebraicDatum.build(g, [[], [], []], [spec, spec, spec])
        r = aut0(d)
        assert r.status is Aut0Status.TRIVIAL_BY_RIGIDITY
        assert r.order == 1
        assert r.generators == ()

    def test_unsupported_raises(self):
        g = AbelianGroup([2])
        e = g.basis_element(0)
        rational = VectorSpec(0, (e,) * 4, ())
        elliptic = VectorSpec(2, (e, e), (e, g.zero, e, g.zero))
        d = AlgebraicDatum.build(g, [[], [], []],
                                 [rational, elliptic, elliptic])
        with pytest.raises(UnsupportedDatumError):
            aut0(d)

    def test_order_divides_kernel_index(self):
        for factory in (example1, example2a, example4):
            d = factory()
            r = aut0(d)
            kernel, k_delta = representation_kernel(d, 3, 0), _k_delta(d)
            assert kernel.order % k_delta.order == 0
            assert r.order == kernel.order // k_delta.order


class TestVerifyGenerator:
    def test_rejects_non_member(self):
        d = example1()
        cube = direct_product([d.group] * 3)
        bad = triple(d, cube, (0, 1, 0), (0, 0, 0), (0, 0, 0))
        assert not verify_generator(d, bad)

    def test_accepts_k_delta(self):
        d = example1(2, 1, 3)
        for gen in _k_delta(d).generators:
            assert verify_generator(d, gen)
