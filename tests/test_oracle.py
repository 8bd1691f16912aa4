"""The brute-force oracle agrees with the structured implementations."""

from __future__ import annotations

import ast
import importlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import (ORACLE_EXAMPLES, abelian_groups, diagonal_subgroup, random_element,
                      random_group, random_subgroup, relabel_document, subgroups, valid_data)
from isoprod import docio, oracle
from isoprod.aut0 import admissible_characters, aut0, representation_kernel, _k_delta, _lifted
from isoprod.cli import _Analysis
from isoprod.datum import validate_datum
from isoprod.errors import ConsistencyError, OracleScaleError
from isoprod.examples import build_example, example1, example2a, example2b, example3, example4
from isoprod.groups import AbelianGroup, direct_product, subgroup_quotient
from isoprod.hodge import hodge_diamond
from isoprod.oracle import (
    ElementSet,
    brute_hodge,
    brute_kernel,
    brute_quotient,
    enumerate_subgroup,
)

datum_module = importlib.import_module("isoprod.datum")


class TestEnumerateSubgroup:
    def test_trivial_subgroup(self):
        g = AbelianGroup([4, 2])
        closed = enumerate_subgroup(g.subgroup(()))
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


    def test_cap_enforced(self):
        g = AbelianGroup([1 << 10, 1 << 10])
        with pytest.raises(OracleScaleError):
            enumerate_subgroup(g.full_subgroup(), cap=100)

    @staticmethod
    def generator_lists(rng, group):
        """Random generators, then the same list with a repeat, a sum of
        two of them (already in the closure) and zero mixed in."""
        gens = [random_element(rng, group) for _ in range(rng.randint(0, 4))]
        extra = [group.zero]
        if gens:
            extra += [rng.choice(gens), sum(gens[:2], group.zero)]
        mixed = gens + extra
        rng.shuffle(mixed)
        return [gens, mixed]

    def test_matches_structured_order(self):
        # The closure lists exactly the elements of the Hermite box.
        rng = random.Random(20240818)
        groups = [random_group(rng, max_rank=3, max_order=200) for _ in range(40)]
        groups += [direct_product([g, g, g])
                   for g in (AbelianGroup(o) for o in ([2], [3], [4], [2, 2], [4, 2]))]
        for g in groups:
            for gens in self.generator_lists(rng, g):
                h = g.subgroup(gens)
                want = tuple(sorted(e.exponents for e in h.elements()))
                assert len(want) == h.order
                assert enumerate_subgroup(h).members == want

    def test_cap_between_the_first_cyclic_layer_and_the_order(self):
        g = AbelianGroup([32, 32])
        h = g.full_subgroup()
        with pytest.raises(OracleScaleError):
            enumerate_subgroup(h, cap=100)
        assert len(enumerate_subgroup(h, cap=32 * 32)) == 32 * 32


def spy_on_add(monkeypatch) -> list[int]:
    """Count the oracle codec's packed additions: one per ``add`` and one
    per member of a coset that ``shift`` moves."""
    calls = [0]
    add, shift = oracle._Codec.add, oracle._Codec.shift

    def counted_add(codec, a, b):
        calls[0] += 1
        return add(codec, a, b)

    def counted_shift(codec, codes, x):
        moved = shift(codec, codes, x)
        calls[0] += len(moved)
        return moved

    monkeypatch.setattr(oracle._Codec, "add", counted_add)
    monkeypatch.setattr(oracle._Codec, "shift", counted_shift)
    return calls


class TestWorkBounds:
    def test_closure_makes_at_most_two_additions_per_element(self, monkeypatch):
        rng = random.Random(20261019)
        calls = spy_on_add(monkeypatch)
        cubes = [direct_product([g, g, g])
                 for g in (AbelianGroup(o) for o in ([2, 2], [4, 2], [3]))]
        for g in [random_group(rng) for _ in range(20)] + cubes:
            h = random_subgroup(rng, g, max_gens=10)
            calls[0] = 0
            closed = enumerate_subgroup(h)
            assert calls[0] <= 2 * len(closed)
            assert (calls[0] > 0) == (len(closed) > 1)

    @pytest.mark.parametrize("factory", [example1, example4,
                                         lambda: example2b(2, 2, 1)])
    def test_hodge_makes_at_most_one_addition_per_pair(self, monkeypatch, factory):
        d = factory()
        calls = spy_on_add(monkeypatch)
        brute_hodge(d)
        assert 0 < calls[0] <= d.group.order ** 2


class TestBruteQuotient:
    def test_known_example(self):
        g = AbelianGroup([4, 4])
        h = g.subgroup([g.element((2, 2))])
        assert list(brute_quotient(g, h)) == [2, 4]

    def test_trivial_and_full(self):
        g = AbelianGroup([2, 6])
        assert list(brute_quotient(g, g.full_subgroup())) == []
        assert list(brute_quotient(g, g.subgroup(()))) == [2, 6]

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
            brute_quotient(g, g.subgroup(()), cap=100)

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
            brute_quotient(g.subgroup(()), b)


class TestElementSetNumerator:
    """An explicit ``ElementSet`` numerator, such as the closure that the
    CLI shares between its kernel and quotient checks, gives the factors of
    the ``Subgroup`` it closes."""

    @pytest.mark.parametrize("name,params", ORACLE_EXAMPLES)
    def test_fast_kernel_over_k_delta(self, name, params):
        d = build_example(name, params)
        kernel, k_delta = _lifted(d.group, _Analysis(d).kernel((3, 0))), _k_delta(d)
        assert brute_quotient(enumerate_subgroup(kernel), k_delta) == \
            brute_quotient(kernel, k_delta)

    @given(abelian_groups(), st.data())
    def test_matches_the_subgroup_numerator(self, group, data):
        top = data.draw(subgroups(group))
        bottom = top & data.draw(subgroups(group))
        assert brute_quotient(enumerate_subgroup(top), bottom) == brute_quotient(top, bottom)

    def test_denominator_outside_numerator_raises(self):
        g = AbelianGroup([4, 2])
        b = g.subgroup([g.element((0, 1))])
        for top in (g.subgroup([g.element((1, 0))]), g.subgroup(())):
            with pytest.raises(ConsistencyError):
                brute_quotient(enumerate_subgroup(top), b)


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
        # example2b's group Z4 x Z2 x Z2, and a datum (not valid) over Z4 x Z2.
        mixed = docio.parse_datum_document({
            "group": [4, 2],
            "kernels": [[[1, 0]], [[0, 1]], [[2, 1]]],
            "vectors": [{"g_prime": 1, "branch": [], "eta": [[1, 0], [0, 1]]}] * 3})
        for d in (example2b(), mixed):
            g = d.group
            cube = direct_product([g, g, g])
            for _ in range(5):
                chars = [cube.character(random_element(rng, cube).exponents)
                         for _ in range(rng.randint(1, 3))]
                expected = sorted(x.exponents for x in cube.elements()
                                  if all(psi.pairing(x) == 0 for psi in chars))
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

    @pytest.mark.parametrize("doc", [
        docio.datum_document(example2b(2, 2, 1)),
        # Z7 covers of P^1 with branch types (1,2,4), (1,1,5), (1,3,3): the
        # eigentables differ from factor to factor and from their negations.
        {"group": [7], "kernels": [[], [], []],
         "vectors": [{"g_prime": 0, "branch": [[1], [2], [4]], "eta": []},
                     {"g_prime": 0, "branch": [[1], [1], [5]], "eta": []},
                     {"g_prime": 0, "branch": [[1], [3], [3]], "eta": []}]},
    ], ids=["example2b(2,2,1)", "z7_not_free"])
    def test_every_factor_order(self, doc):
        # A sign slip in a Kunneth sum (b - a for a - b, a + b for -(a + b))
        # leaves the diamond of example2b(2,2,1), and of every free datum
        # tried, unchanged: where the stabilizer preimages of the three
        # factors meet trivially, the sums mostly factor.  The Z7 datum is
        # not free and pins every role.
        for order in itertools.permutations(range(3)):
            d = docio.parse_datum_document({
                "group": doc["group"],
                "kernels": [doc["kernels"][i] for i in order],
                "vectors": [doc["vectors"][i] for i in order]})
            assert brute_hodge(d).h == hodge_diamond(d).h


def brute_free(datum) -> bool:
    """Does no nonzero element of ``G`` fix a point on all three curves?  By
    a scan of ``G``: on the i-th curve an element fixes a point when its
    image in ``G/K_i`` is a multiple of a branch element."""
    fixing = []
    for quotient, vector in zip(datum.quotients, datum.vectors):
        multiples = {quotient.group.zero}
        for sigma in vector.branch:
            x = sigma
            while not x.is_zero:
                multiples.add(x)
                x = x + sigma
        fixing.append(multiples)
    return not any(all(q.project(g) in m for q, m in zip(datum.quotients, fixing))
                   for g in datum.group.elements() if not g.is_zero)


def oracles_agree(datum, rng):
    """The fast paths agree with the oracles on a datum drawn valid by
    construction, and a relabelling of the datum keeps what they compute."""
    report = validate_datum(datum)
    assert report.minimality_ok and report.vectors_ok and report.all_genera_at_least_two
    assert report.freeness_ok == brute_free(datum)
    diamond = hodge_diamond(datum).h
    assert diamond == brute_hodge(datum).h
    factors = aut0(datum).invariant_factors
    first, second = admissible_characters(datum)
    assert factors == brute_quotient(brute_kernel(datum, first + second), _k_delta(datum))
    relabelled = docio.parse_datum_document(relabel_document(docio.datum_document(datum), rng))
    assert validate_datum(relabelled).freeness_ok == report.freeness_ok
    assert hodge_diamond(relabelled).h == diamond
    assert aut0(relabelled).invariant_factors == factors


class TestRandomValidData:
    """``oracles_agree`` on the draws of ``conftest.valid_data``."""

    draws = (valid_data(), st.randoms(use_true_random=False))

    def test_oracles_agree(self):
        given(*self.draws)(oracles_agree)()

    def test_planted_wrong_freeness_verdict_fails(self, monkeypatch):
        # Every datum is declared free; most draws are not.  The first
        # failing draw is enough, so nothing is shrunk or stored.
        monkeypatch.setattr(datum_module, "_common_fixed_point", lambda group, fixing: None)
        check = settings(phases=[Phase.generate], database=None)(given(*self.draws)(oracles_agree))
        with pytest.raises(AssertionError):
            check()


class TestElementSet:
    def test_membership_and_elements(self):
        g = AbelianGroup([4])
        s = ElementSet.of(g, [g.element((2,)), (0,), (2,)])
        assert s.members == ((0,), (2,))
        assert g.element((2,)) in s
        assert g.element((1,)) not in s
        assert [e.exponents for e in s.elements()] == [(0,), (2,)]


def codec_groups():
    """Groups and their cubes, with the trivial group and a mixed ``Z4+Z2+Z2``."""
    base = st.one_of(st.just(AbelianGroup([])), st.just(AbelianGroup([4, 2, 2])),
                     abelian_groups())
    return st.builds(lambda g, cube: direct_product([g, g, g]) if cube else g,
                     base, st.booleans())


class TestCodec:
    """The oracle's packed codec against the tuple arithmetic it encodes."""

    @given(codec_groups(), st.data())
    def test_matches_tuple_arithmetic(self, group, data):
        orders = group.orders
        codec = oracle._Codec(orders)
        tuples = st.tuples(*(st.integers(0, n - 1) for n in orders))
        x, y = data.draw(tuples), data.draw(tuples)
        coset = data.draw(st.lists(tuples, max_size=8))
        a, b = codec.pack(x), codec.pack(y)
        assert codec.unpack(a) == x
        assert (a < b) == (x < y) and (a == b) == (x == y)
        assert codec.unpack(codec.add(a, b)) == tuple(
            (p + q) % n for p, q, n in zip(x, y, orders))
        assert codec.unpack(codec.neg(a)) == tuple(-p % n for p, n in zip(x, orders))
        packed = [codec.pack(z) for z in coset]
        assert codec.shift(packed, a) == [codec.add(z, a) for z in packed]

    @given(codec_groups().filter(lambda g: g.order <= 4096))
    def test_every_lists_the_group_in_order(self, group):
        codec = oracle._Codec(group.orders)
        assert list(map(codec.unpack, codec.every())) == list(
            itertools.product(*(range(n) for n in group.orders)))


def _defined_in(name: str) -> set[str]:
    # ``isoprod.aut0`` is also the name of a function, so import by path.
    module = importlib.import_module(name)
    return {key for key, value in vars(module).items()
            if getattr(value, "__module__", None) == name}


def test_oracle_shares_no_code_with_the_fast_paths():
    # The oracle checks the Hermite/Smith lattice, the packed characters
    # and the Chevalley-Weil classes, so it may use none of them.
    fast = ({"PackedCharacters", "row_hermite", "smith_normal_form", "subgroup_quotient",
             "_hermite_dual", "quotient_structure"}
            | _defined_in("isoprod.aut0") | (_defined_in("isoprod.hodge") - {"HodgeDiamond"}))
    assert {"admissible_characters", "_class_lattice", "hodge_diamond"} <= fast
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(n for a in node.names for n in (a.name, a.asname) if n)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert names & fast == set()
