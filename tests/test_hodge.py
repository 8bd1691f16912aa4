"""Hodge diamonds: frozen example values, symmetries, class counting
against the convolution, and isotypic pieces."""

from __future__ import annotations

import functools
import itertools
import json

import pytest

from conftest import EXAMPLE_LADDER, ORACLE_EXAMPLES, run_limited
from isoprod import hodge as hodge_module
from isoprod import docio
from isoprod.aut0 import (_admissible_from_classes, _admissible_span, _k_delta, _span_kernel,
                          admissible_characters, pre_admissible)
from isoprod.cli import build_report
from isoprod.covering import cw_dimension
from isoprod.datum import AlgebraicDatum, VectorSpec, invariants, validate_datum
from isoprod.errors import ConsistencyError
from isoprod.examples import build_example, example1, example2a, example2b, example3, example4
from isoprod.groups import AbelianGroup, PackedCharacters, Subgroup, _coset_key, direct_product
from isoprod.hodge import HodgeDiamond, eigendim_table, hodge_diamond, isotypic_decomposition
from isoprod.search import SearchSpec, _candidates


# The spaces below are built once per session: several test classes walk
# the same data, and no test changes them.
@functools.cache
def _non_elliptic_data() -> tuple[AlgebraicDatum, ...]:
    """One datum per branch triple of the ``g' = (2,1,1)`` basis-kernel space
    over Z2^3 at ``r <= 4``, valid or not."""
    spec = SearchSpec(group_orders=(2, 2, 2), max_branch=4, g_primes=(2, 1, 1),
                      kernels=((((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),)),))
    return tuple(triple.datum(branches)
                 for triple, branches in _candidates(spec, AbelianGroup(spec.group_orders)))


@functools.cache
def _valid_data(spec: SearchSpec) -> tuple[AlgebraicDatum, ...]:
    data = (triple.datum(branches)
            for triple, branches in _candidates(spec, AbelianGroup(spec.group_orders)))
    return tuple(d for d in data if validate_datum(d).ok)


BASIS_KERNELS = (((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))
# The frozen survey spaces of test_search and test_acceptance: r <= 4 holds
# the r <= 3 one, and the two Z2 x Z4 kernel triples hold the single one.
FROZEN_SPACES = {
    "z2^3_basis_r4": SearchSpec(group_orders=(2, 2, 2), kernels=(BASIS_KERNELS,),
                                max_branch=4),
    "z2xz4_mixed_r3": SearchSpec(group_orders=(2, 4),
                                 kernels=((((), ((1, 0),), ((0, 2),))),
                                          (((), ((0, 2),), ((1, 2),)))),
                                 max_branch=3),
    "z2^2_cyclic_g113": SearchSpec.from_document(
        {"group": [2, 2], "kernels": "cyclic", "max_branch": 3, "g_primes": [1, 1, 3]}),
}
# Z7 covers of P^1 with branch types (1,2,4), (1,1,5), (1,3,3): not free;
# the eigentables differ from factor to factor and from their negations.
Z7_DOCUMENT = {"group": [7], "kernels": [[], [], []],
               "vectors": [{"g_prime": 0, "branch": [[1], [2], [4]], "eta": []},
                           {"g_prime": 0, "branch": [[1], [1], [5]], "eta": []},
                           {"g_prime": 0, "branch": [[1], [3], [3]], "eta": []}]}
SUMMANDS = ((3, 0), (2, 1), (2, 0), (1, 1))


def _z7_orders() -> list[AlgebraicDatum]:
    return [docio.parse_datum_document({
        "group": Z7_DOCUMENT["group"],
        "kernels": [Z7_DOCUMENT["kernels"][i] for i in order],
        "vectors": [Z7_DOCUMENT["vectors"][i] for i in order]})
        for order in itertools.permutations(range(3))]


def _with_first_vector(d: AlgebraicDatum, spec: VectorSpec) -> AlgebraicDatum:
    return AlgebraicDatum.build(d.group, [k.generators for k in d.kernels],
                                [spec, *d.raw_vectors[1:]])


class TestFrozenDiamonds:
    # (h10, h20, h30, h11, h21) per example, from the eigenspace tables and
    # independently confirmed by the brute-force oracle in test_oracle.
    CASES = [
        (example1, (3, 3, 2, 9, 12)),
        (example2a, (3, 4, 3, 11, 15)),
        (example2b, (3, 3, 3, 9, 15)),
        (example4, (3, 4, 4, 11, 18)),
    ]

    @pytest.mark.parametrize("factory,expected", CASES)
    def test_values(self, factory, expected):
        hd = hodge_diamond(factory())
        h10, h20, h30, h11, h21 = expected
        assert hd[1, 0] == h10
        assert hd[2, 0] == h20
        assert hd[3, 0] == h30
        assert hd[1, 1] == h11
        assert hd[2, 1] == h21

    def test_example1_full_diamond(self):
        hd = hodge_diamond(example1())
        assert hd.h == (
            (1, 3, 3, 2),
            (3, 9, 12, 3),
            (3, 12, 9, 3),
            (2, 3, 3, 1),
        )


class TestDiamondStructure:
    @pytest.mark.parametrize("factory", [example1, example2a, example2b,
                                         example4, lambda: example1(2, 1, 3)])
    def test_symmetries_and_betti(self, factory):
        hd = hodge_diamond(factory())
        hd.check_symmetries()
        assert hd.betti(0) == 1
        assert hd.betti(1) == 2 * hd[1, 0]
        assert hd.betti(1) == 6  # q = 3 throughout the suite
        assert sum((-1) ** k * hd.betti(k) for k in range(7)) == hd.euler_number()

    def test_given_report_is_not_recomputed(self, monkeypatch):
        d = example1(2, 1, 3)
        report = validate_datum(d)
        expected = hodge_diamond(d).h

        def refuse(datum):
            raise AssertionError("validate_datum called again")

        monkeypatch.setattr("isoprod.hodge.validate_datum", refuse)
        assert hodge_diamond(d, report=report).h == expected

    @pytest.mark.parametrize("factory", [example1, example2a, example2b, example4])
    def test_matches_product_formulas(self, factory):
        d = factory()
        hd = hodge_diamond(d)
        inv = invariants(d)
        assert hd.chi_structure_sheaf() == inv.chi_structure_sheaf
        assert hd.euler_number() == inv.euler_number
        assert inv.canonical_cube == -48 * inv.chi_structure_sheaf

    def test_bad_diamond_rejected(self):
        broken = [[0] * 4 for _ in range(4)]
        broken[0][0] = broken[3][3] = 1
        broken[1][0] = 5
        with pytest.raises(ConsistencyError):
            HodgeDiamond(tuple(tuple(r) for r in broken)).check_symmetries()


class TestEigendimTables:
    @pytest.mark.parametrize("factory", [example1, example2a, example4,
                                         lambda: example3(2)])
    def test_support_and_sums(self, factory):
        d = factory()
        table = eigendim_table(d)
        report = validate_datum(d)
        for i in range(3):
            ann = d.kernels[i].annihilator()
            assert sum(table.tables[i].values()) == report.genera[i]
            for chi in table.tables[i]:
                assert ann.contains(d.group.element(chi.exponents))

    @pytest.mark.parametrize("factory", [
        example1, lambda: example1(2, 1, 3), example2a, lambda: example2a(1, 1, 2),
        example2b, lambda: example2b(3, 2, 1), lambda: example3(1), lambda: example3(2),
        example4])
    def test_integer_walk_matches_the_per_character_reference(self, factory):
        self.check_walk(factory())

    def test_integer_walk_matches_the_reference_on_non_elliptic_bases(self):
        data = _non_elliptic_data()
        assert len(data) > 100 and all(d.vectors[0].g_prime == 2 for d in data)
        for d in data:
            self.check_walk(d)

    @staticmethod
    def check_walk(d):
        """Every annihilator character's dimension equals ``cw_dimension`` of
        the character it induces on ``G/K_i``; the packed pre-admissible
        sets equal ``pre_admissible``."""
        table = eigendim_table(d)
        codec = PackedCharacters(d.group)
        den = d.group.exponent
        for i in range(3):
            q = d.quotients[i]
            ann = list(d.kernels[i].annihilator().elements())
            assert len(table.tables[i]) == len(ann)
            for elem in ann:
                chi = d.group.character(elem.exponents)
                # chi kills K_i, so on a generator of order n in G/K_i it
                # takes an n-th root of unity: k / n = v / e.
                scaled = [divmod(chi.pairing(gen) * n, den)
                          for gen, n in zip(q.generators, q.group.orders)]
                assert not any(r for _, r in scaled)
                induced = q.group.character(k for k, _ in scaled)
                assert table.tables[i][chi] == cw_dimension(d.vectors[i], induced)
            classes = table._classes[i]
            assert hodge_module._pre_from_classes(codec, classes) == \
                [codec.pack(chi.exponents) for chi in d.group.characters()
                 if pre_admissible(d, i, chi)]

    @pytest.mark.parametrize("broken", ["product_relation", "rational_base"])
    def test_walk_rejects_malformed_vectors(self, broken):
        d = example1()
        raw = d.raw_vectors[0]
        spec = (VectorSpec(1, raw.branch[:1], raw.eta) if broken == "product_relation"
                else VectorSpec(0, raw.branch, ()))
        with pytest.raises(ConsistencyError):
            eigendim_table(_with_first_vector(d, spec))

    def test_trivial_character_gives_base_genus(self):
        d = example1()
        table = eigendim_table(d)
        for i in range(3):
            assert table.tables[i][d.group.trivial_character] == 1


class TestClassCounting:
    """``hodge_diamond`` counts over Chevalley-Weil classes; the Kunneth
    convolution of the full tables is the independent reference."""

    @staticmethod
    def check(d: AlgebraicDatum) -> None:
        table = eigendim_table(d)
        hd = hodge_diamond(d, table)
        codec = PackedCharacters(d.group)
        convolved = [sum(dim for _, dim in hodge_module._kunneth_pieces(codec, table._packed, *pq))
                     for pq in SUMMANDS]
        assert [hd[pq] for pq in SUMMANDS] == convolved
        assert hd[1, 0] == sum(v.g_prime for v in d.vectors)

    @pytest.mark.parametrize("name", sorted(FROZEN_SPACES))
    def test_frozen_survey_spaces(self, name):
        data = _valid_data(FROZEN_SPACES[name])
        assert data
        for d in data:
            self.check(d)

    @pytest.mark.parametrize("name,params", EXAMPLE_LADDER)
    def test_example_ladder(self, name, params):
        self.check(build_example(name, params))

    def test_non_elliptic_space(self):
        # g' = (2,1,1): the class of the trivial character of the first
        # factor has f = g' - 1 = 1, so the pair terms carry it.
        data = _class_data("non_elliptic")
        assert len(data) == 208
        assert all(eigendim_table(d)._classes[0].dims[0] == 1 for d in data)
        for d in data:
            self.check(d)

    def test_tables_that_are_not_negation_invariant(self):
        # Every order of the Z7 factors: each slot's sign is pinned.
        data = _z7_orders()
        assert not any(self.negation_invariant(d) for d in data)
        for d in data:
            self.check(d)

    @staticmethod
    def negation_invariant(d: AlgebraicDatum) -> bool:
        codec = PackedCharacters(d.group)
        return all(t == {codec.neg(x): dim for x, dim in t.items()}
                   for t in eigendim_table(d)._packed)

    @pytest.mark.parametrize("factory", [example1, example2b, example4,
                                         lambda: example3(2), lambda: _z7_orders()[1]])
    def test_classes_are_the_cosets_of_the_branch_annihilator(self, factory):
        d = factory()
        table = eigendim_table(d)
        codec = PackedCharacters(d.group)
        for i, classes in enumerate(table._classes):
            lifts = [d.quotients[i].lift(sigma) for sigma in d.vectors[i].branch]
            a = d.group.subgroup(d.kernels[i].generators + tuple(lifts)).annihilator()
            assert Subgroup(d.group, [d.group.element(r) for r in classes.rows]) == a
            assert classes.order == a.order
            assert len(classes.reps) * a.order == d.kernels[i].annihilator().order
            assert not any(classes.reps[0])
            # Each character's class is its representative's coset of A_i,
            # and its dimension is the class's f plus [chi = 0].
            for x, dim in table._packed[i].items():
                chi = d.group.element(codec.unpack(x))
                hits = [c for c, rep in enumerate(classes.reps)
                        if a.contains(chi - d.group.element(rep))]
                assert len(hits) == 1
                assert dim == classes.dims[hits[0]] + (0 if x else 1)

    def test_class_count_check_fires(self, monkeypatch):
        # A T_i basis that loses the branch lifts makes A_i all of Ann(K_i),
        # which the classes of the walk no longer cover.
        real = hodge_module.row_hermite
        monkeypatch.setattr(hodge_module, "row_hermite",
                            lambda rows, width: real(list(rows)[:width], width))
        with pytest.raises(ConsistencyError, match="Chevalley-Weil classes"):
            eigendim_table(example1())

    def test_no_convolution_in_the_diamond(self, monkeypatch):
        d = example1(2, 2, 2)
        table = eigendim_table(d)
        calls = []
        real = PackedCharacters.convolve

        def spy(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(PackedCharacters, "convolve", spy)
        hodge_diamond(d, table)
        assert calls == []
        # A report convolves once: the admissible enumeration.
        build_report(d, ("invariants", "hodge", "aut0", "kernels"))
        assert len(calls) == 1


CLASS_DATA = ("examples", "non_elliptic", "z7", *sorted(FROZEN_SPACES))


@functools.cache
def _class_data(name: str) -> tuple[AlgebraicDatum, ...]:
    """The ladder and oracle examples, the valid data of the ``g' = (2,1,1)``
    space, the six orders of the Z7 datum, or a frozen survey space."""
    if name == "examples":
        return tuple(build_example(n, p) for n, p in EXAMPLE_LADDER + ORACLE_EXAMPLES)
    if name == "non_elliptic":
        return tuple(d for d in _non_elliptic_data() if validate_datum(d).ok)
    if name == "z7":
        return tuple(_z7_orders())
    return _valid_data(FROZEN_SPACES[name])


class TestClassesWithoutWalk:
    """``eigendim_table`` reads its classes and pre-admissible sets off a box
    of class representatives; the walk over ``Ann(K_i)`` is the reference."""

    @pytest.mark.parametrize("name", CLASS_DATA)
    def test_classes_and_sets_match_the_walk(self, name):
        data = _class_data(name)
        assert data
        for d in data:
            self.check(d)

    @staticmethod
    def check(d: AlgebraicDatum) -> None:
        table = eigendim_table(d)
        codec = PackedCharacters(d.group)
        den = d.group.exponent
        for i, classes in enumerate(table._classes):
            values = hodge_module._factor_walk(d, i, codec)
            # Group the walk's characters by their coset of A_i: each coset
            # has one value vector, and distinct cosets have distinct ones.
            by_key: dict[tuple[int, ...], set] = {}
            for x, vals in values.items():
                by_key.setdefault(_coset_key(classes.rows, codec.unpack(x)), set()).add(vals)
            assert all(len(v) == 1 for v in by_key.values())
            assert len({v for vs in by_key.values() for v in vs}) == len(by_key)
            assert classes.order * len(by_key) == len(values)
            walk = {key: ((d.vectors[i].g_prime - 1) * den + sum(v)) // den
                    for key, (v,) in by_key.items()}
            assert not any(classes.reps[0])
            assert {_coset_key(classes.rows, rep): f
                    for rep, f in zip(classes.reps, classes.dims)} == walk
            pre = sorted(x for x, v in values.items() if any(v))
            assert hodge_module._pre_from_classes(codec, classes) == pre
            assert hodge_module._pre_from_classes(
                codec, hodge_module._class_lattice(d, i)) == pre

    @pytest.mark.parametrize("name", CLASS_DATA)
    def test_kernels_in_the_sum_zero_plane(self, name):
        for d in _class_data(name):
            cube = direct_product([d.group] * 3)
            first, second = admissible_characters(d)
            for characters, pq in ((first + second, (3, 0)), (second, (2, 0))):
                reference = cube.subgroup(
                    [cube.element(psi.exponents) for psi in characters]).annihilator()
                span = _admissible_span(cube, characters)
                assert _span_kernel(cube, span, _k_delta(d), pq) == reference

    @pytest.mark.parametrize("name", CLASS_DATA)
    def test_admissible_lists_are_sorted_characters_of_the_cube(self, name):
        # Each kind is a strictly increasing list of characters of G^3, and
        # every one vanishes on K Delta_G.
        for d in _class_data(name):
            cube = direct_product([d.group] * 3)
            k_delta = _k_delta(d).generators
            for characters in admissible_characters(d):
                keys = [psi.exponents for psi in characters]
                assert all(a < b for a, b in zip(keys, keys[1:]))
                for psi in characters:
                    assert psi.group == cube
                    assert all(psi.pairing(gen) == 0 for gen in k_delta)

    @pytest.mark.parametrize("name", CLASS_DATA + ("large",))
    def test_class_route_equals_the_listing(self, name):
        # The counts and both spans read off the classes equal those of the
        # listed characters, on every datum whatever route it takes; "large"
        # adds class-route examples with second-kind characters.
        data = _class_data(name) if name != "large" else (
            example2a(4, 4, 4), example2b(6, 3, 3), example1(5, 5, 5), example3(3))
        for d in data:
            cube = direct_product([d.group] * 3)
            first, second = admissible_characters(d)
            classes = [hodge_module._class_lattice(d, i) for i in range(3)]
            counts, span30, span20 = _admissible_from_classes(d.group, classes)
            assert counts == (len(first), len(second))
            assert span30 == _admissible_span(cube, first + second)
            assert span20 == _admissible_span(cube, second)

    @pytest.mark.parametrize("factory", [lambda: example1(2, 1, 3), example2b, example4])
    def test_branch_lifts_shifted_by_kernel_elements(self, factory):
        # Lifts that differ by elements of K_i span the same T_i and take the
        # same values on Ann(K_i), so the raw lifts serve as well as fresh ones.
        d = factory()
        specs = [VectorSpec(v.g_prime, tuple(b + k.generators[-1] for b in v.branch), v.eta)
                 for v, k in zip(d.raw_vectors, d.kernels)]
        shifted = AlgebraicDatum.build(d.group, [k.generators for k in d.kernels], specs)
        assert shifted.vectors == d.vectors
        assert all(hodge_module._branch_lifts(shifted, i) != hodge_module._branch_lifts(d, i)
                   for i in range(3))
        table, moved = eigendim_table(d), eigendim_table(shifted)
        assert moved._classes == table._classes
        assert moved._packed == table._packed
        assert hodge_diamond(shifted) == hodge_diamond(d)


class TestIsotypic:
    @pytest.mark.parametrize("pq", [(3, 0), (2, 1), (2, 0), (1, 1)])
    @pytest.mark.parametrize("factory", [example1, example2a, example4])
    def test_totals_and_k_delta_invariance(self, factory, pq):
        d = factory()
        pieces = isotypic_decomposition(d, *pq)
        hd = hodge_diamond(d)
        assert sum(dim for _, dim in pieces) == hd[pq]
        k_delta = _k_delta(d)
        for psi, dim in pieces:
            assert dim > 0
            # Characters of the quotient representation kill K Delta_G.
            for gen in k_delta.generators:
                assert psi.pairing(gen) == 0

    def test_unsupported_summand(self):
        with pytest.raises(ValueError):
            isotypic_decomposition(example1(), 0, 0)

    def test_example1_h30_pieces(self):
        # The single first-kind admissible character plus nothing else.
        pieces = isotypic_decomposition(example1(), 3, 0)
        nontrivial = [(psi, dim) for psi, dim in pieces
                      if not psi.is_trivial]
        assert len(nontrivial) == 1
        assert nontrivial[0][1] == 1
        assert nontrivial[0][0].exponents == (0, 1, 1, 1, 0, 1, 1, 1, 0)

    def test_given_report_skips_validation(self, monkeypatch):
        d = example2a()
        report = validate_datum(d)
        table = eigendim_table(d)
        real = hodge_module.validate_datum
        calls = []

        def spy(datum, *args, **kwargs):
            calls.append(datum)
            return real(datum, *args, **kwargs)

        monkeypatch.setattr(hodge_module, "validate_datum", spy)
        for pq in ((3, 0), (2, 1), (2, 0), (1, 1)):
            isotypic_decomposition(d, *pq, table=table, report=report)
        assert calls == []
        isotypic_decomposition(d, 3, 0, table=table)
        assert len(calls) == 1


class TestNonFree:
    def test_example3_diamond_is_consistent(self):
        # The action is not free; the class count still computes the
        # invariant forms and stays symmetric.
        hd = hodge_diamond(example3(1))
        hd.check_symmetries()
        assert hd[1, 0] == 3


class TestHugeClassCount:
    def test_each_listing_is_refused_under_a_memory_limit(self):
        # The datum of test_branch_element_of_huge_order_is_refused_under_a_time_limit,
        # parsed without validation: each factor has 2^40 Chevalley-Weil
        # classes, which the class lattice counts before it lists any.
        a = 2 ** 40
        doc = {"group": [a, 2], "kernels": [[[0, 1]], [], []],
               "vectors": [{"g_prime": 1, "branch": [[1, 0], [a - 1, 0]], "eta": [[0, 0], [0, 0]]},
                           {"g_prime": 1, "branch": [[1, 0], [a - 1, 0]], "eta": [[0, 1], [0, 0]]},
                           {"g_prime": 1, "branch": [[1, 0], [a - 1, 0]], "eta": [[0, 1], [0, 0]]}]}
        script = """
import json, sys
from isoprod import (admissible_characters, eigendim_table, hodge_diamond, loads,
                     representation_kernel)
from isoprod.errors import OverflowLimitError
datum = loads(sys.argv[1])
out = {}
for name, call in (("eigendim_table", eigendim_table), ("hodge_diamond", hodge_diamond),
                   ("admissible_characters", admissible_characters),
                   ("representation_kernel", lambda d: representation_kernel(d, 3, 0))):
    try:
        call(datum)
        out[name] = "returned"
    except OverflowLimitError as exc:
        out[name] = str(exc)
print(json.dumps(out))
"""
        proc = run_limited("-c", script, json.dumps(doc))
        assert proc.returncode == 0, proc.stderr
        refused = f"factor 1: {a} Chevalley-Weil classes exceed the listing bound of {2 ** 20}"
        assert json.loads(proc.stdout) == dict.fromkeys(
            ["eigendim_table", "hodge_diamond", "admissible_characters",
             "representation_kernel"], refused)
