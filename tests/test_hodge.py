"""Hodge diamonds: frozen example values, symmetries, and isotypic pieces."""

from __future__ import annotations

import pytest

from isoprod import hodge as hodge_module
from isoprod.aut0 import _k_delta, pre_admissible
from isoprod.covering import cw_dimension
from isoprod.datum import AlgebraicDatum, VectorSpec, invariants, validate_datum
from isoprod.errors import ConsistencyError
from isoprod.examples import example1, example2a, example2b, example3, example4
from isoprod.groups import AbelianGroup, PackedCharacters
from isoprod.hodge import HodgeDiamond, eigendim_table, hodge_diamond, isotypic_decomposition
from isoprod.search import SearchSpec, _candidates


def _non_elliptic_data():
    """One datum per branch triple of the ``g' = (2,1,1)`` basis-kernel space
    over Z2^3 at ``r <= 4``, valid or not."""
    spec = SearchSpec(group_orders=(2, 2, 2), max_branch=4, g_primes=(2, 1, 1),
                      kernels=((((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),)),))
    return [triple.datum(branches)
            for triple, branches in _candidates(spec, AbelianGroup(spec.group_orders))]


def _with_first_vector(d: AlgebraicDatum, spec: VectorSpec) -> AlgebraicDatum:
    return AlgebraicDatum.build(d.group, [k.generators for k in d.kernels],
                                [spec, *d.raw_vectors[1:]])


class TestFrozenDiamonds:
    # (h10, h20, h30, h11, h21) per example, from the eigenspace convolution
    # and independently confirmed by the brute-force oracle in test_oracle.
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
            for chi in table.support(i):
                assert ann.contains(chi.as_element())

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
        for i in range(3):
            q = d.quotients[i]
            ann = list(d.kernels[i].annihilator().elements())
            assert len(table.tables[i]) == len(ann)
            for elem in ann:
                chi = d.group.character(elem.exponents)
                induced = q.group.character(
                    chi.pairing(gen).scaled_numerator(n)
                    for gen, n in zip(q.generators, q.group.orders))
                assert table.dimension(i, chi) == cw_dimension(d.vectors[i], induced)
            assert table._pre[i] == [codec.pack(chi.exponents) for chi in d.group.characters()
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
            assert table.dimension(i, d.group.trivial_character) == 1


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
                assert psi.pairing(gen).is_zero

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
        # The action is not free; the convolution still computes the
        # invariant forms and stays symmetric.
        hd = hodge_diamond(example3(1))
        hd.check_symmetries()
        assert hd[1, 0] == 3
