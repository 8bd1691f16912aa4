"""Bounded enumeration: determinism, soundness, and frozen survey counts."""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import abelian_groups, group_elements
from isoprod.aut0 import (Aut0Result, _lifted, _pre_admissible_set, _verify_generators, aut0,
                          representation_kernel, verify_generator)
from isoprod.datum import validate_datum
from isoprod.errors import SchemaError, SearchCapError, TheoremViolationError
from isoprod.examples import example1
from isoprod.groups import AbelianGroup, PackedCharacters
from isoprod.hodge import _class_lattice
from isoprod.oracle import enumerate_subgroup
from test_acceptance import Budget
from isoprod.search import (
    SearchSpec,
    _branch_multisets,
    _candidates,
    _completions,
    _handle_count,
    enumerate_data,
    estimate_space,
    survey,
)

aut0_module = importlib.import_module("isoprod.aut0")
search_module = importlib.import_module("isoprod.search")

Z2_CUBED = SearchSpec(group_orders=(2, 2, 2))

# Kernel triples as generator exponent lists, <e_1>, <e_2>, <e_3>.
BASIS_KERNELS = (((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))
# The Z_2 x Z_4 family of TestSurvey.test_mixed_group_spot_family.
MIXED_KERNELS = ((), ((1, 0),), ((0, 2),))


def spec_with(**kw):
    base = dict(group_orders=(2, 2, 2), kernels=(BASIS_KERNELS,))
    base.update(kw)
    return SearchSpec(**base)


@functools.cache
def _basis_r4_valid() -> tuple:
    """The valid data of ``spec_with(max_branch=4)``, each as its kernel
    triple, branches, datum and lone-datum ``aut0`` result: built once for
    the tests that then spy on a survey of that space."""
    spec = spec_with(max_branch=4)
    out = []
    for triple, branches in _candidates(spec, AbelianGroup(spec.group_orders)):
        datum = triple.datum(branches)
        if validate_datum(datum).ok:
            out.append((triple, branches, datum, aut0(datum)))
    return tuple(out)


class TestSpecParsing:
    def test_from_document_defaults(self):
        spec = SearchSpec.from_document({"group": [2, 2]})
        assert spec == SearchSpec([2, 2]) == SearchSpec((2, 2))
        assert spec.group_orders == (2, 2)
        assert spec.kernels == "cyclic"
        assert spec.max_branch == 4

    def test_explicit_kernels(self):
        doc = {"group": [2, 2, 2],
               "kernels": [[[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]]]}
        spec = SearchSpec.from_document(doc)
        assert spec.kernels == (BASIS_KERNELS,)

    @pytest.mark.parametrize("doc", [
        {},
        {"group": [2], "g_primes": [1, 1]},
        {"group": [2, 2], "kernels": "everything"},
        {"group": [2, 2], "kernels": [[[[1, 0]], [[0, 1]]]]},
        {"group": [2, 2], "kernels": [[[[1]], [[0, 1]], [[0, 0]]]]},
        {"group": [2, 2], "max_branch": "lots"},
        {"group": [2, 2], "max_branches": 2},
        {"group": [1]},
        {"group": [1, 2]},
    ])
    def test_malformed_documents(self, doc):
        with pytest.raises(SchemaError):
            SearchSpec.from_document(doc)

    @pytest.mark.parametrize("orders, kwargs, message", [
        ((2, 2, 2), {"kernels": "basis"}, 'kernels must be "cyclic"'),
        ((2, 2), {"g_primes": (1, 1)}, "g_primes must list three base genera"),
        ((1, 2, 2), {}, '"group" entry 1 has order 1'),
        ((2, 2), {"max_branch": -1}, "max_branch must be at least 0, got -1"),
    ], ids=["kernels", "g_primes", "group", "max_branch"])
    def test_malformed_constructor_fields(self, orders, kwargs, message):
        with pytest.raises(SchemaError, match=f"^{message}"):
            SearchSpec(orders, **kwargs)


class TestBranchMultisets:
    @pytest.mark.parametrize("orders, max_r, bound", [
        ((2, 2), 4, None), ((2, 2, 2), 4, None), ((4, 2), 4, None), ((3, 3), 4, None),
        ((6,), 5, None), ((2, 4), 5, 2), ((8,), 5, None),
    ])
    def test_sorted_index_tuples_with_trivial_sum(self, orders, max_r, bound):
        quotient = AbelianGroup(orders)
        pool = [g for g in quotient.elements()
                if not g.is_zero and (bound is None or g.order <= bound)]
        expected = sorted(
            t for r in range(2, max_r + 1)
            for t in itertools.combinations_with_replacement(range(len(pool)), r)
            if sum((pool[i] for i in t), quotient.zero).is_zero)
        assert _branch_multisets(quotient, max_r, bound) == \
            [tuple(pool[i] for i in t) for t in expected]

    def test_many_branch_points_need_no_recursion(self):
        out = _branch_multisets(AbelianGroup([2]), 1500, None)
        assert [len(t) for t in out] == list(range(2, 1501, 2))


class TestEstimate:
    def test_monotone_in_branch_bound(self):
        small = estimate_space(spec_with(max_branch=2))
        large = estimate_space(spec_with(max_branch=4))
        assert 0 < small < large

    def test_cap_refusal(self):
        spec = spec_with(max_branch=4, cap=10)
        with pytest.raises(SearchCapError):
            list(enumerate_data(spec))
        with pytest.raises(SearchCapError):
            survey(spec)

    def test_enumeration_counts_handle_tuples_against_the_cap(self):
        # enumerate_data lists every completing handle tuple, so the 4^10
        # of the trivial kernel's factor are refused before the first datum;
        # the survey of the same space counts them (tests/test_cli.py).
        spec = SearchSpec.from_document({"group": [2, 2], "kernels": "cyclic",
                                         "g_primes": [1, 1, 5], "max_branch": 3})
        with pytest.raises(SearchCapError, match="handle tuples"):
            next(enumerate_data(spec))

    def test_huge_handle_power_is_refused_without_forming_it(self):
        # 4^(2 * 10^8) has 120 million digits; its bit length alone refuses.
        start = time.monotonic()
        with pytest.raises(SearchCapError, match="handle tuples"):
            next(enumerate_data(SearchSpec((2, 2), g_primes=(100_000_000, 1, 1),
                                           max_branch=2)))
        assert time.monotonic() - start < 1

    def test_handle_work_refusal_is_exact_near_the_cap(self):
        # Just below, at and above every work figure and power of two, the
        # refusal is that of the exact product, whichever test decides it.
        group = AbelianGroup([2, 2])
        triples = search_module._kernel_triples(SearchSpec((2, 2)), group)

        def works(g_primes):
            return [(group.order // k.order) ** (2 * g)
                    * search_module._multiset_bound(group.order // k.order, 3)
                    for kernels in triples for k, g in zip(kernels, g_primes)]

        for g_prime in range(6):
            g_primes = (g_prime, 1, 1)
            near = set(works(g_primes)) | {2 ** j for j in range(40)}
            for cap in {c + d for c in near for d in (-1, 0, 1)}:
                spec = SearchSpec((2, 2), g_primes=g_primes, max_branch=3, cap=cap)
                try:
                    search_module._check_handle_work(spec, group, triples)
                    refused = False
                except SearchCapError:
                    refused = True
                assert refused == (max(works(g_primes)) > cap), (g_prime, cap)

    def test_cyclic_refusal_decides_each_kernel_pair_once(self, monkeypatch):
        # Z_4^3 has 36 cyclic subgroups: 64 Hermite forms list them, 36 form
        # their annihilators and one per ordered pair decides minimality
        # (datum._kernel_checks), 1,396 in all; deciding it per kernel
        # triple formed 122,043.
        groups_module = importlib.import_module("isoprod.groups")
        real, calls = groups_module.row_hermite, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(groups_module, "row_hermite", counted)
        with pytest.raises(SearchCapError, match="estimated candidate space of 528704053248"):
            survey(SearchSpec.from_document(
                {"group": [4, 4, 4], "kernels": "cyclic", "max_branch": 2}))
        assert len(calls) <= 1500

    def test_estimate_dominates_branch_triples(self):
        # The estimate counts branch multisets before genus/validity cuts.
        spec = spec_with(max_branch=2)
        seen = set()
        for d in enumerate_data(spec):
            key = tuple(tuple(b.exponents for b in v.branch) for v in d.vectors)
            seen.add(key)
        assert len(seen) <= estimate_space(spec)


class TestEnumeration:
    def test_all_emitted_data_are_valid(self):
        for d in itertools.islice(enumerate_data(spec_with(max_branch=2)), 200):
            report = validate_datum(d)
            assert report.ok

    def test_no_free_data_with_three_branch_points(self):
        # Over Z_2^3 with the basis kernels an odd branch multiset forces a
        # common fixed point; r = 3 adds nothing to r = 2.
        count2 = sum(1 for _ in enumerate_data(spec_with(max_branch=2)))
        count3 = sum(1 for _ in enumerate_data(spec_with(max_branch=3)))
        assert count2 == count3 == 24192

    def test_contains_smallest_example_datum(self):
        target = example1()
        want = tuple(tuple(b.exponents for b in v.branch)
                     for v in target.vectors)
        found = False
        for d in enumerate_data(spec_with(max_branch=2)):
            got = tuple(tuple(b.exponents for b in v.branch) for v in d.vectors)
            if got == want and d.kernels == target.kernels:
                found = True
                break
        assert found

    def test_deterministic_order(self):
        spec = spec_with(max_branch=2)
        first = [tuple(x.exponents for v in d.vectors for x in v.branch + v.eta)
                 for d in itertools.islice(enumerate_data(spec), 50)]
        second = [tuple(x.exponents for v in d.vectors for x in v.branch + v.eta)
                  for d in itertools.islice(enumerate_data(spec), 50)]
        assert first == second


class TestBranchOrderBound:
    def test_bound_keeps_exactly_the_data_of_small_branch_orders(self):
        # The mixed Z_2 x Z_4 space at r <= 3 (138,240 data): a bound of 2
        # drops each datum with a branch element of order 4, and only those.
        space = dict(group_orders=(2, 4), kernels=(MIXED_KERNELS,), max_branch=3)
        small = sum(all(sigma.order <= 2 for v in d.vectors for sigma in v.branch)
                    for d in enumerate_data(SearchSpec(**space)))
        assert survey(SearchSpec(**space, branch_order_bound=2)).count == small == 27648


class TestSurvey:
    def test_fixed_kernel_survey_matches_enumeration(self):
        spec = spec_with(max_branch=2)
        result = survey(spec)
        assert result.count == sum(1 for _ in enumerate_data(spec))

    def test_basis_kernel_survey_frozen(self):
        result = survey(spec_with(max_branch=3))
        assert result.count == 24192
        assert result.histogram == {(): 10368, (2,): 10368, (2, 2): 3456}
        assert result.status_counts == {"Proven": 24192}

    def test_basis_kernel_survey_r4_frozen(self):
        result = survey(spec_with(max_branch=4))
        assert result.count == 423936
        assert result.histogram == {(): 313344, (2,): 82944, (2, 2): 27648}
        assert result.status_counts == {"Proven": 423936}

    def test_mixed_group_spot_family(self):
        # Over Z_2 x Z_4 every nontrivial cyclic kernel triple dies to lift
        # collisions; this trivial/cyclic mix is a nonempty family.
        kernels = (((), ((1, 0),), ((0, 2),)),)
        result = survey(SearchSpec(group_orders=(2, 4), kernels=kernels,
                                   max_branch=3))
        assert result.count == 138240
        assert result.histogram == {(): 124416, (2,): 13824}
        assert result.status_counts == {"Proven": 138240}

    def test_branch_order_bound_survey_frozen(self):
        # The family above with branch points of order <= 2 only: the bound
        # drops the order-4 elements of Z_4 from the branch pool.
        result = survey(SearchSpec.from_document(
            {"group": [2, 4], "kernels": [[[], [[1, 0]], [[0, 2]]]], "max_branch": 3,
             "branch_order_bound": 2}))
        assert result.count == 27648
        assert result.as_document()["histogram"] == {"[]": 13824, "[2]": 13824}

    def test_handle_tuples_once_per_generated_subgroup(self):
        # 117 branch multisets of this space do not generate their quotient.
        # The g' = 3 factor has 4,096 handle tuples; the survey counts the
        # completing ones and finds the first of them once per subgroup that
        # a branch generates and per g', instead of listing them per branch.
        budget = Budget(3)
        result = survey(SearchSpec.from_document(
            {"group": [2, 2], "kernels": "cyclic", "max_branch": 3, "g_primes": [1, 1, 3]}))
        assert result.count == 33896448
        assert result.as_document()["histogram"] == {"[]": 33896448}
        assert result.status_counts == {"TrivialByRigidity": 33896448}
        budget.check()

    @pytest.mark.parametrize("doc, count", [
        # 4^8 handle tuples for the trivial kernel's factor.
        ({"group": [2, 2], "g_primes": [1, 1, 4], "max_branch": 3}, 546103296),
        # p = 3.
        ({"group": [3, 3], "g_primes": [1, 1, 2], "max_branch": 2}, 2438802432),
        # The count multiplies over p = 2 and p = 3.
        ({"group": [6], "g_primes": [1, 2, 1], "max_branch": 3}, 165571776),
        # d_2 = 2: a branch generating <(0, 2)> leaves Z2 x Z2.
        ({"group": [2, 4], "g_primes": [2, 1, 1], "max_branch": 2}, 1265246208),
    ], ids=["z2^2_g114_r3", "z3^2_g112_r2", "z6_g121_r3", "z2xz4_g211_r2"])
    def test_handle_counts_frozen(self, doc, count):
        # Frozen from the code that listed and filtered every handle tuple.
        budget = Budget(3)
        result = survey(SearchSpec.from_document(dict(doc, kernels="cyclic")))
        assert result.as_document() == {"count": count, "histogram": {"[]": count},
                                        "statuses": {"TrivialByRigidity": count}}
        budget.check()

    def test_odd_group_survey_frozen(self):
        # Z3^3 with the basis kernel triple at r <= 3, the first frozen
        # survey over an odd group.  The estimate (3,796,416 branch triples)
        # is over the default cap, so the space is refused unless the spec
        # raises it; with the cap raised every datum is Proven trivial.
        doc = {"group": [3, 3, 3], "kernels": [[[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]]],
               "max_branch": 3}
        with pytest.raises(SearchCapError, match="estimated candidate space of 3796416"):
            survey(SearchSpec.from_document(doc))
        budget = Budget(3)
        result = survey(SearchSpec.from_document(dict(doc, cap=10_000_000)))
        assert result.as_document() == {"count": 774722880, "histogram": {"[]": 774722880},
                                        "statuses": {"Proven": 774722880}}
        budget.check()

    def test_extremal_witnesses_reverify(self):
        result = survey(spec_with(max_branch=3))
        assert {key for key, _, _ in result.extremal} == set(result.histogram)
        for _, datum, r in result.extremal:
            assert validate_datum(datum).ok
            assert list(aut0(datum).invariant_factors) == \
                list(r.invariant_factors)
            for gen in r.generators:
                assert verify_generator(datum, gen)

    def test_document_is_json_stable(self):
        doc1 = survey(spec_with(max_branch=2)).as_document()
        doc2 = survey(spec_with(max_branch=2)).as_document()
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
        assert doc1["histogram"] == {"[]": 10368, "[2]": 10368, "[2,2]": 3456}


class TestHandleCount:
    """Hall's count of the completing handle tuples and the lazy scan for
    the first of them, against closures by the oracle, which shares no
    Hermite code with them."""

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=2), st.data())
    def test_count_and_first_tuple_against_closure(self, g_prime, data):
        k = 2 * g_prime
        # |Q|^k <= 4096 keeps the listing small.
        quotient = data.draw(abelian_groups(max_order={0: 256, 2: 64, 4: 8}[k]))
        branch = tuple(data.draw(st.lists(group_elements(quotient), max_size=3)))
        # The closure reads only the generators, so no Subgroup (and no
        # Hermite basis) is built for it.
        complete = [eta for eta in itertools.product(quotient.elements(), repeat=k)
                    if len(enumerate_subgroup(SimpleNamespace(
                        ambient=quotient, generators=branch + eta))) == quotient.order]
        assert _handle_count(quotient, quotient.subgroup(branch), g_prime) == len(complete)
        first = next(_completions(quotient, branch, g_prime), None)
        assert first == min(complete, key=lambda eta: [e.exponents for e in eta],
                            default=None)


class TestFactorized:
    """The survey computes each check once per kernel triple or per factor
    branch; on every branch triple its verdicts equal the lone-datum ones."""

    SPACES = {
        "basis_r3": spec_with(max_branch=3),
        # 41 pre-admissible triples over 5 admissible spans: most lattice
        # work is read from a span that another triple built.
        "basis_r4": spec_with(max_branch=4),
        "z2xz4_mixed": SearchSpec(group_orders=(2, 4), kernels=(MIXED_KERNELS,),
                                  max_branch=3),
        # Equal quotients and equal branch multisets under two kernel
        # triples: a factor's pieces must stay with their kernel triple.
        "two_kernel_triples": spec_with(
            kernels=(BASIS_KERNELS, (((1, 1, 0),), ((0, 1, 0),), ((0, 0, 1),))),
            max_branch=3),
    }

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_factorized_verdicts_equal_the_lone_datum_ones(self, name):
        spec = self.SPACES[name]
        group = AbelianGroup(spec.group_orders)
        valid = invalid = 0
        for triple, branches in _candidates(spec, group):
            datum = triple.datum(branches)
            report = triple.validate(datum, branches)
            assert report == validate_datum(datum)
            # The survey's pre-check, read off the preimages alone.
            assert search_module._free(branches) == report.freeness_ok
            if not report.ok:
                invalid += 1
                continue
            valid += 1
            got, want = triple.aut0(datum, report, branches), aut0(datum)
            assert got.status == want.status
            assert got.invariant_factors == want.invariant_factors
            assert got.generators == want.generators
            assert got.admissible_counts == want.admissible_counts
            solved = triple._pieces.memo[tuple(b.classes.rows for b in branches)]
            assert _lifted(group, triple._pieces.kernel(solved.span30, (3, 0))) == \
                representation_kernel(datum, 3, 0)
        assert valid and invalid

    @staticmethod
    def spy(monkeypatch, calls, module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_enumeration_lists_each_branch_once(self, name, monkeypatch):
        # _candidates scans for the first completing handle tuple once per
        # subgroup that a branch generates and per g', as often as it calls
        # _handle_count; enumerate_data lists a branch's tuples once, however
        # many free triples hold the branch (basis_r4 scanned 628 times for
        # 30 branches when each triple listed them afresh).
        calls = Counter()
        self.spy(monkeypatch, calls, search_module, "_completions")
        self.spy(monkeypatch, calls, search_module, "_handle_count")
        self.spy(monkeypatch, calls, search_module._Branch, "__init__")
        assert sum(1 for _ in enumerate_data(self.SPACES[name]))
        assert calls["_completions"] <= calls["_handle_count"] + calls["__init__"]

    def test_aut0_lattice_work_once_per_admissible_span(self, monkeypatch):
        # At r <= 4 the 208 valid branch triples have 41 distinct
        # pre-admissible triples (at r <= 3 all 14 are distinct) but only 5
        # distinct (3,0) kernels.  The kernel is the annihilator of the
        # admissible span and determines it by duality, so the survey builds
        # one kernel, quotient and set of generators per kernel.
        spec = spec_with(max_branch=4)
        codec = PackedCharacters(AbelianGroup(spec.group_orders))
        valid, pre_triples, kernels = 0, set(), set()
        for triple, _, datum, result in _basis_r4_valid():
            valid += 1
            bases = tuple(k.basis for k in triple.kernels)
            pre = tuple(tuple(_pre_admissible_set(datum, i, codec)) for i in range(3))
            pre_triples.add((bases, pre))
            kernels.add((bases, representation_kernel(datum, 3, 0)))

        calls = Counter()
        self.spy(monkeypatch, calls, search_module, "aut0")
        # One Hermite dual per kernel formed.
        self.spy(monkeypatch, calls, aut0_module, "_hermite_dual")
        self.spy(monkeypatch, calls, aut0_module, "subgroup_quotient")
        survey(spec)
        assert calls["aut0"] == valid == 208
        assert len(pre_triples) == 41
        assert calls["_hermite_dual"] == calls["subgroup_quotient"] == len(kernels) == 5

    def test_survey_validates_only_free_triples(self, monkeypatch):
        # 792 of the 1,000 branch triples are not free.  The survey rejects
        # them from the factor preimages, so it builds and validates a datum
        # only for the 208 free ones (1,000 when every triple was validated),
        # and each of those is valid and gets aut0.
        calls = Counter()
        self.spy(monkeypatch, calls, search_module, "validate_datum")
        self.spy(monkeypatch, calls, search_module, "aut0")
        survey(spec_with(max_branch=4))
        assert calls["validate_datum"] == calls["aut0"] == 208

    def test_survey_walks_each_factor_branch_once(self, monkeypatch):
        # verify_generator's pre-admissible sets come from the walk over
        # Ann(K_i); the survey walks each factor branch of a datum with
        # generators once (18 branches) instead of three times per generator
        # check (240 walks).
        spec = spec_with(max_branch=4)
        used = set()
        for triple, branches, _, result in _basis_r4_valid():
            if result.generators:
                used.update((triple, i, b) for i, b in enumerate(branches))

        calls = Counter()
        self.spy(monkeypatch, calls, aut0_module, "_factor_walk")
        survey(spec)
        assert calls["_factor_walk"] == len(used) == 18

    def test_survey_enumerates_once_per_datum_with_generators(self, monkeypatch):
        # aut0 lists once per memo miss, that is once per distinct triple of
        # A_i (41 among the 208 valid data; 208 listings when every aut0 call
        # listed).  The re-check of generators lists from the walked sets
        # once per distinct walked sets and generators within a kernel
        # triple: 8 among the 64 data with generators (64 listings when
        # every datum was re-listed).  The listings read one pre-admissible
        # set per factor and distinct A_i.
        spec = spec_with(max_branch=4)
        codec = PackedCharacters(AbelianGroup(spec.group_orders))
        data = _basis_r4_valid()
        valid, with_generators = len(data), sum(bool(r.generators) for *_, r in data)
        bases = {tuple(_class_lattice(datum, i).rows for i in range(3)) for _, _, datum, _ in data}
        rechecks = {(tuple(k.basis for k in triple.kernels),
                     tuple(tuple(_pre_admissible_set(datum, i, codec)) for i in range(3)),
                     tuple(g.exponents for g in result.generators))
                    for triple, _, datum, result in data if result.generators}

        calls = Counter()
        self.spy(monkeypatch, calls, aut0_module, "admissible_characters")
        self.spy(monkeypatch, calls, aut0_module, "_pre_from_classes")
        survey(spec)
        assert (valid, with_generators, len(bases), len(rechecks)) == (208, 64, 41, 8)
        assert calls["admissible_characters"] == len(bases) + len(rechecks) == 49
        assert calls["_pre_from_classes"] == len({(i, a[i]) for a in bases for i in range(3)})

    def test_recheck_refuses_a_wrong_generator_on_verified_walked_sets(self, monkeypatch):
        # The re-check keeps a verdict per walked sets and generators, so a
        # datum whose walked sets were verified with other generators is
        # listed again: a wrong generator planted there must still stop the
        # survey.
        codec = PackedCharacters(AbelianGroup((2, 2, 2)))
        real = search_module._KernelTriple.aut0
        verified, planted = {}, []

        def planting(triple, datum, report, branches):
            result = real(triple, datum, report, branches)
            if not result.generators:
                return result
            walked = tuple(tuple(_pre_admissible_set(datum, i, codec)) for i in range(3))
            if walked not in verified:
                verified[walked] = result.generators
                return result
            kernel = representation_kernel(datum, 3, 0)
            wrong = next(g for g in kernel.ambient.elements() if not kernel.contains(g))
            generators = result.generators[:-1] + (wrong,)
            assert generators != verified[walked]
            planted.append(generators)
            return Aut0Result(result.status, result.invariant_factors, generators,
                              result.admissible_counts)

        monkeypatch.setattr(search_module._KernelTriple, "aut0", planting)
        with pytest.raises(TheoremViolationError, match="re-verification"):
            survey(spec_with(max_branch=4))
        assert len(planted) == 1


class TestWalkedSets:
    """The survey's re-check (``_verify_generators``) with the walk's
    pre-admissible sets passed in gives the verdict that
    ``verify_generator`` gives when it walks itself."""

    def test_extremal_generators_and_an_element_outside_the_kernel(self):
        result = survey(spec_with(max_branch=3))
        checked = 0
        for _, datum, r in result.extremal:
            codec = PackedCharacters(datum.group)
            walked = [_pre_admissible_set(datum, i, codec) for i in range(3)]
            for gen in r.generators:
                assert _verify_generators(datum, [gen], walked) is \
                    verify_generator(datum, gen) is True
                checked += 1
            kernel = representation_kernel(datum, 3, 0)
            outside = next(g for g in kernel.ambient.elements() if not kernel.contains(g))
            assert _verify_generators(datum, [outside], walked) is \
                verify_generator(datum, outside) is False
        assert checked
