"""Algebraic datum assembly, validation, invariants, and rigidity classes."""

from __future__ import annotations

import gc
import importlib
import random
import re
import types

import pytest

from conftest import EXAMPLE_LADDER, ORACLE_EXAMPLES, relabel_document
from isoprod.covering import stabilizer_union
from isoprod.datum import (
    AlgebraicDatum,
    RigidityClass,
    VectorSpec,
    invariants,
    rigidity_class,
    validate_datum,
)
from isoprod.docio import datum_document, parse_datum_document
from isoprod.errors import OverflowLimitError, SchemaError
from isoprod.examples import (
    _order_mod,
    build_example,
    example1,
    example2a,
    example2b,
    example3,
    example4,
)
from isoprod.groups import AbelianGroup, quotient_structure
from isoprod.hodge import eigendim_table
from isoprod.search import SearchSpec, _candidates


def two_torsion_datum(sigmas, orders=(2, 2, 2)):
    g = AbelianGroup(orders)
    e = [g.basis_element(i) for i in range(3)]
    specs = []
    for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
        specs.append(VectorSpec(1, (g.element(sigmas[i]),) * 2, (e[j], e[k])))
    return AlgebraicDatum.build(g, [[e[0]], [e[1]], [e[2]]], specs)


class TestBuild:
    def test_wrong_counts(self):
        g = AbelianGroup([2, 2, 2])
        with pytest.raises(SchemaError):
            AlgebraicDatum.build(g, [[g.basis_element(0)]], [])

    def test_refuses_two_generating_vectors(self):
        d = example1()
        kernels = [k.generators for k in d.kernels]
        with pytest.raises(SchemaError, match="expected 3 generating vectors, got 2"):
            AlgebraicDatum.build(d.group, kernels, d.raw_vectors[:2])

    def test_refuses_a_kernel_generator_of_another_group(self):
        d = example1()
        kernels = [k.generators for k in d.kernels]
        kernels[1] = [AbelianGroup([2, 2]).basis_element(0)]
        with pytest.raises(SchemaError, match="kernel 2 generator outside the ambient group"):
            AlgebraicDatum.build(d.group, kernels, d.raw_vectors)

    def test_refuses_a_vector_entry_of_another_group(self):
        d = example1()
        kernels = [k.generators for k in d.kernels]
        spec = d.raw_vectors[2]
        foreign = VectorSpec(spec.g_prime, spec.branch, (AbelianGroup([4]).zero, *spec.eta[1:]))
        with pytest.raises(SchemaError, match="vector 3 entry outside the ambient group"):
            AlgebraicDatum.build(d.group, kernels, (*d.raw_vectors[:2], foreign))

    def test_vectors_live_in_quotients(self):
        d = example1()
        for i in range(3):
            assert d.vectors[i].quotient_group.order == \
                d.group.order // d.kernels[i].order

    def test_stabilizer_preimage_contains_kernel(self):
        d = example1()
        for i in range(3):
            pre = d.stabilizer_preimage(i)
            assert all(k in pre for k in d.kernels[i].elements())


class TestValidation:
    def test_example_families_are_valid(self):
        for d in (example1(), example1(2, 1, 3), example2a(), example2b(),
                  example2b(3, 2, 1), example4()):
            report = validate_datum(d)
            assert report.ok
            assert report.irregularity == 3

    def test_example3_fails_freeness_only(self):
        for n in (1, 2, 3):
            report = validate_datum(example3(n))
            assert not report.freeness_ok
            assert report.minimality_ok and report.vectors_ok and report.all_genera_at_least_two
            g = AbelianGroup([2 * n] * 3)
            assert report.freeness_witness == g.element((0, n, n))

    def test_minimality_violation_detected(self):
        g = AbelianGroup([2, 2, 2])
        e = [g.basis_element(i) for i in range(3)]
        specs = [VectorSpec(1, (e[1], e[1]), (e[1], e[2])),
                 VectorSpec(1, (e[0], e[0]), (e[0], e[2])),
                 VectorSpec(1, (e[1], e[1]), (e[0], e[1]))]
        d = AlgebraicDatum.build(g, [[e[0]], [e[0]], [e[2]]], specs)
        report = validate_datum(d)
        assert not report.minimality_ok
        assert report.minimality_witness == (1, 2)

    def test_genera(self):
        assert validate_datum(example1()).genera == (3, 3, 3)
        # g_i = 1 + 2 n_j n_k (the quotient has order 4 n_j n_k).
        assert validate_datum(example1(2, 2, 2)).genera == (9, 9, 9)
        assert validate_datum(example1(2, 1, 3)).genera == (7, 13, 5)
        assert validate_datum(example2b()).genera == (3, 5, 5)
        assert validate_datum(example4()).genera == (5, 5, 3)


def _reaches(root, target) -> bool:
    """Whether ``target`` is reachable from ``root`` through object
    references, not counting classes, modules and functions."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


class TestFiledValues:
    """A datum keeps its report and its checked Chevalley-Weil classes from
    their first computation on."""

    def test_report_and_classes_are_filed(self):
        d = example1(2, 1, 3)
        assert validate_datum(d) is validate_datum(d)
        assert eigendim_table(d)._classes is eigendim_table(d)._classes

    def test_filed_values_do_not_refer_to_the_datum(self):
        d = example1(2, 1, 3)
        report, classes = validate_datum(d), eigendim_table(d)._classes
        assert _reaches(eigendim_table(d), d)
        assert not _reaches(report, d) and not _reaches(classes, d)


class TestFixingBound:
    """The stabilizer preimage lists ``|K_i| (1 + sum(m_j - 1))`` sums over
    the orders ``m_j`` of the distinct branch elements, which is
    ``|K_i| |stabilizer union|`` for example1's one distinct branch element
    per factor; a factor over ``MAX_FIXING`` is refused before any is listed.  The 2^40
    kernel of ``tests/test_cli.py`` runs in a child process under a memory
    limit, never here."""

    def test_bound_is_inclusive(self, monkeypatch):
        # A fresh datum for each bound: a datum keeps its first report.
        d = example1(4, 4, 4)
        most = max(k.order * len(stabilizer_union(v)) for k, v in zip(d.kernels, d.vectors))
        datum_module = importlib.import_module("isoprod.datum")
        monkeypatch.setattr(datum_module, "MAX_FIXING", most)
        assert validate_datum(d).ok
        monkeypatch.setattr(datum_module, "MAX_FIXING", most - 1)
        with pytest.raises(OverflowLimitError, match=f"exceeds the listing bound of {most - 1}"):
            validate_datum(example1(4, 4, 4))


def _reference_preimage(datum, i: int) -> frozenset:
    """The i-th stabilizer preimage element by element: the lift of every
    element of the stabilizer union plus every kernel element."""
    quotient, kernel = datum.quotients[i], datum.kernels[i]
    return frozenset(quotient.lift(s) + k for s in stabilizer_union(datum.vectors[i])
                     for k in kernel.elements())


def _unbranched_datum():
    """Z2^3 with the basis kernels and no branch element: each preimage is
    its kernel alone."""
    g = AbelianGroup((2, 2, 2))
    e = [g.basis_element(i) for i in range(3)]
    specs = [VectorSpec(1, (), (e[j], e[k])) for j, k in ((1, 2), (0, 2), (0, 1))]
    return AlgebraicDatum.build(g, [[e[0]], [e[1]], [e[2]]], specs)


def _relabelled_examples():
    """Every example family, ``example3`` (not free) at n = 1..4 among them,
    each as built and under three random relabellings, and a datum with no
    branch element."""
    yield _unbranched_datum()
    rng = random.Random("stabilizer-preimage")
    cases = EXAMPLE_LADDER + ORACLE_EXAMPLES + (("example3", {"n": 2}), ("example3", {"n": 3}))
    for name, params in cases:
        doc = datum_document(build_example(name, params))
        yield parse_datum_document(doc)
        for _ in range(3):
            yield parse_datum_document(relabel_document(doc, rng))


def _basis_r4_data():
    """Every candidate datum of Z2^3 with the basis kernel triple at r <= 4."""
    spec = SearchSpec(group_orders=(2, 2, 2), max_branch=4,
                      kernels=((((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),)),))
    for triple, branches in _candidates(spec, AbelianGroup(spec.group_orders)):
        yield triple.datum(branches)


class TestStabilizerPreimage:
    @pytest.mark.parametrize("data", [_relabelled_examples, _basis_r4_data],
                             ids=["examples_relabelled", "basis_r4"])
    def test_equals_the_lifted_stabilizer_union_plus_the_kernel(self, data):
        checked = 0
        for datum in data():
            for i in range(3):
                assert datum.stabilizer_preimage(i) == _reference_preimage(datum, i)
                checked += 1
        assert checked >= 3 * 40


class TestInvariants:
    def test_example1(self):
        inv = invariants(example1())
        assert inv.chi_structure_sheaf == -1
        assert inv.euler_number == -8
        assert inv.canonical_cube == 48
        assert inv.canonical_cube == -48 * inv.chi_structure_sheaf

    def test_example1_general_parameters(self):
        # genera 2n_i + 1, |G| = 8 n1 n2 n3: chi(O) = -n1 n2 n3.
        for params in ((2, 1, 1), (2, 2, 3), (3, 3, 3)):
            inv = invariants(example1(*params))
            n1, n2, n3 = params
            assert inv.chi_structure_sheaf == -n1 * n2 * n3
            assert inv.euler_number == -8 * n1 * n2 * n3

    def test_example4(self):
        inv = invariants(example4())
        assert inv.genera == (5, 5, 3)
        assert inv.chi_structure_sheaf == -(4 * 4 * 2) // 16
        assert inv.euler_number == -(8 * 8 * 4) // 16


class TestRigidityClass:
    def test_cyclic_kernels_with_elliptic_bases(self):
        assert rigidity_class(example1()) is RigidityClass.AUT0_COMPUTABLE
        assert rigidity_class(example3(2)) is RigidityClass.AUT0_COMPUTABLE

    def test_non_cyclic_kernel(self):
        assert rigidity_class(example4()) is RigidityClass.KERNEL_ONLY

    def test_higher_irregularity_is_rigid(self):
        g = AbelianGroup([2])
        e = g.basis_element(0)
        spec = VectorSpec(2, (e, e), (e, g.zero, e, g.zero))
        d = AlgebraicDatum.build(g, [[], [], []], [spec, spec, spec])
        assert rigidity_class(d) is RigidityClass.TRIVIAL_BY_RIGIDITY

    def test_rational_base_unsupported(self):
        g = AbelianGroup([2])
        e = g.basis_element(0)
        rational = VectorSpec(0, (e,) * 4, ())
        elliptic = VectorSpec(2, (e, e), (e, g.zero, e, g.zero))
        d = AlgebraicDatum.build(g, [[], [], []], [rational, elliptic, elliptic])
        assert rigidity_class(d) is RigidityClass.UNSUPPORTED

    def test_low_irregularity_unsupported(self):
        g = AbelianGroup([2])
        e = g.basis_element(0)
        spec = VectorSpec(1, (e, e), (e, g.zero))
        d = AlgebraicDatum.build(g, [[], [], []], [spec, spec, spec])
        # q = 3 here; drop one base genus to 0 to push q below 3.
        assert rigidity_class(d) is RigidityClass.AUT0_COMPUTABLE


class TestExampleConstructors:
    def test_example2b_rejects_n1_equal_1(self):
        with pytest.raises(SchemaError):
            example2b(1, 1, 1)

    def test_build_example_dispatch(self):
        assert build_example("example1", {"n": 2}).group.orders == (4, 4, 4)
        assert build_example("example3", {"n1": 2}).group.orders == (4, 4, 4)
        with pytest.raises(SchemaError):
            build_example("example3", {"n1": 1, "n2": 2})
        with pytest.raises(SchemaError):
            build_example("example4", {"n1": 2})
        with pytest.raises(SchemaError):
            build_example("nope")
        # An unknown name, a boolean and a string are refused, not ignored
        # or read as integers.
        for params, message in (({"x": 5, "n": 2}, "unknown parameter 'x'"),
                                ({"n1": True}, "parameter n1 needs an integer, got True"),
                                ({"n1": "2"}, "parameter n1 needs an integer, got '2'")):
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                build_example("example1", params)

    def test_example3_uses_single_parameter(self):
        d = build_example("example3", {"n": 3})
        assert d.group.orders == (6, 6, 6)

    @pytest.mark.parametrize("orders", [(4, 2, 2), (2, 6, 4)])
    def test_order_mod_is_the_order_in_the_quotient(self, orders):
        # The families read each branch order in G / <e_i> without a Smith
        # form; the quotient structure is the reference.
        g = AbelianGroup(orders)
        for i in range(3):
            quotient = quotient_structure(g, g.subgroup([g.basis_element(i)]))
            for x in g.elements():
                assert _order_mod(x, i) == quotient.project(x).order
