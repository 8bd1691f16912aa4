"""CLI contract: exit codes, report content, and determinism."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import ORACLE_EXAMPLES, listed_kernel, run_fresh, run_limited, z2_classes_document
from isoprod import cli, docio
from isoprod.__main__ import main
from isoprod.aut0 import _KernelPieces, _lifted, aut0
from isoprod.cli import build_report
from isoprod.datum import AlgebraicDatum, VectorSpec, validate_datum
from isoprod.docio import datum_document, dumps
from isoprod.errors import ConsistencyError, TheoremViolationError
from isoprod.examples import build_example, example1, example2b, example3, example4
from isoprod.groups import AbelianGroup, Subgroup, subgroup_quotient
from isoprod.search import SearchSpec, survey

runner = CliRunner()


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(dumps(datum_document(example1())))
    return str(path)


@pytest.fixture
def example3_file(tmp_path):
    path = tmp_path / "ex3.json"
    path.write_text(dumps(datum_document(example3(2))))
    return str(path)


class TestExitCodes:
    def test_valid_datum_exits_zero(self, example1_file):
        result = runner.invoke(main, ["validate", example1_file])
        assert result.exit_code == 0
        assert "validation: ok" in result.output

    def test_invalid_datum_exits_one_with_report(self, example3_file):
        result = runner.invoke(main, ["validate", example3_file])
        assert result.exit_code == 1
        assert "validation: FAILED" in result.output
        assert "not free" in result.output

    def test_malformed_json_exits_two_without_report(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        result = runner.invoke(main, ["report", str(path)])
        assert result.exit_code == 2
        assert "error [document-schema]" in result.output
        assert "validation" not in result.output

    def test_schema_violation_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"group": [2], "kernels": [], "vectors": []}))
        result = runner.invoke(main, ["aut0", str(path)])
        assert result.exit_code == 2

    def test_order_one_group_entry_exits_two(self, tmp_path):
        doc = datum_document(example1())
        doc["group"] = [1] + doc["group"]
        for exps in doc["kernels"] + [v[key] for v in doc["vectors"]
                                      for key in ("branch", "eta")]:
            exps[:] = [[0] + e for e in exps]
        path = tmp_path / "order1.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["report", str(path)])
        assert result.exit_code == 2
        assert "error [document-schema]" in result.output
        assert '"group" entry 1 has order 1' in result.output
        assert "parent-mismatch" not in result.output

    NO_GENUS = {
        # No vector generates Z7, and Riemann-Hurwitz gives genus -6.
        "negative": ({"group": [7], "kernels": [[], [], []], "vectors": [
            {"g_prime": 0, "branch": [], "eta": []}] * 3}, [None, None, None],
            "gives the negative genus -6"),
        # Vector 1 breaks the product relation, and 2g-2 = 1 is odd.
        "odd": ({"group": [2, 2], "kernels": [[[1, 0]], [[0, 1]], [[1, 1]]], "vectors": [
            {"g_prime": 1, "branch": [[0, 1]], "eta": [[0, 1], [0, 1]]},
            {"g_prime": 1, "branch": [], "eta": [[1, 0], [1, 0]]},
            {"g_prime": 1, "branch": [], "eta": [[1, 0], [1, 0]]}]}, [None, 1, 1],
            "2g-2 = 1 is not an even integer"),
    }

    @pytest.mark.parametrize("case", ["negative", "odd"])
    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_vector_without_a_genus_exits_one(self, case, command, tmp_path):
        # The vector already fails its checks; the missing genus is one more
        # violation, not an internal error.
        doc, genera, violation = self.NO_GENUS[case]
        path = tmp_path / "no_genus.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, "--format", "json", str(path)])
        assert result.exit_code == 1, result.output
        report = json.loads(result.stdout)
        assert report["validation"]["genera"] == genera
        assert any(violation in v for v in report["validation"]["vectors"][0])

    def test_invalid_datum_outside_the_theorem_exits_one(self, tmp_path):
        # Genera (3, 1, 1): not a valid datum, so its quotient of order 16
        # is reported, not held against the theorem's bound of 4.
        doc = {"group": [2, 2], "kernels": [[], [], []],
               "vectors": [{"g_prime": 1, "branch": [[1, 0], [1, 0]], "eta": [[1, 0], [0, 1]]},
                           {"g_prime": 1, "branch": [], "eta": [[1, 0], [0, 1]]},
                           {"g_prime": 1, "branch": [], "eta": [[1, 0], [0, 1]]}]}
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["report", str(path), "--format", "json"])
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["validation"]["ok"] is False
        assert report["validation"]["genera"] == [3, 1, 1]
        assert report["aut0"]["status"] == "Proven"
        assert report["aut0"]["invariant_factors"] == [2, 2, 2, 2]

    # Vector 1 breaks the product relation: Chevalley-Weil gives no integral
    # dimensions, so there is no Hodge diamond, but the datum is reported.
    BROKEN_VECTOR = {
        "group": [2, 2, 2], "kernels": [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]],
        "vectors": [{"g_prime": 1, "branch": [[0, 0, 1]], "eta": [[0, 1, 0], [0, 0, 1]]},
                    {"g_prime": 1, "branch": [[1, 0, 0], [1, 0, 0]],
                     "eta": [[1, 0, 0], [0, 0, 1]]},
                    {"g_prime": 1, "branch": [[0, 1, 0], [0, 1, 0]],
                     "eta": [[1, 0, 0], [0, 1, 0]]}]}

    @pytest.mark.parametrize("args", [["report", "--format", "json"], ["report"],
                                      ["hodge", "--format", "json"], ["hodge"],
                                      ["report", "--oracle", "--format", "json"]])
    def test_invalid_vector_has_no_diamond_and_exits_one(self, tmp_path, args):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(self.BROKEN_VECTOR))
        result = runner.invoke(main, [*args, str(path)])
        assert result.exit_code == 1
        assert "error" not in result.output and "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        if "json" not in args:
            assert "hodge diamond: undefined" in result.output
            return
        report = json.loads(result.output)
        assert report["validation"]["vectors"][0] and not report["validation"]["ok"]
        assert report["hodge"] is None
        if "--oracle" in args:
            assert report["oracle"]["hodge"].startswith("skipped: ")
            assert report["oracle"]["kernel"] == report["oracle"]["quotient"] == "agree"
        if "report" in args:
            assert report["aut0"]["status"] == "Proven"

    def test_missing_file_is_a_usage_error(self):
        result = runner.invoke(main, ["report", "no-such-file.json"])
        assert result.exit_code == 2


class TestReport:
    def test_text_report_sections(self, example1_file):
        result = runner.invoke(main, ["report", example1_file])
        assert result.exit_code == 0
        for needle in ("group: Z2 x Z2 x Z2", "validation: ok",
                       "invariants: chi(O) = -1  e = -8  K^3 = 48",
                       "hodge diamond:", "aut0: status Proven",
                       "group: Z2 + Z2 (order 4)"):
            assert needle in result.output

    def test_json_report_is_machine_readable(self, example1_file):
        result = runner.invoke(main, ["report", example1_file, "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["validation"]["ok"] is True
        assert doc["aut0"]["invariant_factors"] == [2, 2]
        assert doc["hodge"][3][0] == 2

    def test_byte_determinism(self, example1_file):
        a = runner.invoke(main, ["report", example1_file, "--format", "json"])
        b = runner.invoke(main, ["report", example1_file, "--format", "json"])
        assert a.output == b.output

    def test_oracle_cross_check(self, example1_file):
        result = runner.invoke(main, ["report", example1_file, "--oracle"])
        assert result.exit_code == 0
        assert "oracle hodge: agree" in result.output
        assert "oracle kernel: agree" in result.output
        assert "oracle quotient: agree" in result.output

    def test_oracle_at_the_hodge_cap_finishes(self):
        # |G| = 64 is the Hodge oracle's cap, so all three checks run on a
        # 262,144-element cube.  The datum is not free, so the report ends
        # with the validation-failure exit code 1, not with an error.
        sample = Path(__file__).resolve().parents[1] / "docs" / "sample_example3_n2.json"
        start = time.monotonic()
        result = runner.invoke(main, ["report", str(sample), "--oracle"])
        elapsed = time.monotonic() - start
        assert result.exit_code == 1
        assert "action is not free" in result.output
        for check in ("hodge", "kernel", "quotient"):
            assert f"oracle {check}: agree" in result.output
        assert elapsed < 60, f"report --oracle took {elapsed:.1f}s"

    def test_oracle_skips_when_too_large(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(dumps(datum_document(example1(3, 3, 3))))
        result = runner.invoke(main, ["hodge", str(path), "--oracle"])
        assert result.exit_code == 0
        assert "oracle hodge: skipped" in result.output


class TestSizeBound:
    """``|G| <= 2^62`` bounds the groups a user gives, not the cube ``G^3``
    built from them: example1 at n=64 (``|G| = 2^21``, ``|G^3| = 2^63``)
    reports, and an input group over the bound exits 2."""

    N64_AUT0 = {"status": "Proven", "invariant_factors": [2, 2], "order": 4,
                "generators": [[0, 64, 0, 0, 0, 64, 0, 0, 0], [0, 64, 0, 64, 0, 0, 0, 0, 0]],
                "admissible_first": 262144, "admissible_second": 0}

    @pytest.mark.parametrize("command, doc", [
        ("report", {"group": [2 ** 32, 2 ** 32], "kernels": [[], [], []],
                    "vectors": [{"g_prime": 1, "branch": [], "eta": [[1, 0], [0, 1]]}] * 3}),
        ("search", {"group": [2 ** 32, 2 ** 32]}),
    ])
    def test_input_group_over_the_bound_exits_two(self, command, doc, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error [arithmetic-overflow]: group order "
                                        "18446744073709551616 exceeds the supported scale")

    def test_example_over_the_bound_exits_two(self):
        result = runner.invoke(main, ["example", "example1", "--param", "n=1048576"])
        assert result.exit_code == 2
        assert "error [arithmetic-overflow]" in result.stderr

    def test_cube_over_the_bound_reports(self):
        start = time.monotonic()
        result = runner.invoke(main, ["example", "example1", "--param", "n=64",
                                      "--format", "json"])
        assert time.monotonic() - start < 30
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["hodge"][3][0] == 262145
        assert doc["aut0"] == self.N64_AUT0

    def test_cube_over_the_bound_skips_every_oracle(self):
        result = runner.invoke(main, ["example", "example1", "--param", "n=64",
                                      "--oracle", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["aut0"] == self.N64_AUT0
        assert set(doc["oracle"]) == {"hodge", "kernel", "quotient"}
        assert all(v.startswith("skipped:") for v in doc["oracle"].values())


class TestSubcommands:
    def test_kernels_lists_all_four_summands(self, example1_file):
        result = runner.invoke(main, ["kernels", example1_file])
        assert result.exit_code == 0
        for key in ("h30", "h21", "h20", "h11"):
            assert f"kernel on {key}:" in result.output

    def test_kernels_enumerates_once_per_kernel(self, monkeypatch):
        aut0_module = importlib.import_module("isoprod.aut0")
        real = aut0_module.admissible_characters
        calls = []

        def spy(datum, *args, **kwargs):
            calls.append(datum)
            return real(datum, *args, **kwargs)

        monkeypatch.setattr(aut0_module, "admissible_characters", spy)
        sample = Path(__file__).resolve().parent.parent / "docs" / "sample_example1.json"
        result = runner.invoke(main, ["kernels", str(sample)])
        assert result.exit_code == 0
        assert len(calls) == 1

    def test_hodge_subcommand(self, example1_file):
        result = runner.invoke(main, ["hodge", example1_file, "--format", "json"])
        doc = json.loads(result.output)
        assert doc["hodge"][1][1] == 9
        assert "aut0" not in doc


def _spy_everywhere(monkeypatch, module_name: str, name: str, calls: Counter,
                    first_args: list | None = None) -> None:
    """Count the calls of ``module.name`` under every isoprod name bound to it,
    and keep their first arguments in ``first_args`` if it is given."""
    real = getattr(importlib.import_module(module_name), name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        if first_args is not None:
            first_args.append(args[0])
        return real(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name == "isoprod" or mod_name.startswith("isoprod."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, wrapper)


def _spy_kernel_formation(monkeypatch, calls: Counter) -> None:
    """Count the kernels that ``_KernelPieces.kernel`` forms: each is one
    Hermite dual of a span, its memo hits none."""
    aut0_module = importlib.import_module("isoprod.aut0")
    real = aut0_module._hermite_dual

    def wrapper(*args):
        calls["kernel"] += 1
        return real(*args)

    monkeypatch.setattr(aut0_module, "_hermite_dual", wrapper)


def _off_path_datum(case: str) -> AlgebraicDatum:
    """Data whose kernels section cannot take the usual path: ``aut0`` stops
    at ``TrivialByRigidity`` or raises ``UnsupportedDatumError``, so it forms
    no (3,0) kernel; or a vector breaks the product relation, so the
    eigenspace table would fail its checks and the report reads the
    pre-admissible sets off the classes without it."""
    if case == "broken_product_relation":
        d = example1()
        raw = d.raw_vectors[0]
        return AlgebraicDatum.build(d.group, [k.generators for k in d.kernels],
                                    [VectorSpec(1, raw.branch[:1], raw.eta),
                                     *d.raw_vectors[1:]])
    g = AbelianGroup([2])
    e = g.basis_element(0)
    genus_two = VectorSpec(2, (), (e, g.zero, e, g.zero))
    first = genus_two if case == "trivial_by_rigidity" else VectorSpec(0, (e,) * 4, ())
    return AlgebraicDatum.build(g, [[], [], []], [first, genus_two, genus_two])


class TestOnePassPerDatum:
    def test_full_report_computes_each_object_once(self, monkeypatch):
        calls = Counter()
        for module_name, name in (("isoprod.datum", "validate_datum"),
                                  ("isoprod.hodge", "eigendim_table"),
                                  ("isoprod.aut0", "admissible_characters"),
                                  ("isoprod.aut0", "_admissible_span")):
            _spy_everywhere(monkeypatch, module_name, name, calls)
        _spy_kernel_formation(monkeypatch, calls)
        report = build_report(example1(), ("invariants", "hodge", "aut0", "kernels"),
                              oracle=True)
        assert set(report["oracle"].values()) == {"agree"}
        assert calls["validate_datum"] == calls["eigendim_table"] == 1
        # One listing for the memo miss, and one of the oracle's own from
        # the walked sets.
        assert calls["admissible_characters"] == 2
        # One span and one kernel per kind: every section reads them from
        # the memos.
        assert calls["_admissible_span"] == calls["kernel"] == 2

    @pytest.mark.parametrize("datum,kernels", [
        (example3(1), 1), (example3(4), 1), (example1(), 2)], ids=["ex3_n1", "ex3_n4", "ex1"])
    def test_coinciding_spans_form_one_kernel(self, datum, kernels, monkeypatch):
        # example3 has no first-kind characters, so its (3,0) and (2,0)
        # kernels have one span, and the report forms one kernel for both
        # (listing route at n=1, class route at n=4).
        calls = Counter()
        _spy_kernel_formation(monkeypatch, calls)
        report = build_report(datum, ("invariants", "hodge", "aut0", "kernels"), oracle=True)
        assert (report["aut0"]["admissible_first"] == 0) == (kernels == 1)
        assert calls["kernel"] == kernels

    def test_report_makes_no_walk_over_the_annihilators(self, monkeypatch):
        # The classes and pre-admissible sets come from the Hermite box of
        # class representatives, not from a walk over every Ann(K_i).
        calls = Counter()
        _spy_everywhere(monkeypatch, "isoprod.hodge", "_factor_walk", calls)
        build_report(example1(8), ("invariants", "hodge", "aut0", "kernels"))
        assert calls["_factor_walk"] == 0

    def test_large_report_lists_no_admissible_character(self, monkeypatch):
        # Above the listing threshold the counts and spans come from the
        # classes: no enumeration and no pre-admissible set.
        calls = Counter()
        _spy_everywhere(monkeypatch, "isoprod.aut0", "admissible_characters", calls)
        _spy_everywhere(monkeypatch, "isoprod.hodge", "_pre_from_classes", calls)
        datum = example1(8, 8, 8)
        report = build_report(datum, ("invariants", "hodge", "aut0", "kernels"))
        assert calls == {}
        assert report["aut0"]["admissible_first"] == 512
        assert [report["kernels"][k]["order"] for k in ("h30", "h20")] == \
            [listed_kernel(datum, 3, 0).order, listed_kernel(datum, 2, 0).order]

    def test_oracle_over_its_cap_lists_no_admissible_character(self, monkeypatch):
        # The oracle checks |G|^3 against its cap before it reads the
        # characters, so a class-route datum over the cap lists none, and
        # the report is the recorded one.
        calls = Counter()
        _spy_everywhere(monkeypatch, "isoprod.aut0", "admissible_characters", calls)
        result = runner.invoke(main, ["example", "example1", "--param", "n=32", "--oracle",
                                      "--format", "json"])
        assert result.exit_code == 0
        assert calls == {}
        golden = Path(__file__).resolve().parent / "golden" / "example_example1_n32_oracle_json.out"
        assert result.stdout == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("name,params", ORACLE_EXAMPLES)
    def test_oracle_closes_the_fast_kernel_once(self, name, params, monkeypatch):
        # The kernel and quotient checks share one oracle closure of the
        # (3,0) kernel lifted to G^3, and its Hermite box lists nothing for
        # them.
        datum = build_example(name, params)
        kernel = _lifted(datum.group, cli._Analysis(datum).kernel((3, 0)))
        calls, closed, listed = Counter(), [], []
        _spy_everywhere(monkeypatch, "isoprod.oracle", "enumerate_subgroup", calls, closed)
        real = Subgroup._element_tuples

        def element_tuples(self):
            listed.append(self)
            return real(self)

        monkeypatch.setattr(Subgroup, "_element_tuples", element_tuples)
        report = build_report(datum, ("invariants", "hodge", "aut0", "kernels"), oracle=True)
        assert set(report["oracle"].values()) == {"agree"}
        assert closed.count(kernel) == 1
        assert kernel not in listed

    @pytest.mark.parametrize("case", [
        "example1", "example2b", "example3_n2", "example4", "trivial_by_rigidity",
        "unsupported", "broken_product_relation"])
    def test_both_routes_give_the_same_report(self, case, monkeypatch):
        # With the threshold below every pair count, each datum takes the
        # class route, and the oracle section lists on its own.
        datum = {"example1": example1, "example2b": example2b, "example4": example4,
                 "example3_n2": lambda: example3(2)}.get(case, lambda: _off_path_datum(case))()
        sections = ("invariants", "hodge", "aut0", "kernels")
        listed = build_report(datum, sections, oracle=True)
        monkeypatch.setattr(importlib.import_module("isoprod.aut0"), "LISTING_PAIRS", -1)
        calls = Counter()
        _spy_everywhere(monkeypatch, "isoprod.aut0", "_admissible_from_classes", calls)
        assert build_report(datum, sections, oracle=True) == listed
        assert calls["_admissible_from_classes"] == 1

    @pytest.mark.parametrize("case,status", [
        ("trivial_by_rigidity", "TrivialByRigidity"), ("unsupported", "Unsupported"),
        ("broken_product_relation", "Proven")])
    def test_kernels_off_the_usual_path(self, case, status):
        datum = _off_path_datum(case)
        report = build_report(datum, ("aut0", "kernels"))
        assert report["aut0"]["status"] == status
        h30, h20 = listed_kernel(datum, 3, 0).order, listed_kernel(datum, 2, 0).order
        assert [report["kernels"][k]["order"] for k in ("h30", "h21", "h20", "h11")] == \
            [h30, h30, h20, h20]


class TestOracleCatchesErrors:
    """A wrong fast (3,0) kernel or quotient makes the oracle section raise,
    and the CLI exit 3.  The report runs no ``aut0`` section: it reads the
    same memos, and its theorem check would stop the wrong lattice first."""

    @staticmethod
    def wrong_kernel(monkeypatch) -> None:
        # The true kernel on the slice plus a basis element of G^2 outside
        # it: still a subgroup containing K's image, so the fast path's own
        # checks pass.
        real = _KernelPieces.kernel

        def kernel(self, span, pq):
            kernel = real(self, span, pq)
            plane = kernel.ambient
            extra = next(e for e in map(plane.basis_element, range(plane.rank))
                         if e not in kernel)
            wrong = kernel.sum(plane.subgroup([extra]))
            assert self.k.is_subgroup_of(wrong)
            return wrong

        monkeypatch.setattr(_KernelPieces, "kernel", kernel)

    @staticmethod
    def wrong_quotient(monkeypatch) -> None:
        # G^3 / K Delta_G, read on the slice as G^2 / K, in place of the
        # (3,0) kernel's quotient.
        real = _KernelPieces.lattice

        def lattice(self, span):
            _, generators = real(self, span)
            return (subgroup_quotient(self.plane.full_subgroup(), self.k).invariant_factors,
                    generators)

        monkeypatch.setattr(_KernelPieces, "lattice", lattice)

    EXPECTED = {"kernel": "'kernel': 'DISAGREE'",
                "quotient": "'kernel': 'agree', 'quotient': 'DISAGREE'"}

    @pytest.mark.parametrize("check", ["kernel", "quotient"])
    def test_report_raises(self, check, monkeypatch):
        getattr(self, f"wrong_{check}")(monkeypatch)
        with pytest.raises(ConsistencyError, match=self.EXPECTED[check]):
            build_report(example1(), ("hodge",), oracle=True)

    @pytest.mark.parametrize("check", ["kernel", "quotient"])
    def test_cli_exits_three(self, check, monkeypatch, example1_file):
        getattr(self, f"wrong_{check}")(monkeypatch)
        result = runner.invoke(main, ["hodge", "--oracle", example1_file])
        assert result.exit_code == 3
        assert self.EXPECTED[check] in result.output


class TestTheoremChecksCatchErrors:
    """A wrong (3,0) quotient on valid data trips the theorem bounds of
    ``aut0``: ``TheoremViolationError``, and the CLI exits 3.  The planted
    quotient is ``G^3 / K Delta_G``, of order 8 on example1 (Proven) and 16
    on example4 (KernelOnly).  A survey adds the datum's canonical document
    to any violation, which ``isoprod report`` replays."""

    BASIS_R2 = {"group": [2, 2, 2], "kernels": [[[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]]],
                "max_branch": 2}

    @pytest.mark.parametrize("datum, message", [
        (example1(), r"cyclic-kernel hypotheses but the quotient is \[2, 2, 2\]"),
        (example4(), "kernel quotient of order 16 > 4"),
    ])
    def test_aut0_raises(self, datum, message, monkeypatch, tmp_path):
        TestOracleCatchesErrors.wrong_quotient(monkeypatch)
        with pytest.raises(TheoremViolationError, match=message):
            aut0(datum)
        path = tmp_path / "datum.json"
        path.write_text(dumps(datum_document(datum)))
        result = runner.invoke(main, ["aut0", str(path)])
        assert result.exit_code == 3
        assert "error [theorem-violation]" in result.output

    def test_survey_raises(self, monkeypatch, tmp_path):
        TestOracleCatchesErrors.wrong_quotient(monkeypatch)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.BASIS_R2))
        result = runner.invoke(main, ["search", str(path)])
        assert result.exit_code == 3
        assert "cyclic-kernel hypotheses" in result.output

    @staticmethod
    def named_datum(stderr: str, tmp_path) -> tuple[AlgebraicDatum, str]:
        """The datum that a survey error names, parsed, and written back as
        a document file."""
        (line,) = stderr.splitlines()
        doc = line.split("; datum ", 1)[1]
        path = tmp_path / "named.json"
        path.write_text(doc)
        return docio.loads(doc), str(path)

    def test_survey_names_the_datum(self, monkeypatch, tmp_path):
        TestOracleCatchesErrors.wrong_quotient(monkeypatch)
        with pytest.raises(TheoremViolationError, match="; datum {"):
            survey(SearchSpec.from_document(self.BASIS_R2))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.BASIS_R2))
        result = runner.invoke(main, ["search", str(spec)])
        assert result.exit_code == 3
        message = result.stderr.split("; datum ")[0]
        assert message.startswith("error [theorem-violation]: datum satisfies the cyclic")
        datum, path = self.named_datum(result.stderr, tmp_path)
        # The named datum reproduces the violation under the same plant,
        # and is a valid datum with a sound report without it.
        replay = runner.invoke(main, ["report", path])
        assert replay.exit_code == 3
        assert replay.stderr.strip() == message
        monkeypatch.undo()
        assert validate_datum(datum).ok
        assert runner.invoke(main, ["report", path]).exit_code == 0

    def test_survey_raises_on_an_invalid_datum(self, monkeypatch, tmp_path):
        # Every branch triple counts as free, so a triple whose action is
        # not free reaches validation: the survey stops there instead of
        # skipping it.
        monkeypatch.setattr(importlib.import_module("isoprod.search"), "_free",
                            lambda branches: True)
        with pytest.raises(ConsistencyError, match="is not valid; datum {"):
            survey(SearchSpec.from_document(self.BASIS_R2))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.BASIS_R2))
        result = runner.invoke(main, ["search", str(spec)])
        assert result.exit_code == 3
        assert result.stderr.startswith("error [internal-consistency]: survey datum passed")
        datum, path = self.named_datum(result.stderr, tmp_path)
        assert not validate_datum(datum).freeness_ok
        replay = runner.invoke(main, ["validate", path])
        assert replay.exit_code == 1
        assert "action is not free" in replay.output


class TestExampleCommand:
    def test_smallest_case(self):
        result = runner.invoke(
            main, ["example", "example1", "--param", "n1=1,n2=1,n3=1"])
        assert result.exit_code == 0
        assert "aut0: status Proven" in result.output
        assert "group: Z2 + Z2 (order 4)" in result.output

    def test_singular_family_reports_failure_status(self):
        result = runner.invoke(
            main, ["example", "example3", "--param", "n=2", "--format", "json"])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["validation"]["freeness_ok"] is False
        assert doc["aut0"]["status"] == "NonFreeKernelOnly"
        assert doc["aut0"]["invariant_factors"] == [4]

    def test_broadcast_parameter(self):
        result = runner.invoke(
            main, ["example", "example1", "--param", "n=2", "--format", "json"])
        doc = json.loads(result.output)
        assert doc["datum"]["group"] == [4, 4, 4]

    def test_corrected_fixture_note(self):
        result = runner.invoke(main, ["example", "example4"])
        assert result.exit_code == 0
        assert result.output.startswith("note: corrected fixture")

    def test_rejects_unknown_parameter(self):
        result = runner.invoke(
            main, ["example", "example1", "--param", "m=2"])
        assert result.exit_code == 2

    def test_rejects_bad_family_parameter(self):
        result = runner.invoke(
            main, ["example", "example2b", "--param", "n1=1"])
        assert result.exit_code == 2

    def test_repeated_parameters_merge(self):
        result = runner.invoke(
            main, ["example", "example2a", "--param", "n1=3", "--param", "n2=1",
                   "--param", "n3=2", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["datum"]["group"] == [6, 2, 4]

    @pytest.mark.parametrize("params", [["n1=2,n1=3"], ["n1=2", "n1=3"]])
    def test_rejects_a_parameter_given_twice(self, params):
        args = [arg for p in params for arg in ("--param", p)]
        result = runner.invoke(main, ["example", "example2a", *args])
        assert result.exit_code == 2
        assert "error [document-schema]: parameter n1 is given twice" in result.output


class TestSearchCommand:
    SPEC = {"group": [2, 2, 2],
            "kernels": [[[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]]],
            "max_branch": 2}

    def test_survey_output(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        result = runner.invoke(main, ["search", str(path), "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["survey"]["count"] == 24192
        assert doc["survey"]["histogram"] == \
            {"[]": 10368, "[2]": 10368, "[2,2]": 3456}

    def test_malformed_spec_exits_two(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"group": [2, 2], "kernels": "everything"}))
        result = runner.invoke(main, ["search", str(path)])
        assert result.exit_code == 2

    def test_cap_exits_two(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"group": [2, 2, 2], "cap": 10}))
        result = runner.invoke(main, ["search", str(path)])
        assert result.exit_code == 2
        assert "exceeds the cap" in result.output

    def test_base_genus_zero_is_an_empty_survey(self, tmp_path):
        # Every branch multiset over a genus 0 base gives 2g - 2 < 2 here;
        # the genus filter drops them instead of raising.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(self.SPEC, g_primes=[0, 1, 1], max_branch=3)))
        result = runner.invoke(main, ["search", str(path)])
        assert result.exit_code == 0
        assert result.output == "survey: 0 data\n"

    def test_handle_tuples_are_counted_not_listed(self, tmp_path):
        # 4^10 handle tuples for the trivial kernel's factor: the survey
        # counts the completing ones instead of listing them, so the space
        # runs at once.  The figures were frozen from a run of the listing
        # code with a raised cap (about two minutes).
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"group": [2, 2], "kernels": "cyclic",
                                    "g_primes": [1, 1, 5], "max_branch": 3}))
        start = time.monotonic()
        result = runner.invoke(main, ["search", str(path), "--format", "json"])
        assert time.monotonic() - start < 5
        assert result.exit_code == 0
        assert json.loads(result.output)["survey"] == {
            "count": 8752693248, "histogram": {"[]": 8752693248},
            "statuses": {"TrivialByRigidity": 8752693248}}


class TestRobustness:
    @pytest.mark.parametrize("doc", [
        {"group": [0]},
        {"group": [2, 2], "max_branch": -1},
        {"group": [2, 2], "g_primes": [-1, 1, 1]},
        {"group": [True, 2]},
    ])
    def test_malformed_search_spec_exits_two(self, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["search", str(path)])
        assert result.exit_code == 2
        assert "error [document-schema]" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_undecodable_search_spec_names_the_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{broken")
        result = runner.invoke(main, ["search", str(path)])
        assert result.exit_code == 2
        assert result.output.startswith("error [document-schema]: invalid JSON: ")

    @pytest.mark.parametrize("command", ["search", "validate"])
    def test_integer_over_the_digit_limit_exits_two(self, tmp_path, command):
        # A cap, or a group order, of 5,000 digits: more than Python turns
        # into an integer, so the JSON reader refuses the document.
        huge = "9" * 5000
        if command == "search":
            text = '{"group": [2, 2], "kernels": "cyclic", "max_branch": 2, "cap": %s}' % huge
        else:
            doc = datum_document(example1())
            doc["group"][0] = "HUGE"
            text = json.dumps(doc).replace('"HUGE"', huge)
        path = tmp_path / "doc.json"
        path.write_text(text)
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.output.startswith("error [document-schema]: invalid JSON: Exceeds the limit")
        assert isinstance(result.exception, SystemExit)

    @staticmethod
    def _validate_in_a_child(doc: dict, tmp_path) -> subprocess.CompletedProcess:
        """``python -m isoprod validate`` on ``doc`` in a child process under
        the limits of ``conftest.run_limited``."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run_limited("-m", "isoprod", "validate", str(path))

    def test_huge_kernel_is_refused_under_a_time_limit(self, tmp_path):
        # |K_1| = 2^40: the stabilizer preimage is refused before it is
        # listed.
        a = 2 ** 40
        doc = {"group": [a, 2], "kernels": [[[1, 0]], [[0, 1]], []],
               "vectors": [{"g_prime": 1, "branch": [[0, 1], [0, 1]], "eta": [[0, 1], [0, 0]]},
                           {"g_prime": 1, "branch": [[1, 0], [a - 1, 0]], "eta": [[0, 0], [0, 0]]},
                           {"g_prime": 1, "branch": [[1, 0], [a - 1, 0]], "eta": [[0, 1], [0, 0]]}]}
        result = self._validate_in_a_child(doc, tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith("error [arithmetic-overflow]: the stabilizer preimage")

    def test_branch_element_of_huge_order_is_refused_under_a_time_limit(self, tmp_path):
        # |K_1| = 2 and two branch elements of order 2^40 in Q_1 = Z_{2^40}:
        # their multiples are counted, not listed, before the bound is read.
        a = 2 ** 40
        doc = {"group": [a, 2], "kernels": [[[0, 1]], [], []],
               "vectors": [{"g_prime": 1, "branch": [[1, 0], [a - 1, 0]], "eta": [[0, 0], [0, 0]]},
                           {"g_prime": 1, "branch": [[1, 0], [a - 1, 0]], "eta": [[0, 1], [0, 0]]},
                           {"g_prime": 1, "branch": [[1, 0], [a - 1, 0]], "eta": [[0, 1], [0, 0]]}]}
        result = self._validate_in_a_child(doc, tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith("error [arithmetic-overflow]: the stabilizer preimage")

    def test_many_classes_are_refused_under_a_time_limit(self, tmp_path):
        # Z2^12: 2^11 Chevalley-Weil classes per factor; matching them would
        # visit 2047^2 class pairs, more than the listing bound, so the report
        # is refused before it matches any.
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(z2_classes_document(12)))
        result = run_limited("-m", "isoprod", "report", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith("error [arithmetic-overflow]: 4190209 Chevalley-Weil "
                                        "class pairs exceed the listing bound")

    def test_group_order_over_the_digit_limit_exits_two(self, tmp_path):
        # Two orders of 3,999 digits, each one Python reads; their product
        # has more digits than it prints, so the message names its bits.
        huge = 10 ** 3999 - 1
        doc = {"group": [huge, huge], "kernels": [[], [], []],
               "vectors": [{"g_prime": 1, "branch": [], "eta": [[1, 0], [0, 1]]}] * 3}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert result.output == (f"error [arithmetic-overflow]: group order of "
                                 f"{(huge * huge).bit_length()} bits exceeds the supported "
                                 f"scale (|G| <= {2 ** 62})\n")

    @pytest.mark.parametrize("command", ["validate", "search"])
    @pytest.mark.parametrize("data", [b"\xff", '{"group": [2, 2]}'.encode("utf-16")],
                             ids=["byte_0xff", "utf16"])
    def test_file_that_is_not_utf8_exits_two(self, tmp_path, command, data):
        # Files are read as bytes and decoded as UTF-8 alone: json.loads,
        # which would guess UTF-16 from the bytes, never sees them.
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.output.startswith("error [document-schema]: invalid JSON: 'utf-8' codec")
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("doc, code, output", [
        # A kernel triple whose first quotient is trivial has no branch
        # triple, so its other two factors are never listed.
        ({"group": [64], "kernels": [[[[1]], [], []]], "max_branch": 5}, 0,
         "survey: 0 data\n"),
        # The "cyclic" policy would form one subgroup per element of G.
        ({"group": [4611686018427387904], "kernels": "cyclic", "max_branch": 2}, 2,
         "error [search-cap]: listing the cyclic subgroups"),
        # Counts of more than 4,300 digits, which Python does not print;
        # the second space would also run for minutes.
        ({"group": [2, 2], "kernels": "cyclic", "max_branch": 2,
          "g_primes": [4000, 1, 1]}, 2, "error [search-cap]: the survey count"),
        ({"group": [2, 2], "kernels": "cyclic", "max_branch": 2,
          "g_primes": [100000000, 1, 1]}, 2, "error [search-cap]: the survey count"),
    ])
    def test_oversized_search_spec_ends_at_once(self, tmp_path, doc, code, output):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        start = time.monotonic()
        result = runner.invoke(main, ["search", str(path)])
        assert time.monotonic() - start < 5
        assert result.exit_code == code
        assert result.output.startswith(output)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["report", "search"])
    def test_error_while_printing_exits_three(self, tmp_path, example1_file, monkeypatch,
                                              command):
        def broken(report):
            raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

        monkeypatch.setattr("isoprod.__main__.render_text", broken)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TestSearchCommand.SPEC))
        source = example1_file if command == "report" else str(path)
        result = runner.invoke(main, [command, source])
        assert result.exit_code == 3
        assert result.output.startswith("error [internal]: ValueError: Exceeds the limit")
        assert isinstance(result.exception, SystemExit)

    def test_unexpected_report_error_exits_three(self, example1_file, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr("isoprod.__main__.build_report", broken)
        result = runner.invoke(main, ["report", example1_file])
        assert result.exit_code == 3
        assert "error [internal]: RuntimeError: injected failure" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    def test_unexpected_search_error_exits_three(self, tmp_path, monkeypatch):
        def broken(spec):
            raise RuntimeError("injected failure")

        monkeypatch.setattr("isoprod.search.survey", broken)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TestSearchCommand.SPEC))
        result = runner.invoke(main, ["search", str(path)])
        assert result.exit_code == 3
        assert "error [internal]: RuntimeError: injected failure" in result.output
        assert isinstance(result.exception, SystemExit)


class TestFootprint:
    """A report loads neither click, the oracle nor the survey; ``--oracle``
    loads the oracle only; the command module's ``main`` is the click group.
    Run in a fresh interpreter, since this one has loaded all three."""

    SCRIPT = """
import json, sys
from isoprod.cli import build_report
from isoprod.examples import example1
sections = ("invariants", "hodge", "aut0", "kernels")
loaded = lambda: {name: name in sys.modules
                  for name in ("click", "isoprod.oracle", "isoprod.search")}
steps = {}
build_report(example1(), sections)
steps["report"] = loaded()
build_report(example1(), sections, oracle=True)
steps["oracle"] = loaded()
from isoprod.__main__ import main
steps["main"] = type(main).__module__ + "." + type(main).__name__
print(json.dumps(steps))
"""

    def test_report_loads_neither_click_nor_the_oracle(self):
        assert run_fresh(self.SCRIPT) == {
            "report": {"click": False, "isoprod.oracle": False, "isoprod.search": False},
            "oracle": {"click": False, "isoprod.oracle": True, "isoprod.search": False},
            "main": "click.core.Group",
        }

    def test_report_command_loads_neither_the_survey_nor_the_oracle(self, example1_file):
        script = """
import json, sys
from isoprod.__main__ import main
try:
    main(["report", "--format", "json", sys.argv[1]])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted({"isoprod.oracle", "isoprod.search"} & set(sys.modules))]))
"""
        assert run_fresh(script, example1_file) == [0, []]

    def test_python_m_isoprod_loads_the_report_module_once(self):
        # ``python -m isoprod`` runs the command module as ``__main__``; it
        # prints the recorded report, and ``isoprod.cli`` is imported once.
        root = Path(__file__).resolve().parent.parent
        proc = run_limited("-X", "importtime", "-m", "isoprod", "report",
                           str(root / "docs" / "sample_example1.json"))
        assert proc.returncode == 0, proc.stderr
        golden = root / "tests" / "golden" / "report_sample_example1_text.out"
        assert proc.stdout == golden.read_text(encoding="utf-8")
        imports = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert imports.count("isoprod.cli") == 1
        assert "isoprod.__main__" not in imports
