"""Fuzzed inputs: the document parsers raise nothing but ``IsoprodError``
on any small JSON-like value, the report raises nothing on a parsed
small-group datum, and ``isoprod report``, ``aut0`` and ``kernels``, with
and without the oracles, exit 0, 1 or 2 without a traceback on any such
document.  Relabelled example data reach exit 0, where the theorem bounds
and the oracle checks run, and keep the example's exit code and values."""

from __future__ import annotations

import json
from math import prod

from click.testing import CliRunner, Result
from hypothesis import given, settings, strategies as st

from conftest import ORACLE_EXAMPLES, relabel_document
from isoprod.cli import build_report, main
from isoprod.docio import datum_document, parse_datum_document
from isoprod.errors import IsoprodError
from isoprod.examples import build_example
from isoprod.search import SearchSpec

DATUM_KEYS = ["group", "kernels", "vectors", "g_prime", "branch", "eta", "extra"]
SPEC_KEYS = ["group", "kernels", "g_primes", "max_branch", "branch_order_bound", "cap", "extra"]
SECTIONS = ("invariants", "hodge", "aut0", "kernels")
# The subcommands that read a datum file, with the oracles where they take them.
COMMANDS = (("report",), ("report", "--oracle"), ("aut0",), ("aut0", "--oracle"), ("kernels",))

leaves = st.one_of(st.none(), st.booleans(), st.integers(-2, 9), st.floats(0, 2),
                   st.sampled_from(["", "cyclic", "basis"]))


def json_values(keys: list[str]) -> st.SearchStrategy:
    """Nested lists and objects of a few leaves, with keys from ``keys``."""
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(keys), inner, max_size=4)), max_leaves=12)


@st.composite
def datum_documents(draw, max_order: int = 64, least_order: int = 1,
                    least_exponent: int = -1) -> dict:
    """Documents of the datum schema over small groups.  Each branch list
    closes with the negated sum of the others, so that the product relation
    often holds and the later checks run; exponents may leave their range."""
    orders = draw(st.lists(st.integers(least_order, 8), min_size=1, max_size=3)
                  .filter(lambda o: prod(o) <= max_order))
    element = st.tuples(*(st.integers(least_exponent, n) for n in orders)).map(list)
    kernels = [draw(st.lists(element, max_size=2)) for _ in range(3)]
    vectors = []
    for _ in range(3):
        g_prime = draw(st.sampled_from([1, 1, 0, 2]))
        branch = draw(st.lists(element, min_size=g_prime == 0, max_size=3))
        if branch:
            branch.append([-sum(col) % n for col, n in zip(zip(*branch), orders)])
        vectors.append({"g_prime": g_prime, "branch": branch,
                        "eta": draw(st.lists(element, min_size=2 * g_prime,
                                             max_size=2 * g_prime))})
    return {"group": orders, "kernels": kernels, "vectors": vectors}


@st.composite
def broken_documents(draw, max_order: int = 64) -> dict:
    """A datum document with one entry, at any depth, replaced by a leaf or
    a short list: a value under a key, or a list or object inside a list."""
    doc = draw(datum_documents(max_order))
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        for key in (node if isinstance(node, dict) else range(len(node))):
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
            elif isinstance(node, list):
                continue
            slots.append((node, key))
    node, key = draw(st.sampled_from(slots))
    node[key] = draw(shallow)
    return doc


@st.composite
def relabelled_examples(draw) -> tuple[dict, dict]:
    """A small example datum (``ORACLE_EXAMPLES``, six valid and one not
    free) as a document, and its image under a drawn coordinate
    automorphism and permutation of the factors: the same 3-fold."""
    doc = datum_document(build_example(*draw(st.sampled_from(ORACLE_EXAMPLES))))
    return doc, relabel_document(doc, draw(st.randoms(use_true_random=False)))


# Objects with a "group" list and some of the other spec keys, each
# holding a leaf or a short list of leaves and integer lists.
shallow = st.one_of(leaves, st.lists(st.one_of(leaves, st.lists(st.integers(-1, 3), max_size=3)),
                                     max_size=3))
spec_documents = st.fixed_dictionaries(
    {"group": st.lists(st.integers(-1, 9), max_size=3)},
    optional={key: shallow for key in SPEC_KEYS[1:]})


def typed_errors_only(call, *args) -> None:
    try:
        call(*args)
    except IsoprodError:
        pass


@settings(max_examples=100)
@given(st.one_of(json_values(DATUM_KEYS), datum_documents(), broken_documents()))
def test_datum_documents_raise_typed_errors_only(doc):
    typed_errors_only(parse_datum_document, doc)


@settings(max_examples=100)
@given(st.one_of(json_values(SPEC_KEYS), spec_documents))
def test_search_specs_raise_typed_errors_only(doc):
    typed_errors_only(SearchSpec.from_document, doc)


@settings(max_examples=60)
@given(datum_documents(max_order=8, least_order=2, least_exponent=0), st.booleans())
def test_small_group_reports_raise_nothing(doc, oracle):
    # Every section of the report on |G| <= 8, with and without the oracles:
    # a datum that parses gets a report, whatever its vectors break.
    try:
        datum = parse_datum_document(doc)
    except IsoprodError:
        return
    build_report(datum, SECTIONS, oracle=oracle)


def invoke(command: tuple[str, ...], doc) -> Result:
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("datum.json", "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        return runner.invoke(main, [*command, "--format", "json", "datum.json"])


def labelling_free(report: dict) -> dict:
    """The parts of a report that no relabelling changes."""
    validation, aut0 = report["validation"], report.get("aut0", {})
    return {"ok": validation["ok"], "genera": sorted(validation["genera"]),
            "hodge": report.get("hodge"), "kernels": report.get("kernels"),
            "oracle": report.get("oracle"),
            "aut0": [aut0.get(key) for key in ("status", "invariant_factors", "order",
                                               "admissible_first", "admissible_second")]}


@settings(max_examples=60)
@given(st.one_of(datum_documents(max_order=8, least_order=2, least_exponent=0),
                 broken_documents(max_order=8), relabelled_examples().map(lambda pair: pair[1]),
                 json_values(DATUM_KEYS).map(json.dumps), st.text(max_size=12)),
       st.sampled_from(COMMANDS))
def test_report_command_exits_with_a_documented_code(doc, command):
    # 0 success, 1 an invalid datum, 2 a schema error; 3 (internal) and a
    # traceback are never the answer to a user's document.
    result = invoke(command, doc)
    assert result.exit_code in (0, 1, 2), result.output
    assert isinstance(result.exception, (SystemExit, type(None)))
    assert "Traceback" not in result.output


@settings(max_examples=40)
@given(relabelled_examples(), st.sampled_from(COMMANDS))
def test_relabelled_examples_keep_their_exit_code_and_values(pair, command):
    # A valid example exits 0 after its theorem bounds (and oracle checks)
    # ran, the non-free one 1, and the labelling-free values stay.
    original, image = (invoke(command, doc) for doc in pair)
    want = json.loads(original.stdout)
    assert original.exit_code == (0 if want["validation"]["ok"] else 1)
    assert image.exit_code == original.exit_code, image.output
    assert labelling_free(json.loads(image.stdout)) == labelling_free(want)
