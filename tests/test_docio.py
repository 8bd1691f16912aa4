"""Document schema: strict parsing and bit-exact round-trips."""

from __future__ import annotations

import json

import pytest

from isoprod import docio
from isoprod.docio import datum_document, dumps, loads, parse_datum_document
from isoprod.errors import SchemaError
from isoprod.examples import example1, example2b, example3, example4
from isoprod.search import SearchSpec


def doc_of(datum):
    return datum_document(datum)


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [example1, example2b, example4,
                                         lambda: example3(2)])
    def test_bit_exact(self, factory):
        text = dumps(doc_of(factory()))
        datum = loads(text)
        assert dumps(doc_of(datum)) == text

    def test_serialization_is_deterministic(self):
        assert dumps(doc_of(example1())) == dumps(doc_of(example1()))

    def test_trailing_newline_and_indent(self):
        text = dumps(doc_of(example1()))
        assert text.endswith("}\n")
        assert '\n  "group"' in text

    def test_sample_documents_load(self, tmp_path):
        import pathlib
        docs = pathlib.Path(__file__).resolve().parent.parent / "docs"
        for name in ("sample_example1.json", "sample_example3_n2.json",
                     "sample_example4.json"):
            datum = loads((docs / name).read_text())
            assert len(datum.vectors) == 3


class TestSchemaErrors:
    def base(self):
        return doc_of(example1())

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            loads("{not json")

    @pytest.mark.parametrize("text", ["{not json", "[" + "9" * 5000 + "]"],
                             ids=["undecodable", "digit-limit"])
    def test_one_reader_for_undecodable_text(self, text):
        # A JSON integer of more digits than Python converts raises a
        # ValueError that is no JSONDecodeError; both are schema errors.
        with pytest.raises(SchemaError, match="^invalid JSON: "):
            docio.parse_json(text)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("group"),
        lambda d: d.pop("kernels"),
        lambda d: d.pop("vectors"),
        lambda d: d.update(extra=1),
        lambda d: d.update(group=[]),
        lambda d: d.update(group=[2, 0, 2]),
        lambda d: d.update(group=[2, True, 2]),
        lambda d: d["kernels"].pop(),
        lambda d: d["kernels"][0].append([1, 0]),
        lambda d: d["vectors"].pop(),
        lambda d: d["vectors"][0].pop("eta"),
        lambda d: d["vectors"][0].update(surplus=1),
        lambda d: d["vectors"][0].update(g_prime=-1),
        lambda d: d["vectors"][0].update(g_prime=True),
        lambda d: d["vectors"][0].update(branch=[[1, 0]]),
        lambda d: d["vectors"][0].update(eta="nope"),
    ])
    def test_rejected_documents(self, mutate):
        doc = json.loads(json.dumps(self.base()))
        mutate(doc)
        with pytest.raises(SchemaError):
            parse_datum_document(doc)

    def test_order_one_group_entry_is_named(self):
        # AbelianGroup drops the order-1 factor; the document must not keep
        # its coordinate and fail later on every exponent list.
        doc = json.loads(json.dumps(self.base()))
        doc["group"].append(1)
        for exps in doc["kernels"] + [v[key] for v in doc["vectors"]
                                      for key in ("branch", "eta")]:
            exps[:] = [e + [0] for e in exps]
        with pytest.raises(SchemaError, match='"group" entry 4 has order 1'):
            parse_datum_document(doc)

    @pytest.mark.parametrize("group", [[], [0], [True, 2], [1, 2]])
    def test_search_spec_shares_the_group_check(self, group):
        doc = json.loads(json.dumps(self.base()))
        doc["group"] = group
        with pytest.raises(SchemaError) as datum_error:
            parse_datum_document(doc)
        with pytest.raises(SchemaError) as spec_error:
            SearchSpec.from_document({"group": group})
        assert str(spec_error.value) == str(datum_error.value)

    def test_root_must_be_object(self):
        with pytest.raises(SchemaError):
            parse_datum_document([1, 2, 3])


class TestRepresentativeSemantics:
    def test_branch_entries_are_ambient_representatives(self):
        # Branch exponents live in G; reduction to the quotient happens
        # on build, so adding a kernel generator names the same datum.
        base = doc_of(example1())
        shifted = json.loads(json.dumps(base))
        b = shifted["vectors"][0]["branch"][0]
        shifted["vectors"][0]["branch"][0] = [(b[0] + 1) % 2, b[1], b[2]]
        d1 = parse_datum_document(base)
        d2 = parse_datum_document(shifted)
        assert d1.vectors[0].branch == d2.vectors[0].branch
