"""JSON documents for algebraic data.

Schema: ``{"group": [n1, ...], "kernels": [[exp, ...] x3],
"vectors": [{"g_prime": int, "branch": [exp, ...], "eta": [exp, ...]} x3]}``
where every order ``n_i`` is at least 2 (the group drops trivial
factors, which would leave each exponent list one coordinate too wide)
and every ``exp`` is an exponent tuple of a representative in the
ambient group (branch and handle entries included — they are reduced to
the quotients internally).  Serialization is canonical: fixed key order,
integers only, two-space indent, trailing newline; parse/serialize
round-trips bit-exactly.

A search spec (``search.SearchSpec``) is read through the same JSON reader
(``parse_json``) and shape checks, so every malformed document of either
kind raises ``SchemaError``.
"""

from __future__ import annotations

import json

from .datum import AlgebraicDatum, VectorSpec
from .errors import SchemaError
from .groups import AbelianGroup, GroupElement

_DATUM_KEYS = ("group", "kernels", "vectors")
_VECTOR_KEYS = {"g_prime", "branch", "eta"}


def _exponents(value: object, rank: int, where: str) -> tuple[int, ...]:
    if (not isinstance(value, (list, tuple)) or len(value) != rank
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)):
        raise SchemaError(f"{where}: expected a list of {rank} integers, got {value!r}")
    return tuple(value)


def _object(doc: object, keys: tuple[str, ...], required: tuple[str, ...]) -> dict:
    """The root object of a document, with no key outside ``keys`` and
    every key of ``required``."""
    if not isinstance(doc, dict):
        raise SchemaError("document root must be a JSON object")
    extra = set(doc) - set(keys)
    if extra:
        raise SchemaError(f"unknown keys {sorted(extra)}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")
    return doc


def _integer(value: object, name: str, minimum: int) -> int:
    """A JSON integer (not a boolean) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise SchemaError(f"{name} must be at least {minimum}, got {value}")
    return value


def _group_orders(value: object) -> tuple[int, ...]:
    """The ``"group"`` orders: a nonempty list or tuple, every order at least 2."""
    if not isinstance(value, (list, tuple)) or not value:
        raise SchemaError('"group" must be a nonempty list of positive integers')
    orders = tuple(_integer(n, "group order", 1) for n in value)
    if 1 in orders:
        raise SchemaError(f'"group" entry {orders.index(1) + 1} has order 1; '
                          'leave out trivial factors')
    return orders


def _kernel_triple(value: object, rank: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Three kernels, each a list of generators given as exponent lists."""
    if (not isinstance(value, (list, tuple)) or len(value) != 3
            or not all(isinstance(gens, (list, tuple)) for gens in value)):
        raise SchemaError("a kernel triple must list generators for exactly 3 kernels")
    return tuple(tuple(_exponents(g, rank, f"kernel {i + 1}") for g in gens)
                 for i, gens in enumerate(value))


def parse_datum_document(doc: object) -> AlgebraicDatum:
    """Validate a parsed JSON object against the schema and build the datum."""
    doc = _object(doc, _DATUM_KEYS, _DATUM_KEYS)
    orders = _group_orders(doc["group"])
    group = AbelianGroup(orders)
    rank = len(orders)

    def element(value: object, where: str) -> GroupElement:
        return group.element(_exponents(value, rank, where))

    kernel_gens = [[group.element(g) for g in gens]
                   for gens in _kernel_triple(doc["kernels"], rank)]

    vectors = doc["vectors"]
    if not isinstance(vectors, list) or len(vectors) != 3:
        raise SchemaError('"vectors" must list exactly 3 generating vectors')
    specs = []
    for i, v in enumerate(vectors):
        where = f"vector {i + 1}"
        if not isinstance(v, dict) or set(v) != _VECTOR_KEYS:
            raise SchemaError(f"{where}: expected keys g_prime, branch, eta")
        g_prime = _integer(v["g_prime"], f"{where} g_prime", 0)
        if not isinstance(v["branch"], list) or not isinstance(v["eta"], list):
            raise SchemaError(f"{where}: branch and eta must be lists")
        specs.append(VectorSpec(
            g_prime=g_prime,
            branch=tuple(element(g, where + " branch") for g in v["branch"]),
            eta=tuple(element(g, where + " eta") for g in v["eta"])))
    return AlgebraicDatum.build(group, kernel_gens, specs)


def datum_document(datum: AlgebraicDatum) -> dict:
    """Canonical document for a datum, from the raw representatives."""
    return {
        "group": list(datum.group.orders),
        "kernels": [[list(g.exponents) for g in k.generators] for k in datum.kernels],
        "vectors": [
            {
                "g_prime": spec.g_prime,
                "branch": [list(g.exponents) for g in spec.branch],
                "eta": [list(g.exponents) for g in spec.eta],
            }
            for spec in datum.raw_vectors
        ],
    }


def dumps(doc: dict) -> str:
    """Canonical JSON bytes: insertion key order, two-space indent."""
    return json.dumps(doc, indent=2) + "\n"


def parse_json(text: str | bytes) -> object:
    """The value of a JSON text or of its UTF-8 bytes, never UTF-16 or 32.
    Bytes that are not UTF-8, undecodable text and integers of more digits
    than Python converts raise ``ValueError``, which becomes ``SchemaError``."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def loads(text: str | bytes) -> AlgebraicDatum:
    return parse_datum_document(parse_json(text))
