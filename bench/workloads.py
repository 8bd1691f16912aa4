"""Seeded inputs, operations and frozen-output checks of the benchmark.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  An operation is one datum report (parse the
document, validate, invariants, Hodge diamond, ``Aut_0``, the four
representation kernels, canonical JSON, as ``isoprod report`` does) or one
survey (parse the spec, survey, canonical JSON, as ``isoprod search`` does).

The library receives only documents and spec documents made here.  Each
pass of a run gets its own relabelling, drawn from the seed and the pass
index, so that no pass can reuse work memoised on an earlier one and the
median pass averages over labellings.  A run makes a number of passes fixed
by its workload and ``--seconds`` (see ``run.planned_passes``), so one seed
always measures the same inputs, on a fast host or a slow one.  The frozen
outputs do not change under relabelling: a random coordinate automorphism
of ``G`` (units, and permutations of coordinates of equal order) with a
random permutation of the three factors for reports, and a random
``GL(3,2)`` image of the basis kernels for the basis survey.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

REPORT_SECTIONS = ("invariants", "hodge", "aut0", "kernels")
KERNEL_KEYS = ("h30", "h21", "h20", "h11")
FROZEN_PATH = Path(__file__).with_name("frozen.json")

# Examples are (name, params) as the ``isoprod example`` command takes them.
LADDER = (
    ("example1", {"n": 1}),
    ("example1", {"n": 2}),
    ("example1", {"n": 4}),
    ("example1", {"n": 8}),
    ("example2a", {"n": 4}),
    ("example2b", {"n1": 4, "n2": 2, "n3": 2}),
    ("example3", {"n": 4}),
    ("example4", {}),
)
# |G| <= 16: a single |G| = 64 datum takes minutes under the oracles.
ORACLE_SET = (
    ("example1", {"n": 1}),
    ("example1", {"n1": 2, "n2": 1, "n3": 1}),
    ("example2a", {"n1": 2, "n2": 1, "n3": 1}),
    ("example2a", {"n1": 1, "n2": 1, "n3": 2}),
    ("example2b", {}),
    ("example3", {"n": 1}),
    ("example4", {}),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "report" or "survey"
    data: tuple               # examples for reports, one spec document for surveys
    pass_estimate_s: float    # one pass on a 2-CPU host with Python 3.11
    oracle: bool = False


def _survey_spec(group: list[int], kernels: object, max_branch: int) -> dict:
    return {"group": group, "kernels": kernels, "max_branch": max_branch}


WORKLOADS = {
    "report_ladder": Workload("report_ladder", "report", LADDER, 4.4),
    "survey_basis_r4": Workload("survey_basis_r4", "survey", (
        _survey_spec([2, 2, 2], "basis", 4),), 4.7),
    "oracle_crosscheck": Workload("oracle_crosscheck", "report", ORACLE_SET, 3.7,
                                  oracle=True),
}

# Tiny inputs that run every workload's operations and checks in seconds.
FAST_WORKLOADS = {
    "report_ladder": Workload("report_ladder", "report", (
        ("example1", {"n": 1}), ("example3", {"n": 1}), ("example4", {})), 0.3),
    "survey_basis_r4": Workload("survey_basis_r4", "survey", (
        _survey_spec([2, 2, 2], "basis", 2),), 0.1),
    "oracle_crosscheck": Workload("oracle_crosscheck", "report", (
        ("example1", {"n": 1}), ("example3", {"n": 1})), 0.3, oracle=True),
}


def example_label(name: str, params: dict) -> str:
    return name + "(" + ",".join(f"{k}={v}" for k, v in sorted(params.items())) + ")"


def spec_label(doc: dict) -> str:
    kernels = doc["kernels"] if isinstance(doc["kernels"], str) else "explicit"
    group = "x".join(f"Z{n}" for n in doc["group"])
    return f"survey({group},{kernels},r={doc['max_branch']})"


# ---------------------------------------------------------------------------
# Relabellings
# ---------------------------------------------------------------------------


def random_automorphism(orders: list[int], rng: random.Random):
    """A coordinate automorphism of ``Z_{n_1} + ... + Z_{n_k}``: coordinate
    ``j`` is scaled by a unit mod ``n_j`` and moved to a coordinate of the
    same order."""
    k = len(orders)
    perm = list(range(k))
    classes: dict[int, list[int]] = {}
    for j, n in enumerate(orders):
        classes.setdefault(n, []).append(j)
    for members in classes.values():
        targets = members[:]
        rng.shuffle(targets)
        for j, t in zip(members, targets):
            perm[j] = t
    units = [rng.choice([u for u in range(1, n) if gcd(u, n) == 1] or [1])
             for n in orders]

    def apply(exps: list[int]) -> list[int]:
        out = [0] * k
        for j, x in enumerate(exps):
            out[perm[j]] = units[j] * x % orders[j]
        return out

    return apply


def relabel_datum_document(doc: dict, rng: random.Random) -> dict:
    """Image of a datum document under a random coordinate automorphism and
    a random permutation of the three factors."""
    phi = random_automorphism(doc["group"], rng)
    order = [0, 1, 2]
    rng.shuffle(order)
    kernels = [[phi(g) for g in gens] for gens in doc["kernels"]]
    vectors = [{"g_prime": v["g_prime"],
                "branch": [phi(g) for g in v["branch"]],
                "eta": [phi(g) for g in v["eta"]]} for v in doc["vectors"]]
    return {"group": list(doc["group"]),
            "kernels": [kernels[i] for i in order],
            "vectors": [vectors[i] for i in order]}


def random_gl3_f2(rng: random.Random) -> list[tuple[int, int, int]]:
    """Columns of a uniformly random invertible 3x3 matrix over F_2."""
    while True:
        a, b, c = ([rng.randrange(2) for _ in range(3)] for _ in range(3))
        det = (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
               + a[2] * (b[0] * c[1] - b[1] * c[0])) % 2
        if det:
            return [tuple(a), tuple(b), tuple(c)]


def _concrete_spec(doc: dict, rng: random.Random) -> dict:
    """A ``"basis"`` kernel policy becomes one explicit kernel triple: the
    cyclic subgroups generated by the columns of a random ``GL(3,2)``
    element.  Other policies pass through unchanged."""
    if doc["kernels"] == "basis":
        return dict(doc, kernels=[[[list(col)] for col in random_gl3_f2(rng)]])
    return doc


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One operation: its frozen-output label and its input text."""

    label: str
    text: str


def base_documents(workload: Workload) -> list[tuple[str, dict]]:
    """The unrelabelled inputs, as (label, document) pairs."""
    if workload.kind == "survey":
        return [(spec_label(doc), doc) for doc in workload.data]
    from isoprod.docio import datum_document
    from isoprod.examples import build_example

    return [(example_label(name, params),
             datum_document(build_example(name, params)))
            for name, params in workload.data]


def pass_inputs(workload: Workload, base: list[tuple[str, dict]], seed: int,
                pass_index: int) -> list[Op]:
    """The operations of one pass: the base inputs under the relabelling
    drawn from ``(workload, seed, pass_index)``."""
    rng = random.Random(f"{workload.name}/{seed}/{pass_index}")
    ops = []
    for label, doc in base:
        if workload.kind == "survey":
            doc = _concrete_spec(doc, rng)
        else:
            doc = relabel_datum_document(doc, rng)
        ops.append(Op(label, json.dumps(doc, indent=2) + "\n"))
    return ops


# ---------------------------------------------------------------------------
# Operations and checks
# ---------------------------------------------------------------------------


def run_op(workload: Workload, op: Op) -> str:
    """Run one operation through the public API; returns its JSON output."""
    if workload.kind == "survey":
        from isoprod.search import SearchSpec, survey

        spec = SearchSpec.from_document(json.loads(op.text))
        return json.dumps({"survey": survey(spec).as_document()}, indent=2)
    from isoprod import docio
    from isoprod.cli import build_report

    datum = docio.loads(op.text)
    return docio.dumps(build_report(datum, REPORT_SECTIONS, oracle=workload.oracle))


def summarize(workload: Workload, output: str) -> dict:
    """The parts of an operation's output that no relabelling changes."""
    doc = json.loads(output)
    if workload.kind == "survey":
        return doc["survey"]
    inv = doc["invariants"]
    aut0 = doc["aut0"]
    out = {
        "valid": doc["validation"]["ok"],
        "genera": sorted(doc["validation"]["genera"]),
        "chi": inv["chi_structure_sheaf"],
        "e": inv["euler_number"],
        "K3": inv["canonical_cube"],
        "hodge": doc["hodge"],
        "aut0_factors": aut0.get("invariant_factors"),
        "status": aut0["status"],
        "admissible": [aut0.get("admissible_first"), aut0.get("admissible_second")],
        "kernel_orders": [doc["kernels"][k]["order"] for k in KERNEL_KEYS],
    }
    if workload.oracle:
        out["oracle"] = doc["oracle"]
    return out


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: Workload, op: Op, output: str, frozen: dict) -> str | None:
    """None when the output matches the frozen values, else what differs."""
    try:
        got = summarize(workload, output)
    except (KeyError, TypeError, ValueError) as exc:
        return f"{op.label}: output lacks a checked field ({type(exc).__name__}: {exc})"
    if workload.oracle:
        oracle = got.pop("oracle")
        bad = {k: v for k, v in oracle.items() if v != "agree"}
        if bad or not oracle:
            return f"{op.label}: oracle checks {bad or 'missing'}"
    want = frozen.get(op.label)
    if want is None:
        return f"{op.label}: no frozen output"
    diff = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    if diff:
        return f"{op.label}: {', '.join(f'{k}={got.get(k)!r} (frozen {want.get(k)!r})' for k in diff)}"
    return None
