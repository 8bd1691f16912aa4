"""Relabelling invariance: the same 3-fold under another labelling.

A coordinate automorphism of ``G`` (a unit on each coordinate, and a
permutation of coordinates of equal order) together with a permutation of
the three factors presents the same 3-fold, so the Hodge diamond, the
``Aut_0`` group, its status, the admissible counts and the orders of the
four representation kernels must not change.  The data mix cyclic orders,
which exercises the carries of the packed character arithmetic.
"""

from __future__ import annotations

import random
from math import gcd

import pytest

from isoprod import docio
from isoprod.aut0 import aut0, representation_kernel
from isoprod.examples import example1, example2b, example4
from isoprod.hodge import hodge_diamond

DATA = {
    "example1(2,1,3)": lambda: example1(2, 1, 3),
    "example1(3,1,1)": lambda: example1(3, 1, 1),
    "example2b(3,2,1)": lambda: example2b(3, 2, 1),
    "example4": example4,
}
RELABELLINGS = 4


def random_automorphism(orders: list[int], rng: random.Random):
    """Scale coordinate ``j`` by a unit mod ``n_j`` and move it to a
    coordinate of the same order."""
    perm = list(range(len(orders)))
    classes: dict[int, list[int]] = {}
    for j, n in enumerate(orders):
        classes.setdefault(n, []).append(j)
    for members in classes.values():
        targets = members[:]
        rng.shuffle(targets)
        for j, t in zip(members, targets):
            perm[j] = t
    units = [rng.choice([u for u in range(1, n) if gcd(u, n) == 1]) for n in orders]

    def apply(exps: list[int]) -> list[int]:
        out = [0] * len(orders)
        for j, x in enumerate(exps):
            out[perm[j]] = units[j] * x % orders[j]
        return out

    return apply


def relabel(datum, rng: random.Random):
    doc = docio.datum_document(datum)
    phi = random_automorphism(doc["group"], rng)
    order = [0, 1, 2]
    rng.shuffle(order)
    kernels = [[phi(g) for g in gens] for gens in doc["kernels"]]
    vectors = [{"g_prime": v["g_prime"],
                "branch": [phi(g) for g in v["branch"]],
                "eta": [phi(g) for g in v["eta"]]} for v in doc["vectors"]]
    return docio.parse_datum_document({
        "group": doc["group"],
        "kernels": [kernels[i] for i in order],
        "vectors": [vectors[i] for i in order]})


def labelling_free_values(datum) -> dict:
    result = aut0(datum)
    return {
        "hodge": hodge_diamond(datum).h,
        "aut0": list(result.invariant_factors),
        "status": result.status,
        "admissible": result.admissible_counts,
        "kernel_orders": [representation_kernel(datum, p, q).order
                          for p, q in ((3, 0), (2, 1), (2, 0), (1, 1))],
    }


@pytest.mark.parametrize("name", sorted(DATA))
def test_values_do_not_depend_on_the_labelling(name):
    datum = DATA[name]()
    want = labelling_free_values(datum)
    rng = random.Random(f"relabel/{name}")
    for _ in range(RELABELLINGS):
        image = relabel(datum, rng)
        assert labelling_free_values(image) == want
