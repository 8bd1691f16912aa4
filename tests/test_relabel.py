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

import pytest

from conftest import relabel_document
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


def relabel(datum, rng: random.Random):
    return docio.parse_datum_document(relabel_document(docio.datum_document(datum), rng))


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
