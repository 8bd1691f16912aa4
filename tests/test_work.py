"""The work ledger: exact counts of the integer normal forms that the
benchmark's three base inputs run, each from building its data to its
last section, with no relabelling.

Wall time on a shared host cannot resolve a change of a few percent; these
counts are exact and the same in every process.  A change that adds or
removes normal-form work fails ``test_ledger`` and re-records ``LEDGER``,
citing the counts before and after.  The counts are:

- Hermite forms (``groups.row_hermite``): calls, and the sum over calls of
  rows times width;
- Smith forms (``groups._smith``): calls, and the sum over calls of
  ``n ** 3`` for the larger side ``n`` of the matrix.
"""

from __future__ import annotations

import importlib
import sys

import pytest

from conftest import EXAMPLE_LADDER, ORACLE_EXAMPLES
from isoprod import groups
from isoprod.cli import build_report
from isoprod.examples import build_example
from isoprod.search import SearchSpec, survey

search_module = importlib.import_module("isoprod.search")

# The counted routines, by their names in ``groups``.
NORMAL_FORMS = ("row_hermite", "_smith")
REPORT_SECTIONS = ("invariants", "hodge", "aut0", "kernels")
BASIS_KERNELS = (((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))

# (Hermite calls, rows x width, Smith calls, sum of n^3) per input.
LEDGER = {
    "report_ladder": (253, 7552, 32, 2783),
    "survey_basis_r4": (225, 6026, 12, 1193),
    "oracle_crosscheck": (216, 7578, 28, 2486),
}


def _reports(examples, oracle: bool) -> None:
    for name, params in examples:
        build_report(build_example(name, params), REPORT_SECTIONS, oracle=oracle)


INPUTS = {
    "report_ladder": lambda: _reports(EXAMPLE_LADDER, oracle=False),
    "survey_basis_r4": lambda: survey(SearchSpec(group_orders=(2, 2, 2), max_branch=4,
                                                 kernels=(BASIS_KERNELS,))),
    "oracle_crosscheck": lambda: _reports(ORACLE_EXAMPLES, oracle=True),
}


def _count(monkeypatch, run) -> tuple[int, int, int, int]:
    """Run ``run`` with ``NORMAL_FORMS`` counted wherever a package module
    binds them; returns the ledger's four counts."""
    counts = [0, 0, 0, 0]
    hermite, smith = (getattr(groups, name) for name in NORMAL_FORMS)

    def counted_hermite(rows, width):
        rows = list(rows)
        counts[0] += 1
        counts[1] += len(rows) * width
        return hermite(rows, width)

    def counted_smith(a):
        counts[2] += 1
        counts[3] += max(len(a), len(a[0]) if a else 0) ** 3
        return smith(a)

    wrappers = {hermite: counted_hermite, smith: counted_smith}
    for name, module in list(sys.modules.items()):
        if name.startswith("isoprod."):
            for attr in NORMAL_FORMS:
                if getattr(module, attr, None) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[getattr(module, attr)])
    run()
    return tuple(counts)


@pytest.mark.parametrize("name", LEDGER)
def test_ledger(name, monkeypatch):
    assert _count(monkeypatch, INPUTS[name]) == LEDGER[name]


def test_planted_hermite_call_fails_the_ledger(monkeypatch):
    real = search_module._candidates

    def planted(*args, **kwargs):
        groups.row_hermite([[2]], 1)
        return real(*args, **kwargs)

    monkeypatch.setattr(search_module, "_candidates", planted)
    hermite_calls, *_ = _count(monkeypatch, INPUTS["survey_basis_r4"])
    assert hermite_calls == LEDGER["survey_basis_r4"][0] + 1
