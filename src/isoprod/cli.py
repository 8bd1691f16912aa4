"""Reports: one machine-readable report object per datum, and its text
rendering, which is never computed separately.

``build_report`` loads neither click nor the oracle: the oracle is imported
when a report first asks for its cross-check, and click only by the
command line (``isoprod.__main__``), which prints these reports.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

from . import docio
from .aut0 import _kernel_pieces, _solved, _walked_admissible
from .aut0 import aut0 as compute_aut0
from .datum import AlgebraicDatum, invariants, rigidity_class, validate_datum
from .errors import ConsistencyError, OracleScaleError, UnsupportedDatumError
from .groups import Character, Subgroup
from .hodge import _class_lattice, _ClassLattice, eigendim_table, hodge_diamond


def _validation_section(datum: AlgebraicDatum, report) -> dict:
    return {
        "ok": report.ok,
        "minimality_ok": report.minimality_ok,
        "minimality_witness": list(report.minimality_witness)
        if report.minimality_witness else None,
        "freeness_ok": report.freeness_ok,
        "freeness_witness": list(report.freeness_witness.exponents)
        if report.freeness_witness else None,
        "vectors": [list(v.violations) for v in report.vector_outcomes],
        "genera": list(report.genera),
        "irregularity": report.irregularity,
        "rigidity_class": rigidity_class(datum).value,
    }


def _invariants_section(datum: AlgebraicDatum, report) -> dict:
    section = {"genera": list(report.genera), "irregularity": report.irregularity}
    try:
        inv = invariants(datum)
    except ConsistencyError:
        section.update(chi_structure_sheaf=None, euler_number=None, canonical_cube=None)
    else:
        section.update(chi_structure_sheaf=inv.chi_structure_sheaf,
                       euler_number=inv.euler_number,
                       canonical_cube=inv.canonical_cube)
    return section


class _Analysis:
    """What a report computes for one datum, each piece once, when a section
    first reads it.  ``aut0``, the kernels and the oracle sections pass the
    same ``classes`` and share one entry of ``pieces.memo``, filed under the
    ``A_i`` bases (``aut0._solved``): the admissible counts and the spans
    of the ``(3,0)`` and ``(2,0)`` kernels.  Every kernel, quotient and set
    of generators comes from ``pieces.kernel`` and ``pieces.lattice``,
    which form each once per span, whichever section reads it first.  The
    oracle's kernel check lists the admissible characters for itself
    (``admissible``).

    Chevalley-Weil needs valid generating vectors: without them there is no
    eigenspace table and no diamond (``None``), and the classes come from
    the bare class lattice.
    """

    def __init__(self, datum: AlgebraicDatum):
        self.datum = datum
        self.report = validate_datum(datum)

    @cached_property
    def diamond(self):
        if not self.report.vectors_ok:
            return None
        return hodge_diamond(self.datum, table=self.table, report=self.report)

    @cached_property
    def table(self):
        return eigendim_table(self.datum)

    @cached_property
    def classes(self) -> Sequence[_ClassLattice]:
        """Each factor's classes, from the eigenspace table or, without
        valid vectors, the class lattice."""
        if self.report.vectors_ok:
            return self.table._classes
        return [_class_lattice(self.datum, i) for i in range(3)]

    @cached_property
    def pieces(self):
        return _kernel_pieces(self.datum)

    @cached_property
    def solved(self):
        return _solved(self.datum, self.pieces, self.classes)

    def admissible(self) -> Iterator[Character]:
        """The admissible characters of the walk over each ``Ann(K_i)``
        (``aut0._walked_admissible``), listed at the first read."""
        yield from _walked_admissible(self.datum)

    def kernel(self, pq: tuple[int, int]) -> Subgroup:
        return self.pieces.kernel(self.solved.span(pq), pq)


def _aut0_section(a: _Analysis) -> dict:
    try:
        result = compute_aut0(a.datum, a.report, a.pieces, a.classes)
    except UnsupportedDatumError as exc:
        return {"status": "Unsupported", "detail": str(exc)}
    return {
        "status": result.status.value,
        "invariant_factors": list(result.invariant_factors),
        "order": result.order,
        "generators": [list(g.exponents) for g in result.generators],
        "admissible_first": result.admissible_counts[0],
        "admissible_second": result.admissible_counts[1],
    }


def _kernels_section(a: _Analysis) -> dict:
    # The (2,1) and (1,1) kernels equal the (3,0) and (2,0) ones.
    h30, h20 = a.kernel((3, 0)).order, a.kernel((2, 0)).order
    return {key: {"order": order}
            for key, order in (("h30", h30), ("h21", h30), ("h20", h20), ("h11", h20))}


def _oracle_section(a: _Analysis) -> dict:
    from .oracle import brute_hodge, brute_kernel, brute_quotient, enumerate_subgroup

    agreement = {}
    try:
        fast = a.diamond
        if fast is None:
            agreement["hodge"] = "skipped: no Hodge diamond without valid generating vectors"
        else:
            slow = brute_hodge(a.datum)
            agreement["hodge"] = "agree" if fast.h == slow.h else "DISAGREE"
    except OracleScaleError as exc:
        agreement["hodge"] = f"skipped: {exc}"
    try:
        fast_kernel, k_delta = a.kernel((3, 0)), a.pieces.k_delta
        slow_kernel = brute_kernel(a.datum, a.admissible())
        # One oracle closure of the fast kernel serves both checks below.
        closure = enumerate_subgroup(fast_kernel)
        kernels_match = closure.codes == slow_kernel.codes
        quotient, _ = a.pieces.lattice(a.solved.span30)
        factors_match = quotient.invariant_factors == brute_quotient(closure, k_delta)
        agreement["kernel"] = "agree" if kernels_match else "DISAGREE"
        agreement["quotient"] = "agree" if factors_match else "DISAGREE"
    except OracleScaleError as exc:
        agreement.setdefault("kernel", f"skipped: {exc}")
        agreement.setdefault("quotient", f"skipped: {exc}")
    if any(v == "DISAGREE" for v in agreement.values()):
        raise ConsistencyError(f"oracle disagreement: {agreement}")
    return agreement


def build_report(datum: AlgebraicDatum, sections: tuple[str, ...],
                 oracle: bool = False, header: str | None = None) -> dict:
    a = _Analysis(datum)
    out: dict = {}
    if header:
        out["note"] = header
    out["datum"] = docio.datum_document(datum)
    out["validation"] = _validation_section(datum, a.report)
    if "invariants" in sections:
        out["invariants"] = _invariants_section(datum, a.report)
    if "hodge" in sections:
        out["hodge"] = None if a.diamond is None else a.diamond.h
    if "aut0" in sections:
        out["aut0"] = _aut0_section(a)
    if "kernels" in sections:
        out["kernels"] = _kernels_section(a)
    if oracle:
        out["oracle"] = _oracle_section(a)
    return out


def _render_diamond(h) -> list[str]:
    rows = []
    for k in range(7):
        entries = [str(h[p][k - p]) for p in range(4) if 0 <= k - p <= 3]
        if k > 3:
            entries.reverse()
        rows.append("   ".join(entries).center(34).rstrip())
    return rows


def render_text(report: dict) -> str:
    lines = []
    if "note" in report:
        lines.append(f"note: {report['note']}")
    if "datum" in report:
        doc = report["datum"]
        lines.append("group: " + " x ".join(f"Z{n}" for n in doc["group"]))
    if "validation" in report:
        v = report["validation"]
        lines.append(f"validation: {'ok' if v['ok'] else 'FAILED'}")
        if not v["minimality_ok"]:
            lines.append(f"  minimality fails for kernels {v['minimality_witness']}")
        if not v["freeness_ok"]:
            lines.append(f"  action is not free; witness {v['freeness_witness']}")
        for i, violations in enumerate(v["vectors"]):
            for msg in violations:
                lines.append(f"  vector {i + 1}: {msg}")
        lines.append(f"  genera: {v['genera']}  irregularity: {v['irregularity']}"
                     f"  class: {v['rigidity_class']}")
    if "invariants" in report:
        inv = report["invariants"]
        lines.append(f"invariants: chi(O) = {inv['chi_structure_sheaf']}"
                     f"  e = {inv['euler_number']}  K^3 = {inv['canonical_cube']}")
    if "hodge" in report:
        if report["hodge"] is None:
            lines.append("hodge diamond: undefined")
        else:
            lines.append("hodge diamond:")
            lines.extend("  " + row for row in _render_diamond(report["hodge"]))
    if "aut0" in report:
        a = report["aut0"]
        lines.append(f"aut0: status {a['status']}")
        if "invariant_factors" in a:
            name = " + ".join(f"Z{d}" for d in a["invariant_factors"]) or "trivial"
            lines.append(f"  group: {name} (order {a['order']})")
            for gen in a["generators"]:
                lines.append(f"  generator coset: {gen}")
            lines.append(f"  admissible characters: {a['admissible_first']} first kind, "
                         f"{a['admissible_second']} second kind")
    if "kernels" in report:
        for key, val in report["kernels"].items():
            lines.append(f"kernel on {key}: order {val['order']}")
    if "oracle" in report:
        for key, val in report["oracle"].items():
            lines.append(f"oracle {key}: {val}")
    if "survey" in report:
        s = report["survey"]
        lines.append(f"survey: {s['count']} data")
        for key, cnt in s["histogram"].items():
            lines.append(f"  {key}: {cnt}")
        for key, cnt in s["statuses"].items():
            lines.append(f"  status {key}: {cnt}")
    return "\n".join(lines) + "\n"

