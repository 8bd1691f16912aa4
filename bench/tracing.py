"""Per-layer tracing of the isoprod public API, from outside the library.

:class:`Tracer` wraps the public functions of each layer while it is
entered and restores every patched attribute when it exits.  Names that
other modules re-bound at import time (``search.aut0``,
``cli.compute_aut0``, ``hodge.validate_datum``, the package namespace) are
found by identity and patched too.  Timed functions record a span (name,
start, end, parent span, pass id) into flat in-memory arrays; generator
functions such as ``Subgroup.elements`` and very cheap helpers are only
counted, because a span around a generator would time its consumer.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (layer, attribute path) of every timed function.  The layer is the
# isoprod module that defines it.
TIMED = (
    ("groups", "smith_normal_form"),
    ("groups", "unimodular_inverse"),
    ("groups", "row_hermite"),
    ("groups", "subgroup_quotient"),
    ("groups", "Subgroup.annihilator"),
    ("covering", "stabilizer_union"),
    ("covering", "cw_dimension"),
    ("datum", "validate_datum"),
    ("datum", "AlgebraicDatum.stabilizer_preimage"),
    ("hodge", "eigendim_table"),
    ("hodge", "hodge_diamond"),
    ("aut0", "aut0"),
    ("aut0", "admissible_characters"),
    ("aut0", "representation_kernel"),
    ("aut0", "verify_generator"),
    ("search", "survey"),
    ("search", "estimate_space"),
    ("oracle", "brute_hodge"),
    ("oracle", "brute_kernel"),
    ("oracle", "brute_quotient"),
    ("oracle", "enumerate_subgroup"),
    ("docio", "loads"),
    ("docio", "dumps"),
    ("cli", "build_report"),
)
COUNTED = (
    ("covering", "genus"),
)
GENERATORS = (
    ("groups", "Subgroup.elements"),
)

WRAPPER_MARK = "__bench_wrapper__"


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval.  ``parent[i]`` is the index of the parent span,
    or -1 for a root.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def _isoprod_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "isoprod" or name.startswith("isoprod."))]


class Tracer:
    """Install with ``with Tracer() as t:``; call ``t.begin_pass`` and
    ``t.end_pass`` around each pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.pass_of = array("i")
        self.outer = array("b")     # 0 when a span of the same name encloses it
        self._stack: list[int] = []
        self._active: list[int] = []
        self.pass_id = 0
        self.passes: list[int] = []
        self.counts: dict[int, Counter] = {}
        self._counter: Counter = Counter()
        self.patches: list[tuple[object, str, object]] = []
        self._last_table = None
        self._data_seen: dict[int, object] = {}
        self.origin = time.perf_counter()

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def count(self, key: str, n: float = 1) -> None:
        self._counter[key] += n

    def _timed(self, name: str, fn, after=None):
        nid = self._name_id(name)
        start, end, names, parent = self.start, self.end, self.name, self.parent
        pass_of, outer, stack, active = self.pass_of, self.outer, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            pass_of.append(self.pass_id)
            outer.append(active[nid] == 0)
            end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _counted_generator(self, name: str, fn):
        calls, yielded = name + ".calls", name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(calls)
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self.count(yielded, n)

        return wrapper

    # -- hooks that record sizes at layer boundaries --------------------------

    def _after_eigendim_table(self, args, kwargs, table) -> None:
        self._last_table = table

    def _after_hodge_diamond(self, args, kwargs, result) -> None:
        table = kwargs.get("table", args[1] if len(args) > 1 else None)
        a, b, c = (len(t) for t in (table or self._last_table).tables)
        # The (3,0) loop and the three (2,1) loops each run over two supports.
        self.count("hodge.convolution_terms", 2 * a * b + a * c + b * c)

    def _after_validate_datum(self, args, kwargs, result) -> None:
        datum = args[0] if args else kwargs["datum"]
        self._data_seen.setdefault(id(datum), datum)

    def _after_factor_spaces(self, args, kwargs, spaces) -> None:
        self.count("search.kernel_triples")
        n = 1
        for space in spaces:
            n *= len(space.branch_sets)
        self.count("search.branch_triples", n)

    def _after_survey(self, args, kwargs, result) -> None:
        self.count("search.weighted_data", result.count)

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.passes.append(pass_id)
        self._counter = self.counts.setdefault(pass_id, Counter())

    def end_pass(self) -> None:
        """Close the per-pass counters that need the whole pass."""
        self.count("datum.distinct_data", len(self._data_seen))
        self._data_seen.clear()
        self._last_table = None

    # -- installing ------------------------------------------------------------

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in _isoprod_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _install(self, layer: str, path: str, make) -> None:
        module = sys.modules["isoprod." + layer]
        name = f"{layer}.{path}"
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            wrapper = make(name, original)
            setattr(wrapper, WRAPPER_MARK, True)
            self.patches.append((cls, attr, original))
            setattr(cls, attr, wrapper)
        else:
            original = getattr(module, path)
            wrapper = make(name, original)
            setattr(wrapper, WRAPPER_MARK, True)
            self._patch_everywhere(original, wrapper)

    def __enter__(self) -> "Tracer":
        import isoprod.cli  # noqa: F401  (loads every layer module)
        import isoprod.oracle  # noqa: F401
        import isoprod.search  # noqa: F401

        hooks = {
            "hodge.eigendim_table": self._after_eigendim_table,
            "hodge.hodge_diamond": self._after_hodge_diamond,
            "datum.validate_datum": self._after_validate_datum,
            "search.survey": self._after_survey,
        }
        try:
            for layer, path in TIMED:
                self._install(layer, path, lambda name, fn: self._timed(
                    name, fn, hooks.get(name)))
            for layer, path in COUNTED:
                self._install(layer, path, self._counted)
            for layer, path in GENERATORS:
                self._install(layer, path, self._counted_generator)
            # Private helper, counted for the kernel- and branch-triple totals.
            self._install("search", "_factor_spaces", lambda name, fn: self._timed(
                name, fn, self._after_factor_spaces))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put back every patched attribute, last patch first."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ---------------------------------------------------------------

    def pass_metrics(self) -> dict[int, dict[str, float]]:
        """Per pass: ``<name>.calls``, ``<name>.s`` (inclusive, outermost
        spans only) and ``<name>.self_s`` for every span name, plus the
        counters."""
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[int, dict[str, float]] = {}
        for i, nid in enumerate(self.name):
            m = out.setdefault(self.pass_of[i], {})
            name = self.names[nid]
            m[name + ".calls"] = m.get(name + ".calls", 0) + 1
            if self.outer[i]:
                m[name + ".s"] = m.get(name + ".s", 0.0) + self.end[i] - self.start[i]
            m[name + ".self_s"] = m.get(name + ".self_s", 0.0) + selfs[i]
        for pass_id, counter in self.counts.items():
            out.setdefault(pass_id, {}).update(counter)
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as CSV: pass, name, start and end in seconds
        from the tracer's creation, and the parent's row index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("row,pass,name,start_s,end_s,parent\n")
            o = self.origin
            for i, nid in enumerate(self.name):
                fh.write(f"{i},{self.pass_of[i]},{self.names[nid]},"
                         f"{self.start[i] - o:.9f},{self.end[i] - o:.9f},{self.parent[i]}\n")


def layer_metrics(per_pass: list[dict[str, float]], names: list[str]) -> dict[str, float]:
    """Median over traced passes of each named metric, with the derived
    ratios; a metric a pass never recorded counts as 0 in that pass."""
    def med(key: str) -> float:
        return statistics.median(m.get(key, 0) for m in per_pass)

    def ratio(num: str, den: str) -> float:
        return statistics.median(
            m.get(num, 0) / m[den] if m.get(den) else 0.0 for m in per_pass)

    derived = {
        "aut0.admissible_per_aut0": ratio("aut0.admissible_characters.calls",
                                          "aut0.aut0.calls"),
        "datum.validate_per_datum": ratio("datum.validate_datum.calls",
                                          "datum.distinct_data"),
        "search.valid_share": statistics.median(
            m.get("aut0.aut0.calls", 0) / m["datum.validate_datum.calls"]
            if m.get("search.survey.calls") and m.get("datum.validate_datum.calls")
            else 0.0 for m in per_pass),
    }
    return {name: derived[name] if name in derived else med(name) for name in names}
