"""Bounded enumeration of algebraic data over a fixed ambient group.

The candidate space is: a set of kernel triples (all cyclic subgroups, or
an explicit list), and per factor all branch multisets with trivial
product plus all handle tuples.  Enumeration is deterministic, prunes in
cost order (product relation, generation, freeness from the stabilizer
preimages, before any datum is built), and the survey
aggregates the distribution of the numerically trivial automorphism
groups.  The automorphism computation only depends on the kernels and the
branch multisets, so the survey runs it once per branch triple and counts
handle choices by multiplicity.

Each check runs once at the level it depends on:

- per kernel triple (``_KernelTriple``): minimality with its witness
  (``datum._kernel_checks``, which also filters the kernel triples and
  decides each pair of kernels once), and, from the first valid datum on,
  ``K``'s image in ``G^3 / Delta_G = G^2`` and the Hermite basis of the
  canonical representatives (``aut0._KernelPieces``);
- per subgroup that a branch multiset generates, and per base genus, once
  per ``survey`` call: the number of handle tuples completing it
  (``_handle_count``) and the first of them (``_completions``);
- per factor branch, inside one kernel triple (``_Branch``): the lifted
  ``VectorSpec`` and the ``GeneratingVector``, its checks
  (``datum._factor_checks``: outcome, genus and ``fixing``), from the
  first valid datum on its Chevalley-Weil classes (``hodge._class_lattice``,
  one record passed as it is), and from the first datum with generators
  its packed pre-admissible set from the walk over ``Ann(K_i)``
  (``aut0._pre_admissible_set``), which the independent re-check reads;
- per factor and distinct ``A_i``, inside one kernel triple: the packed
  pre-admissible set that a listing reads (``_KernelPieces``);
- per distinct triple of ``A_i``, inside one kernel triple: the admissible
  counts and the spans of the (3,0) and (2,0) kernels, listed or read off
  the classes, which the ``_KernelPieces.memo`` of the kernel triple,
  keyed by the three ``A_i`` bases, keeps;
- per distinct admissible span, inside one kernel triple: ``aut0``'s
  kernel (``_KernelPieces.kernel``), and its quotient by ``K Delta_G`` and
  canonical generators (``_KernelPieces.lattice``), both in ``G^2``;
- per distinct walked sets and generators, inside one kernel triple: the
  verdict of the independent re-check of the generators
  (``_KernelTriple.verify``: ``aut0._verify_generators``, that is
  ``verify_generator`` of all of them at once), which enumerates the
  admissible characters afresh from the three walked sets and, given
  them, reads only ``G``.  ``_candidates`` builds the ``_KernelTriple``
  objects afresh, so these memos belong to one ``survey`` call;
- per branch triple: first whether the three branches' ``fixing`` sets
  share an element (``_free``, with no witness), which rejects a non-free
  triple with no datum, validation or ``aut0``.  Only a free triple gets
  its datum, the full ``validate_datum`` (freeness again, with its
  witness), the memo lookup, the status and theorem bounds (``aut0``), and
  the re-check verdict of its generators on its own walked sets, listed
  when that pair of walked sets and generators is new.

``validate_datum`` and ``aut0`` take these pieces as arguments and compute
exactly what they would compute for a lone datum.  The checks above pass
only valid data, so an invalid datum is an internal error, not a skip.  A
``ConsistencyError`` or ``TheoremViolationError`` from a datum's work ends
with ``; datum`` and its canonical document on one line, which
``isoprod report`` replays.

Before any other work, the kernel triples are formed once and
``_candidates`` refuses a space whose estimated branch triples
(``estimate_space``) exceed the cap; ``enumerate_data`` first refuses too
many handle tuples on the same triples.  The ``"cyclic"`` policy refuses a
group of more elements than the cap before it lists them.
"""

from __future__ import annotations

import itertools
import json
import sys
from math import comb, log10, prod
from typing import Iterator, Sequence

from .aut0 import Aut0Result, _KernelPieces, _pre_admissible_set, _verify_generators, aut0
from .covering import GeneratingVector, _riemann_hurwitz
from .datum import (
    AlgebraicDatum,
    DatumReport,
    VectorSpec,
    _factor_checks,
    _kernel_checks,
    validate_datum,
)
from .docio import _group_orders, _integer, _kernel_triple, _object, datum_document
from .errors import ConsistencyError, SchemaError, SearchCapError, TheoremViolationError
from .hodge import _class_lattice, _ClassLattice
from .groups import (
    AbelianGroup,
    GroupElement,
    PackedCharacters,
    QuotientStructure,
    Subgroup,
    _Frozen,
    _Record,
    _set,
    quotient_structure,
)

DEFAULT_CAP = 2_000_000
_SPEC_KEYS = ("group", "kernels", "g_primes", "max_branch", "branch_order_bound", "cap")


class SearchSpec(_Frozen):
    """Finite description of a search space.

    ``kernels`` is either the policy string ``"cyclic"`` (all cyclic
    subgroups, minimality-filtered) or an explicit list of triples of
    generator exponent lists.  The constructor checks every field, with the
    ``SchemaError`` messages of a search document.
    """

    _fields = ("group_orders", "kernels", "g_primes", "max_branch", "branch_order_bound", "cap")

    def __init__(self, group_orders: Sequence[int], kernels: object = "cyclic",
                 g_primes: Sequence[int] = (1, 1, 1), max_branch: int = 4,
                 branch_order_bound: int | None = None, cap: int = DEFAULT_CAP):
        orders = _group_orders(group_orders)
        if kernels != "cyclic":
            if not isinstance(kernels, (list, tuple)):
                raise SchemaError('kernels must be "cyclic" or a list of kernel triples')
            kernels = tuple(_kernel_triple(triple, len(orders)) for triple in kernels)
        if not isinstance(g_primes, (list, tuple)) or len(g_primes) != 3:
            raise SchemaError("g_primes must list three base genera")
        _set(self, "group_orders", orders)
        _set(self, "kernels", kernels)
        _set(self, "g_primes", tuple(_integer(g, "g_prime", 0) for g in g_primes))
        _set(self, "max_branch", _integer(max_branch, "max_branch", 0))
        _set(self, "branch_order_bound", None if branch_order_bound is None
             else _integer(branch_order_bound, "branch_order_bound", 1))
        _set(self, "cap", _integer(cap, "cap", 0))

    @staticmethod
    def from_document(doc: dict) -> "SearchSpec":
        doc = _object(doc, _SPEC_KEYS, ("group",))
        return SearchSpec(doc["group"], **{key: doc[key] for key in _SPEC_KEYS[1:] if key in doc})


def _cyclic_subgroups(group: AbelianGroup) -> list[Subgroup]:
    seen = {}
    for g in group.elements():
        sub = group.subgroup([g])
        seen.setdefault(sub.basis, sub)
    return sorted(seen.values(), key=lambda s: (s.order, s.basis))


def _kernel_triples(spec: SearchSpec, group: AbelianGroup) -> list[tuple[Subgroup, ...]]:
    """The minimal kernel triples of the space (``datum._kernel_checks``)."""
    if spec.kernels == "cyclic":
        if group.order > spec.cap:
            raise SearchCapError(f"listing the cyclic subgroups of a group of order "
                                 f"{group.order} exceeds the cap of {spec.cap}")
        cyclic = _cyclic_subgroups(group)
        triples = itertools.product(cyclic, repeat=3)
    else:
        triples = (
            tuple(group.subgroup([group.element(gen) for gen in gens])
                  for gens in triple)
            for triple in spec.kernels)
    return [triple for triple in triples if _kernel_checks(triple).minimality_witness is None]


def _branch_multisets(quotient: AbelianGroup, max_r: int,
                      order_bound: int | None) -> list[tuple[GroupElement, ...]]:
    """Nondecreasing tuples of nontrivial elements with trivial product, in
    lexicographic order, walked with an explicit stack instead of recursion."""
    pool = [g for g in quotient.elements() if not g.is_zero]  # lexicographic
    if order_bound is not None:
        pool = [g for g in pool if g.order <= order_bound]
    out = []
    stack = [((), quotient.zero, 0)]
    while stack:
        chosen, total, start = stack.pop()
        if len(chosen) >= 2 and total.is_zero:
            out.append(chosen)
        if len(chosen) < max_r:
            stack.extend((chosen + (pool[i],), total + pool[i], i)
                         for i in reversed(range(start, len(pool))))
    return out


# Its own class for ``bench/tracing.py``, which counts ``branch_sets`` of each space.
class _FactorSpace:
    def __init__(self, quotient_structure: QuotientStructure,
                 branch_sets: list[tuple[GroupElement, ...]]):
        self.quotient_structure, self.branch_sets = quotient_structure, branch_sets


# Its own function because ``bench/tracing.py`` patches it by name for its triple counts.
def _factor_spaces(spec: SearchSpec, kernels: Sequence[Subgroup],
                   group: AbelianGroup) -> list[_FactorSpace]:
    """The three factor spaces of a kernel triple."""
    spaces = []
    for i, kernel in enumerate(kernels):
        q = quotient_structure(group, kernel)
        # Curves of genus < 2 are dropped here, also where the base genus
        # makes 2g - 2 negative (``genus`` raises on those).
        branch = [b for b in _branch_multisets(q.group, spec.max_branch,
                                               spec.branch_order_bound)
                  if _riemann_hurwitz(q.group.order, spec.g_primes[i], b) >= 2]
        spaces.append(_FactorSpace(q, branch))
    return spaces


# Public; ``_candidates`` sums ``_triple_bounds`` itself, so the tests and the bench call it.
def estimate_space(spec: SearchSpec) -> int:
    """Upper bound on the number of branch triples to be examined, computed
    before any validation work.  The survey counts handle tuples without
    listing them, so they do not enter this estimate."""
    group = AbelianGroup(spec.group_orders)
    return sum(_triple_bounds(spec, group, _kernel_triples(spec, group)))


def _triple_bounds(spec: SearchSpec, group: AbelianGroup,
                   triples: Sequence[tuple[Subgroup, ...]]) -> list[int]:
    """Per kernel triple, the product of its factors' ``_multiset_bound``,
    with one bound per kernel order; 0 exactly when a factor has no branch
    multiset (a trivial quotient, or ``max_branch`` below 2)."""
    bound = {d: _multiset_bound(group.order // d, spec.max_branch)
             for d in {kernel.order for kernels in triples for kernel in kernels}}
    return [prod(bound[kernel.order] for kernel in kernels) for kernels in triples]


def _multiset_bound(q_order: int, max_branch: int) -> int:
    """Multisets of 2 to ``max_branch`` nontrivial elements of a group of
    order ``q_order``, product relation ignored."""
    n_pool = q_order - 1
    return sum(comb(n_pool + r - 1, r) for r in range(2, max_branch + 1))


def _check_handle_work(spec: SearchSpec, group: AbelianGroup,
                       triples: Sequence[tuple[Subgroup, ...]]) -> None:
    """Refuse a factor whose ``|Q|^(2g')`` handle tuples, each scanned once
    per branch multiset, exceed the cap; ``enumerate_data`` lists them.
    ``|Q|^(2g')`` is at least ``2^(2g' (b - 1))`` for the bit length ``b``
    of ``|Q|``, which refuses a huge power without forming it; below that
    the work is compared exactly.  The message names no count, which could
    have more digits than Python prints."""
    for kernels in triples:
        for kernel, g_prime in zip(kernels, spec.g_primes):
            q_order = group.order // kernel.order
            multisets = _multiset_bound(q_order, spec.max_branch)
            if multisets and (
                    2 * g_prime * (q_order.bit_length() - 1) >= spec.cap.bit_length()
                    or q_order ** (2 * g_prime) * multisets > spec.cap):
                raise SearchCapError(
                    f"the |Q|^(2g') handle tuples times branch multisets of a factor with "
                    f"|Q| = {q_order} and g' = {g_prime} exceed the cap of {spec.cap}")


def _handle_count(quotient: AbelianGroup, base: Subgroup, g_prime: int) -> int:
    """The ``k = 2 g'``-tuples completing ``base`` to all of ``Q`` (P. Hall,
    1936): ``|Q|^k prod_p prod_{i < d_p} (p^k - p^i) / p^(k d_p)``, where
    ``d_p`` counts the invariant factors of ``Q / base`` divisible by ``p``."""
    k = 2 * g_prime
    factors = quotient_structure(quotient, base).invariant_factors.factors
    count = quotient.order ** k
    for p in range(2, max(factors, default=1) + 1):
        if factors[-1] % p == 0 and all(p % r for r in range(2, p)):
            d = sum(f % p == 0 for f in factors)
            count = count * prod(p ** k - p ** i for i in range(d)) // p ** (k * d)
    return count


def _completions(quotient: AbelianGroup, branch: tuple[GroupElement, ...],
                 g_prime: int) -> Iterator[tuple[GroupElement, ...]]:
    """The handle tuples completing ``branch`` to a generating vector, lazily
    and in sorted order (the product of the lexicographic element list).
    Every tuple completes a branch that generates ``Q`` alone, so then none
    is tested."""
    etas = itertools.product(quotient.elements(), repeat=2 * g_prime)
    if quotient.subgroup(branch).order == quotient.order:
        return etas
    return (eta for eta in etas if quotient.subgroup(branch + eta).order == quotient.order)


class _Branch:
    """One branch multiset of one factor inside one kernel triple, with the
    pieces computed from it once: the number of completing handle tuples
    (``count``), the vector and lifted ``VectorSpec`` with the first of
    them, its validation checks (whose ``fixing`` ``_free`` reads), its
    Chevalley-Weil
    classes (``classes``, filled by ``_KernelTriple.aut0``), its packed
    pre-admissible set from the walk (``walked``, filled by
    ``_KernelTriple.verify``) and the vector and spec of every completing
    handle tuple (``vectors``, listed at its first call)."""

    def __init__(self, group: AbelianGroup, kernel: Subgroup, q: QuotientStructure,
                 g_prime: int, branch: tuple[GroupElement, ...], count: int,
                 eta: tuple[GroupElement, ...]):
        self.count = count
        self._q, self._g_prime, self._branch = q, g_prime, branch
        self._lifted = tuple(q.lift(b) for b in branch)
        self.vector, self.raw = self._vector(eta)
        self.checks = _factor_checks(group, kernel, q, self.vector)
        self.classes: _ClassLattice | None = None
        self.walked: tuple[int, ...] | None = None
        self._vectors: list[tuple[GeneratingVector, VectorSpec]] | None = None

    def _vector(self, eta: tuple[GroupElement, ...]) -> tuple[GeneratingVector, VectorSpec]:
        q = self._q
        return (GeneratingVector(q.group, self._g_prime, self._branch, eta),
                VectorSpec(self._g_prime, self._lifted, tuple(q.lift(e) for e in eta)))

    def vectors(self) -> list[tuple[GeneratingVector, VectorSpec]]:
        """The vector and lifted spec for every completing handle tuple,
        listed once per branch; only ``enumerate_data`` reads them."""
        if self._vectors is None:
            self._vectors = list(map(self._vector, _completions(
                self._q.group, self._branch, self._g_prime)))
        return self._vectors


class _KernelTriple:
    """One kernel triple with the pieces computed from it once: its quotients
    and kernel checks, (filled by ``aut0``) its ``_KernelPieces``, and
    (filled by ``verify``) the re-check verdict of each distinct triple of
    walked sets and generators."""

    def __init__(self, group: AbelianGroup, kernels: tuple[Subgroup, ...],
                 quotients: tuple[QuotientStructure, ...]):
        self.group, self.kernels, self.quotients = group, kernels, quotients
        self.checks = _kernel_checks(kernels)
        self._codec = PackedCharacters(group)
        self._pieces = None
        self._verdicts: dict[tuple, bool] = {}

    def datum(self, branches: Sequence[_Branch],
              vectors: Sequence[tuple[GeneratingVector, VectorSpec]] | None = None,
              ) -> AlgebraicDatum:
        """The datum of a branch triple with the first handle tuples, or with
        the given ``(vector, spec)`` per factor."""
        if vectors is None:
            vectors = [(b.vector, b.raw) for b in branches]
        return AlgebraicDatum(self.group, self.kernels, tuple(v for v, _ in vectors),
                              self.quotients, tuple(r for _, r in vectors))

    def validate(self, datum: AlgebraicDatum, branches: Sequence[_Branch]) -> DatumReport:
        return validate_datum(datum, self.checks, [b.checks for b in branches])

    def aut0(self, datum: AlgebraicDatum, report: DatumReport,
             branches: Sequence[_Branch]) -> Aut0Result:
        if self._pieces is None:
            self._pieces = _KernelPieces(datum)
        for i, b in enumerate(branches):
            if b.classes is None:
                b.classes = _class_lattice(datum, i)
        return aut0(datum, report, self._pieces, [b.classes for b in branches])

    def verify(self, datum: AlgebraicDatum, generators: Sequence[GroupElement],
               branches: Sequence[_Branch]) -> bool:
        """The independent re-check of ``generators`` (``_verify_generators``)
        on the three packed pre-admissible sets of the walk over
        ``Ann(K_i)``; each branch walks once.  Given the walked sets, the
        check reads only ``G``, so its verdict is kept per distinct walked
        sets and generators."""
        for i, b in enumerate(branches):
            if b.walked is None:
                b.walked = tuple(_pre_admissible_set(datum, i, self._codec))
        walked = tuple(b.walked for b in branches)
        key = (walked, tuple(g.exponents for g in generators))
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = _verify_generators(datum, generators, walked)
        return verdict


def _candidates(spec: SearchSpec, group: AbelianGroup,
                triples: Sequence[tuple[Subgroup, ...]] | None = None,
                ) -> Iterator[tuple[_KernelTriple, tuple[_Branch, _Branch, _Branch]]]:
    """Every branch triple that some handle tuples complete to generating
    vectors, in canonical order, as its kernel triple and its three
    branches.  The branches and their pieces are built once per kernel
    triple.  A caller that has formed the kernel ``triples`` passes them.

    Raises ``SearchCapError`` before any work when the estimated space
    exceeds the cap, or when the count could have more digits than Python
    prints.  A kernel triple with no branch triple is skipped unlisted.
    """
    if triples is None:
        triples = _kernel_triples(spec, group)
    sizes = _triple_bounds(spec, group, triples)
    estimate = sum(sizes)
    if estimate > spec.cap:
        raise SearchCapError(
            f"estimated candidate space of {estimate} exceeds the cap of {spec.cap}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and estimate:
        # A branch triple has at most prod |Q_i|^(2 g'_i) handle tuples; a
        # g' of 2 * limit alone puts that over 10^limit.
        digits = log10(estimate) + max(
            sum(2 * min(g, 2 * limit) * log10(group.order // kernel.order)
                for kernel, g in zip(kernels, spec.g_primes))
            for kernels, size in zip(triples, sizes) if size)
        if digits >= limit:
            raise SearchCapError(f"the survey count could have more than {limit} "
                                 "digits, Python's limit for an integer")
    handles: dict = {}
    for kernels, size in zip(triples, sizes):
        if not size:
            continue
        spaces = _factor_spaces(spec, kernels, group)
        triple = _KernelTriple(group, kernels, tuple(s.quotient_structure for s in spaces))
        factors = []
        for i, space in enumerate(spaces):
            q, g_prime = space.quotient_structure, spec.g_primes[i]
            branches = []
            for branch in space.branch_sets:
                key = (q.group.subgroup(branch), g_prime)
                if key not in handles:
                    count = _handle_count(q.group, key[0], g_prime)
                    eta = next(_completions(q.group, branch, g_prime)) if count else None
                    handles[key] = count, eta
                count, eta = handles[key]
                if count:
                    branches.append(_Branch(group, kernels[i], q, g_prime, branch, count, eta))
            factors.append(branches)
        for branches in itertools.product(*factors):
            yield triple, branches


def _free(branches: Sequence[_Branch]) -> bool:
    """Whether ``G`` acts freely on the product of the three branches'
    curves: no nontrivial element lies in all three stabilizer preimages.
    It reads the preimages alone, so it runs before any datum is built;
    ``validate_datum`` names a witness, this only asks whether one exists."""
    a, b, c = (branch.checks.fixing for branch in branches)
    return a.isdisjoint(b & c)


def enumerate_data(spec: SearchSpec) -> Iterator[AlgebraicDatum]:
    """Stream exactly the valid data of the space in canonical order.

    Branch tuples are emitted in nondecreasing element order, which is the
    permutation dedup; every emitted datum passes the full validation.
    """
    group = AbelianGroup(spec.group_orders)
    triples = _kernel_triples(spec, group)
    _check_handle_work(spec, group, triples)
    for triple, branches in _candidates(spec, group, triples):
        if not _free(branches):
            continue
        for vectors in itertools.product(*(b.vectors() for b in branches)):
            yield triple.datum(branches, vectors)


class SurveyResult(_Record):
    _fields = ("count", "histogram", "status_counts", "extremal")
    # Mutable, so unhashable.
    __hash__ = None

    def __init__(self, count: int, histogram: dict[tuple[int, ...], int],
                 status_counts: dict[str, int],
                 extremal: list[tuple[tuple[int, ...], AlgebraicDatum, Aut0Result]] | None = None):
        self.count, self.histogram, self.status_counts = count, histogram, status_counts
        self.extremal = [] if extremal is None else extremal

    def as_document(self) -> dict:
        return {
            "count": self.count,
            "histogram": {"[" + ",".join(map(str, k)) + "]": v
                          for k, v in sorted(self.histogram.items())},
            "statuses": dict(sorted(self.status_counts.items())),
        }


def survey(spec: SearchSpec) -> SurveyResult:
    """Aggregate the automorphism groups over the whole space.

    The automorphism result of a datum does not depend on its handle
    elements, so each branch triple is computed once and weighted by the
    number of handle tuples completing it to a generating vector.  A
    branch triple that is not free is skipped before its datum is built;
    every other datum must pass validation.  The generators of each datum
    are re-checked on the sets of the walk over its ``Ann(K_i)``; the
    verdict is listed once per distinct walked sets and generators within a
    kernel triple.  A violation names its datum (see the module notes).
    """
    group = AbelianGroup(spec.group_orders)
    histogram: dict[tuple[int, ...], int] = {}
    status_counts: dict[str, int] = {}
    count = 0
    extremal: dict[tuple[int, ...], tuple[AlgebraicDatum, Aut0Result]] = {}
    for triple, branches in _candidates(spec, group):
        if not _free(branches):
            continue
        datum = triple.datum(branches)
        try:
            report = triple.validate(datum, branches)
            if not report.ok:
                raise ConsistencyError("survey datum passed the survey's checks but is not valid")
            result = triple.aut0(datum, report, branches)
            if result.generators and not triple.verify(datum, result.generators, branches):
                raise TheoremViolationError(
                    "survey generator failed independent re-verification")
        except (ConsistencyError, TheoremViolationError) as exc:
            doc = json.dumps(datum_document(datum), separators=(",", ":"))
            raise type(exc)(f"{exc}; datum {doc}") from exc
        key = tuple(result.invariant_factors)
        weight = prod(b.count for b in branches)
        count += weight
        histogram[key] = histogram.get(key, 0) + weight
        status_counts[result.status.value] = \
            status_counts.get(result.status.value, 0) + weight
        if key not in extremal:
            extremal[key] = (datum, result)
    return SurveyResult(
        count=count,
        histogram=histogram,
        status_counts=status_counts,
        extremal=[(k, d, r) for k, (d, r) in sorted(extremal.items())],
    )
