"""Generating vectors for abelian Galois covers of curves.

A cover of a genus ``g'`` base curve with abelian deck group ``Q`` is
presented by branch elements ``sigma_1, ..., sigma_r`` and handle elements
``eta_1, ..., eta_{2g'}``.  Commutators vanish, so the defining product
relation collapses to ``sum(sigma_j) = 0``.  The module computes the genus
of the covering curve, the set of elements acting with fixed points, and
the exact dimension of a character eigenspace of the space of holomorphic
1-forms: the reference Chevalley-Weil count, one character at a time
(``hodge.eigendim_table`` counts by classes of characters).
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConsistencyError, ParentMismatchError
from .groups import AbelianGroup, Character, GroupElement, _Frozen, _set


class ValidationOutcome(_Frozen):
    _fields = ("violations",)

    def __init__(self, violations: tuple[str, ...]):
        _set(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations


class GeneratingVector(_Frozen):
    """Presentation ``(sigma_1..sigma_r; eta_1..eta_{2g'})`` of a cover.

    Branch elements keep their input order.  The eta elements only
    participate in the generation check but are stored so inputs
    round-trip.
    """

    _fields = ("quotient_group", "g_prime", "branch", "eta")

    def __init__(self, quotient_group: AbelianGroup, g_prime: int,
                 branch: tuple[GroupElement, ...], eta: tuple[GroupElement, ...]):
        if type(g_prime) is not int or g_prime < 0:
            raise ValueError(f"base genus must be a nonnegative integer, got {g_prime!r}")
        for g in tuple(branch) + tuple(eta):
            if g.group != quotient_group:
                raise ParentMismatchError("vector entry outside the acting group")
        _set(self, "quotient_group", quotient_group)
        _set(self, "g_prime", g_prime)
        _set(self, "branch", tuple(branch))
        _set(self, "eta", tuple(eta))

    def validate(self) -> ValidationOutcome:
        """Check the defining conditions; violations are data, not errors."""
        q = self.quotient_group
        violations = []
        for idx, sigma in enumerate(self.branch):
            if sigma.is_zero:
                violations.append(f"branch element #{idx} is trivial")
        total = q.zero
        for sigma in self.branch:
            total = total + sigma
        if not total.is_zero:
            violations.append("product relation fails: branch elements do not sum to zero")
        if len(self.eta) != 2 * self.g_prime:
            violations.append(
                f"expected {2 * self.g_prime} eta elements, got {len(self.eta)}")
        generated = q.subgroup(self.branch + self.eta)
        if generated.order != q.order:
            violations.append("branch and eta elements do not generate the acting group")
        return ValidationOutcome(tuple(violations))


def _riemann_hurwitz(q_order: int, g_prime: int, branch: Sequence[GroupElement]) -> int:
    """``2g - 2`` of a cover with deck group of order ``q_order`` over a
    genus ``g_prime`` base, branched at the given elements; never raises."""
    return q_order * (2 * g_prime - 2) + sum(
        q_order - q_order // sigma.order for sigma in branch)


def genus(vector: GeneratingVector) -> int:
    """Genus of the covering curve from the Riemann-Hurwitz relation.

    ``2g - 2 = |Q| (2g' - 2) + sum_j (|Q| - |Q| / m_j)``, in integers: each
    branch order ``m_j`` divides ``|Q|``.
    """
    total = _riemann_hurwitz(vector.quotient_group.order, vector.g_prime, vector.branch)
    if total % 2:
        raise ConsistencyError(f"Riemann-Hurwitz value 2g-2 = {total} is not an even integer")
    g = (total + 2) // 2
    if g < 0:
        raise ConsistencyError(
            f"Riemann-Hurwitz value 2g-2 = {total} gives the negative genus {g}")
    return g


def stabilizer_union(vector: GeneratingVector) -> frozenset[GroupElement]:
    """All elements acting with a fixed point: the union of the cyclic
    groups generated by the branch elements, identity included."""
    q = vector.quotient_group
    steps = [(s.exponents, s.order) for s in set(vector.branch)]
    return frozenset(GroupElement(q, t) for t in _cyclic_union([q.zero.exponents], steps, q.orders))


def _cyclic_union(base: list[tuple[int, ...]], steps: list[tuple[tuple[int, ...], int]],
                  orders: tuple[int, ...]) -> set[tuple[int, ...]]:
    """``base`` and its sums ``b + c g`` for each ``(g, m)`` of ``steps`` and
    ``0 < c < m``, reduced: ``len(base) (1 + sum(m - 1))`` sums in all."""
    out = set(base)
    for g, m in steps:
        for c in range(1, m):
            step = tuple(c * x % n for x, n in zip(g, orders))
            out.update(tuple((a + b) % n for a, b, n in zip(k, step, orders)) for k in base)
    return out


# The reference count behind ``hodge``'s classes: only the tests and the bench call it.
def cw_dimension(vector: GeneratingVector, chi: Character) -> int:
    """Dimension of the ``chi``-eigenspace of the 1-forms of the cover.

    Abelian eigenspace count: ``(g' - 1) + sum_j k_j / m_j``, plus one for
    the trivial character, where ``chi(sigma_j)`` is the ``k_j``-th power of
    the primitive ``m_j``-th root of unity, that is ``k_j / m_j = v_j / e``
    for ``v_j = chi.pairing(sigma_j)`` and ``e = exponent(Q)``.  Summed in
    integers scaled by ``e``, the total must divide to a nonnegative
    integer.
    """
    if chi.group != vector.quotient_group:
        raise ParentMismatchError("character over a different group")
    den = vector.quotient_group.exponent
    total = (vector.g_prime - 1) * den + sum(chi.pairing(sigma) for sigma in vector.branch)
    if chi.is_trivial:
        total += den
    if total % den or total < 0:
        raise ConsistencyError(
            f"eigenspace dimension {total}/{den} for character {chi} "
            "is not a nonnegative integer")
    return total // den

