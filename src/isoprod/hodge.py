"""Hodge diamond of the quotient 3-fold via character convolution.

Each curve factor contributes a table of character eigenspace dimensions
(supported on the annihilator of its kernel); the Hodge numbers of the
quotient are multiplicities of the trivial character in the Kunneth
products, computed as exact integer convolutions over the dual group.

The convolution runs on packed characters (``groups.PackedCharacters``):
each character is one integer with a guarded bit field per coordinate, so
adding and negating characters is a few integer operations and a table
lookup is a hash of a small integer.  The tables are built packed by one
integer walk per factor over the annihilator of its kernel
(``_factor_walk``, Chevalley-Weil without ``Fraction``), which also gives
the pre-admissible sets that ``aut0`` and the CLI report read.  One
routine, ``_kunneth_pieces``, lists the Kunneth pieces of ``H^{3,0}``,
``H^{2,1}``, ``H^{2,0}`` and ``H^{1,1}`` as (packed character triple,
dimension), with the constant terms at the trivial triple;
``hodge_diamond`` sums them and ``isotypic_decomposition`` groups them by
triple, so both read the same pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .covering import genus
from .datum import AlgebraicDatum, DatumReport, invariants, validate_datum
from .errors import ConsistencyError
from .groups import Character, PackedCharacters, direct_product


@dataclass(frozen=True)
class EigenDimTable:
    """For each factor, the map ``chi -> dim W_i^chi`` over characters of G.

    Only characters vanishing on ``K_i`` can appear; the table stores the
    full annihilator support including zero entries, keyed by packed
    characters (``_packed``; ``tables`` is the view keyed by ``Character``),
    and each factor's sorted packed pre-admissible set (``_pre``).
    """

    datum: AlgebraicDatum
    _packed: tuple[dict[int, int], ...]
    _pre: tuple[list[int], ...]

    @cached_property
    def tables(self) -> tuple[dict[Character, int], ...]:
        codec = PackedCharacters(self.datum.group)
        return tuple({codec.character(x): dim for x, dim in t.items()} for t in self._packed)

    def dimension(self, i: int, chi: Character) -> int:
        return self.tables[i].get(chi, 0)

    def support(self, i: int) -> Iterator[Character]:
        return iter(self.tables[i])


def _factor_walk(datum: AlgebraicDatum, i: int, codec: PackedCharacters,
                 ) -> tuple[dict[int, int], list[int]]:
    """One integer pass over the annihilator of ``K_i``: for each character
    (packed, in annihilator order) the sum of its values ``v_j`` on the
    branch lifts, each a dot product scaled to ``e = exponent(G)`` and
    reduced mod ``e``, so that ``v_j / e = k_j / m_j``; and the sorted
    pre-admissible characters, those with some ``v_j != 0``.
    """
    den = datum.group.exponent
    scales = [den // n for n in datum.group.orders]
    q = datum.quotients[i]
    lifts = [tuple(e * s % den for e, s in zip(q.lift(sigma).exponents, scales))
             for sigma in datum.vectors[i].branch]
    sums = {}
    for chi in datum.kernels[i].annihilator()._element_tuples():
        sums[codec.pack(chi)] = sum(sum(a * v for a, v in zip(chi, lift)) % den
                                    for lift in lifts)
    return sums, sorted(x for x, s in sums.items() if s)


def eigendim_table(datum: AlgebraicDatum) -> EigenDimTable:
    """Pull the eigenspace dimensions of each cover back to characters of G.

    Chevalley-Weil in integers, with the sums of ``_factor_walk``:
    ``e dim W_i^chi = (g' - 1) e + sum_j v_j + [chi = 0] e`` must divide to
    a nonnegative integer, and the dimensions must sum to the genus.
    """
    codec = PackedCharacters(datum.group)
    den = datum.group.exponent
    tables, pre = [], []
    for i, vector in enumerate(datum.vectors):
        sums, pre_i = _factor_walk(datum, i, codec)
        table = {}
        for x, s in sums.items():
            total = (vector.g_prime - 1) * den + s + (0 if x else den)
            if total % den or total < 0:
                raise ConsistencyError(
                    f"factor {i + 1}: eigenspace dimension {total}/{den} for character "
                    f"{codec.character(x)} is not a nonnegative integer")
            table[x] = total // den
        g = genus(vector)
        if sum(table.values()) != g:
            raise ConsistencyError(
                f"factor {i + 1}: eigenspace dimensions sum to {sum(table.values())}, "
                f"genus is {g}")
        tables.append(table)
        pre.append(pre_i)
    return EigenDimTable(datum, tuple(tables), tuple(pre))


@dataclass(frozen=True)
class HodgeDiamond:
    """Hodge numbers ``h[p][q]`` for ``0 <= p, q <= 3``."""

    h: tuple[tuple[int, int, int, int], ...]

    def __getitem__(self, pq: tuple[int, int]) -> int:
        return self.h[pq[0]][pq[1]]

    def chi_structure_sheaf(self) -> int:
        return sum((-1) ** q * self.h[0][q] for q in range(4))

    def euler_number(self) -> int:
        return sum((-1) ** (p + q) * self.h[p][q] for p in range(4) for q in range(4))

    def betti(self, k: int) -> int:
        return sum(self.h[p][k - p] for p in range(4) if 0 <= k - p <= 3)

    def check_symmetries(self) -> None:
        for p in range(4):
            for q in range(4):
                if self.h[p][q] != self.h[q][p]:
                    raise ConsistencyError(f"Hodge symmetry fails at ({p},{q})")
                if self.h[p][q] != self.h[3 - p][3 - q]:
                    raise ConsistencyError(f"Serre duality fails at ({p},{q})")
        if self.h[0][0] != 1 or self.h[3][3] != 1:
            raise ConsistencyError("h^{0,0} and h^{3,3} must be 1")


def _assemble_diamond(h10: int, h20: int, h30: int, h11: int, h21: int) -> HodgeDiamond:
    h = [[0] * 4 for _ in range(4)]
    h[0][0] = h[3][3] = 1
    h[1][0] = h[0][1] = h[2][3] = h[3][2] = h10
    h[2][0] = h[0][2] = h[1][3] = h[3][1] = h20
    h[3][0] = h[0][3] = h30
    h[1][1] = h[2][2] = h11
    h[2][1] = h[1][2] = h21
    diamond = HodgeDiamond(tuple(tuple(row) for row in h))
    diamond.check_symmetries()
    return diamond


def _kunneth_pieces(codec: PackedCharacters, tables: Sequence[dict[int, int]], p: int, q: int,
                    ) -> list[tuple[tuple[int, int, int], int]]:
    """The Kunneth pieces of ``H^{p,q}`` for ``(p, q)`` in ``(3,0), (2,1),
    (2,0), (1,1)``, as (packed character triple summing to zero, dimension).

    A triple may repeat; the constant terms sit at the trivial triple.
    """
    d1, d2, d3 = tables
    neg = codec.neg
    if (p, q) == (3, 0):
        return [((x, y, neg(s)), dim)
                for x, y, s, dim in codec.convolve(d1, d2, {neg(z): d for z, d in d3.items()})]
    if (p, q) == (2, 1):
        # Conjugating one slot: a piece bar(W_1^chi) (x) W_2^c2 (x) W_3^c3
        # survives when chi = c2 + c3, with character (-chi, c2, c3).  The
        # three fibration classes add 2 per base 1-form.
        return ([((0, 0, 0), 2 * sum(t.get(0, 0) for t in tables))]
                + [((neg(s), y, z), dim) for y, z, s, dim in codec.convolve(d2, d3, d1)]
                + [((x, neg(s), z), dim) for x, z, s, dim in codec.convolve(d1, d3, d2)]
                + [((x, y, neg(s)), dim) for x, y, s, dim in codec.convolve(d1, d2, d3)])
    # H^{2,0} pairs chi with -chi; H^{1,1} pairs chi with chi and carries
    # both orderings of the conjugate pair.
    h20 = (p, q) == (2, 0)
    pieces = [] if h20 else [((0, 0, 0), 3)]
    for i, j, a, b in ((0, 1, d1, d2), (0, 2, d1, d3), (1, 2, d2, d3)):
        for x, dim in a.items():
            y = neg(x)
            dim *= b.get(y if h20 else x, 0)
            if not dim:
                continue
            for u, v in ((x, y),) if h20 else ((x, y), (y, x)):
                comps = [0, 0, 0]
                comps[i], comps[j] = u, v
                pieces.append((tuple(comps), dim))
    return pieces


def hodge_diamond(datum: AlgebraicDatum, table: EigenDimTable | None = None,
                  report: DatumReport | None = None) -> HodgeDiamond:
    """Hodge diamond by exact convolution of the eigenspace tables.

    For free data the holomorphic Euler characteristic and the topological
    Euler number are cross-checked against the product formulas.  A caller
    that has validated the datum already passes its ``report``.
    """
    if table is None:
        table = eigendim_table(datum)
    codec, tables = PackedCharacters(datum.group), table._packed
    h10 = sum(t.get(0, 0) for t in tables)
    h30, h21, h20, h11 = (sum(dim for _, dim in _kunneth_pieces(codec, tables, p, q))
                          for p, q in ((3, 0), (2, 1), (2, 0), (1, 1)))

    diamond = _assemble_diamond(h10, h20, h30, h11, h21)

    if report is None:
        report = validate_datum(datum)
    if report.ok:
        inv = invariants(datum)
        if diamond.chi_structure_sheaf() != inv.chi_structure_sheaf:
            raise ConsistencyError(
                f"chi(O) mismatch: diamond gives {diamond.chi_structure_sheaf()}, "
                f"product formula gives {inv.chi_structure_sheaf}")
        if diamond.euler_number() != inv.euler_number:
            raise ConsistencyError(
                f"Euler number mismatch: diamond gives {diamond.euler_number()}, "
                f"product formula gives {inv.euler_number}")
    return diamond


def isotypic_decomposition(datum: AlgebraicDatum, p: int, q: int,
                           table: EigenDimTable | None = None,
                           report: DatumReport | None = None,
                           ) -> list[tuple[Character, int]]:
    """Isotypic pieces of ``H^{p,q}(X)`` under the descended product action.

    Returns pairs ``(psi, dim)`` with ``psi`` a character of ``G^3`` whose
    components multiply to the trivial character; only positive dimensions
    are listed, sorted by character exponents.  Supported for
    ``(p, q) in {(3,0), (2,1), (2,0), (1,1)}``; the other summands follow
    by conjugation and duality.  The total is cross-checked against
    ``hodge_diamond``, which receives ``table`` and ``report``.
    """
    if (p, q) not in {(3, 0), (2, 1), (2, 0), (1, 1)}:
        raise ValueError(f"unsupported Hodge summand ({p},{q})")
    if table is None:
        table = eigendim_table(datum)
    codec, tables = PackedCharacters(datum.group), table._packed
    acc: dict[tuple[int, int, int], int] = {}
    for key, dim in _kunneth_pieces(codec, tables, p, q):
        acc[key] = acc.get(key, 0) + dim

    cube = direct_product([datum.group] * 3)
    out = [(cube.character(codec.unpack(x) + codec.unpack(y) + codec.unpack(z)), dim)
           for (x, y, z), dim in sorted(acc.items()) if dim]
    total = sum(dim for _, dim in out)
    expected = hodge_diamond(datum, table, report)[p, q]
    if total != expected:
        raise ConsistencyError(
            f"isotypic dimensions for ({p},{q}) sum to {total}, "
            f"Hodge number is {expected}")
    return out
