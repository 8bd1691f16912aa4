"""Hodge diamond of the quotient 3-fold via character convolution.

Each curve factor contributes a table of character eigenspace dimensions
(supported on the annihilator of its kernel); the Hodge numbers of the
quotient are multiplicities of the trivial character in the Kunneth
products, computed as exact integer convolutions over the dual group.

The convolution runs on packed characters (``groups.PackedCharacters``):
each character is one integer with a guarded bit field per coordinate, so
adding and negating characters is a few integer operations and a table
lookup is a hash of a small integer.  The tables are packed once per call
with their zero entries dropped.  One routine, ``_kunneth_pieces``, lists
the Kunneth pieces of ``H^{3,0}``, ``H^{2,1}``, ``H^{2,0}`` and ``H^{1,1}``
as (packed character triple, dimension), with the constant terms at the
trivial triple; ``hodge_diamond`` sums them and
``isotypic_decomposition`` groups them by triple, so both read the same
pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .covering import cw_dimension, genus
from .datum import AlgebraicDatum, DatumReport, invariants, validate_datum
from .errors import ConsistencyError
from .groups import Character, PackedCharacters, direct_product


@dataclass(frozen=True)
class EigenDimTable:
    """For each factor, the map ``chi -> dim W_i^chi`` over characters of G.

    Only characters vanishing on ``K_i`` can appear; the table stores the
    full annihilator support including zero entries.
    """

    datum: AlgebraicDatum
    tables: tuple[dict[Character, int], ...]

    def dimension(self, i: int, chi: Character) -> int:
        return self.tables[i].get(chi, 0)

    def support(self, i: int) -> Iterator[Character]:
        return iter(self.tables[i])


def eigendim_table(datum: AlgebraicDatum) -> EigenDimTable:
    """Pull the eigenspace dimensions of each cover back to characters of G."""
    tables = []
    for i in range(3):
        vector = datum.vectors[i]
        q = datum.quotients[i]
        table: dict[Character, int] = {}
        for chi_elem in datum.kernels[i].annihilator().elements():
            chi = datum.group.character(chi_elem.exponents)
            # chi factors through G/K_i; evaluate the induced character by
            # pairing chi with lifts of the branch elements.
            induced = q.group.character(
                _induced_exponents(datum, i, chi))
            table[chi] = cw_dimension(vector, induced)
        g = genus(vector)
        if sum(table.values()) != g:
            raise ConsistencyError(
                f"factor {i + 1}: eigenspace dimensions sum to {sum(table.values())}, "
                f"genus is {g}")
        tables.append(table)
    return EigenDimTable(datum, tuple(tables))


def _induced_exponents(datum: AlgebraicDatum, i: int, chi: Character) -> tuple[int, ...]:
    """Exponents of the character on G/K_i induced by ``chi`` (which must
    vanish on K_i): evaluate chi on the lifted quotient generators."""
    q = datum.quotients[i]
    exps = []
    for gen, order in zip(q.generators, q.group.orders):
        exps.append(chi.pairing(gen).scaled_numerator(order))
    return tuple(exps)


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


def _packed_tables(datum: AlgebraicDatum, table: EigenDimTable,
                   ) -> tuple[PackedCharacters, list[dict[int, int]]]:
    """The three tables keyed by packed characters, zero entries dropped."""
    codec = PackedCharacters(datum.group)
    return codec, [{codec.pack(chi.exponents): dim for chi, dim in t.items() if dim}
                   for t in table.tables]


def _negated(codec: PackedCharacters, t: dict[int, int]) -> dict[int, int]:
    return {codec.neg(x): dim for x, dim in t.items()}


def _kunneth_pieces(codec: PackedCharacters, tables: list[dict[int, int]], p: int, q: int,
                    ) -> list[tuple[tuple[int, int, int], int]]:
    """The Kunneth pieces of ``H^{p,q}`` for ``(p, q)`` in ``(3,0), (2,1),
    (2,0), (1,1)``, as (packed character triple summing to zero, dimension).

    A triple may repeat; the constant terms sit at the trivial triple.
    """
    d1, d2, d3 = tables
    neg = codec.neg
    if (p, q) == (3, 0):
        return [((x, y, neg(s)), dim)
                for x, y, s, dim in codec.convolve(d1, d2, _negated(codec, d3))]
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
    codec, tables = _packed_tables(datum, table)
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
    codec, tables = _packed_tables(datum, table)
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
