"""Exact cellular chain complexes of pairs, Betti numbers, and the
constructive matching of acyclic pairs.

Coefficients are exact: arbitrary-precision rationals, or the two-element
field. Each boundary column reads the cell's ``facets``; a simplex's
i-th facet omits its i-th vertex and carries the sign (-1)^i of the
ascending-vertex orientation. Cw-kind complexes need caller-supplied
signs for rational coefficients but work out of the box over the
two-element field.

Boundary squared is checked only on cw complexes, whose faces and signs
are the caller's. Dropping vertices v_i and v_j (i < j) of a simplex in
either order gives one face, with signs (-1)^i (-1)^(j-1) and (-1)^j (-1)^i,
which cancel; over f2 it is reached twice. A pair's chains are the quotient
by its closed base's chains, which ∂ maps into itself, so ∂∂ = 0 holds.

Boundary maps are sparse ``{row: coefficient}`` columns with int entries,
the same type over both fields (``linalg``). Each dimension is reduced
once, left to right by lowest row (``linalg.reduce_columns``), and ranks,
pivot columns, Betti numbers, the acyclic filtration and its layer checks
all read that one reduction. Its pivot columns are the leftmost-lowest
pivots of dense elimination, so filtrations and matchings depend only on
the cell order. One walk over the reduction lists each layer
of an acyclic pair; the filtration stacks the layers into stages, and the
matching pairs each layer's cells on the parent complex, with no
subcomplex built per layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import linalg
from .complexes import CW, SIMPLICIAL, CellComplex, SubcomplexPair
from .complexes import _facet_ranks, _rank_of
from .errors import HomologyNonzeroError, PreconditionError
from .matching import Matching, _checked, _hopcroft_karp, _positions


def _default_field(complex: CellComplex) -> str:
    return "q" if complex.kind == SIMPLICIAL else "f2"


class ChainComplex:
    """Boundary maps of a subcomplex pair over an exact field.

    ``basis(n)`` lists the n-dimensional cells outside the subcomplex in
    the complex's cell order, for n up to the top dimension: the largest
    among the pair's rel and base cells. For a pair of the whole complex
    that is the complex's dimension; a construction's part, a closed
    piece of the complex it walks, gets the piece's, as a copy of the
    piece would. The boundary from dimension n to n-1 is stored as one sparse
    ``linalg`` column per cell of ``basis(n)``: a ``{row: coefficient}``
    dict of ints, with rows indexed by ``basis(n-1)``. ``matrix(n)`` gives
    it as dense rows. One column reduction per dimension, run once on first
    use, gives the ranks and pivot columns. Boundary squared is checked
    only on a cw complex, over either field (see the module docstring).
    """

    def __init__(self, pair: SubcomplexPair, field: str | None = None, signs=None):
        complex = pair.complex
        self.pair = pair
        self.field_name = linalg.check_field(field or _default_field(complex))
        if self.field_name == "q" and complex.kind == CW and signs is None:
            raise PreconditionError(
                "rational coefficients on a cw-kind complex require incidence signs"
            )
        # the cell of highest rank, rel or base, has the top dimension
        rank = _rank_of(complex).__getitem__
        last = max(chain(pair.rel_cells[-1:], pair.sub), key=rank, default=None)
        self._top = -1 if last is None else complex.dim_of(last)
        rel, cut = pair.rel_cells, pair._cut
        self._bases = {d: rel[cut[d] : cut[d + 1]] for d in range(self._top + 1)}
        self._columns = {d: self._boundary_columns(d, signs) for d in self._bases}
        self._lows: dict[int, dict[int, int]] | None = None
        if complex.kind == CW:
            self._check_boundary_squared()

    def _boundary_columns(self, d: int, signs) -> list:
        complex = self.pair.complex
        rank, down, ids = _rank_of(complex), _facet_ranks(complex), complex.cells()
        rows = self._bases.get(d - 1, ())
        row_index = dict(zip(map(rank.__getitem__, rows), range(len(rows))))
        f2 = self.field_name == "f2"
        simplicial = complex.kind == SIMPLICIAL
        columns = []
        for cid in self._bases[d]:
            entries = {}
            for position, f in enumerate(down[rank[cid]]):
                i = row_index.get(f)
                if i is None:
                    continue  # face lies in the subcomplex
                if f2:
                    entries[i] = 1
                elif simplicial:
                    entries[i] = -1 if position & 1 else 1
                else:
                    fid = ids[f]
                    value = signs.get((cid, fid))
                    if value not in (1, -1):
                        raise PreconditionError(
                            f"missing incidence sign for ({cid}, {fid})"
                        )
                    entries[i] = int(value)
            columns.append(entries)
        return columns

    def _check_boundary_squared(self):
        for d in range(1, self._top + 1):
            if not linalg.composes_to_zero(
                self._columns[d - 1], self._columns[d], self.field_name
            ):
                raise PreconditionError(
                    f"boundary squared is nonzero in dimension {d}; "
                    "the complex is not a valid chain complex over this field"
                )

    def _reduced(self, d: int) -> dict[int, int]:
        """Pivot columns of dimension ``d`` with their lowest rows.

        Dimensions are reduced from the top down. A cell that is the lowest
        row of a reduced column one dimension up has a boundary column that
        depends on the columns to its left (boundary squared is zero), so it
        is skipped (the clearing of Chen-Kerber 2011); the pivots are the
        same as without it. Each reduced pivot column is, up to a unit, ∂ of
        itself plus pivot columns to its left: R = ∂V with V invertible upper
        triangular, and R's lowest rows are distinct (Cohen-Steiner et al. 2006).
        """
        if self._lows is None:
            self._lows = {}
            cleared = ()
            for k in sorted(self._columns, reverse=True):
                self._lows[k] = linalg.reduce_columns(
                    self._columns[k], self.field_name, skip=cleared
                )
                cleared = set(self._lows[k].values())
        return self._lows.get(d, {})

    def basis(self, d: int) -> tuple[str, ...]:
        return self._bases.get(d, ())

    def matrix(self, d: int) -> list[list]:
        """Dense boundary matrix of dimension ``d``, as a list of rows."""
        if d not in self._columns:
            return []
        return linalg.dense_rows(self._columns[d], len(self.basis(d - 1)), self.field_name)

    def rank(self, d: int) -> int:
        return len(self._reduced(d))

    def kernel_dim(self, d: int) -> int:
        return len(self.basis(d)) - self.rank(d)

    def pivot_columns(self, d: int) -> tuple[int, ...]:
        return tuple(self._reduced(d))

    def betti(self) -> "BettiVector":
        betti = tuple(self.kernel_dim(d) - self.rank(d + 1) for d in range(self._top + 1))
        return BettiVector(betti, self.field_name)


def chain_complex(pair: SubcomplexPair, field: str | None = None, signs=None) -> ChainComplex:
    return ChainComplex(pair, field=field, signs=signs)


@dataclass(frozen=True)
class BettiVector:
    betti: tuple[int, ...]
    field: str

    def is_zero(self) -> bool:
        return all(b == 0 for b in self.betti)

    def alternating_sum(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self.betti))


def betti_numbers(pair: SubcomplexPair, field: str | None = None, signs=None) -> BettiVector:
    return chain_complex(pair, field=field, signs=signs).betti()


@dataclass(frozen=True)
class Filtration:
    """Nested subcomplex stages from the base to the whole complex; each
    consecutive difference holds equally many cells of two adjacent
    dimensions."""

    stages: tuple[frozenset[str], ...]

    def layers(self):
        return zip(self.stages, self.stages[1:])


def _acyclic_layers(pair: SubcomplexPair, field, signs):
    """Walk the layers of an acyclic pair from the bottom up; yield each
    nonempty one as ``(d, upper, lower)`` cell lists in the complex order.

    Layer d holds the d-cells the reduction selects (``pivot_columns(d)``)
    and the (d-1)-cells left over below them (the non-pivot columns of
    d-1), both picked by index into ``basis``. Its boundary map must be
    square and injective, the one-to-one hypothesis the layer matching
    relies on. Both follow when the leftover cells are exactly the lowest
    rows of the selected columns, which is checked here: with the rows
    outside the layer dropped, R = ∂V (``ChainComplex._reduced``) keeps
    its distinct lowest rows, one per row, so it is square and triangular
    up to order, hence invertible, and so is the layer's ∂ = RV⁻¹.
    """
    cc = chain_complex(pair, field=field, signs=signs)
    bv = cc.betti()
    if not bv.is_zero():
        raise HomologyNonzeroError(
            f"pair has nonzero homology {bv.betti}", betti=bv
        )
    for d in range(1, cc._top + 2):
        lows = cc._reduced(d)
        selected = cc._reduced(d - 1)
        lower = [i for i in range(len(cc.basis(d - 1))) if i not in selected]
        if sorted(lows.values()) != lower:
            raise AssertionError(
                f"layer {d}: {len(lower)} leftover cells of dimension {d - 1} are not "
                f"the lowest rows of its {len(lows)} selected cells of dimension {d}"
            )
        if lows:
            yield d, [cc.basis(d)[j] for j in lows], [cc.basis(d - 1)[i] for i in lower]


def acyclic_filtration(pair: SubcomplexPair, field: str | None = None, signs=None) -> Filtration:
    """Filtration realizing the acyclic-pair construction.

    Per dimension, elimination with leftmost-lowest pivoting selects cells
    whose boundary columns are independent; each stage adds the selected
    n-cells together with the (n-1)-cells left over from the stage below,
    and those two groups always have equal size when the pair is acyclic.
    The top stage holds every cell.
    """
    stages = [pair.sub]
    for _, upper, lower in _acyclic_layers(pair, field, signs):
        stages.append(stages[-1].union(upper, lower))
    return Filtration(tuple(stages))


def match_acyclic_pair(pair: SubcomplexPair, field: str | None = None, signs=None) -> Matching:
    """Complete matching of an acyclic pair, layer by layer through the
    filtration. Each layer is matched by Hopcroft-Karp on the parent
    complex, even-dimensional cells on the left; its boundary is square and
    injective, so Hall's condition holds and the matching is complete."""
    pairs = _acyclic_pairs(pair, field, signs)
    return _checked(pair, pairs, "acyclic-pair matching failed validation")


def _acyclic_pairs(pair: SubcomplexPair, field: str | None = None, signs=None):
    """The pairs of :func:`match_acyclic_pair`, unchecked: the caller's
    final check covers them."""
    complex = pair.complex
    pairs = []
    for d, upper, lower in _acyclic_layers(pair, field, signs):
        left, right = (upper, lower) if d % 2 == 0 else (lower, upper)
        mate, _ = _hopcroft_karp(_positions(complex, left, right), len(right))
        # An unmatched cell (-1) would take right[-1]: a repeated or
        # non-incident pair, which the caller's final check rejects.
        pairs.extend(zip(left, map(right.__getitem__, mate)))
    return pairs
