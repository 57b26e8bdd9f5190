"""Barycentric subdivision with carrier tracking, and propagation of a
matching to the subdivided pair.

The subdivision is the order complex of the face poset: one new vertex
"b<cellid>" per cell, one simplex per chain of nested cells, spanned by
the maximal flags. The carrier of a subdivided cell is the largest
original cell in its chain, i.e. the smallest original cell containing
it, read off its vertex tuple as the vertex of highest source dimension.

Propagation matches one acyclic block per matched pair, and most blocks
are one block under a renaming of cells that keeps their order. A block
is keyed by its indexed structure: its cells in the subdivided complex's
order, each as the positions of its facets in that list, and the
positions of its base cells. The block's matching depends on nothing
else (the complex is simplicial, so the field is q and each sign is the
parity of a facet position), so each distinct key is matched once and
its pairs are renamed onto every block that shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import CellComplex, SubcomplexPair, from_simplices
from .errors import InvalidMatchingError, InvalidSubdivisionError
from .homology import match_acyclic_pair
from .matching import (
    Matching, _checked, _lower_upper_pairs, compose_matchings, validate_matching,
)


@dataclass(frozen=True)
class SubdivisionMap:
    source: CellComplex
    subdivided: CellComplex
    carrier: dict[str, str]

    @cached_property
    def _carried(self) -> dict[str, list[str]]:
        """Source cell -> the subdivided cells it carries; built once."""
        out: dict[str, list[str]] = {}
        for c, s in self.carrier.items():
            out.setdefault(s, []).append(c)
        return out

    def cells_over(self, source_cells) -> frozenset[str]:
        """Subdivided cells whose carrier lies in ``source_cells``."""
        carried = self._carried
        return frozenset(c for s in set(source_cells) for c in carried.get(s, ()))

    def validate(self) -> None:
        source, sub = self.source, self.subdivided
        for c in sub.cells():
            if c not in self.carrier:
                raise InvalidSubdivisionError(f"no carrier recorded for {c}")
        for c, s in self.carrier.items():
            if c not in sub:
                raise InvalidSubdivisionError(f"carrier names unknown cell {c}")
            if s not in source:
                raise InvalidSubdivisionError(f"carrier of {c} names unknown cell {s}")
        # monotone: the carrier of a face is a face of the carrier
        faces_of = {s: source.faces(s) for s in source.cells()}
        for c in sub.cells():
            s = self.carrier[c]
            faces = faces_of[s]
            for f in sub.facets(c):
                t = self.carrier[f]
                if t != s and t not in faces:
                    raise InvalidSubdivisionError(
                        f"carrier not monotone at {f} < {c}"
                    )
        # the open cells carried by a given cell triangulate its interior
        per_cell: dict[str, int] = {s: 0 for s in source.cells()}
        for c, s in self.carrier.items():
            per_cell[s] += (-1) ** sub.dim_of(c)
        for s, chi in per_cell.items():
            if chi != (-1) ** source.dim_of(s):
                raise InvalidSubdivisionError(
                    f"cells carried by {s} have interior Euler count {chi}, "
                    f"expected {(-1) ** source.dim_of(s)}"
                )


def barycentric(complex: CellComplex) -> SubdivisionMap:
    """First barycentric subdivision with its carrier map.

    One pass in the cell order, which lists hyperfaces first, gives each
    cell its maximal flags: those of each hyperface, extended by the cell.
    The flags of the cells without cofaces span the subdivision."""
    flags: dict[str, list[tuple[str, ...]]] = {}
    for c in complex.cells():
        tip = ("b" + c,)
        flags[c] = [flag + tip for f in complex.facets(c) for flag in flags[f]] or [tip]
    subdivided = from_simplices(
        flag for c in complex.cells() if not complex.cofacets(c) for flag in flags[c]
    )
    depth = {"b" + c: complex.dim_of(c) for c in complex.cells()}
    carrier = {
        s: max(subdivided.vertices(s), key=depth.__getitem__)[1:]
        for s in subdivided.cells()
    }
    return SubdivisionMap(complex, subdivided, carrier)


def propagate_matching(
    smap: SubdivisionMap, pair: SubcomplexPair, matching: Matching
) -> Matching:
    """Carry a matching on the source pair to the subdivided pair.

    Each matched pair (upper, lower hyperface) contributes the block of
    subdivided cells carried by the closed upper cell, relative to the
    closure of its other hyperfaces; each block is an acyclic pair and is
    matched constructively. The blocks compose to a complete matching
    relative to the subdivided base.

    Blocks are keyed by their cells in the subdivided order, each as the
    tuple of its facets' positions in that list, together with the sorted
    positions of the base cells. The first block with a key is restricted
    and matched, and its pairs are kept as positions; a later block with
    the same key takes those pairs renamed onto its own cells. This is
    exact: ``match_acyclic_pair`` on a simplicial block reads only the cell
    order, the facet positions (the signs and the cofaces) and the base, so
    a repeated key repeats both its result and every check it passed. The
    composition and the final validation still cover every cell.
    """
    if set(pair.complex.cells()) != set(smap.source.cells()):
        raise InvalidSubdivisionError("subdivision map does not cover the pair's complex")
    smap.validate()
    report = validate_matching(pair, matching)
    if not report.ok:
        raise InvalidMatchingError("; ".join(report.violations[:5]))
    complex = pair.complex
    subdivided = smap.subdivided
    sub_base = smap.cells_over(pair.sub)
    solved: dict[tuple, tuple[tuple[int, int], ...]] = {}
    parts = []
    for lower, upper in _lower_upper_pairs(pair, matching):
        closed = complex.faces(upper) | {upper}
        rim = closed - {upper, lower}
        inside = sorted(smap.cells_over(closed), key=subdivided.sort_key)
        rel = smap.cells_over(rim)
        position = dict(zip(inside, range(len(inside))))
        at = position.__getitem__
        key = (
            tuple(tuple(map(at, subdivided.facets(c))) for c in inside),
            tuple(sorted(map(at, rel))),
        )
        matched = solved.get(key)
        if matched is None:
            block = SubcomplexPair(subdivided.restrict(inside), rel)
            matched = tuple((at(x), at(y)) for x, y in match_acyclic_pair(block).pairs)
            solved[key] = matched
        renamed = ((inside[i], inside[j]) for i, j in matched)
        parts.append(sorted((x, y) if x <= y else (y, x) for x, y in renamed))
    result = compose_matchings(parts, relative_to=sub_base)
    target = SubcomplexPair(subdivided, sub_base)
    return _checked(target, result, "propagated matching failed validation")
