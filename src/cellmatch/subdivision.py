"""Barycentric subdivision with carrier tracking, and propagation of a
matching to the subdivided pair.

The subdivision is the order complex of the face poset: one new vertex
"b<cellid>" per cell, one simplex per chain of nested cells. Each chain
is made once, in one pass over the source cells, and keeps its top cell
as its carrier: the largest original cell in the chain, i.e. the
smallest original cell containing the subdivided cell.

Propagation matches one acyclic block per matched pair (lower, upper):
the chains of the closed source cell ``upper``, relative to the chains
that avoid both ``upper`` and ``lower``, read off the subdivided complex
as a pair of those cells, with no copy of its tables. Most blocks are
one block under a renaming of cells that keeps their order, and each
distinct block is matched once. The key is read off the source alone:
the closed cell sorted by id, each of its cells as the positions of its
facets in that list, and the positions of ``lower`` and ``upper``. This
is exact. The vertices are "b"+id tokens, so a chain's vertex tuple
follows the id order of its source cells, and the block's cells, their
rank order, their facets and its base depend only on the key. The block's matching
reads nothing else (the complex is simplicial, so the field is q and
each sign is the parity of a facet position). A solved block keeps each
cell as its carrier's position in the key's list and its index among
the cells that carrier carries, in the subdivided order; a block with
the same key reads its own cells off those pairs.

Maps, like complexes, are immutable once built, so a map is validated
at most once. A map that :func:`barycentric` returns is correct by
construction, and one that passed :meth:`SubdivisionMap.validate` (as
every map :func:`cellmatch.io.decode_subdivision` returns has) carries a
private mark, so :func:`propagate_matching` does not validate it again.
Only a map that :func:`barycentric` built shares blocks. Each block of
any other map, decoded from a file or built by a caller, is matched on
its own: nothing ties its vertex names to the source ids, so two blocks
of one source shape may differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import CellComplex, SubcomplexPair, _order_complex, _part_pair
from .errors import InvalidMatchingError, InvalidSubdivisionError
from .homology import _acyclic_pairs
from .matching import Matching, _checked, _covers, _lower_upper_pairs, validate_matching


@dataclass(frozen=True)
class SubdivisionMap:
    source: CellComplex
    subdivided: CellComplex
    carrier: dict[str, str]

    @cached_property
    def _carried(self) -> dict[str, list[str]]:
        """Source cell -> the subdivided cells it carries, in the subdivided
        cell order (not the carrier dict's, which a caller may choose);
        built once."""
        out: dict[str, list[str]] = {}
        carrier = self.carrier
        for c in self.subdivided.cells():
            out.setdefault(carrier[c], []).append(c)
        return out

    def cells_over(self, source_cells) -> frozenset[str]:
        """Subdivided cells whose carrier lies in ``source_cells``."""
        carried = self._carried
        return frozenset(c for s in set(source_cells) for c in carried.get(s, ()))

    def validate(self) -> None:
        """Raise InvalidSubdivisionError unless every subdivided cell has a
        known carrier, carriers are monotone and each source cell's carried
        cells have its interior Euler count; mark the map as validated.
        A fault is named in the subdivided cell order, and an unknown key of
        the carrier dict by the smallest one, so the error does not depend
        on the dict's order."""
        source, sub = self.source, self.subdivided
        for c in sub.cells():
            if c not in self.carrier:
                raise InvalidSubdivisionError(f"no carrier recorded for {c}")
        if len(self.carrier) > len(sub):
            unknown = min((c for c in self.carrier if c not in sub), key=str)
            raise InvalidSubdivisionError(f"carrier names unknown cell {unknown}")
        for c in sub.cells():
            s = self.carrier[c]
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
        object.__setattr__(self, "_validated", True)


def _hyperfaces(complex: CellComplex) -> dict[str, frozenset[str]]:
    """Each cell's id with its hyperfaces."""
    return {c: complex.hyperfaces(c) for c in complex.cells()}


def barycentric(complex: CellComplex) -> SubdivisionMap:
    """First barycentric subdivision with its carrier map.

    The subdivision is the order complex of the face poset, which
    ``complexes._order_complex`` builds one chain at a time, with each
    cell's carrier, its chain's top cell, in the subdivided order."""
    subdivided, carriers = _order_complex(complex)
    smap = SubdivisionMap(complex, subdivided, dict(zip(subdivided.cells(), carriers)))
    object.__setattr__(smap, "_from_barycentric", True)
    object.__setattr__(smap, "_validated", True)
    return smap


def propagate_matching(
    smap: SubdivisionMap, pair: SubcomplexPair, matching: Matching
) -> Matching:
    """Carry a matching on the source pair to the subdivided pair.

    Each matched pair (upper, lower hyperface) contributes the block of
    subdivided cells carried by the closed upper cell, relative to the
    closure of its other hyperfaces; each block is an acyclic pair and is
    matched constructively. The blocks compose to a complete matching
    relative to the subdivided base.

    When :func:`barycentric` built ``smap`` from ``pair.complex`` itself,
    a block is keyed by its closed upper cell in source terms and matched
    only at its key's first visit; its pairs are kept as (source position,
    carried index) and read back as the complex's own ids. The module
    docstring gives why this is exact. Any other map is validated, with
    the same errors as ever, unless it has passed validation already, and
    each of its blocks is matched on its own: a caller's map may subdivide
    two cells of one shape differently, and a copy of the source need not
    share its faces. A complex other than the map's source is accepted
    when it has the source's cells, each with the source's hyperfaces;
    any other raises InvalidSubdivisionError before the map is validated.

    Each block is read off the subdivided complex, with no copy and no
    check: its rel cells are those carried by its own ``lower`` and
    ``upper``, and its base is the cells carried by the rest of the closed
    upper cell. Both are closed by construction: that rest, all faces of
    ``upper`` but ``lower``, is closed, as no face of ``upper`` but
    ``upper`` itself contains ``lower``; and a validated map's carriers
    are monotone, so the cells over a closed set are closed.

    The blocks' pairs go into one matching, checked once. Each source cell
    is in one matched pair and a carrier is a function, so blocks are
    disjoint, and the one check sees every pair a check per block would.
    """
    complex, source = pair.complex, smap.source
    if complex is not source and _hyperfaces(complex) != _hyperfaces(source):
        raise InvalidSubdivisionError("subdivision map does not cover the pair's complex")
    if not getattr(smap, "_validated", False):
        smap.validate()
    if not _covers(pair, matching):
        raise InvalidMatchingError("; ".join(validate_matching(pair, matching).violations[:5]))
    shared = getattr(smap, "_from_barycentric", False) and complex is source
    carried = smap._carried
    sub_base = smap.cells_over(pair.sub)
    solved: dict[object, tuple[tuple[int, int, int, int], ...]] = {}
    pairs = []
    for lower, upper in _lower_upper_pairs(pair, matching):
        closed = sorted(complex.faces(upper) | {upper})
        key = upper  # unique: this block is matched on its own
        if shared:
            at = dict(zip(closed, range(len(closed)))).__getitem__
            key = (tuple(tuple(map(at, complex.facets(c))) for c in closed), at(lower), at(upper))
        matched = solved.get(key)
        if matched is None:
            where = {c: (p, i) for p, s in enumerate(closed) for i, c in enumerate(carried[s])}
            base = smap.cells_over(set(closed) - {upper, lower})
            block = _part_pair(smap.subdivided, carried[lower] + carried[upper], base)
            matched = solved[key] = tuple(where[x] + where[y] for x, y in _acyclic_pairs(block))
        pairs += ((carried[closed[p]][i], carried[closed[q]][j]) for p, i, q, j in matched)
    target = SubcomplexPair(smap.subdivided, sub_base)
    return _checked(target, pairs, "propagated matching failed validation")
