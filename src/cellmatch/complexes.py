"""Finite polyhedral cell complexes, subcomplex pairs, and dual cycles.

The data model is purely combinatorial: a complex is a ranked poset of
cells given by codimension-1 (hyperface) lists; the full face relation is
the transitive closure. Simplicial cells use the canonical id built from
their vertex tokens in ascending order ("0.2.4"); general regular-CW cells
("cw" kind) carry caller-chosen ids and explicit hyperface lists. Optional
exact rational coordinates may ride along for geometric use.

Tables are checked once, where they enter from outside the program:
``from_simplices`` checks the vertex tokens and that no two vertex sets
share an id, and ``build_cw`` checks every raw record. Everything derived
from a built complex (``restrict``, the builders' own faces) is trusted.
A construction's parts are pairs read off the complex they live in, with
no copy of its tables (``_part_pair``).
The builders fix the cell order, by dimension first, and fill every
table the complex stores by rank, a cell's place in that order: ids,
facets, cofacets and vertex tuples, with one start rank per dimension;
``restrict`` keeps that order and renumbers the parent's tables. Facets
and cofacets store the hyperface relation once each way, as tuples of
ranks, descending and ascending, so a cell's neighbours in rank order are
its reversed facets, then its cofacets. Ids meet ranks only at the edges:
the public methods map them, and the package's readers walk the ranks.
Simplices rank by dimension, then vertex tuple, and dropping a later
vertex gives an earlier tuple, so a simplex's i-th facet omits its i-th
vertex.

Complexes and pairs are immutable after construction and safe to share;
a loop complement derives its subcomplex once, when it is first read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, combinations, compress, filterfalse, islice, repeat
from operator import attrgetter, itemgetter, not_
from typing import Iterable

from .errors import (
    InvalidComplexError,
    InvalidLoopError,
    InvalidSubcomplexError,
    PreconditionError,
)

Token = int | str

SIMPLICIAL = "simplicial"
CW = "cw"


def _token_key(token: Token):
    if isinstance(token, bool) or not isinstance(token, (int, str)):
        raise InvalidComplexError(f"bad vertex token {token!r}: expected int or str")
    if isinstance(token, int):
        return (0, token, "")
    return (1, 0, token)


def cell_id(tokens: Iterable[Token]) -> str:
    """Canonical simplicial id: distinct vertex tokens, ascending, dot-joined."""
    return _simplex_id(sorted(set(tokens), key=_token_key))


def _simplex_id(sorted_tokens) -> str:
    """The id of a simplex whose vertex tokens are already distinct and
    ascending: their texts joined by dots. ``from_simplices`` writes the
    same text as a facet's id, a dot and the last token."""
    return ".".join(map(str, sorted_tokens))


_FRACTION = frozenset((Fraction,))


def _coerce_coordinates(coordinates) -> dict[Token, tuple[Fraction, ...]] | None:
    """The points as tuples of Fractions. A point that already is one is
    kept; any other goes through ``_exact``, which rejects floats. The file
    decoder hands over a function that makes its checked points, which the
    complex calls when its coordinates are first read."""
    if coordinates is None or callable(coordinates):
        return coordinates
    return {
        token: point
        if type(point) is tuple and _FRACTION.issuperset(map(type, point))
        else tuple(map(_exact, point))
        for token, point in coordinates.items()
    }


def _exact(value) -> Fraction:
    if isinstance(value, float):
        raise InvalidComplexError("exact rational coordinates required; got a float")
    return value if isinstance(value, Fraction) else Fraction(value)


class CellComplex:
    """Immutable face-poset model of a finite polyhedral complex.

    Build one with :func:`from_simplices` or :func:`build_cw`, or take a
    piece of one with :meth:`restrict`. The constructor trusts its tables:
    it checks only the kind and non-emptiness and stores the tables it is
    handed, so they must come from one of those builders, which own them
    and the cell order: every cell once, by dimension first.

    Each table is indexed by a cell's rank, its place in that order.
    ``_ids`` holds the cells' ids; ``_starts[d]`` is the rank of the first
    d-cell, so a dimension's cells are one slice, and ``_starts[-1]`` is
    the cell count; ``_down`` and ``_up`` hold each cell's facets by
    descending rank and cofacets by ascending rank, as tuples of ranks;
    and ``_tuples`` holds the simplices' vertex tuples. The id-to-rank
    dict ``_rank`` is the one table keyed by id, and the facets and
    cofacets share its int objects. The public methods take and give ids,
    mapped at this edge; the package's own readers walk the ranks through
    the accessors below the class. Coordinates, made exact by the builders
    or checked by the file decoder, become Fractions when first read.
    """

    def __init__(self, kind, ids, starts, down, up, rank, verts=None, coordinates=None):
        if kind not in (SIMPLICIAL, CW):
            raise InvalidComplexError(f"unknown complex kind {kind!r}")
        if not ids:
            raise InvalidComplexError("empty complex")
        self.kind = kind
        self._ids = ids
        self._starts = starts
        self._down = down
        self._up = up
        self._rank = rank
        self._tuples = verts
        self._points = coordinates
        self.dim = len(starts) - 2

    @property
    def coordinates(self) -> dict[Token, tuple[Fraction, ...]] | None:
        points = self._points
        if callable(points):  # the file decoder's checked points, read now
            points = self._points = points()
        return points

    # -- queries ---------------------------------------------------------

    def __contains__(self, cid: str) -> bool:
        return cid in self._rank

    def __len__(self) -> int:
        return len(self._ids)

    def cells(self) -> tuple[str, ...]:
        return self._ids

    def dim_of(self, cid: str) -> int:
        return bisect_right(self._starts, self._rank[cid]) - 1

    def hyperfaces(self, cid: str) -> frozenset[str]:
        return frozenset(map(self._ids.__getitem__, self._down[self._rank[cid]]))

    def facets(self, cid: str) -> tuple[str, ...]:
        """Hyperfaces of ``cid`` by descending rank, as the builder stored
        them; for a simplex, the i-th omits the i-th of its ``vertices``."""
        return tuple(map(self._ids.__getitem__, self._down[self._rank[cid]]))

    def cofacets(self, cid: str) -> tuple[str, ...]:
        """Cells having ``cid`` as a hyperface, by ascending rank, as the
        builder stored them."""
        return tuple(map(self._ids.__getitem__, self._up[self._rank[cid]]))

    def cofaces(self, cid: str) -> frozenset[str]:
        """Cells having ``cid`` as a hyperface."""
        return frozenset(map(self._ids.__getitem__, self._up[self._rank[cid]]))

    def vertices(self, cid: str) -> tuple[Token, ...]:
        if self._tuples is None:
            raise InvalidComplexError("cw-kind cells carry no vertex tuples")
        return self._tuples[self._rank[cid]]

    def vertex_tokens(self) -> tuple[Token, ...]:
        if self._tuples is not None:
            return tuple(v for v, in self._tuples[: self._starts[1]])
        return self.cells_of_dim(0)

    def sort_key(self, cid: str) -> int:
        """An int rank; the order is fixed by the builder."""
        return self._rank[cid]

    def cells_of_dim(self, d: int) -> tuple[str, ...]:
        if not 0 <= d <= self.dim:
            return ()
        return self._ids[self._starts[d] : self._starts[d + 1]]

    def top_cells(self) -> tuple[str, ...]:
        return self.cells_of_dim(self.dim)

    def faces(self, cid: str) -> frozenset[str]:
        """All proper faces of ``cid`` (transitive closure of hyperfaces)."""
        return self._named(_reach(self._down, (self._rank[cid],)))

    def cofaces_all(self, cid: str) -> frozenset[str]:
        """All proper cofaces of ``cid`` (cells strictly containing it)."""
        return self._named(_reach(self._up, (self._rank[cid],)))

    def closure(self, ids: Iterable[str]) -> frozenset[str]:
        """``ids`` and all their faces; raises for the smallest unknown id."""
        ranks = _known_ranks(self, ids)
        return self._named(_reach(self._down, ranks).union(ranks))

    def is_closed(self, ids: Iterable[str]) -> bool:
        ranks = _known_ranks(self, ids)
        down = self._down
        return all(ranks.issuperset(down[r]) for r in ranks)

    def is_pure(self) -> bool:
        """Whether every cell is a face of a top cell: exactly when every
        cell below the top dimension has a cofacet."""
        return all(self._up[: self._starts[-2]])

    def restrict(self, ids: Iterable[str]) -> "CellComplex":
        """The subcomplex on ``ids``, which must be nonempty and closed. It
        lists its cells in this complex's order, so both rank them alike,
        and renumbers this complex's tables: a closed piece keeps every
        cell's facets, and its cofacets are this complex's cofacets that
        lie in the piece, in the same order."""
        ids = set(ids)
        if not ids:
            raise InvalidSubcomplexError("cannot restrict to an empty cell set")
        if not self.is_closed(ids):
            raise InvalidSubcomplexError("cell set is not closed under hyperfaces")
        old = sorted(map(self._rank.__getitem__, ids))
        new = dict(zip(old, range(len(old))))  # the piece's ranks, by this one's
        cut = [bisect_left(old, s) for s in self._starts]
        while cut[-2] == cut[-1]:  # the piece's top dimension may be lower
            del cut[-1]
        at, keep = new.__getitem__, new.__contains__
        down = [tuple(map(at, self._down[r])) for r in old]
        up = [tuple(map(at, filter(keep, self._up[r]))) for r in old]
        ids = tuple(map(self._ids.__getitem__, old))
        verts = None
        if self._tuples is not None:
            verts = list(map(self._tuples.__getitem__, old))
        rank = dict(zip(ids, new.values()))
        piece = CellComplex(self.kind, ids, tuple(cut), down, up, rank, verts)
        points = self.coordinates
        if points is not None:  # the points of the piece's vertex tokens
            piece._points = {t: points[t] for t in piece.vertex_tokens() if t in points}
        return piece

    def _named(self, ranks) -> frozenset[str]:
        return frozenset(map(self._ids.__getitem__, ranks))

    def __repr__(self):
        f_vector = tuple(map(int.__sub__, self._starts[1:], self._starts))
        return f"CellComplex(kind={self.kind!r}, f={f_vector})"


# The rank accessors, one per table: the package's readers walk a complex's
# tables by rank through these, and only this module indexes them itself.
_rank_of = attrgetter("_rank")  # id -> rank
_facet_ranks = attrgetter("_down")  # rank -> facet ranks, descending
_cofacet_ranks = attrgetter("_up")  # rank -> cofacet ranks, ascending
_dim_starts = attrgetter("_starts")  # first rank of each dimension, then the count
_vertex_tuples = attrgetter("_tuples")  # rank -> vertex tuple (simplicial only)


def _reach(table, start) -> set[int]:
    """The ranks reachable from the ranks ``start`` by one or more steps of
    ``table`` (facet or cofacet ranks), in one walk; nothing is cached."""
    out: set[int] = set()
    stack = [c for s in start for c in table[s]]
    while stack:
        c = stack.pop()
        if c not in out:
            out.add(c)
            stack.extend(table[c])
    return out


def _maximal_simplices(complex: CellComplex) -> list[tuple[Token, ...]]:
    """The vertex tuples of the cells without cofacets, in the cell order."""
    return list(compress(complex._tuples, map(not_, complex._up)))


def _known_ranks(complex: CellComplex, ids: Iterable[str]) -> set[int]:
    """The ranks of ``ids``; raises for the smallest that names no cell."""
    ids, known = set(ids), complex._rank.keys()
    if not known >= ids:
        raise InvalidSubcomplexError(f"unknown cell {min(ids - known, key=str)!r}")
    return set(map(complex._rank.__getitem__, ids))


def _check_simplices(simplices) -> None:
    """Raise on the first faulty simplex in input order: an unhashable token
    (the TypeError of ``set``), a bad token, an empty set, or a negative int
    token (the set's smallest is named)."""
    for v in simplices:
        v = sorted(set(v), key=_token_key)  # ints first, smallest first
        if not v:
            raise InvalidComplexError("empty complex")
        if isinstance(v[0], int) and v[0] < 0:
            raise InvalidComplexError(f"negative vertex index {v[0]}")


def from_simplices(maximal_simplices, coordinates=None) -> CellComplex:
    """Build the simplicial complex spanned by the given simplices.

    Every face of every listed simplex is added, with canonical ids;
    duplicate input simplices are harmless. The distinct tokens are checked
    and sorted once (ints first, smallest first; natively when all are
    ints), and each simplex becomes the ascending tuple of its tokens'
    places in that order. The faces of each dimension from 1 up are
    generated in one pass over the dimension above, from the top down, as
    sets of such tuples, and sorted natively; every token is a vertex, so
    the vertices are never generated. :func:`_simplicial` writes the
    tables. Raises InvalidComplexError on the first bad input simplex, and
    when two distinct vertex sets would share an id (vertex ``"1.2"`` and
    edge ``{1, 2}``, or int ``1`` and str ``"1"``); that error names the
    first such pair in the cell order, the earlier cell first, so it is the
    same however the simplices and their tokens are listed.
    """
    tops: list = []
    try:
        tops += map(tuple, maximal_simplices)
    except TypeError:  # a simplex is not iterable; a fault in an earlier one comes first
        _check_simplices(tops)
        raise
    if not tops:
        raise InvalidComplexError("empty complex")
    # A bool would hide in the union behind an equal int, so the types of
    # every token are read; anything unusual takes the per-simplex check.
    kinds = set(map(type, chain.from_iterable(tops)))
    if not all(tops) or not {int, str}.issuperset(kinds):
        _check_simplices(tops)
    tokens = set(chain.from_iterable(tops))
    tokens = sorted(tokens) if kinds == {int} else sorted(tokens, key=_token_key)
    if isinstance(tokens[0], int) and tokens[0] < 0:
        _check_simplices(tops)
    index = dict(zip(tokens, range(len(tokens))))
    # each simplex as the ascending tuple of its distinct tokens' places,
    # put in the level of its dimension; a lone vertex is in no level
    places = map(set, map(map, repeat(index.__getitem__), tops))
    tops = list(map(tuple, map(sorted, places)))
    sizes = set(map(len, tops))
    levels: list = [set() for _ in range(max(sizes) - 1)]  # levels[d - 1]: the d-simplices
    for k in sizes - {1}:
        levels[k - 2].update(compress(tops, map(k.__eq__, map(len, tops))))
    del tops
    for d in range(len(levels), 0, -1):
        level = levels[d - 1] = sorted(levels[d - 1])
        if d > 1:
            levels[d - 2].update(chain.from_iterable(map(combinations, level, repeat(d))))
    return _simplicial(tokens, levels, coordinates)


def _simplicial(tokens, levels, coordinates=None) -> CellComplex:
    """The simplicial complex whose vertices are ``tokens``, the distinct
    vertex tokens in order, and whose d-simplices for d >= 1 are
    ``levels[d - 1]``, a sorted list of ascending tuples of places in
    ``tokens``; each simplex's facets lie in the level below. Cells are
    ordered by dimension, then by place tuple, so a vertex's rank is its
    place. When the tokens are 0..n-1, a place tuple is the vertex tuple
    itself. One bulk pass per level fills every table: a simplex's i-th
    facet omits its i-th vertex, which is descending rank, and its id is
    its last facet's id, a dot and its last token. An edge's facets are
    its places' vertex ranks; a higher simplex's facets are looked up in
    the last level's place-tuple-to-rank map, the only one kept, and each
    level is dropped from ``levels`` once written. Each rank is one int
    object, which the rank dict and the facet and cofacet tuples share.
    The vertex tuples are kept in the cell order, so when two of them
    write one id, the error names the first cell in that order whose id
    an earlier cell holds, the earliest holder first; the listing order of
    the input cannot change it."""
    n = len(tokens)
    ids = list(map(str, tokens))
    tail = list(map(".".__add__, ids))  # the id text a token adds as last vertex
    plain = tokens == list(range(n))  # each token is its own place
    at = list(range(n))  # the vertex ranks, by place; then the last level's ranks
    tuples = list(zip(tokens))  # the vertex tuples, by rank
    down: list[tuple[int, ...]] = [()] * n
    up: list = []  # cofacet tuples, each level's made when the level above is written
    starts = [0, n]
    rank = dict(zip(ids, at))
    last = itemgetter(-1)
    for d in range(1, len(levels) + 1):
        ts, levels[d - 1] = levels[d - 1], None
        ranks = list(range(len(ids), len(ids) + len(ts)))
        # combinations lists the facets by ascending rank; the last one
        # drops the last vertex, so its id is a prefix of the cell's
        faces = chain.from_iterable(map(combinations, ts, repeat(d)) if d > 1 else ts)
        ranked = map(at.__getitem__, faces)
        fs = list(map(itemgetter(*range(d, -1, -1)), zip(*[ranked] * (d + 1))))
        # the level below's cofacets fill lists made just now, and each list
        # is freed as its tuple is made, so few of them outlive a collection
        count = starts[-1] - starts[-2]
        up += [[] for _ in range(count)]
        for c, f in zip(ranks, fs):
            for x in f:
                up[x].append(c)
        filled = list(map(tuple, map(up.pop, repeat(-1, count))))
        up += reversed(filled)
        ids += map(
            str.__add__, map(ids.__getitem__, map(last, fs)), map(tail.__getitem__, map(last, ts))
        )
        down += fs
        tuples += ts if plain else map(tuple, map(map, repeat(tokens.__getitem__), ts))
        rank.update(zip(islice(ids, starts[-1], None), ranks))
        if d < len(levels):
            at = dict(zip(ts, ranks))
        starts.append(len(ids))
    up += [()] * (len(ids) - len(up))  # the top level has no cofacets
    if len(rank) < len(ids):  # two vertex tuples wrote one id
        first = dict(zip(ids[::-1], tuples[::-1]))  # each id's earliest tuple
        c, v = next((c, v) for c, v in zip(ids, tuples) if first[c] != v)
        raise InvalidComplexError(f"vertex sets {first[c]} and {v} share the cell id {c!r}")
    return CellComplex(
        SIMPLICIAL, tuple(ids), tuple(starts), down, up, rank,
        tuples, _coerce_coordinates(coordinates),
    )


def _order_complex(complex: CellComplex) -> tuple[CellComplex, list[str]]:
    """The order complex of the face poset of ``complex``, one vertex
    "b"+id per cell and one simplex per chain of nested cells, with the
    carrier of each of its cells in its cell order: the chain's top cell,
    as ``complex`` names it.

    One pass in the cell order, which lists faces first, gives each cell
    its proper faces, from its facets' closures, and the chains it tops:
    itself, and every chain a proper face tops, extended by the cell. So
    each chain is made once, as the ascending tuple of its cells' places in
    the id order, which is the "b"+id tokens' order, and the tables are
    the ones :func:`from_simplices` builds from the maximal flags. Two
    chains whose "b"+id tokens write one id (vertex "b"+"a.bb" and the
    chain of "a" and "b") fail as they do there, named in the cell order."""
    ids, down = complex._ids, complex._down
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    at = sorted(range(len(ids)), key=by_id.__getitem__)  # each rank's place in by_id
    faces: list[tuple[int, ...]] = []
    topped: list[tuple[tuple[int, ...], ...]] = []  # the chains each cell tops
    # the chains of two or more cells, by length, and the top of each; a
    # chain of one cell is a vertex, and the vertices are every place
    chains_of: list[list[tuple[int, ...]]] = [[] for _ in range(complex.dim)]
    tops_of: list[list[int]] = [[] for _ in range(complex.dim)]
    for r, fs in enumerate(down):
        below = tuple(set(fs).union(*map(faces.__getitem__, fs)))
        faces.append(below)
        p = (at[r],)
        chains = [tuple(sorted(ch + p)) for f in below for ch in topped[f]]
        for ch in chains:
            chains_of[len(ch) - 2].append(ch)
            tops_of[len(ch) - 2].append(r)
        chains.append(p)
        topped.append(tuple(chains))
    del faces, topped
    levels: list = []
    carriers = list(map(ids.__getitem__, by_id))  # the vertices' carriers
    first = itemgetter(0)
    for level in map(sorted, map(zip, chains_of, tops_of)):  # no two chains are equal
        levels.append(list(map(first, level)))
        carriers += map(ids.__getitem__, map(itemgetter(1), level))
    del chains_of, tops_of, level
    tokens = ["b" + ids[r] for r in by_id]
    subdivided = _simplicial(tokens, levels)
    return subdivided, carriers


def build_cw(cell_records, coordinates=None) -> CellComplex:
    """Build a regular-CW-kind complex from (id, dim, hyperfaces) records.

    This is where raw cw tables enter, so every record is checked here:
    str ids, nonnegative int dimensions, hyperfaces that exist one
    dimension down, no hyperfaces on a vertex and exactly two on a 1-cell.
    A record's hyperfaces are checked in their listed order, a repeat
    counted once. Cells are ordered by dimension, then by id, so a cell's
    facets, all of one dimension, are its hyperfaces by descending id, and
    its cofacets, listed here in any order, are sorted by ascending id.
    """
    records = list(cell_records)
    if not records:
        raise InvalidComplexError("empty complex")
    dims: dict[str, int] = {}
    listed: dict[str, tuple[str, ...]] = {}
    for cid, d, faces in records:
        if cid in dims:
            raise InvalidComplexError(f"duplicate cell id {cid!r}")
        dims[cid] = d
        listed[cid] = tuple(dict.fromkeys(faces))
    cofaces: dict[str, list[str]] = {c: [] for c in dims}
    for c, d in dims.items():
        if not isinstance(c, str) or not c:
            raise InvalidComplexError(f"bad cell id {c!r}")
        if not isinstance(d, int) or d < 0:
            raise InvalidComplexError(f"cell {c}: bad dimension {d!r}")
        faces = listed[c]
        for f in faces:
            if f not in dims:
                raise InvalidComplexError(f"cell {c}: dangling hyperface {f!r}")
            if dims[f] != d - 1:
                raise InvalidComplexError(
                    f"cell {c}: hyperface {f} has dimension {dims[f]}, "
                    f"expected {d - 1}"
                )
            cofaces[f].append(c)
        if d == 0 and faces:
            raise InvalidComplexError(f"vertex {c} must not have hyperfaces")
        if d == 1 and len(faces) != 2:
            raise InvalidComplexError(
                f"1-cell {c} must have exactly 2 hyperfaces (regularity)"
            )
    order = tuple(sorted(dims, key=lambda c: (dims[c], c)))
    rank = dict(zip(order, range(len(order))))
    at = rank.__getitem__
    counts = Counter(dims.values())
    starts = tuple(accumulate(map(counts.__getitem__, range(max(counts) + 1)), initial=0))
    down = [tuple(sorted(map(at, listed[c]), reverse=True)) for c in order]
    up = [tuple(sorted(map(at, cofaces[c]))) for c in order]
    coords = _coerce_coordinates(coordinates)
    return CellComplex(CW, order, starts, down, up, rank, coordinates=coords)


class SubcomplexPair:
    """A complex together with a distinguished subcomplex.

    The cells outside the subcomplex (``rel_cells``, in the complex's cell
    order) are the ones a matching must cover; they split into even- and
    odd-dimensional parts.

    The constructor checks that every cell of ``sub`` is in the complex
    and, unless ``close`` asks for the closure, that ``sub`` is closed:
    every sub cell's hyperfaces lie in ``sub``. It then lists the rel
    cells by rank and splits them by dimension, one slice each.

    A pair is immutable. The constructor stores ``sub``;
    :func:`complement_of_dual_loop` builds its pair from the rel side
    alone, and there ``sub`` is derived the first time it is read and then
    cached. The package's constructions build the pairs of their parts
    from the parts' cells on the complex they walk, with no check (see
    :func:`_part_pair`).
    """

    def __init__(self, complex: CellComplex, sub: Iterable[str] = (), close: bool = False):
        self.complex = complex
        subset = frozenset(sub)
        if close:
            subset = complex.closure(subset)
        ranks = _known_ranks(complex, subset)
        down = complex._down
        if not close and not all(ranks.issuperset(down[r]) for r in ranks):
            ids = complex._ids
            _raise_not_closed(ids[f] for r in ranks for f in down[r] if f not in ranks)
        self._set_rel(list(filterfalse(ranks.__contains__, range(len(complex)))))
        self.sub = subset

    @cached_property
    def sub(self) -> frozenset[str]:
        """The subcomplex: every cell not in ``rel_cells``."""
        return frozenset(self.complex._rank.keys() - self.rel_cells)

    def _set_rel(self, rel: list[int]) -> None:
        """Store the rel cells, given as ascending ranks, and split them by
        parity; ``_cut[d]`` is the place of the first rel cell of dimension
        d or more, so each dimension's rel cells are one slice."""
        cells = self.rel_cells = tuple(map(self.complex._ids.__getitem__, rel))
        cut = self._cut = [bisect_left(rel, s) for s in self.complex._starts]
        parts = [cells[a:b] for a, b in zip(cut, cut[1:])]
        self.rel_even = tuple(chain.from_iterable(parts[0::2]))
        self.rel_odd = tuple(chain.from_iterable(parts[1::2]))

    def __repr__(self):
        return (
            f"SubcomplexPair(|X|={len(self.complex)}, "
            f"|Y|={len(self.complex) - len(self.rel_cells)}, "
            f"|rel|={len(self.rel_cells)})"
        )


def _raise_not_closed(missing: Iterable[str]):
    """Raise for a subcomplex that lacks the hyperfaces ``missing`` lists,
    once per coface in the subcomplex."""
    raise InvalidSubcomplexError(
        f"subcomplex not closed under hyperfaces; missing {sorted(missing)[:5]}"
    )


def euler_characteristic(pair: SubcomplexPair) -> int:
    """Alternating cell count of the cells outside the subcomplex."""
    return len(pair.rel_even) - len(pair.rel_odd)


@dataclass(frozen=True)
class DualLoop:
    """Alternating cyclic sequence c0, f0, c1, f1, ... of top cells and
    shared hyperfaces; fi is a hyperface of ci and of c(i+1)."""

    cells: tuple[str, ...]

    def __post_init__(self):
        if len(self.cells) < 4 or len(self.cells) % 2 != 0:
            raise InvalidLoopError(
                f"loop needs an alternating sequence of >= 4 cells, got {len(self.cells)}"
            )

    @property
    def k(self) -> int:
        return len(self.cells) // 2

    @property
    def top_cells(self) -> tuple[str, ...]:
        return self.cells[0::2]

    @property
    def link_cells(self) -> tuple[str, ...]:
        return self.cells[1::2]

    def validate(self, complex: CellComplex) -> None:
        cells = self.cells
        if len(set(cells)) < len(cells):
            repeats = [c for c, count in Counter(cells).items() if count > 1]
            raise InvalidLoopError(f"not simple: repeated cell {min(repeats)}")
        for cid in cells:
            if cid not in complex:
                raise InvalidLoopError(f"unknown cell {cid!r}")
        n = complex.dim
        tops = cells[0::2]
        for c in tops:
            if complex.dim_of(c) != n:
                raise InvalidLoopError(f"{c} is not a top-dimensional cell")
        k = len(tops)
        for i, f in enumerate(cells[1::2]):
            if complex.dim_of(f) != n - 1:
                raise InvalidLoopError(f"{f} is not a codimension-1 cell")
            cofs = complex.cofacets(f)
            a, b = tops[i], tops[(i + 1) % k]
            if cofs != (a, b) and cofs != (b, a):
                raise InvalidLoopError(
                    f"{f} must have exactly the two cofaces {sorted((a, b))}, "
                    f"found {sorted(cofs)}"
                )


def complement_of_dual_loop(complex: CellComplex, loop: DualLoop) -> SubcomplexPair:
    """The pair whose subcomplex holds every cell not on the loop, after
    validating the loop; :func:`_part_pair` builds it. The rest is closed,
    since the loop is valid: its tops have no cofaces, and each link's only
    cofaces are two of its tops."""
    loop.validate(complex)
    return _part_pair(complex, loop.cells)


def _part_pair(complex: CellComplex, rel, sub=None) -> SubcomplexPair:
    """The pair of the closed piece ``rel`` ∪ ``sub`` of ``complex``
    relative to ``sub``, read off ``complex`` itself: no table is copied
    and nothing is checked, so the caller must know that ``sub`` and the
    piece are closed. It costs work on ``rel`` and ``sub`` only: the rel
    cells are put in the cell order and split by parity. Without ``sub``
    the piece is the whole complex, as for a dual loop's complement, and
    ``sub``, which then holds almost every cell, is derived when it is
    first read. A chain complex of the pair takes its top dimension from
    the piece (see :class:`cellmatch.homology.ChainComplex`)."""
    pair = SubcomplexPair.__new__(SubcomplexPair)
    pair.complex = complex
    pair._set_rel(sorted(map(complex._rank.__getitem__, rel)))
    if sub is not None:
        pair.sub = frozenset(sub)
    return pair


@dataclass(frozen=True)
class DualGraph:
    """1-skeleton of the dual cellulation: nodes are top cells, one edge per
    interior codimension-1 cell."""

    nodes: tuple[str, ...]
    edges: dict[str, tuple[str, str]]  # (n-1)-cell id -> its two cofaces
    boundary: frozenset[str]  # (n-1)-cells with a single coface
    non_manifold: frozenset[str]  # (n-1)-cells with three or more cofaces
    adjacency: dict[str, tuple[tuple[str, str], ...]]  # node -> neighbors(node)

    def neighbors(self, node: str) -> tuple[tuple[str, str], ...]:
        """Sorted (edge cell, other node) pairs at ``node``."""
        return self.adjacency.get(node, ())

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def dual_graph(complex: CellComplex) -> DualGraph:
    """Dual 1-skeleton of a pure complex; flags boundary and non-manifold
    codimension-1 cells."""
    if not complex.is_pure():
        raise PreconditionError(
            "complex is not pure: some cell is not a face of a top-dimensional cell"
        )
    n = complex.dim
    ids, up, starts = complex._ids, complex._up, complex._starts
    nodes = complex.cells_of_dim(n)
    edges: dict[str, tuple[str, str]] = {}
    boundary = set()
    non_manifold = set()
    for r in range(starts[n - 1], starts[n]) if n >= 1 else ():
        f = ids[r]
        cofs = sorted(map(ids.__getitem__, up[r]))
        if len(cofs) == 1:
            boundary.add(f)
        elif len(cofs) == 2:
            edges[f] = (cofs[0], cofs[1])
        elif len(cofs) >= 3:
            non_manifold.add(f)
    around: dict[str, list[tuple[str, str]]] = {}
    for f, (a, b) in edges.items():
        around.setdefault(a, []).append((f, b))
        around.setdefault(b, []).append((f, a))
    adjacency = {node: tuple(sorted(out)) for node, out in around.items()}
    return DualGraph(
        nodes, edges, frozenset(boundary), frozenset(non_manifold), adjacency
    )


def _alternating_cycle(nodes, ends) -> DualLoop | None:
    """The alternating cycle node, link, node, ... through every node, where
    ``ends[link]`` holds the two nodes a link joins; None unless every link
    joins two nodes, every node meets exactly two links and one walk reaches
    every node. The walk starts at ``nodes[0]``, leaves by its smallest link
    and never turns back along the link it came in by. Linear in the input."""
    around: dict[str, list[str]] = {node: [] for node in nodes}
    for link, pair in ends.items():
        if len(set(pair)) != 2 or not all(node in around for node in pair):
            return None
        for node in pair:
            around[node].append(link)
    if not nodes or any(len(links) != 2 for links in around.values()):
        return None
    start = nodes[0]
    node, link = start, min(around[start])
    seq: list[str] = []
    while True:
        seq += (node, link)
        a, b = ends[link]
        node = b if node == a else a
        if node == start:
            break
        first, second = around[node]
        link = second if link == first else first
    return DualLoop(tuple(seq)) if len(seq) == 2 * len(nodes) else None


def spanning_dual_loop(complex: CellComplex) -> DualLoop:
    """The dual loop through every top cell, for a complex whose dual graph
    is a single simple cycle (a cellulated circle, for instance).

    The loop starts at the first top cell in the cell order and leaves it
    by its smallest codimension-1 cell. Raises InvalidLoopError when the
    dual graph has boundary or non-manifold cells, or is not one cycle."""
    graph = dual_graph(complex)
    if graph.boundary or graph.non_manifold:
        raise InvalidLoopError("dual graph has boundary or non-manifold cells")
    loop = _alternating_cycle(graph.nodes, graph.edges)
    if loop is None:
        raise InvalidLoopError("dual graph is not a single cycle")
    return loop


def star_cycle(complex: CellComplex, tau: str) -> DualLoop:
    """The alternating cycle of the cells strictly containing a
    codimension-2 cell, when its link is a single cycle.

    The cycle starts at the first top cell of the star in the cell order
    and leaves it by its smallest codimension-1 cell; the walk is linear in
    the size of the star. Raises PreconditionError when ``tau`` is not of
    codimension 2 or its link is not a single cycle."""
    n = complex.dim
    if tau not in complex:
        raise InvalidSubcomplexError(f"unknown cell {tau!r}")
    if complex.dim_of(tau) != n - 2:
        raise PreconditionError(
            f"{tau} has dimension {complex.dim_of(tau)}; expected {n - 2}"
        )
    ids, up = complex._ids, complex._up
    around = up[complex._rank[tau]]
    mids = {ids[c]: tuple(map(ids.__getitem__, up[c])) for c in around}
    tops = list(map(ids.__getitem__, sorted(set().union(*map(up.__getitem__, around)))))
    loop = _alternating_cycle(tops, mids)
    if loop is None:
        raise PreconditionError(f"link of {tau} is not a single cycle")
    return loop
