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
The builders fill every table the complex stores (dimensions, facets,
cofacets, vertex tuples) and fix its cell order, by dimension first;
``restrict`` keeps that order and slices the parent's tables. ``facets``
and ``cofacets`` store the hyperface relation once each way, as tuples by
descending and ascending rank, so a cell's neighbours in rank order are
its reversed facets, then its cofacets. Simplices rank by dimension, then
vertex tuple, and dropping a later vertex gives an earlier tuple, so a
simplex's i-th facet omits its i-th vertex.

Complexes and pairs are immutable after construction and safe to share;
a loop complement derives its subcomplex once, when it is first read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
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
    """The points as tuples of Fractions. A point that already is one, as
    the file decoder makes them, is kept; any other goes through
    ``_exact``, which rejects floats."""
    if coordinates is None:
        return None
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
    piece of one with :meth:`restrict`, which slices its parent's tables.
    The constructor trusts its tables: it checks only the kind and
    non-emptiness, stores the tables it is handed (dimensions, facets,
    cofacets, vertex tuples, and coordinates the builders have made exact)
    and builds only the rank, so the tables must come from one of those
    builders, which own them.
    The builders own the cell order too: ``order`` lists every cell once,
    by dimension first, and :meth:`cells` returns it as given. ``facets``
    and ``cofacets`` are rank-ordered tuples; :meth:`hyperfaces` and
    :meth:`cofaces` build their sets from them. No per-cell set is stored.
    """

    def __init__(
        self, kind, dims, facets, cofaces, order, verts=None, coordinates=None
    ):
        if kind not in (SIMPLICIAL, CW):
            raise InvalidComplexError(f"unknown complex kind {kind!r}")
        if not dims:
            raise InvalidComplexError("empty complex")
        self.kind = kind
        self._dim = dims
        self._facets = facets
        self._cofaces = cofaces
        self._verts = verts
        self.coordinates = coordinates
        self.dim = max(self._dim.values())
        self._sorted_cells = order
        self._rank = dict(zip(order, range(len(order))))

    # -- queries ---------------------------------------------------------

    def __contains__(self, cid: str) -> bool:
        return cid in self._dim

    def __len__(self) -> int:
        return len(self._dim)

    def cells(self) -> tuple[str, ...]:
        return self._sorted_cells

    def dim_of(self, cid: str) -> int:
        return self._dim[cid]

    def hyperfaces(self, cid: str) -> frozenset[str]:
        return frozenset(self._facets[cid])

    def facets(self, cid: str) -> tuple[str, ...]:
        """Hyperfaces of ``cid`` by descending rank, as the builder stored
        them; for a simplex, the i-th omits the i-th of its ``vertices``."""
        return self._facets[cid]

    def cofacets(self, cid: str) -> tuple[str, ...]:
        """Cells having ``cid`` as a hyperface, by ascending rank, as the
        builder stored them."""
        return self._cofaces[cid]

    def cofaces(self, cid: str) -> frozenset[str]:
        """Cells having ``cid`` as a hyperface."""
        return frozenset(self._cofaces[cid])

    def vertices(self, cid: str) -> tuple[Token, ...]:
        if self._verts is None:
            raise InvalidComplexError("cw-kind cells carry no vertex tuples")
        return self._verts[cid]

    def vertex_tokens(self) -> tuple[Token, ...]:
        zero_cells = (c for c in self._sorted_cells if self._dim[c] == 0)
        if self._verts is not None:
            return tuple(self._verts[c][0] for c in zero_cells)
        return tuple(zero_cells)

    def sort_key(self, cid: str) -> int:
        """An int rank; the order is fixed by the builder."""
        return self._rank[cid]

    def cells_of_dim(self, d: int) -> tuple[str, ...]:
        return tuple(c for c in self._sorted_cells if self._dim[c] == d)

    def top_cells(self) -> tuple[str, ...]:
        return self.cells_of_dim(self.dim)

    def faces(self, cid: str) -> frozenset[str]:
        """All proper faces of ``cid`` (transitive closure of hyperfaces)."""
        return _reach(self._facets, (cid,))

    def cofaces_all(self, cid: str) -> frozenset[str]:
        """All proper cofaces of ``cid`` (cells strictly containing it)."""
        return _reach(self._cofaces, (cid,))

    def closure(self, ids: Iterable[str]) -> frozenset[str]:
        """``ids`` and all their faces; raises for the smallest unknown id."""
        idset = set(ids)
        _check_known(self, idset)
        return _reach(self._facets, idset).union(idset)

    def is_closed(self, ids: Iterable[str]) -> bool:
        idset = set(ids)
        _check_known(self, idset)
        facets = self._facets
        return all(idset.issuperset(facets[c]) for c in idset)

    def is_pure(self) -> bool:
        """Whether every cell is a face of a top cell: exactly when every
        cell without cofaces is of dimension ``dim``."""
        dim = self._dim
        return all(dim[c] == self.dim for c, cofs in self._cofaces.items() if not cofs)

    def restrict(self, ids: Iterable[str]) -> "CellComplex":
        """The subcomplex on ``ids``, which must be nonempty and closed. It
        lists its cells in this complex's order, so both rank them alike,
        and slices this complex's tables: a closed piece keeps every cell's
        facets, and its cofaces are this complex's cofaces that lie in the
        piece, in the same order."""
        idset = set(ids)
        if not idset:
            raise InvalidSubcomplexError("cannot restrict to an empty cell set")
        if not self.is_closed(idset):
            raise InvalidSubcomplexError("cell set is not closed under hyperfaces")
        order = tuple(sorted(idset, key=self._rank.__getitem__))
        dims = {c: self._dim[c] for c in order}
        facets = {c: self._facets[c] for c in order}
        cofaces = {}
        for c in order:
            cofs = self._cofaces[c]
            if not idset.issuperset(cofs):
                cofs = tuple(x for x in cofs if x in idset)
            cofaces[c] = cofs
        verts = None
        coords = None
        if self._verts is not None:
            verts = {c: self._verts[c] for c in order}
            if self.coordinates is not None:
                tokens = {verts[c][0] for c in order if dims[c] == 0}
                coords = {t: self.coordinates[t] for t in tokens if t in self.coordinates}
        return CellComplex(
            self.kind, dims, facets, cofaces, order, verts=verts, coordinates=coords
        )

    def __repr__(self):
        counts = {}
        for d in self._dim.values():
            counts[d] = counts.get(d, 0) + 1
        f_vec = tuple(counts.get(d, 0) for d in range(self.dim + 1))
        return f"CellComplex(kind={self.kind!r}, f={f_vec})"


def _reach(table, start) -> frozenset[str]:
    """The cells reachable from the cells ``start`` by one or more steps of
    ``table`` (facets or cofacets), in one walk; nothing is cached."""
    out: set[str] = set()
    stack = [c for s in start for c in table[s]]
    while stack:
        c = stack.pop()
        if c not in out:
            out.add(c)
            stack.extend(table[c])
    return frozenset(out)


def _maximal_simplices(complex: CellComplex) -> list[tuple[Token, ...]]:
    """The vertex tuples of the cells without cofacets, in the cell order."""
    cofaces, vertices = complex._cofaces, complex.vertices
    return [vertices(c) for c in complex._sorted_cells if not cofaces[c]]


def _check_known(complex: CellComplex, ids: set) -> None:
    """Raise for the smallest of ``ids`` that names no cell of ``complex``."""
    known = complex._dim.keys()
    if not known >= ids:
        raise InvalidSubcomplexError(f"unknown cell {min(ids - known, key=str)!r}")


def _check_simplices(vertex_sets) -> None:
    """Raise on the first faulty vertex set in input order: a bad token, an
    empty set, or a negative int token (the set's smallest is named)."""
    for v in vertex_sets:
        v = sorted(v, key=_token_key)  # ints first, smallest first
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
    places in that order. The faces are generated one dimension at a time,
    from the top down, as sets of such tuples; each dimension is sorted
    natively, and :func:`_simplicial` writes the tables. Raises
    InvalidComplexError on the first bad input simplex, and when two
    distinct vertex sets would share an id (vertex ``"1.2"`` and edge
    ``{1, 2}``, or int ``1`` and str ``"1"``); that error names the first
    such pair in the cell order, the earlier cell first, so it is the same
    however the simplices and their tokens are listed.
    """
    vertex_sets = []
    try:
        for s in maximal_simplices:
            vertex_sets.append(set(s))
    except TypeError:  # an unhashable token; a fault in an earlier simplex comes first
        _check_simplices(vertex_sets)
        raise
    if not vertex_sets:
        raise InvalidComplexError("empty complex")
    # A bool would hide in the union behind an equal int, so the types of
    # every token are read; anything unusual takes the per-simplex check.
    kinds = set(map(type, chain.from_iterable(vertex_sets)))
    if not all(vertex_sets) or not {int, str}.issuperset(kinds):
        _check_simplices(vertex_sets)
    tokens = set().union(*vertex_sets)
    tokens = sorted(tokens) if kinds == {int} else sorted(tokens, key=_token_key)
    if isinstance(tokens[0], int) and tokens[0] < 0:
        _check_simplices(vertex_sets)
    index = dict(zip(tokens, range(len(tokens))))
    levels: list = [set() for _ in range(max(map(len, vertex_sets)))]
    for v in vertex_sets:
        levels[len(v) - 1].add(tuple(sorted(map(index.__getitem__, v))))
    for d in range(len(levels) - 1, 0, -1):
        for t in levels[d]:
            levels[d - 1].update(combinations(t, d))
    for d, level in enumerate(levels):
        levels[d] = sorted(level)
    return _simplicial(levels, tokens, coordinates)


def _simplicial(levels, tokens, coordinates=None) -> CellComplex:
    """The simplicial complex whose d-simplices are ``levels[d]``, a sorted
    list of ascending tuples of places in ``tokens``, the distinct vertex
    tokens in order; each simplex's facets lie in the level below. Cells
    are ordered by dimension, then by place tuple. When the tokens are
    0..n-1, a place tuple is the vertex tuple itself. One pass in that
    order writes each id once and fills every table: a simplex's i-th
    facet omits its i-th vertex, which is descending rank, and its id is
    its last facet's id, a dot and its last token. Only the last level's
    place-tuple-to-id map is kept, and each level is dropped from
    ``levels`` once written. The vertex tuples are kept in the cell order,
    so when two of them write one id, the error names the first cell in
    that order whose id an earlier cell holds, the earliest holder first;
    the listing order of the input cannot change it."""
    token = tokens.__getitem__
    text = list(map(str, tokens))
    plain = tokens == list(range(len(tokens)))  # each token is its own place
    ids: dict[tuple[int, ...], str] = {}
    dims: dict[str, int] = {}
    tuples: list[tuple[Token, ...]] = []  # the vertex tuples, in the cell order
    facets: dict[str, tuple[str, ...]] = {}
    cofaces: dict[str, tuple[str, ...]] = {}
    order: list[str] = []
    below: dict[str, list[str]] = {}  # cofaces of the last dimension's cells, by rank
    for d in range(len(levels)):
        ts, levels[d] = levels[d], None
        if d:
            # combinations lists the facets by ascending rank; the last one
            # drops the last vertex, so its id is a prefix of the cell's
            fs = [tuple(map(ids.__getitem__, combinations(t, d)))[::-1] for t in ts]
            cids = [f"{f[-1]}.{text[t[-1]]}" for f, t in zip(fs, ts)]
        else:
            fs = [()] * len(ts)
            cids = [text[i] for i, in ts]
        tuples += ts if plain else [tuple(map(token, t)) for t in ts]
        ids = dict(zip(ts, cids))
        dims.update(dict.fromkeys(cids, d))
        order += cids
        facets.update(zip(cids, fs))
        for c, cf in zip(cids, fs):
            for f in cf:
                below[f].append(c)
        cofaces.update(zip(below, map(tuple, below.values())))
        below = {c: [] for c in cids}
    cofaces.update(dict.fromkeys(below, ()))
    verts = dict(zip(order, tuples))
    if len(verts) < len(order):  # two vertex tuples wrote one id
        first = dict(zip(order[::-1], tuples[::-1]))  # each id's earliest tuple
        c, v = next((c, v) for c, v in zip(order, tuples) if first[c] != v)
        raise InvalidComplexError(f"vertex sets {first[c]} and {v} share the cell id {c!r}")
    return CellComplex(
        SIMPLICIAL, dims, facets, cofaces, tuple(order), verts,
        _coerce_coordinates(coordinates),
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
    cells = sorted(complex._dim)
    at = dict(zip(cells, range(len(cells))))
    facets = complex._facets
    faces: dict[str, tuple[str, ...]] = {}
    topped: dict[str, list[tuple[int, ...]]] = {}
    # the chains of each length, and the top of each
    chains_of: list[list[tuple[int, ...]]] = [[] for _ in range(complex.dim + 1)]
    tops_of: list[list[str]] = [[] for _ in range(complex.dim + 1)]
    for c in complex._sorted_cells:
        fs = facets[c]
        below = faces[c] = tuple(set(fs).union(*map(faces.__getitem__, fs)))
        p = (at[c],)
        chains = topped[c] = [p]
        chains += [tuple(sorted(ch + p)) for f in below for ch in topped[f]]
        for ch in chains:
            chains_of[len(ch) - 1].append(ch)
            tops_of[len(ch) - 1].append(c)
    del faces, topped
    levels: list = []
    carriers: list[str] = []
    for level in map(sorted, map(zip, chains_of, tops_of)):  # no two chains are equal
        levels.append([ch for ch, _ in level])
        carriers += [c for _, c in level]
    del chains_of, tops_of, level
    tokens = ["b" + c for c in cells]
    subdivided = _simplicial(levels, tokens)
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
    facets = {c: tuple(sorted(listed[c], reverse=True)) for c in order}
    cofs = {c: tuple(sorted(cofaces[c])) for c in order}
    return CellComplex(
        CW, dims, facets, cofs, order, coordinates=_coerce_coordinates(coordinates)
    )


class SubcomplexPair:
    """A complex together with a distinguished subcomplex.

    The cells outside the subcomplex (``rel_cells``, in the complex's cell
    order) are the ones a matching must cover; they split into even- and
    odd-dimensional parts.

    The constructor checks that every cell of ``sub`` is in the complex
    and, unless ``close`` asks for the closure, that ``sub`` is closed:
    every sub cell's hyperfaces lie in ``sub``. It then lists the rel
    cells in one pass over the cell order.

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
        else:
            _check_known(complex, subset)
            facets = complex._facets
            if not all(subset.issuperset(facets[c]) for c in subset):
                _raise_not_closed(f for c in subset for f in facets[c] if f not in subset)
        self._set_rel([c for c in complex.cells() if c not in subset])
        self.sub = subset

    @cached_property
    def sub(self) -> frozenset[str]:
        """The subcomplex: every cell not in ``rel_cells``."""
        return frozenset(self.complex._dim.keys() - self.rel_cells)

    def _set_rel(self, rel: list[str]) -> None:
        """Store the rel cells, given in the cell order, split by parity."""
        dim = self.complex._dim
        self.rel_cells = tuple(rel)
        self.rel_even = tuple(c for c in rel if dim[c] % 2 == 0)
        self.rel_odd = tuple(c for c in rel if dim[c] % 2 == 1)

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
    return sum((-1) ** pair.complex.dim_of(c) for c in pair.rel_cells)


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
        cells, dims, cofaces = self.cells, complex._dim, complex._cofaces
        if len(set(cells)) < len(cells):
            repeats = [c for c, count in Counter(cells).items() if count > 1]
            raise InvalidLoopError(f"not simple: repeated cell {min(repeats)}")
        for cid in cells:
            if cid not in dims:
                raise InvalidLoopError(f"unknown cell {cid!r}")
        n = complex.dim
        tops = cells[0::2]
        for c in tops:
            if dims[c] != n:
                raise InvalidLoopError(f"{c} is not a top-dimensional cell")
        k = len(tops)
        for i, f in enumerate(cells[1::2]):
            if dims[f] != n - 1:
                raise InvalidLoopError(f"{f} is not a codimension-1 cell")
            cofs = cofaces[f]
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
    pair._set_rel(sorted(rel, key=complex._rank.__getitem__))
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
    nodes = complex.cells_of_dim(n)
    edges: dict[str, tuple[str, str]] = {}
    boundary = set()
    non_manifold = set()
    for f in complex.cells_of_dim(n - 1) if n >= 1 else ():
        cofs = sorted(complex.cofacets(f))
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
    mids = {c: complex.cofacets(c) for c in complex.cofacets(tau)}
    tops = sorted(set(chain.from_iterable(mids.values())), key=complex.sort_key)
    loop = _alternating_cycle(tops, mids)
    if loop is None:
        raise PreconditionError(f"link of {tau} is not a single cycle")
    return loop
