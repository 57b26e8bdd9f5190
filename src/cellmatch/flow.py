"""Geometric simplicial complexes with exact rational coordinates and the
matching induced by a constant direction field transverse to the
triangulation.

All geometric tests are exact. For a top simplex with vertices p_0..p_n,
the directional derivatives of its barycentric coordinates along the field
v solve sum(c_i) = 0, sum(c_i p_i) = v. Their signs split its vertices
into rising (c_i > 0) and falling (c_i < 0) ones, and that split decides
the rest: a boundary facet exits when its opposite vertex falls, and the
simplex is downstream of each face holding all its falling vertices and
upstream of each face holding all its rising ones. A zero c_i makes the
facet opposite p_i degenerate.

Only the signs of the c_i are read. Each vertex is written once as the
integer homogeneous column (D, D*x_1, ..., D*x_k), D > 0 the lcm of its
own denominators; with these columns the system is solved by c_i / D_i,
which has the sign of c_i. When a GeometricComplex is built, the columns
of each top simplex go through one fraction-free Gauss-Jordan elimination
(Bareiss 1968), the method of exact orientation predicates, and the row
operations on the coordinate rows are kept. Every division in it is
exact, since every entry is a minor, and a column left without a pivot
is a degenerate top simplex. A field, scaled to integers by the lcm of
its denominators (again positive), then costs a few integer dot products
per top simplex: the pivot rows give the signs, and the residual rows
give zero exactly when the field is tangent.

The faces of a top simplex are read off its facets by vertex-position
mask, and the mate of a cell off its own facets or cofacets.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .complexes import SIMPLICIAL, CellComplex, SubcomplexPair, Token, cell_id
from .errors import InvalidComplexError, NotTransverseError, PreconditionError
from .matching import Matching, _checked


def direction(*components) -> tuple[Fraction, ...]:
    """Coerce components ('p/q' strings, ints, Fractions) to an exact
    nonzero direction vector."""
    out = []
    for value in components:
        if isinstance(value, float):
            raise InvalidComplexError("exact rational components required; got a float")
        try:
            out.append(Fraction(value))
        except (TypeError, ValueError, ZeroDivisionError):
            raise InvalidComplexError(f"bad direction component {value!r}") from None
    vec = tuple(out)
    if not vec or all(x == 0 for x in vec):
        raise InvalidComplexError("direction must be nonzero")
    return vec


def _homogeneous(point) -> tuple[int, ...]:
    """The point (x_1, ..., x_k) as the integer column (D, D*x_1, ...,
    D*x_k), where D > 0 is the lcm of its own denominators."""
    scale = math.lcm(*(x.denominator for x in point))
    return (scale, *(x.numerator * (scale // x.denominator) for x in point))


def _eliminate(columns, m: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of the first
    ``m`` of these integer ``columns``, with the others carried along.

    Returns ``None`` when one of the first m columns has no pivot, else
    ``(d, pivots, residuals)``. At the end the i-th pivot row holds d in
    column i and zero in the other eliminated columns, every other row is
    zero there, and ``pivots`` and ``residuals`` are those rows' carried
    entries. Every entry is a minor of the whole matrix, so every division
    is exact. An eliminated column is dropped from every row, as no later
    step reads it."""
    rows = [list(row) for row in zip(*columns)]
    d = 1
    for col in range(m):
        for hit in range(col, len(rows)):
            if rows[hit][0]:
                break
        else:
            return None
        pivot = rows.pop(hit)
        p = pivot[0]
        tail = pivot[1:]
        rows = [
            [(p * x - f * y) // d for x, y in zip(row[1:], tail)] if (f := row[0])
            else [p * x // d for x in row[1:]]
            for row in rows
        ]
        rows.insert(col, tail)
        d = p
    return d, tuple(map(tuple, rows[:m])), tuple(map(tuple, rows[m:]))


class GeometricComplex:
    """A pure simplicial complex embedded by exact rational coordinates.

    Every top simplex must be non-degenerate and every codimension-1
    simplex must bound at most two top simplices. The constructor
    eliminates each top simplex's homogeneous columns once and keeps, as
    tuples, the last pivot d and the tracked row operations of the pivot
    rows and of the residual rows, which every later field reads.
    """

    def __init__(self, complex: CellComplex):
        if complex.kind != SIMPLICIAL:
            raise InvalidComplexError("geometric complexes must be simplicial")
        coords = complex.coordinates
        if coords is None:
            raise InvalidComplexError("geometric complexes require coordinates")
        self.complex = complex
        self.n = complex.dim
        tokens = complex.vertex_tokens()
        missing = [t for t in tokens if t not in coords]
        if missing:
            raise InvalidComplexError(f"missing coordinates for vertices {missing[:5]}")
        lengths = {len(coords[t]) for t in tokens}
        if len(lengths) != 1:
            raise InvalidComplexError("all coordinates must have the same length")
        self.ambient_dim = lengths.pop()
        if self.ambient_dim < self.n:
            raise InvalidComplexError(
                f"ambient dimension {self.ambient_dim} below complex dimension {self.n}"
            )
        self.coordinates = {t: coords[t] for t in tokens}
        if not complex.is_pure():
            raise PreconditionError("geometric complexes must be pure-dimensional")
        columns = {t: _homogeneous(coords[t]) for t in tokens}
        # Identity columns for rows 1..: their carried entries are the row
        # operations a field's right-hand side (0, u) needs, as its row 0 is 0.
        size = self.ambient_dim + 1
        track = [tuple(int(r == j) for r in range(size)) for j in range(1, size)]
        self._eliminated: dict[str, tuple] = {}
        for top in complex.top_cells():
            verts = complex.vertices(top)
            solve = _eliminate([*map(columns.__getitem__, verts), *track], len(verts))
            if solve is None:
                raise InvalidComplexError(f"degenerate top simplex {top}")
            self._eliminated[top] = solve
        if self.n >= 1:
            for f in complex.cells_of_dim(self.n - 1):
                if len(complex.cofacets(f)) > 2:
                    raise InvalidComplexError(
                        f"codimension-1 simplex {f} bounds more than two top simplices"
                    )

    def point(self, token: Token) -> tuple[Fraction, ...]:
        return self.coordinates[token]


@dataclass(frozen=True)
class BoundarySplit:
    """Boundary hyperfaces split by the field direction, with closures."""

    exiting_hyperfaces: frozenset[str]
    entering_hyperfaces: frozenset[str]
    exiting: frozenset[str]  # closure; the relative base for flow matchings
    entering: frozenset[str]


def check_transverse(geom: GeometricComplex, field_vec) -> BoundarySplit:
    """Exact transversality test; returns the boundary split or raises a
    degeneracy report naming every offending codimension-1 simplex."""
    split, _ = _sign_split(geom, field_vec)
    return split


def _sign_split(geom: GeometricComplex, field_vec):
    """The boundary split, and per top simplex the vertex-position masks
    of its rising and falling vertices (bit i for its i-th vertex).

    The field is scaled to integers u = L * v, L > 0 the lcm of its
    denominators. With the homogeneous columns D_j * (1, p_j) the system
    for (0, u) is solved by c'_j = L * c_j / D_j, which has the sign of
    c_j. The elimination kept at construction turns (0, u) into d * c'_i
    on pivot row i, the dot product of that row's tracked operations with
    u, and into zero on every residual row exactly when the field is
    tangent. So each sign is that of d times one dot product, and nothing
    is eliminated here. The first top simplex the field is not tangent to
    raises at once; degenerate facets are gathered over all of them and
    raised after."""
    if geom.n < 1:
        raise PreconditionError("flow structures need dimension at least 1")
    v = direction(*field_vec)
    if len(v) != geom.ambient_dim:
        raise InvalidComplexError(
            f"field has {len(v)} components, ambient dimension is {geom.ambient_dim}"
        )
    scale = math.lcm(*(x.denominator for x in v))
    u = [x.numerator * (scale // x.denominator) for x in v]
    complex = geom.complex
    degenerate = set()
    exiting = set()
    entering = set()
    signs: dict[str, tuple[int, int]] = {}
    for top, (d, pivots, residuals) in geom._eliminated.items():
        if any(sum(map(operator.mul, ops, u)) for ops in residuals):
            raise NotTransverseError(
                f"field is not tangent to top simplex {top}", simplices=(top,)
            )
        rise = fall = 0
        for i, (ops, facet) in enumerate(zip(pivots, complex.facets(top))):
            value = d * sum(map(operator.mul, ops, u))
            if value == 0:
                degenerate.add(facet)
                continue
            if value > 0:
                rise |= 1 << i
            else:
                fall |= 1 << i
            if len(complex.cofacets(facet)) == 1:
                (exiting if value < 0 else entering).add(facet)
        signs[top] = (rise, fall)
    if degenerate:
        raise NotTransverseError(
            "field lies in the span of codimension-1 simplices: "
            + ", ".join(sorted(degenerate)),
            simplices=sorted(degenerate),
        )
    split = BoundarySplit(
        frozenset(exiting),
        frozenset(entering),
        complex.closure(exiting),
        complex.closure(entering),
    )
    return split, signs


@dataclass(frozen=True)
class FlowStructure:
    """Downstream/upstream structure of a transverse constant field.

    ``downstream[s]`` is the top simplex the field enters through the
    interior of s (defined off the exiting boundary closure); ``upstream``
    is the time-reversed counterpart. Per top simplex, ``stable`` and
    ``unstable`` list the faces it is downstream/upstream for,
    ``unstable_core`` is the face spanned by its rising vertices, and
    ``base_vertex`` the chosen vertex in it.
    """

    geometry: GeometricComplex
    field: tuple[Fraction, ...]
    split: BoundarySplit
    downstream: dict[str, str]
    upstream: dict[str, str]
    stable: dict[str, frozenset[str]]
    unstable: dict[str, frozenset[str]]
    unstable_core: dict[str, str]
    base_vertex: dict[str, Token]
    base_rule: str

    def rel_base(self) -> frozenset[str]:
        return self.split.exiting


def _only(cell: str, candidates: list[str]) -> str:
    if len(candidates) != 1:
        raise PreconditionError(
            f"degenerate configuration at {cell}: "
            f"{len(candidates)} candidate top simplices"
        )
    return candidates[0]


def flow_structure(
    geom: GeometricComplex, field_vec, base_rule: str = "lowest", seed: int | None = None
) -> FlowStructure:
    """Compute downstream/upstream maps, stable/unstable faces, and base
    vertices for a transverse constant field."""
    if base_rule not in ("lowest", "random"):
        raise ValueError("base_rule must be 'lowest' or 'random'")
    if base_rule == "random" and seed is None:
        raise ValueError("base_rule 'random' requires a seed")
    split, signs = _sign_split(geom, field_vec)
    complex = geom.complex
    facets = complex.facets

    # The faces of a top simplex by vertex-position mask (bit i for its
    # i-th vertex), filled from the full mask down: a mask's face is a facet
    # of its parent, the face with the mask's lowest unset bit added, and
    # the i-th facet omits the i-th vertex.
    full = (1 << (geom.n + 1)) - 1
    steps = []
    for mask in range(full - 1, 0, -1):
        low = ~mask & (mask + 1)
        steps.append((mask, mask | low, (mask & (low - 1)).bit_count()))
    down_tops: dict[str, list[str]] = {c: [] for c in complex.cells()}
    up_tops: dict[str, list[str]] = {c: [] for c in complex.cells()}
    unstable_core: dict[str, str] = {}
    face: list[str | None] = [None] * (full + 1)
    for t, (rise, fall) in signs.items():
        face[full] = t
        for mask, parent, i in steps:
            face[mask] = facets(face[parent])[i]
        for mask in range(1, full + 1):
            if mask & fall == fall:
                down_tops[face[mask]].append(t)
            if mask & rise == rise:
                up_tops[face[mask]].append(t)
        unstable_core[t] = face[rise]

    downstream: dict[str, str] = {}
    upstream: dict[str, str] = {}
    for c in complex.cells():
        if c not in split.exiting:
            downstream[c] = _only(c, down_tops[c])
        if c not in split.entering:
            upstream[c] = _only(c, up_tops[c])

    stable: dict[str, set[str]] = {t: set() for t in signs}
    unstable: dict[str, set[str]] = {t: set() for t in signs}
    for c, t in downstream.items():
        stable[t].add(c)
    for c, t in upstream.items():
        unstable[t].add(c)

    rng = random.Random(seed) if base_rule == "random" else None
    base_vertex: dict[str, Token] = {}
    for t, (rise, fall) in signs.items():
        if not rise or not fall:
            raise AssertionError(f"{t} lacks a rising or a falling vertex")
        choices = complex.vertices(unstable_core[t])  # ascending token order
        base_vertex[t] = choices[0] if rng is None else rng.choice(choices)

    return FlowStructure(
        geometry=geom,
        field=direction(*field_vec),
        split=split,
        downstream=downstream,
        upstream=upstream,
        stable={t: frozenset(s) for t, s in stable.items()},
        unstable={t: frozenset(s) for t, s in unstable.items()},
        unstable_core=unstable_core,
        base_vertex=base_vertex,
        base_rule=base_rule,
    )


def flow_matching(fs: FlowStructure) -> Matching:
    """The matching induced by the flow structure, relative to the closure
    of the exiting boundary.

    The mate of a cell drops the base vertex of its downstream simplex when
    present, and joins it otherwise; mates always share the same downstream
    simplex. A mate rule that is not an involution puts a cell in two
    pairs, or one in the base, and the one check of the output reports it.
    """
    complex = fs.geometry.complex
    pair = SubcomplexPair(complex, fs.split.exiting)
    mate: dict[str, str] = {}
    for c in pair.rel_cells:
        top = fs.downstream[c]
        base = fs.base_vertex[top]
        verts = complex.vertices(c)
        if base in verts:
            if len(verts) == 1:
                raise AssertionError(f"mate of {c} would be empty")
            partner = complex.facets(c)[verts.index(base)]
        else:
            partner = next((f for f in complex.cofacets(c) if base in complex.vertices(f)), None)
            if partner is None:
                raise AssertionError(f"mate {cell_id((*verts, base))} of {c} is not a cell")
        if fs.downstream.get(partner) != top:
            raise AssertionError(
                f"mate {partner} of {c} has a different downstream simplex"
            )
        mate[c] = partner
    return _checked(pair, mate.items(), "flow matching failed validation")
