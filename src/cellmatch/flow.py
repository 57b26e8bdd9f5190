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
of a top simplex go through one fraction-free Gauss-Jordan elimination
(Bareiss 1968), the method of exact orientation predicates, and the row
operations on the coordinate rows are kept. Every division in it is
exact, since every entry is a minor, and a column left without a pivot
is a degenerate top simplex. The c_i depend only on the edge vectors
p_j - p_0, so translates share one elimination: each top simplex is keyed
by its edge vectors, written exactly in integers, and only a new key is
eliminated. A field, scaled to integers by the lcm of its denominators
(again positive), then costs a few integer dot products per shared
elimination, memoised for all its translates: the pivot rows give the
signs, and the residual rows give zero exactly when the field is tangent.

The faces of a top simplex are read off its facets by vertex-position
mask. One claim pass per time direction writes each top simplex as the
downstream (or upstream) simplex of each face holding its falling (or
rising) vertices, and a face claimed twice is counted. Each pair of the
matching is looked up once, from its cell that holds the base vertex; a
partner in the exiting closure is a precondition failure, the only way
the rule can fail on a structure built here, and the one check of the
output covers the rest.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .complexes import SIMPLICIAL, CellComplex, SubcomplexPair, Token, euler_characteristic
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
    eliminates the homogeneous columns once per translate class of top
    simplices and keeps, as tuples, the last pivot d and the tracked row
    operations of the pivot rows and of the residual rows, which every
    later field reads.

    A top simplex with columns (D_j, N_j) is keyed, for each later vertex
    j, by (D_0 * D_j, N_j * D_0 - N_0 * D_j): the edge vector p_j - p_0
    as an integer vector over its integer denominator. The key is exact,
    so equal keys mean equal edge vectors in the same vertex order, and
    the derivatives c_i, hence their signs, degeneracy and tangency,
    depend on the edge vectors alone. Every top with a key seen before
    shares that key's one elimination tuple; a translate whose key comes
    out differently is merely eliminated again.
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
        column = columns.__getitem__
        # Against (0, N_0), entry by entry, column j gives D_j * D_0 and
        # then N_j * D_0 - N_0 * D_j.
        zeroed = {t: (c[0], (0, *c[1:])) for t, c in columns.items()}
        by_key: dict[tuple, tuple] = {}
        self._eliminated: dict[str, tuple] = {}
        for top in complex.top_cells():
            verts = complex.vertices(top)
            d0, z0 = zeroed[verts[0]]
            key = tuple([
                a * d0 - b * c[0] for c in map(column, verts[1:]) for a, b in zip(c, z0)
            ])
            solve = by_key.get(key)
            if solve is None:
                solve = _eliminate([*map(column, verts), *track], len(verts))
                if solve is None:
                    raise InvalidComplexError(f"degenerate top simplex {top}")
                by_key[key] = solve
            self._eliminated[top] = solve
        # Each boundary facet, one with a single top coface, with that top
        # and its position among the top's facets.
        self._boundary: dict[str, tuple[str, int]] = {}
        if self.n >= 1:
            for f in complex.cells_of_dim(self.n - 1):
                tops = complex.cofacets(f)
                if len(tops) > 2:
                    raise InvalidComplexError(
                        f"codimension-1 simplex {f} bounds more than two top simplices"
                    )
                if len(tops) == 1:
                    self._boundary[f] = (tops[0], complex.facets(tops[0]).index(f))

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
    return _sign_split(geom, field_vec)[1]


def _sign_split(geom: GeometricComplex, field_vec):
    """The parsed field, the boundary split, and per top simplex the
    vertex-position masks of its rising, falling and zero vertices (bit i
    for its i-th vertex).

    The field is scaled to integers u = L * v, L > 0 the lcm of its
    denominators, as :func:`_homogeneous` scales a vertex. With the
    homogeneous columns D_j * (1, p_j) the system for (0, u) is solved by
    c'_j = L * c_j / D_j, which has the sign of c_j. The elimination kept
    at construction turns (0, u) into d * c'_i on pivot row i, the dot
    product of that row's tracked operations with u, and into zero on
    every residual row exactly when the field is tangent. So each sign is
    that of d times one dot product, and nothing is eliminated here. The
    masks are computed once per shared elimination, memoised by its
    ``id``, and every translate reads them. The first top simplex the
    field is not tangent to raises at once; degenerate facets, read per
    top, are gathered over all of them and raised after."""
    if geom.n < 1:
        raise PreconditionError("flow structures need dimension at least 1")
    v = direction(*field_vec)
    if len(v) != geom.ambient_dim:
        raise InvalidComplexError(
            f"field has {len(v)} components, ambient dimension is {geom.ambient_dim}"
        )
    u = _homogeneous(v)[1:]
    complex = geom.complex
    memo: dict[int, tuple[int, int, int]] = {}
    signs: dict[str, tuple[int, int, int]] = {}
    degenerate = set()
    for top, solve in geom._eliminated.items():
        masks = memo.get(id(solve))
        if masks is None:
            d, pivots, residuals = solve
            if any(sum(map(operator.mul, ops, u)) for ops in residuals):
                raise NotTransverseError(
                    f"field is not tangent to top simplex {top}", simplices=(top,)
                )
            rise = fall = zero = 0
            for i, ops in enumerate(pivots):
                value = d * sum(map(operator.mul, ops, u))
                if value > 0:
                    rise |= 1 << i
                elif value < 0:
                    fall |= 1 << i
                else:
                    zero |= 1 << i
            masks = memo[id(solve)] = (rise, fall, zero)
        if masks[2]:
            degenerate.update(
                f for i, f in enumerate(complex.facets(top)) if masks[2] >> i & 1
            )
        signs[top] = masks
    if degenerate:
        raise NotTransverseError(
            "field lies in the span of codimension-1 simplices: "
            + ", ".join(sorted(degenerate)),
            simplices=sorted(degenerate),
        )
    exiting = set()
    entering = set()
    for facet, (top, i) in geom._boundary.items():
        (exiting if signs[top][1] >> i & 1 else entering).add(facet)
    split = BoundarySplit(
        frozenset(exiting),
        frozenset(entering),
        complex.closure(exiting),
        complex.closure(entering),
    )
    return v, split, signs


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


def _claim_error(cells, split, claims) -> PreconditionError:
    """The error of the first cell, in cell order and downstream before
    upstream, not claimed by exactly one top simplex. ``claims`` holds,
    per direction, the first claimant of each cell and the count of each
    cell claimed more than once."""
    for c in cells:
        for skip, (first, extra) in zip((split.exiting, split.entering), claims):
            if c not in skip and (count := extra.get(c, int(c in first))) != 1:
                return PreconditionError(
                    f"degenerate configuration at {c}: {count} candidate top simplices"
                )
    raise AssertionError("no degenerate configuration found")


def _claims(geom: GeometricComplex, signs, side: int, skip):
    """One time direction's claim pass: each top simplex claims every face
    holding all its ``side`` vertices (1: falling, downstream; 0: rising,
    upstream). Returns the first claimant of each face, the count of each
    face claimed more than once, and per top the faces it claims less
    ``skip`` and the face of its ``side`` vertices. Faces are read by
    vertex-position mask (bit i for the i-th vertex) from the full mask
    down: a mask's face is a facet of its parent, the face with the mask's
    lowest unset bit added, and the i-th facet omits the i-th vertex. A
    parent holds every bit its mask holds, so the faces holding a vertex
    set are filled from their own chain of steps."""
    facets = geom.complex.facets
    full = (1 << (geom.n + 1)) - 1
    steps = []
    for mask in range(full - 1, 0, -1):
        low = ~mask & (mask + 1)
        steps.append((mask, mask | low, (mask & (low - 1)).bit_count()))
    chains = {m: [s for s in steps if s[0] & m == m] for m in range(1, full)}
    above = {m: [full, *(s[0] for s in chain)] for m, chain in chains.items()}
    face: list[str | None] = [None] * (full + 1)
    first: dict[str, str] = {}
    extra: dict[str, int] = {}
    kept: dict[str, frozenset[str]] = {}
    cores: dict[str, str] = {}
    for t, masks in signs.items():
        core = masks[side]
        if not core or core == full:
            raise AssertionError(f"{t} lacks a rising or a falling vertex")
        face[full] = t
        for mask, parent, i in chains[core]:
            face[mask] = facets(face[parent])[i]
        owned = list(map(face.__getitem__, above[core]))
        for c in owned:
            if first.setdefault(c, t) is not t:
                extra[c] = extra.get(c, 1) + 1
        kept[t] = frozenset(owned) - skip
        cores[t] = face[core]
    return first, extra, kept, cores


def flow_structure(
    geom: GeometricComplex, field_vec, base_rule: str = "lowest", seed: int | None = None
) -> FlowStructure:
    """Compute downstream/upstream maps, stable/unstable faces, and base
    vertices for a transverse constant field.

    The upstream structure of v is the downstream one of -v, so one claim
    pass, :func:`_claims`, runs per time direction. Each face off the
    exiting (or entering) closure must be claimed exactly once, and the
    faces a top claims, less that closure, are its stable (or unstable)
    set."""
    if base_rule not in ("lowest", "random"):
        raise ValueError("base_rule must be 'lowest' or 'random'")
    if base_rule == "random" and seed is None:
        raise ValueError("base_rule 'random' requires a seed")
    field, split, signs = _sign_split(geom, field_vec)
    complex = geom.complex
    cells = complex.cells()
    skips = (split.exiting, split.entering)
    claims = [_claims(geom, signs, side, skip) for side, skip in zip((1, 0), skips)]
    maps = []
    for (first, extra, _, _), skip in zip(claims, skips):
        try:
            if skip.issuperset(extra):
                maps.append({c: first[c] for c in cells if c not in skip})
                continue
        except KeyError:
            pass
        raise _claim_error(cells, split, [claim[:2] for claim in claims])
    (_, _, stable, _), (_, _, unstable, unstable_core) = claims

    rng = random.Random(seed) if base_rule == "random" else None
    base_vertex: dict[str, Token] = {}
    for t, core in unstable_core.items():
        choices = complex.vertices(core)  # ascending token order
        base_vertex[t] = choices[0] if rng is None else rng.choice(choices)

    return FlowStructure(
        geometry=geom,
        field=field,
        split=split,
        downstream=maps[0],
        upstream=maps[1],
        stable=stable,
        unstable=unstable,
        unstable_core=unstable_core,
        base_vertex=base_vertex,
        base_rule=base_rule,
    )


def flow_matching(fs: FlowStructure) -> Matching:
    """The matching induced by the flow structure, relative to the closure
    E of the exiting boundary.

    The mate of a cell drops the base vertex of its downstream simplex when
    present, and joins it otherwise; mates always share the same downstream
    simplex. Each pair is looked up once, from its cell holding the base
    vertex: the partner is the facet at that vertex's position.

    When every base vertex lies in its top's unstable core, as
    :func:`flow_structure` chooses it, the rule gives a complete matching
    rel E exactly when no cell's partner lies in E. Proof: take a cell c
    off E, its downstream simplex t and t's base vertex b. c holds t's
    falling vertices, and b rises. If b is in c, then c - b is nonempty and
    holds the falling vertices, so t claims it; if c - b is off E, t is its
    one claimant, and its partner is c again. If b is not in c, then c + b
    holds the falling vertices too, and it is off E, as E is closed and c
    is not in it; so t is its one claimant, and its partner is c. So when
    no partner c - b lies in E, the pairs are incident, and each cell off
    E lies in exactly one of them. When one does, that pair holds a cell
    of the base, and a PreconditionError names the first such cell in the
    cell order, with the Euler characteristic rel E when it is nonzero and
    so rules out every complete matching. A base vertex outside its core,
    which only a structure built by hand has, may make the rule no
    involution; the one check of the output reports that.
    """
    complex = fs.geometry.complex
    exiting = fs.split.exiting
    pair = SubcomplexPair(complex, exiting)
    base_vertex, core = fs.base_vertex, fs.unstable_core
    vertices, facets = complex.vertices, complex.facets
    mate: dict[str, str] = {}
    for c, top in fs.downstream.items():
        base = base_vertex[top]
        verts = vertices(c)
        if base in verts and len(verts) > 1:
            partner = mate[c] = facets(c)[verts.index(base)]
            if partner in exiting and base in vertices(core[top]):
                raise _exit_error(pair, c, partner, top)
    return _checked(pair, mate.items(), "flow matching failed validation")


def _exit_error(pair: SubcomplexPair, cell: str, partner: str, top: str) -> PreconditionError:
    """The error of a mate rule that pairs ``cell`` with ``partner``, a
    cell of the exiting closure, in their downstream simplex ``top``."""
    message = (
        f"the flow mate of {cell} in its downstream simplex {top} is {partner}, "
        "which lies in the exiting closure"
    )
    chi = euler_characteristic(pair)
    if chi:
        message += (
            f"; the Euler characteristic relative to that closure is {chi}, "
            "so no complete matching relative to it exists"
        )
    return PreconditionError(message)
