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

Only the signs of the c_i are read, and they come from one fraction-free
integer elimination per top simplex (Bareiss 1968), the method of exact
orientation predicates. The same elimination with a zero field is the
test that a top simplex is not degenerate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .complexes import SIMPLICIAL, CellComplex, SubcomplexPair, Token, cell_id
from .errors import InvalidComplexError, NotTransverseError, PreconditionError
from .matching import Matching, validate_matching


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


_DEGENERATE = "degenerate"
_NOT_TANGENT = "not tangent"


def _vertex_signs(points, field) -> list[int] | str:
    """The sign of each c_i in sum(c_i) = 0, sum(c_i p_i) = field, for the
    vertices ``points`` of one simplex; ``_DEGENERATE`` when the points are
    affinely dependent, ``_NOT_TANGENT`` when no solution exists.

    Each row of the augmented system is scaled by the lcm of its own
    denominators, which leaves the solution unchanged, and the integer
    rows are reduced by fraction-free Gauss-Jordan elimination, in which
    every division is exact. At the end each pivot row holds d in its own
    column and d * c_i in the last one, with the same d in every row."""
    m = len(points)
    rows = [[1] * m + [0]]
    rows.extend([p[i] for p in points] + [x] for i, x in enumerate(field))
    for k, row in enumerate(rows):
        scale = math.lcm(*(x.denominator for x in row))
        rows[k] = [x.numerator * (scale // x.denominator) for x in row]
    d = 1
    for col in range(m):
        hit = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if hit is None:
            return _DEGENERATE
        rows[col], rows[hit] = rows[hit], rows[col]
        pivot = rows[col]
        p = pivot[col]
        for r, row in enumerate(rows):
            if r != col:
                f = row[col]
                rows[r] = [(p * x - f * y) // d for x, y in zip(row, pivot)]
        d = p
    if any(row[m] for row in rows[m:]):
        return _NOT_TANGENT
    return [(c > 0) - (c < 0) for c in (row[m] * d for row in rows[:m])]


class GeometricComplex:
    """A pure simplicial complex embedded by exact rational coordinates.

    Every top simplex must be non-degenerate and every codimension-1
    simplex must bound at most two top simplices.
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
        zero = (0,) * self.ambient_dim
        for top in complex.top_cells():
            points = [coords[v] for v in complex.vertices(top)]
            if _vertex_signs(points, zero) == _DEGENERATE:
                raise InvalidComplexError(f"degenerate top simplex {top}")
        if self.n >= 1:
            for f in complex.cells_of_dim(self.n - 1):
                if len(complex.cofaces(f)) > 2:
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


def _derivative_signs(geom: GeometricComplex, field_vec) -> dict[str, dict[Token, int]]:
    """Per top simplex, the sign (1, 0 or -1) of the derivative of each
    barycentric coordinate along the field. The constructor has already
    rejected every degenerate top simplex."""
    v = direction(*field_vec)
    if len(v) != geom.ambient_dim:
        raise InvalidComplexError(
            f"field has {len(v)} components, ambient dimension is {geom.ambient_dim}"
        )
    out: dict[str, dict[Token, int]] = {}
    for top in geom.complex.top_cells():
        verts = geom.complex.vertices(top)
        signs = _vertex_signs([geom.point(u) for u in verts], v)
        if signs == _NOT_TANGENT:
            raise NotTransverseError(
                f"field is not tangent to top simplex {top}", simplices=(top,)
            )
        out[top] = dict(zip(verts, signs))
    return out


def check_transverse(geom: GeometricComplex, field_vec) -> BoundarySplit:
    """Exact transversality test; returns the boundary split or raises a
    degeneracy report naming every offending codimension-1 simplex."""
    split, _ = _sign_split(geom, field_vec)
    return split


def _sign_split(geom: GeometricComplex, field_vec):
    """The boundary split, and per top simplex its rising and falling
    vertices."""
    if geom.n < 1:
        raise PreconditionError("flow structures need dimension at least 1")
    complex = geom.complex
    degenerate = set()
    exiting = set()
    entering = set()
    signs: dict[str, tuple[frozenset[Token], frozenset[Token]]] = {}
    for top, values in _derivative_signs(geom, field_vec).items():
        for value, facet in zip(values.values(), complex.facets(top)):
            if value == 0:
                degenerate.add(facet)
            elif len(complex.cofaces(facet)) == 1:
                (exiting if value < 0 else entering).add(facet)
        signs[top] = (
            frozenset(u for u, value in values.items() if value > 0),
            frozenset(u for u, value in values.items() if value < 0),
        )
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

    down_tops: dict[str, list[str]] = {c: [] for c in complex.cells()}
    up_tops: dict[str, list[str]] = {c: [] for c in complex.cells()}
    for t, (rising, falling) in signs.items():
        for c in (t, *complex.faces(t)):
            verts = complex.vertices(c)
            if falling.issubset(verts):
                down_tops[c].append(t)
            if rising.issubset(verts):
                up_tops[c].append(t)

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
    unstable_core: dict[str, str] = {}
    base_vertex: dict[str, Token] = {}
    for t, (rising, falling) in signs.items():
        if not rising or not falling:
            raise AssertionError(f"{t} lacks a rising or a falling vertex")
        unstable_core[t] = cell_id(rising)
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
    simplex.
    """
    complex = fs.geometry.complex
    pair = SubcomplexPair(complex, fs.split.exiting)
    mate: dict[str, str] = {}
    for c in pair.rel_cells:
        top = fs.downstream[c]
        base = fs.base_vertex[top]
        verts = set(complex.vertices(c))
        if base in verts:
            partner_verts = verts - {base}
        else:
            partner_verts = verts | {base}
        if not partner_verts:
            raise AssertionError(f"mate of {c} would be empty")
        partner = cell_id(partner_verts)
        if partner not in complex:
            raise AssertionError(f"mate {partner} of {c} is not a cell")
        if fs.downstream.get(partner) != top:
            raise AssertionError(
                f"mate {partner} of {c} has a different downstream simplex"
            )
        mate[c] = partner
    for c, m in mate.items():
        if mate.get(m) != c:
            raise AssertionError(f"mate rule is not an involution at {c}")
    pairs = {tuple(sorted((c, m))) for c, m in mate.items()}
    result = Matching(pairs, relative_to=fs.split.exiting)
    report = validate_matching(pair, result)
    if not report.ok:
        raise AssertionError(f"flow matching failed validation: {report.violations[:3]}")
    return result
