"""Bundled example complexes: cycles, simplices, sphere boundaries, the
7-vertex torus, the unmatchable wedge, geometric intervals and grids,
staircase products, and cones."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .complexes import CellComplex, _maximal_simplices, cell_id, from_simplices
from .errors import InvalidComplexError


@dataclass(frozen=True)
class FamilySpec:
    """Named generator family with integer parameters."""

    name: str
    params: tuple[int, ...] = ()


def circle(k: int) -> CellComplex:
    """Cyclic graph on k vertices (k >= 3)."""
    if k < 3:
        raise ValueError("circle needs k >= 3")
    return from_simplices([[i, (i + 1) % k] for i in range(k)])


def simplex(k: int) -> CellComplex:
    """The solid k-simplex on vertices 0..k."""
    if k < 0:
        raise ValueError("simplex needs k >= 0")
    return from_simplices([range(k + 1)])


def sphere_boundary(k: int) -> CellComplex:
    """Boundary of the k-simplex, a triangulated (k-1)-sphere (k >= 2)."""
    if k < 2:
        raise ValueError("sphere_boundary needs k >= 2")
    return from_simplices(combinations(range(k + 1), k))


def torus7() -> CellComplex:
    """The 7-vertex triangulated torus: 7 vertices, 21 edges, 14 triangles."""
    triangles = []
    for i in range(7):
        triangles.append([i, (i + 1) % 7, (i + 3) % 7])
        triangles.append([i, (i + 2) % 7, (i + 3) % 7])
    return from_simplices(triangles)


def wedge() -> CellComplex:
    """A 2-sphere boundary and two 3-cycles glued at vertex 0; its Euler
    characteristic vanishes but it admits no complete matching."""
    sphere = list(combinations(range(4), 3))
    loop_a = [[0, 4], [4, 5], [0, 5]]
    loop_b = [[0, 6], [6, 7], [0, 7]]
    return from_simplices(list(sphere) + loop_a + loop_b)


def interval(k: int) -> CellComplex:
    """The unit interval split into k edges, with coordinates i/k."""
    if k < 1:
        raise ValueError("interval needs k >= 1")
    coords = {i: (Fraction(i, k),) for i in range(k + 1)}
    return from_simplices([[i, i + 1] for i in range(k)], coordinates=coords)


def grid_square(m: int) -> CellComplex:
    """m-by-m grid of unit squares, each split by its up-diagonal, with
    integer coordinates."""
    if m < 1:
        raise ValueError("grid_square needs m >= 1")

    def v(i: int, j: int) -> int:
        return j * (m + 1) + i

    coords = {
        v(i, j): (Fraction(i), Fraction(j))
        for i in range(m + 1)
        for j in range(m + 1)
    }
    triangles = []
    for i in range(m):
        for j in range(m):
            triangles.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            triangles.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
    return from_simplices(triangles, coordinates=coords)


def product(a: CellComplex, b: CellComplex) -> CellComplex:
    """Staircase triangulation of the product of two simplicial complexes.

    Vertices of the product are pairs encoded as a*stride + b; each pair of
    maximal simplices contributes one top simplex per monotone lattice path
    through its vertex grid.
    """
    for part in (a, b):
        if part.kind != "simplicial":
            raise InvalidComplexError("product factors must be simplicial")
    tokens_a = a.vertex_tokens()
    tokens_b = b.vertex_tokens()
    if not all(isinstance(t, int) for t in tokens_a + tokens_b):
        raise InvalidComplexError("product factors need integer vertex indices")
    stride = max(tokens_b) + 1

    def encode(u: int, w: int) -> int:
        return u * stride + w

    tops = []
    maximal_b = _maximal_simplices(b)
    for sa in _maximal_simplices(a):
        for sb in maximal_b:
            p, q = len(sa) - 1, len(sb) - 1
            for path in _lattice_paths(p, q):
                tops.append([encode(sa[i], sb[j]) for i, j in path])
    coords = None
    if a.coordinates is not None and b.coordinates is not None:
        coords = {
            encode(u, w): a.coordinates[u] + b.coordinates[w]
            for u in tokens_a
            for w in tokens_b
        }
    return from_simplices(tops, coordinates=coords)


def _lattice_paths(p: int, q: int):
    """Monotone paths from (0,0) to (p,q), all grown one step per round."""
    paths = [[(0, 0)]]
    for _ in range(p + q):
        paths = [
            path + [step]
            for path in paths
            for i, j in path[-1:]
            for step in ((i + 1, j), (i, j + 1))
            if step[0] <= p and step[1] <= q
        ]
    return paths


def cone(base: CellComplex) -> CellComplex:
    """Join of a simplicial complex with a fresh apex vertex."""
    if base.kind != "simplicial":
        raise InvalidComplexError("cone base must be simplicial")
    tokens = base.vertex_tokens()
    if not all(isinstance(t, int) for t in tokens):
        raise InvalidComplexError("cone base needs integer vertex indices")
    apex = max(tokens) + 1
    return from_simplices([v + (apex,) for v in _maximal_simplices(base)])


def apex_of(cone_complex: CellComplex) -> str:
    """Id of the apex vertex produced by :func:`cone` (the largest one)."""
    return cell_id([max(cone_complex.vertex_tokens())])


_FAMILIES = {
    "circle": (1, lambda p: circle(p[0])),
    "simplex": (1, lambda p: simplex(p[0])),
    "sphere_boundary": (1, lambda p: sphere_boundary(p[0])),
    "torus7": (0, lambda p: torus7()),
    "wedge": (0, lambda p: wedge()),
    "interval": (1, lambda p: interval(p[0])),
    "grid_square": (1, lambda p: grid_square(p[0])),
    "product": (2, lambda p: product(circle(p[0]), sphere_boundary(p[1]))),
    "cone": (1, lambda p: cone(circle(p[0]))),
}


def generate(spec: FamilySpec) -> CellComplex:
    """Build a bundled family member. The CLI-facing families take integer
    parameters only: 'product' is circle(k) x sphere_boundary(m), 'cone'
    is the cone over circle(k); the library functions accept arbitrary
    complexes."""
    entry = _FAMILIES.get(spec.name)
    if entry is None:
        raise ValueError(
            f"unknown family {spec.name!r}; expected one of {sorted(_FAMILIES)}"
        )
    arity, build = entry
    if len(spec.params) != arity:
        raise ValueError(f"family {spec.name!r} takes {arity} parameter(s)")
    return build(spec.params)


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))
