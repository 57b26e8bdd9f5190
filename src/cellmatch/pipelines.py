"""Composite matching pipelines: odd-dimensional rational homology
spheres, matched in one loop down their dimensions, loop-based
constructions, and bounded dual-loop search.

A pipeline hands the pairs of all its parts, cycle matchings and
acyclic pairs, to one ``Matching`` checked once against the whole
output; no part is checked alone. The parts are disjoint: at a sphere
step the star cycle holds the cells containing the codimension-2 cell,
and the acyclic pair the rest outside the rim, the codimension-1 cell's
boundary, which is the next step's sphere; the loop pipeline checks that
circle and base avoid the loop, and the circle is in the acyclic step's
base. So the one check sees every pair a check per part would, and
reports a cell in two different pairs as duplicated.

Each fact is checked once. The sphere pipeline checks that its input is
a sphere before its loop; each later sphere is one by the exact
sequences of a pair and a triple (see :func:`match_sphere_pipeline`).
No loop a pipeline walks itself, a star cycle, a circle's spanning loop
or a search candidate, is validated, since the walk makes it valid (see
:func:`find_dual_loop`); a loop handed in by a caller is validated. An
acyclic part is a pair read off the complex being walked, from the
part's own cells (``complexes._part_pair``): no part is a copy, and no
closedness the construction already knows is checked again.
"""

from __future__ import annotations

from .complexes import (
    CellComplex,
    DualLoop,
    SubcomplexPair,
    _part_pair,
    dual_graph,
    spanning_dual_loop,
    star_cycle,
)
from .errors import (
    HomologyNonzeroError,
    InvalidLoopError,
    PreconditionError,
    SearchBudgetExceededError,
)
from .homology import _acyclic_pairs, betti_numbers
from .matching import Matching, _checked, match_dual_cycle


def match_sphere_pipeline(complex: CellComplex) -> Matching:
    """Complete matching of an odd-dimensional rational-homology-sphere
    cellulation, in one loop down its dimensions.

    X, the input, is checked once, before the loop: odd dimension n and
    the Betti numbers of an n-sphere. While the sphere has dimension
    n >= 3, around the lowest codimension-2 cell tau of the lowest
    codimension-1 cell sigma, the cells containing tau form an alternating
    cycle and get the cycle matching, each link with the top cell before
    it; ``rest``, the other cells, relative to ``rim``, sigma's boundary,
    is an acyclic pair, read off the sphere from its cells; ``rim`` is
    the next sphere, the one piece copied. At the circle, the cells of
    its spanning dual loop get the cycle matching. Both loops are valid
    as walked, so neither is validated again. The parts' pairs go into
    one matching, checked once against the whole complex. A homology
    sphere of cw cells may have no codimension-1 cell, or sigma may have
    no hyperface; either raises PreconditionError at the step it
    reaches.

    Why each later sphere needs no check, by induction from X's. Let the
    sphere be a homology n-sphere, n >= 3 odd. No cell of the star cycle,
    k top cells and k links, has dimension below n - 1, so ``rim`` lies
    in ``rest``. Let (``rest``, ``rim``) be acyclic; ``_acyclic_pairs``
    raises before the next step if it is not. The triple (sphere,
    ``rest``, ``rim``) gives H(sphere, ``rim``) = H(sphere, ``rest``), the
    homology of the 2k cycle cells, whose boundary is a k-by-k cycle: 0,
    or F in degrees n and n - 1. Were it 0, H(sphere) = H(``rim``) and
    b_n would be 0. So it is F in n and n - 1, and the sequence of the
    pair (sphere, ``rim``) gives ``rim`` the Betti numbers of an
    (n - 2)-sphere, with n - 2 odd (Hatcher 2002, section 2.1). This
    holds over q and over f2, for both kinds, so a check of each later
    sphere would pass whenever it is reached, and every input raises
    what a check per step would.
    """
    n = complex.dim
    if n % 2 == 0:
        raise PreconditionError("odd dimension required")
    bv = betti_numbers(SubcomplexPair(complex))
    if bv.betti != (1, *[0] * (n - 1), 1):
        raise HomologyNonzeroError(
            f"not a rational homology sphere: betti {bv.betti}", betti=bv
        )
    pairs = []
    sphere = complex
    while sphere.dim > 1:
        step = f"{sphere.dim}-sphere step"
        codim1 = sphere.cells_of_dim(sphere.dim - 1)
        if not codim1:
            raise PreconditionError(f"{step}: no cell of dimension {sphere.dim - 1}")
        sigma = codim1[0]
        if not sphere.facets(sigma):
            raise PreconditionError(f"{step}: {sigma} has no hyperfaces")
        loop = star_cycle(sphere, sphere.facets(sigma)[-1])
        rim = sphere.faces(sigma)
        pairs += zip(loop.link_cells, loop.top_cells)
        on_loop = set(loop.cells)
        rel = [c for c in sphere.cells() if c not in rim and c not in on_loop]
        pairs += _acyclic_pairs(_part_pair(sphere, rel, rim))
        sphere = sphere.restrict(rim)
    loop = spanning_dual_loop(sphere)
    pairs += zip(loop.link_cells, loop.top_cells)
    return _checked(SubcomplexPair(complex), pairs, "sphere pipeline output invalid")


def _circle_cycle_matching(complex: CellComplex, cells: frozenset[str]) -> Matching:
    """The cycle matching of a circle subcomplex, after checking that the
    cells are vertices and edges forming one closed cycle."""
    if not complex.is_closed(cells):
        raise PreconditionError("circle subcomplex is not closed under hyperfaces")
    edges = [c for c in cells if complex.dim_of(c) == 1]
    vertices = [c for c in cells if complex.dim_of(c) == 0]
    if not edges or len(cells) != len(edges) + len(vertices):
        raise PreconditionError("circle subcomplex must consist of vertices and edges")
    circle = complex.restrict(cells)
    try:
        loop = spanning_dual_loop(circle)
    except InvalidLoopError as err:
        raise PreconditionError(f"circle subcomplex must be a single cycle: {err}") from err
    return match_dual_cycle(circle, loop, 0)


def match_loop_pipeline(
    complex: CellComplex,
    loop: DualLoop,
    base=(),
    circle_cells=None,
) -> Matching:
    """Complete matching relative to ``base`` built from a dual loop.

    The loop cells get the cycle matching; the complement relative to the
    base together with the optional circle subcomplex must be acyclic (the
    Betti vector travels with the error when not); the circle, when given,
    gets its own cycle matching. A loop through every cell leaves an
    empty complement, and its cycle matching is the whole answer.

    The caller's loop, base and circle are checked; the complement pair
    is then read off ``complex`` with no copy and no second check: the
    complement of a valid loop is closed, and so are the base and the
    circle, which lie in it.
    """
    cycle_part = match_dual_cycle(complex, loop, 0)
    loop_cells = set(loop.cells)
    base_set = frozenset(base)
    if not complex.is_closed(base_set):
        raise PreconditionError("base is not a subcomplex")
    if base_set & loop_cells:
        raise PreconditionError("base must be disjoint from the loop cells")
    circle_set = frozenset(circle_cells) if circle_cells is not None else None
    if circle_set is not None:
        circle_part = _circle_cycle_matching(complex, circle_set)
        if circle_set & loop_cells:
            raise PreconditionError("circle must be disjoint from the loop cells")
        if circle_set & base_set:
            raise PreconditionError("circle must be disjoint from the base")

    inner_base = base_set | circle_set if circle_set is not None else base_set
    pairs = list(cycle_part.pairs)
    complement = _part_pair(complex, cycle_part.relative_to - inner_base, inner_base)
    try:
        pairs += _acyclic_pairs(complement)
    except HomologyNonzeroError as err:
        raise HomologyNonzeroError(
            "loop complement is not acyclic relative to the base: "
            f"betti {err.betti.betti}",
            betti=err.betti,
        ) from err
    if circle_set is not None:
        pairs += circle_part.pairs

    return _checked(SubcomplexPair(complex, base_set), pairs, "loop pipeline output invalid")


def find_dual_loop(
    complex: CellComplex, predicate, budget: int = 2000
) -> DualLoop | None:
    """First simple dual-graph cycle whose complement pair satisfies
    ``predicate``.

    Candidates come shortest first. Within a length, they go by start
    node, in the order of the complex's top cells; a cycle is found only
    from its smallest node by id, so each is tried once. Length 2 takes
    each pair of parallel links, the other node ascending, then the two
    links ascending. Longer cycles of one start go in ascending order of
    their sequences (start, link, node, ..., link), each taken in one
    direction only, the one whose second node has the smaller id. This
    is the order of a depth-first walk over each node's sorted (link,
    node) neighbours: two walks part at their first differing neighbour,
    which is where their sequences first differ.

    Each start keeps its half-paths, the simple paths leaving it over
    nodes above it, as alternating (node, link, ..., node) tuples, one
    list per number of links, and grows one more list only when a longer
    cycle needs it (Pohl 1971). A cycle of length L is a path P of L//2
    links joined to a path Q of L - L//2 links that ends where P ends,
    with disjoint interiors and P's second node below Q's; P + reversed
    Q is its sequence. Every P has L//2 links, so sequences compare by P
    first. P runs over its list, which is in ascending order as built,
    and Q over the paths with P's end, sorted by their reversed
    sequences, so the join lists the cycles of one start in ascending
    order with no sort of the cycles. Lists shorter than L//2 links are
    dropped, and a start left with no paths has no longer cycle. A
    two-coloured dual graph has no odd cycle, so its odd lengths are
    skipped. The search uses no recursion.

    Every candidate is a valid dual loop by construction: its nodes are
    distinct top cells, each link is a dual-graph edge, a codimension-1
    cell whose only two cofaces are the nodes it joins, and the two
    half-paths share no link, as their first nodes differ and their
    interiors are disjoint. So a candidate is not validated: its pair is
    the complement of :func:`complement_of_dual_loop` without the check,
    built from the loop's own cells only, and a candidate costs time
    linear in its length, not in the complex, until ``predicate`` reads
    ``pair.sub``. Only the loop returned becomes a ``DualLoop``. A
    predicate that needs only the complement's size can read
    ``len(pair.complex) - len(pair.rel_cells)``.

    Returns None when the enumeration finishes with no hit; raises
    SearchBudgetExceededError when ``budget`` candidates were tested
    without a verdict.
    """
    graph = dual_graph(complex)
    nodes = list(graph.nodes)
    neighbors = {node: graph.neighbors(node) for node in nodes}
    remaining = budget

    def test(sequence) -> DualLoop | None:
        nonlocal remaining
        if remaining <= 0:
            raise SearchBudgetExceededError(
                f"no dual loop found within budget {budget}"
            )
        remaining -= 1
        return DualLoop(tuple(sequence)) if predicate(_part_pair(complex, sequence)) else None

    for start in nodes:
        by_other: dict[str, list[str]] = {}
        for edge, other in neighbors[start]:
            by_other.setdefault(other, []).append(edge)
        for other in sorted(by_other):
            if other <= start:
                continue
            parallels = sorted(by_other[other])
            for i, edge_a in enumerate(parallels):
                for edge_b in parallels[i + 1:]:
                    hit = test([start, edge_a, other, edge_b])
                    if hit is not None:
                        return hit

    colour: dict[str, int] = {}
    for root in nodes:
        if root in colour:
            continue
        colour[root], stack = 0, [root]
        while stack:
            node = stack.pop()
            for _, other in neighbors[node]:
                if other not in colour:
                    colour[other] = 1 - colour[node]
                    stack.append(other)
    bipartite = all(colour[a] != colour[b] for a, b in graph.edges.values())

    # halves[start][k]: the half-paths of k links, in ascending order
    halves = {start: {0: [(start,)]} for start in nodes}
    starts = nodes
    for length in range(3, len(nodes) + 1):
        if bipartite and length % 2:
            continue
        short, long = length // 2, length - length // 2
        for start in starts:
            kept = halves[start]
            while long not in kept:
                top = max(kept)
                kept[top + 1] = [
                    path + step
                    for path in kept[top]
                    for step in neighbors[path[-1]]
                    if step[1] > start and step[1] not in path
                ]
            for k in [k for k in kept if k < short]:
                del kept[k]
            ends: dict[str, list[tuple[str, ...]]] = {}
            for q in sorted(kept[long], key=lambda q: q[::-1]):
                ends.setdefault(q[-1], []).append(q)
            for p in kept[short]:
                inner = set(p[2:-1:2])
                for q in ends.get(p[-1], ()):
                    if p[2] < q[2] and inner.isdisjoint(q[2:-1:2]):
                        hit = test(p + q[-2:0:-1])
                        if hit is not None:
                            return hit
        starts = [start for start in starts if halves[start][long]]
    return None
