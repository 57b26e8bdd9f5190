"""Shared oracles for the test suite.

These helpers stay independent of the library code paths they check: the
matching counter enumerates permutations directly, the collapse replay,
the greedy collapse order and the alternating-cycle scan rebuild coface
data from the raw hyperface tables, the dual-loop enumerator re-walks
every path without pruning, the simplicial tables come from
``itertools.combinations`` of the maximal simplices, and the linear
algebra works on dense lists of rows with plain ``Fraction``/mod-2
arithmetic. The backtracking enumerator recurses over every choice, with
no memo or pruning, on the library's incidence graph. It lists matchings
in the order ``enumerate_matchings`` documents, but counts them by a
different search. The Hopcroft-Karp oracle runs the search that
``complete_matching`` documents on dicts keyed by cell id, over the public
incidence graph, with its deficiency certificate by alternating
reachability.

The layer-by-layer acyclic matching builds every layer as a complex of
its own (a restricted stage paired with the stage below) and matches it
with ``complete_matching``. It shares the pivot selection with the
library, through ``acyclic_filtration``; that selection is checked
independently, against dense elimination, by
``test_sparse_reduction_matches_dense_elimination``.

The flow structure by resolve searches, for every cell, through all of
its top cofaces for the ones the field enters or leaves through it, finds
each facet's opposite vertex by search, and takes the unstable core as
the common vertices of the unstable hyperfaces. It solves for the
derivatives itself, with no elimination: Cramer's rule with Leibniz
determinants on the first nonsingular square subset of the rows, then a
check of every row for tangency. The flow matching by vertex sets names
each mate by ``cell_id`` of a vertex set, with no facet or coface lookup,
and the affine-independence test looks for a nonzero maximal minor.

The face-poset chains, the simplices of the barycentric subdivision, are
grown one cell at a time from the transitive face sets alone, with no
hyperface, flag or id of the library's subdivision. The propagation
blocks are built one per matched pair, each restricted from the
subdivision afresh, with nothing shared between blocks.

The sphere pipeline by recursion is the construction as the paper states
it: the star cycle and the acyclic pair, then the boundary sphere matched
by a call of its own, each level composing its three parts. It is built
from public names only and checks no precondition. The sphere pipeline
checking every step is the loop with the check of each sphere that the
library makes only of its input.

An autouse fixture checks every cw complex a test builds, and a piece of
it, against the facet order the library documents: hyperfaces by
descending ``sort_key``, sorted afresh.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
import os
import random
from itertools import combinations, permutations
from pathlib import Path

import cellmatch
import pytest

from cellmatch import (
    CellComplex,
    HallCertificate,
    Matching,
    SubcomplexPair,
    acyclic_filtration,
    betti_numbers,
    build_cw,
    complete_matching,
    compose_matchings,
    from_simplices,
    cell_id,
    incidence_graph,
    match_acyclic_pair,
    match_dual_cycle,
    spanning_dual_loop,
    star_cycle,
)
from cellmatch.errors import (
    HomologyNonzeroError,
    InvalidComplexError,
    NotTransverseError,
    PreconditionError,
)
from cellmatch.flow import BoundarySplit, FlowStructure, direction


def subprocess_env() -> dict[str, str]:
    """The environment with the tested package's source directory first on
    ``PYTHONPATH``, for running scripts in a child interpreter."""
    src = str(Path(cellmatch.__file__).resolve().parents[1])
    path = [p for p in (src, os.environ.get("PYTHONPATH")) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


@pytest.fixture(autouse=True)
def cw_facets_sorted_by_rank():
    """After each test, every cw complex it built, and the closure of every
    other top cell of it, list each cell's facets as its hyperfaces sorted
    by descending ``sort_key``."""
    built = []
    init = CellComplex.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.kind == "cw":
            built.append(self)

    CellComplex.__init__ = recording
    try:
        yield
    finally:
        CellComplex.__init__ = init
    for X in built:
        for Y in (X, X.restrict(X.closure(X.top_cells()[::2]))):
            for c in Y.cells():
                expected = tuple(sorted(Y.hyperfaces(c), key=Y.sort_key, reverse=True))
                assert Y.facets(c) == expected, c


def count_matchings_by_permutations(pair: SubcomplexPair) -> int:
    """Independent perfect-matching count: try every assignment of the odd
    cells to the even cells. Factorial; only for small instances."""
    graph = incidence_graph(pair)
    left, right = graph.even, graph.odd
    if len(left) != len(right):
        return 0
    count = 0
    adj = {u: set(graph.adjacency[u]) for u in left}
    for perm in permutations(right):
        if all(v in adj[u] for u, v in zip(left, perm)):
            count += 1
    return count


def verify_by_incidence_graph(cert: HallCertificate, pair: SubcomplexPair) -> bool:
    """Whether ``cert`` holds on ``pair``, read off the whole public
    incidence graph: its cells lie on its side, its neighbourhood is their
    adjacency, and its deficiency is the difference, at least 1."""
    graph = incidence_graph(pair)
    side_cells = set(graph.even if cert.side == "even" else graph.odd)
    if not cert.cells <= side_cells:
        return False
    recomputed = graph.neighborhood(cert.cells)
    return (
        recomputed == cert.neighborhood
        and cert.deficiency == len(cert.cells) - len(recomputed)
        and cert.deficiency >= 1
    )


def matchings_by_backtracking(pair: SubcomplexPair, limit: int):
    """The number of complete matchings and the first ``limit`` of them, by
    recursion: match the first uncovered cell in ``rel_cells`` order with
    each free neighbour, in adjacency order. Recursion depth is the number
    of matched pairs, so only for small instances."""
    adjacency = incidence_graph(pair).adjacency
    order = pair.rel_cells
    covered: set[str] = set()
    chosen: list[tuple[str, str]] = []
    found: list[Matching] = []
    count = 0

    def backtrack(start: int):
        nonlocal count
        idx = start
        while idx < len(order) and order[idx] in covered:
            idx += 1
        if idx == len(order):
            count += 1
            if len(found) < limit:
                found.append(Matching(list(chosen), relative_to=pair.sub))
            return
        cell = order[idx]
        covered.add(cell)
        for nbr in adjacency[cell]:
            if nbr not in covered:
                covered.add(nbr)
                chosen.append((cell, nbr))
                backtrack(idx + 1)
                chosen.pop()
                covered.discard(nbr)
        covered.discard(cell)

    if len(order) % 2 == 0:
        backtrack(0)
    return count, found


def hopcroft_karp_by_ids(pair: SubcomplexPair, use_parity_shortcut: bool = True):
    """``complete_matching`` on dicts keyed by cell id: Hopcroft-Karp over
    the public incidence graph, even cells on the left, with a deque for
    each phase's breadth-first search over the whole layer graph, then a
    depth-first augmenting search from each free even cell in order, in
    adjacency order. An imperfect matching gives the alternating
    reachability from the free cells of the larger side, the even side
    when balanced, layer by layer."""
    graph = incidence_graph(pair)
    adjacency = graph.adjacency
    n_even, n_odd = len(graph.even), len(graph.odd)
    if use_parity_shortcut and n_even != n_odd:
        side = "even" if n_even > n_odd else "odd"
        cells = frozenset(graph.even if side == "even" else graph.odd)
        nbhd = graph.neighborhood(cells)
        return HallCertificate(side, cells, nbhd, len(cells) - len(nbhd))
    mate_even: dict[str, str] = {}
    mate_odd: dict[str, str] = {}
    dist: dict[str, int | None] = {}

    def layers() -> bool:
        queue = deque()
        for u in graph.even:
            dist[u] = None if u in mate_even else 0
            if u not in mate_even:
                queue.append(u)
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = mate_odd.get(v)
                if w is None:
                    found = True
                elif dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def augment(root: str) -> None:
        stack = [(root, iter(adjacency[root]))]
        path: list[str] = []
        while stack:
            u, nbrs = stack[-1]
            for v in nbrs:
                w = mate_odd.get(v)
                if w is None:
                    path.append(v)
                    for (x, _), y in zip(stack, path):
                        mate_even[x] = y
                        mate_odd[y] = x
                    return
                if dist[w] == dist[u] + 1:
                    path.append(v)
                    stack.append((w, iter(adjacency[w])))
                    break
            else:
                dist[u] = None
                stack.pop()
                if path:
                    path.pop()

    while layers():
        for u in graph.even:
            if u not in mate_even:
                augment(u)
    if len(mate_even) == n_even == n_odd:
        return Matching(mate_even.items(), relative_to=pair.sub)
    side = "odd" if n_odd > n_even else "even"
    side_cells, mate_side, mate_other = (
        (graph.odd, mate_odd, mate_even) if side == "odd" else (graph.even, mate_even, mate_odd)
    )
    reached = {u for u in side_cells if u not in mate_side}
    reached_other: set[str] = set()
    frontier = list(reached)
    while frontier:
        next_frontier = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in reached_other:
                    reached_other.add(v)
                    w = mate_other.get(v)
                    if w is not None and w not in reached:
                        reached.add(w)
                        next_frontier.append(w)
        frontier = next_frontier
    return HallCertificate(
        side, frozenset(reached), frozenset(reached_other), len(reached) - len(reached_other)
    )


def match_acyclic_pair_by_layer_complexes(pair: SubcomplexPair, field=None, signs=None):
    """The acyclic-pair matching with one complex per layer: each stage of
    ``acyclic_filtration`` is restricted to a complex of its own, paired
    with the stage below and matched by ``complete_matching``, which must
    find a complete matching; the layers' pairs are joined."""
    X = pair.complex
    pairs = []
    for below, stage in acyclic_filtration(pair, field=field, signs=signs).layers():
        outcome = complete_matching(SubcomplexPair(X.restrict(stage), below))
        assert isinstance(outcome, Matching), outcome
        pairs.extend(outcome.pairs)
    return Matching(pairs, relative_to=pair.sub)


def _leibniz_det(matrix) -> Fraction:
    """The determinant as a signed sum over every permutation."""
    total = Fraction(0)
    for perm in permutations(range(len(matrix))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


def derivatives_by_cramer(geom, field_vec) -> dict:
    """Per top simplex, the derivative of each barycentric coordinate along
    the field: the solution of sum(c_i) = 0, sum(c_i p_i) = v by Cramer's
    rule on the first square subset of rows with a nonzero determinant,
    then checked against every row. Raises the errors the library raises."""
    v = direction(*field_vec)
    if len(v) != geom.ambient_dim:
        raise InvalidComplexError(
            f"field has {len(v)} components, ambient dimension is {geom.ambient_dim}"
        )
    X = geom.complex
    out = {}
    for top in X.top_cells():
        verts = X.vertices(top)
        m = len(verts)
        rows = [[Fraction(1)] * m]
        rows += [[geom.point(u)[i] for u in verts] for i in range(geom.ambient_dim)]
        rhs = [Fraction(0), *v]
        det, square = next(
            (det, s) for s in combinations(range(len(rows)), m)
            if (det := _leibniz_det([rows[r] for r in s]))
        )
        solution = [
            _leibniz_det([[rhs[r] if j == k else rows[r][j] for j in range(m)] for r in square])
            / det
            for k in range(m)
        ]
        if any(sum(a * c for a, c in zip(row, solution)) != b for row, b in zip(rows, rhs)):
            raise NotTransverseError(
                f"field is not tangent to top simplex {top}", simplices=(top,)
            )
        out[top] = dict(zip(verts, solution))
    return out


def flow_structure_by_resolve(geom, field_vec, base_rule="lowest", seed=None):
    """``flow_structure`` by a per-cell search: a top coface t of a cell c
    is downstream of c when every vertex of t outside c has a positive
    derivative, upstream when every one has a negative derivative, and
    exactly one must qualify. Raises the same errors, in the same order."""
    if base_rule not in ("lowest", "random"):
        raise ValueError("base_rule must be 'lowest' or 'random'")
    if base_rule == "random" and seed is None:
        raise ValueError("base_rule 'random' requires a seed")
    if geom.n < 1:
        raise PreconditionError("flow structures need dimension at least 1")
    derivs = derivatives_by_cramer(geom, field_vec)
    X = geom.complex
    n = geom.n
    degenerate, exiting, entering = [], set(), set()
    for f in X.cells_of_dim(n - 1):
        face_verts = set(X.vertices(f))
        cofs = sorted(X.cofaces(f))
        opposite = {
            top: next(u for u in X.vertices(top) if u not in face_verts) for top in cofs
        }
        if any(derivs[top][opposite[top]] == 0 for top in cofs):
            degenerate.append(f)
        elif len(cofs) == 1:
            (exiting if derivs[cofs[0]][opposite[cofs[0]]] < 0 else entering).add(f)
    if degenerate:
        raise NotTransverseError(
            "field lies in the span of codimension-1 simplices: "
            + ", ".join(sorted(degenerate)),
            simplices=sorted(degenerate),
        )
    split = BoundarySplit(
        frozenset(exiting), frozenset(entering), X.closure(exiting), X.closure(entering)
    )

    def resolve(cell, want_positive):
        cell_verts = set(X.vertices(cell))
        candidates = []
        for top in sorted(t for t in X.cofaces_all(cell) if X.dim_of(t) == n):
            others = [derivs[top][u] for u in X.vertices(top) if u not in cell_verts]
            if all(v > 0 if want_positive else v < 0 for v in others):
                candidates.append(top)
        if len(candidates) != 1:
            raise PreconditionError(
                f"degenerate configuration at {cell}: "
                f"{len(candidates)} candidate top simplices"
            )
        return candidates[0]

    downstream, upstream = {}, {}
    for c in X.cells():
        if X.dim_of(c) == n:
            downstream[c] = upstream[c] = c
            continue
        if c not in split.exiting:
            downstream[c] = resolve(c, want_positive=True)
        if c not in split.entering:
            upstream[c] = resolve(c, want_positive=False)
    stable = {t: frozenset(c for c, d in downstream.items() if d == t) for t in X.top_cells()}
    unstable = {t: frozenset(c for c, u in upstream.items() if u == t) for t in X.top_cells()}

    unstable_core = {}
    for t in X.top_cells():
        hyper = [f for f in X.hyperfaces(t) if f in unstable[t]]
        common = set(X.vertices(hyper[0]))
        for f in hyper[1:]:
            common &= set(X.vertices(f))
        unstable_core[t] = cell_id(common)
    rng = random.Random(seed) if base_rule == "random" else None
    base_vertex = {}
    for t in X.top_cells():
        choices = X.vertices(unstable_core[t])
        base_vertex[t] = choices[0] if rng is None else rng.choice(choices)
    return FlowStructure(
        geom, direction(*field_vec), split, downstream, upstream, stable, unstable,
        unstable_core, base_vertex, base_rule,
    )


def flow_matching_by_vertex_sets(fs) -> Matching:
    """``flow_matching`` from public ``FlowStructure`` fields alone: the mate
    of each cell off the exiting closure is named by ``cell_id`` of its
    vertex set with the base vertex of its downstream simplex removed when
    present and added otherwise."""
    X = fs.geometry.complex
    pairs = set()
    for c in X.cells():
        if c not in fs.split.exiting:
            base = fs.base_vertex[fs.downstream[c]]
            pairs.add((c, cell_id(set(X.vertices(c)) ^ {base})))
    return Matching(pairs, relative_to=fs.split.exiting)


def affinely_independent_by_minors(points) -> bool:
    """Whether the points are affinely independent: some maximal square
    minor of the matrix with columns (1, p_i) is nonzero, each taken as a
    Leibniz determinant."""
    rows = [[Fraction(1)] * len(points)]
    rows += [[Fraction(p[i]) for p in points] for i in range(len(points[0]))]
    return any(
        _leibniz_det([rows[r] for r in square])
        for square in combinations(range(len(rows)), len(points))
    )


def _token_order(token):
    return (0, token, "") if isinstance(token, int) else (1, 0, token)


def simplicial_tables_by_combinations(maximal_simplices) -> dict:
    """The tables of the simplicial complex spanned by ``maximal_simplices``,
    from ``itertools.combinations`` of each simplex's sorted tokens alone:
    ``verts`` (id -> ascending vertex tuple), ``dims``, ``hyperfaces``,
    ``cofaces`` and ``order``, the cells sorted by dimension and then by
    vertex tuple, int tokens before str tokens."""
    verts: dict[str, tuple] = {}
    for s in maximal_simplices:
        ordered = sorted(set(s), key=_token_order)
        for k in range(1, len(ordered) + 1):
            for face in combinations(ordered, k):
                verts[".".join(str(t) for t in face)] = face
    hyperfaces = {
        c: {".".join(str(t) for t in f) for f in combinations(v, len(v) - 1) if f}
        for c, v in verts.items()
    }
    cofaces: dict[str, set[str]] = {c: set() for c in verts}
    for c, fs in hyperfaces.items():
        for f in fs:
            cofaces[f].add(c)
    order = sorted(
        verts, key=lambda c: (len(verts[c]), [_token_order(t) for t in verts[c]])
    )
    return {
        "verts": verts,
        "dims": {c: len(v) - 1 for c, v in verts.items()},
        "hyperfaces": hyperfaces,
        "cofaces": cofaces,
        "order": order,
    }


def face_poset_chains(complex) -> list[tuple[str, ...]]:
    """Every chain of the face poset, smallest cell first, from
    ``complex.faces`` alone: each round extends every chain of the last
    round by each cell that has its top cell as a proper face."""
    cells = list(complex.cells())
    chains = [(c,) for c in cells]
    frontier = chains
    while frontier:
        frontier = [ch + (c,) for ch in frontier for c in cells if ch[-1] in complex.faces(c)]
        chains = chains + frontier
    return chains


def propagation_blocks(smap, pair: SubcomplexPair, matching) -> list[SubcomplexPair]:
    """The acyclic block of every matched pair, in ``sorted(matching.pairs)``
    order: the subdivided closed upper cell, relative to the subdivided
    closure of its other hyperfaces."""
    complex = pair.complex
    blocks = []
    for a, b in sorted(matching.pairs):
        upper, lower = (a, b) if complex.dim_of(a) > complex.dim_of(b) else (b, a)
        closed = complex.faces(upper) | {upper}
        rim = closed - {upper, lower}
        blocks.append(SubcomplexPair(
            smap.subdivided.restrict(smap.cells_over(closed)), smap.cells_over(rim)
        ))
    return blocks


def transitive_cofaces(complex, cid: str) -> set[str]:
    """Proper cofaces recomputed from the hyperface table alone."""
    out: set[str] = set()
    frontier = [c for c in complex.cells() if cid in complex.hyperfaces(c)]
    while frontier:
        c = frontier.pop()
        if c in out:
            continue
        out.add(c)
        frontier.extend(
            d for d in complex.cells() if c in complex.hyperfaces(d)
        )
    return out


def replay_collapse(pair: SubcomplexPair, order) -> None:
    """Assert that a collapse order performs only free-face removals and
    empties the cells outside the base."""
    complex = pair.complex
    remaining = set(pair.rel_cells)
    for lower, upper in order:
        assert lower in remaining and upper in remaining
        live = {c for c in transitive_cofaces(complex, lower) if c in remaining}
        assert live == {upper}, (
            f"removing ({lower}, {upper}) is not a free-face removal; "
            f"live cofaces {sorted(live)}"
        )
        remaining -= {lower, upper}
    assert not remaining, f"collapse left cells behind: {sorted(remaining)[:5]}"


def greedy_collapse_order(pair: SubcomplexPair, matching) -> list[tuple[str, str]]:
    """The leftmost-first free-face collapse, by full rescans: pairs as
    (lower, upper) ordered by the lower cell's place in ``cells()``; each
    step removes the first pair whose lower cell has its mate as its only
    remaining coface. Quadratic; coface sets come from the hyperface
    table through ``transitive_cofaces``."""
    X = pair.complex
    place = {c: i for i, c in enumerate(X.cells())}
    pairs = sorted(
        ((a, b) if X.dim_of(a) < X.dim_of(b) else (b, a) for a, b in matching.pairs),
        key=lambda p: place[p[0]],
    )
    cofaces = {lower: transitive_cofaces(X, lower) for lower, _ in pairs}
    remaining = {c for p in pairs for c in p}
    order = []
    while pairs:
        pick = next(p for p in pairs if len(cofaces[p[0]] & remaining) == 1)
        pairs.remove(pick)
        remaining -= set(pick)
        order.append(pick)
    return order


def alternating_cycle_by_scan(complex, tau=None):
    """The alternating cycle of top cells and shared hyperfaces, walked by
    rescans of the hyperface table: all top cells, or with ``tau`` the top
    cells having ``tau`` as a face of a hyperface and their hyperfaces that
    contain ``tau``. The walk starts at the first such top cell in
    ``cells()`` order, leaves by its smallest link id and never turns back.
    None unless every link lies on exactly two of the top cells, every top
    cell on exactly two links, and the walk visits every top cell."""
    cells = complex.cells()
    n = max(complex.dim_of(c) for c in cells)

    def in_link(f):
        return tau is None or tau in complex.hyperfaces(f)

    tops = [
        c for c in cells
        if complex.dim_of(c) == n and any(in_link(f) for f in complex.hyperfaces(c))
    ]
    links = sorted({f for c in tops for f in complex.hyperfaces(c) if in_link(f)})
    ends = {f: [c for c in tops if f in complex.hyperfaces(c)] for f in links}
    if not tops or any(len(ends[f]) != 2 for f in links):
        return None
    seq: list[str] = []
    node, came_by = tops[0], None
    for _ in links:
        out = [f for f in links if node in ends[f] and f != came_by]
        if len(out) != (2 if came_by is None else 1):
            return None
        came_by = out[0]
        seq += [node, came_by]
        node = next(c for c in ends[came_by] if c != node)
        if node == tops[0]:
            break
    return tuple(seq) if len(seq) == 2 * len(tops) else None


def dual_loops_by_rewalk(complex):
    """Every simple cycle of the dual graph, as alternating sequences of top
    cells and links, in the order ``find_dual_loop`` documents: shortest
    first; then by start, the smallest node by id, in ``cells()`` order;
    length 2 as pairs of parallel links; longer cycles depth first over
    the sorted (link, node) neighbours, one direction each. Each length
    walks every path again from its start, copying it at every step, with no
    pruning. A link is a codimension-1 cell with exactly two cofaces in
    the coface table."""
    cells = complex.cells()
    n = max(complex.dim_of(c) for c in cells)
    nodes = [c for c in cells if complex.dim_of(c) == n]
    neighbors = {node: [] for node in nodes}
    for f in cells:
        if complex.dim_of(f) == n - 1 and len(complex.cofaces(f)) == 2:
            a, b = complex.cofaces(f)
            neighbors[a].append((f, b))
            neighbors[b].append((f, a))
    for out in neighbors.values():
        out.sort()
    for length in range(2, len(nodes) + 1):
        for start in nodes:
            if length == 2:
                by_other: dict[str, list[str]] = {}
                for edge, other in neighbors[start]:
                    by_other.setdefault(other, []).append(edge)
                for other in sorted(by_other):
                    if other > start:
                        for edge_a, edge_b in combinations(sorted(by_other[other]), 2):
                            yield (start, edge_a, other, edge_b)
                continue
            stack = [(start, [start], [], {start})]
            while stack:
                node, path, edges, seen = stack.pop()
                if len(path) == length:
                    for closing, other in neighbors[node]:
                        if other == start and closing not in edges and path[1] < path[-1]:
                            links = edges + [closing]
                            yield tuple(x for i, p in enumerate(path) for x in (p, links[i]))
                    continue
                for edge, other in reversed(neighbors[node]):
                    if other not in seen and other >= start:
                        stack.append((other, path + [other], edges + [edge], seen | {other}))


def sphere_pipeline_by_recursion(complex) -> Matching:
    """The sphere pipeline by recursion: around the lowest codimension-2
    cell of the lowest codimension-1 cell sigma, the star cycle's cycle
    matching; the rest relative to sigma's boundary, matched as an acyclic
    pair; and sigma's boundary sphere matched by recursion, down to the
    circle's spanning dual loop."""
    n = complex.dim
    if n == 1:
        return match_dual_cycle(complex, spanning_dual_loop(complex), 0)
    sigma = complex.cells_of_dim(n - 1)[0]
    tau = complex.facets(sigma)[-1]
    cycle_part = match_dual_cycle(complex, star_cycle(complex, tau), 0)
    rest = complex.restrict(cycle_part.relative_to)
    rim = complex.faces(sigma)
    middle_part = match_acyclic_pair(SubcomplexPair(rest, rim))
    boundary_part = sphere_pipeline_by_recursion(complex.restrict(rim))
    return compose_matchings([cycle_part, middle_part, boundary_part])


def sphere_pipeline_checking_every_step(complex) -> Matching:
    """The sphere pipeline with every sphere checked, the input and each
    boundary sphere alike: odd dimension and the Betti numbers of a
    sphere, with the pipeline's error texts. Each step's parts are matched
    and composed as in ``sphere_pipeline_by_recursion``, in a loop."""
    parts = []
    sphere = complex
    while True:
        n = sphere.dim
        if n % 2 == 0:
            raise PreconditionError("odd dimension required")
        bv = betti_numbers(SubcomplexPair(sphere))
        if bv.betti != (1,) + (0,) * (n - 1) + (1,):
            raise HomologyNonzeroError(
                f"not a rational homology sphere: betti {bv.betti}", betti=bv
            )
        if n == 1:
            parts.append(match_dual_cycle(sphere, spanning_dual_loop(sphere), 0))
            return compose_matchings(parts)
        sigma = sphere.cells_of_dim(n - 1)[0]
        tau = sphere.facets(sigma)[-1]
        parts.append(match_dual_cycle(sphere, star_cycle(sphere, tau), 0))
        rest = sphere.restrict(parts[-1].relative_to)
        rim = sphere.faces(sigma)
        parts.append(match_acyclic_pair(SubcomplexPair(rest, rim)))
        sphere = sphere.restrict(rim)


def relabeled(complex, seed: int):
    """The simplicial complex with its integer vertex labels moved to
    random distinct labels in ``range(3 * n)``, coordinates carried along;
    returns the new complex and the old-to-new label map."""
    tokens = list(complex.vertex_tokens())
    fresh = random.Random(seed).sample(range(3 * len(tokens)), len(tokens))
    perm = dict(zip(tokens, fresh))
    covered = {f for c in complex.cells() for f in complex.hyperfaces(c)}
    tops = [
        [perm[t] for t in complex.vertices(c)]
        for c in complex.cells()
        if c not in covered
    ]
    coords = None
    if complex.coordinates is not None:
        coords = {perm[t]: p for t, p in complex.coordinates.items()}
    return from_simplices(tops, coordinates=coords), perm


def _entry(value, field: str):
    return value % 2 if field == "f2" else Fraction(value)


def mat_mul(a: list[list], b: list[list], field: str) -> list[list]:
    """Dense matrix product over ``field`` ("q" or "f2")."""
    if not a or not b:
        return []
    return [
        [_entry(sum(row[k] * b[k][c] for k in range(len(b))), field) for c in range(len(b[0]))]
        for row in a
    ]


def is_zero_matrix(rows: list[list]) -> bool:
    return all(entry == 0 for row in rows for entry in row)


def dense_boundary(pair: SubcomplexPair, d: int, field: str, signs=None) -> list[list]:
    """Boundary matrix of a pair: rows are the (d-1)-cells outside the
    base, columns the d-cells, both in the pair's cell order. On a
    simplicial pair it is read from the vertex tuples alone: the face
    omitting the i-th smallest vertex carries (-1)^i. On a cw pair each
    hyperface carries its sign from ``signs``, or 1 over f2."""
    X = pair.complex
    rows = [c for c in pair.rel_cells if X.dim_of(c) == d - 1]
    cols = [c for c in pair.rel_cells if X.dim_of(c) == d]
    index = {c: i for i, c in enumerate(rows)}
    out = [[_entry(0, field)] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        if X.kind == "cw":
            entries = {f: 1 if field == "f2" else signs[(c, f)] for f in X.hyperfaces(c)}
        else:
            verts = sorted(X.vertices(c))
            entries = {
                ".".join(str(v) for v in verts[:i] + verts[i + 1:]): (-1) ** i
                for i in range(len(verts))
            }
        for face, value in entries.items():
            if face in index:
                out[index[face]][j] = _entry(value, field)
    return out


def dense_pivot_columns(rows: list[list], field: str) -> list[int]:
    """Pivot columns of dense Gaussian elimination: columns scanned left to
    right, within a column the first nonzero row at or below the pivot
    row."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        hit = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if hit is None:
            continue
        rows[top], rows[hit] = rows[hit], rows[top]
        p = rows[top]
        for r in range(top + 1, len(rows)):
            factor = rows[r][col] / p[col] if field == "q" else rows[r][col]
            if factor:
                rows[r] = [_entry(x - factor * y, field) for x, y in zip(rows[r], p)]
        pivots.append(col)
    return pivots


def shuffled_path_rel_end(n_edges: int, seed: int) -> SubcomplexPair:
    """A path of ``n_edges`` edges with shuffled vertex labels, relative to
    one endpoint; its augmenting paths are as long as the path."""
    labels = random.Random(seed).sample(range(n_edges + 1), n_edges + 1)
    X = from_simplices([labels[i], labels[i + 1]] for i in range(n_edges))
    return SubcomplexPair(X, [str(labels[0])])


def two_disc_sphere() -> CellComplex:
    """A cw 2-sphere: two vertices, two edges between them, and two discs
    glued along both edges."""
    return build_cw([
        ("u", 0, []), ("v", 0, []),
        ("e", 1, ["u", "v"]), ("f", 1, ["u", "v"]),
        ("D1", 2, ["e", "f"]), ("D2", 2, ["e", "f"]),
    ])
