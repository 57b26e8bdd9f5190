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
different search.

The layer-by-layer acyclic matching builds every layer as a complex of
its own (a restricted stage paired with the stage below) and matches it
with ``complete_matching``. It shares the pivot selection with the
library, through ``acyclic_filtration``; that selection is checked
independently, against dense elimination, by
``test_sparse_reduction_matches_dense_elimination``.

The flow structure by resolve searches, for every cell, through all of
its top cofaces for the ones the field enters or leaves through it, finds
each facet's opposite vertex by search, and takes the unstable core as
the common vertices of the unstable hyperfaces. It shares only the
derivative solve, ``flow._derivatives``, with the library.

The face-poset chains, the simplices of the barycentric subdivision, are
grown one cell at a time from the transitive face sets alone, with no
hyperface, flag or id of the library's subdivision.
"""

from __future__ import annotations

from fractions import Fraction
import os
import random
from itertools import combinations, permutations
from pathlib import Path

import cellmatch
from cellmatch import (
    Matching,
    SubcomplexPair,
    acyclic_filtration,
    complete_matching,
    from_simplices,
    cell_id,
    incidence_graph,
)
from cellmatch.errors import NotTransverseError, PreconditionError
from cellmatch.flow import BoundarySplit, FlowStructure, _derivatives, direction


def subprocess_env() -> dict[str, str]:
    """The environment with the tested package's source directory first on
    ``PYTHONPATH``, for running scripts in a child interpreter."""
    src = str(Path(cellmatch.__file__).resolve().parents[1])
    path = [p for p in (src, os.environ.get("PYTHONPATH")) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


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
    derivs = _derivatives(geom, field_vec)
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


def dense_boundary(pair: SubcomplexPair, d: int, field: str) -> list[list]:
    """Boundary matrix of a simplicial pair from its vertex tuples alone:
    rows are the (d-1)-cells outside the base, columns the d-cells, both in
    the pair's cell order; the face omitting the i-th smallest vertex
    carries (-1)^i."""
    X = pair.complex
    rows = [c for c in pair.rel_cells if X.dim_of(c) == d - 1]
    cols = [c for c in pair.rel_cells if X.dim_of(c) == d]
    index = {c: i for i, c in enumerate(rows)}
    out = [[_entry(0, field)] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        verts = sorted(X.vertices(c))
        for i in range(len(verts)):
            face = ".".join(str(v) for v in verts[:i] + verts[i + 1:])
            if face in index:
                out[index[face]][j] = _entry((-1) ** i, field)
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
