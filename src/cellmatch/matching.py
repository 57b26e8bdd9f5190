"""Incidence graphs, complete matchings, deficiency certificates, and
orbit/collapse analysis of matchings.

Maximum matching runs Hopcroft-Karp over the even/odd incidence graph with
id-sorted adjacency, so results are deterministic. When no complete
matching exists the matcher returns a deficiency certificate: a set A of
cells on one side with fewer incident cells than members, obtained by
alternating-path reachability from the unmatched cells.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .complexes import CellComplex, DualLoop, SubcomplexPair, complement_of_dual_loop
from .errors import BruteForceBoundError, InvalidMatchingError

_UNREACHED = -1


@dataclass(frozen=True)
class IncidenceGraph:
    """Bipartite incidence graph of a subcomplex pair: even-dimensional
    cells on one side, odd-dimensional on the other."""

    even: tuple[str, ...]
    odd: tuple[str, ...]
    adjacency: dict[str, tuple[str, ...]]

    def neighborhood(self, cells) -> frozenset[str]:
        out: set[str] = set()
        for c in cells:
            out.update(self.adjacency[c])
        return frozenset(out)


def incidence_graph(pair: SubcomplexPair) -> IncidenceGraph:
    complex = pair.complex
    adjacency = {}
    for c in pair.rel_cells:
        nbrs = (complex.hyperfaces(c) | complex.cofaces(c)) - pair.sub
        adjacency[c] = tuple(sorted(nbrs, key=complex.sort_key))
    return IncidenceGraph(pair.rel_even, pair.rel_odd, adjacency)


class Matching:
    """A set of incident cell pairs, relative to a subcomplex base."""

    def __init__(self, pairs, relative_to=()):
        normalized = set()
        for a, b in pairs:
            normalized.add((a, b) if a <= b else (b, a))
        self.pairs = frozenset(normalized)
        self.relative_to = frozenset(relative_to)
        self._mate: dict[str, str] = {}
        for a, b in normalized:
            self._mate[a] = b
            self._mate[b] = a

    def cells(self) -> frozenset[str]:
        return frozenset(self._mate)

    def mate(self, cid: str) -> str:
        return self._mate[cid]

    def __contains__(self, cid: str) -> bool:
        return cid in self._mate

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other):
        return (
            isinstance(other, Matching)
            and self.pairs == other.pairs
            and self.relative_to == other.relative_to
        )

    def __hash__(self):
        return hash((self.pairs, self.relative_to))

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)

    def __repr__(self):
        return f"Matching({len(self.pairs)} pairs)"


@dataclass(frozen=True)
class HallCertificate:
    """Witness that no complete matching exists: a one-sided cell set with
    strictly fewer incident cells than members."""

    side: str  # "even" | "odd"
    cells: frozenset[str]
    neighborhood: frozenset[str]
    deficiency: int

    def verify(self, pair: SubcomplexPair) -> bool:
        graph = incidence_graph(pair)
        side_cells = set(graph.even if self.side == "even" else graph.odd)
        if not self.cells <= side_cells:
            return False
        recomputed = graph.neighborhood(self.cells)
        return (
            recomputed == self.neighborhood
            and self.deficiency == len(self.cells) - len(recomputed)
            and self.deficiency >= 1
        )


@dataclass(frozen=True)
class MatchingReport:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class OrbitReport:
    """Classification of a complete matching: acyclic matchings come with a
    replayable collapse order, cyclic ones with a witness orbit."""

    classification: str  # "acyclic" | "cyclic"
    orbit: tuple[str, ...] | None = None
    collapse_order: tuple[tuple[str, str], ...] | None = None


def _hopcroft_karp(left, adjacency):
    """Maximum matching; returns (mate_left, mate_right) dicts."""
    mate_left: dict[str, str] = {}
    mate_right: dict[str, str] = {}
    dist: dict[str, int] = {}

    def bfs() -> bool:
        queue = deque()
        for u in left:
            if u not in mate_left:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _UNREACHED
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = mate_right.get(v)
                if w is None:
                    found = True
                elif dist[w] == _UNREACHED:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def augment(root) -> None:
        """Depth-first search for an augmenting path from ``root`` along
        the BFS layers, with an explicit stack; ``path[k]`` is the right
        vertex taken from ``stack[k]``. A vertex whose search fails is
        marked unreached."""
        stack = [(root, iter(adjacency[root]))]
        path: list[str] = []
        while stack:
            u, nbrs = stack[-1]
            for v in nbrs:
                w = mate_right.get(v)
                if w is None:
                    path.append(v)
                    for (x, _), y in zip(stack, path):
                        mate_left[x] = y
                        mate_right[y] = x
                    return
                if dist[w] == dist[u] + 1:
                    path.append(v)
                    stack.append((w, iter(adjacency[w])))
                    break
            else:
                dist[u] = _UNREACHED
                stack.pop()
                if path:
                    path.pop()

    while bfs():
        for u in left:
            if u not in mate_left:
                augment(u)
    return mate_left, mate_right


def _koenig_certificate(graph: IncidenceGraph, side: str, mate_side, mate_other):
    """Alternating reachability from the unmatched cells of ``side``."""
    side_cells = graph.even if side == "even" else graph.odd
    reached_side = {u for u in side_cells if u not in mate_side}
    reached_other: set[str] = set()
    frontier = list(reached_side)
    while frontier:
        new_side: list[str] = []
        for u in frontier:
            for v in graph.adjacency[u]:
                if v in reached_other:
                    continue
                reached_other.add(v)
                w = mate_other.get(v)
                if w is not None and w not in reached_side:
                    reached_side.add(w)
                    new_side.append(w)
        frontier = new_side
    return HallCertificate(
        side,
        frozenset(reached_side),
        frozenset(reached_other),
        len(reached_side) - len(reached_other),
    )


def complete_matching(pair: SubcomplexPair, use_parity_shortcut: bool = True):
    """A complete matching of the pair, or a deficiency certificate.

    With the parity shortcut (default), an even/odd cell-count imbalance is
    certified directly by the larger side; otherwise Hopcroft-Karp runs and
    an imperfect matching yields the alternating-reachability certificate.
    """
    graph = incidence_graph(pair)
    n_even, n_odd = len(graph.even), len(graph.odd)
    if use_parity_shortcut and n_even != n_odd:
        side = "even" if n_even > n_odd else "odd"
        cells = frozenset(graph.even if side == "even" else graph.odd)
        nbhd = graph.neighborhood(cells)
        return HallCertificate(side, cells, nbhd, len(cells) - len(nbhd))
    mate_even, mate_odd = _hopcroft_karp(graph.even, graph.adjacency)
    if len(mate_even) == n_even and len(mate_odd) == n_odd:
        return Matching(mate_even.items(), relative_to=pair.sub)
    if n_even > n_odd:
        side = "even"
    elif n_odd > n_even:
        side = "odd"
    else:
        side = "even"  # balanced: both sides have unmatched cells
    if side == "even":
        cert = _koenig_certificate(graph, side, mate_even, mate_odd)
    else:
        cert = _koenig_certificate(graph, side, mate_odd, mate_even)
    if not cert.verify(pair):
        raise AssertionError("internal error: certificate failed verification")
    return cert


def validate_matching(pair: SubcomplexPair, matching: Matching) -> MatchingReport:
    """Check incidence, disjointness, and exact coverage; list every violation."""
    complex = pair.complex
    violations: list[str] = []
    seen: set[str] = set()
    for a, b in sorted(matching.pairs):
        for c in (a, b):
            if c not in complex:
                violations.append(f"unknown cell: {c}")
            elif c in pair.sub:
                violations.append(f"cell in relative base: {c}")
            if c in seen:
                violations.append(f"duplicated: {c}")
            seen.add(c)
        if a in complex and b in complex:
            incident = a in complex.hyperfaces(b) or b in complex.hyperfaces(a)
            if not incident:
                violations.append(f"not incident: {a} / {b}")
    for c in pair.rel_cells:
        if c not in seen:
            violations.append(f"uncovered: {c}")
    return MatchingReport(not violations, tuple(violations))


def enumerate_matchings(
    pair: SubcomplexPair, limit: int = 0, bound: int = 40
) -> tuple[int, list[Matching]]:
    """Exact number of complete matchings, plus the first ``limit`` of them.
    Refuses instances above ``bound`` cells.

    The count is a memoized search: the number of ways to complete a
    partial matching depends only on the set of free cells, kept as an int
    bitmask over ``rel_cells``, and each set is counted once. A set is
    counted by branching on a free cell with the fewest free neighbours
    (the choice rule of Knuth's Dancing Links); a free cell with none makes
    the count 0. Only the cells next to the two just matched can have lost
    a neighbour, so they are looked at first, and all free cells are
    scanned only when none of them has at most one free neighbour.

    The matchings are listed in backtracking order: the first free cell in
    ``rel_cells`` order is matched with each free neighbour in adjacency
    order, and a choice that leaves no completion is skipped.
    """
    cells = pair.rel_cells
    if len(cells) > bound:
        raise BruteForceBoundError(
            f"{len(cells)} cells exceed the brute-force bound {bound}"
        )
    if len(pair.rel_even) != len(pair.rel_odd):
        return 0, []
    graph = incidence_graph(pair)
    place = {c: i for i, c in enumerate(cells)}
    neighbours = [[place[v] for v in graph.adjacency[c]] for c in cells]
    masks = [sum(1 << j for j in nbrs) for nbrs in neighbours]
    memo = {0: 1}

    def pivot(free: int, near: int) -> int:
        """A free cell with the fewest free neighbours: a cell of ``near``
        with at most one if there is one, else the first with fewest in
        a scan of all free cells."""
        bits = near & free
        while bits:
            low = bits & -bits
            bits ^= low
            u = low.bit_length() - 1
            if (masks[u] & free).bit_count() <= 1:
                return u
        best, fewest = -1, len(cells)
        bits = free
        while bits and fewest > 1:
            low = bits & -bits
            bits ^= low
            u = low.bit_length() - 1
            k = (masks[u] & free).bit_count()
            if k < fewest:
                best, fewest = u, k
        return best

    def completions(free: int, near: int) -> int:
        """Complete matchings of the free cells; ``near`` holds the cells
        next to the two just matched. Depth first with an explicit stack
        of frames [free cells, pivot, its free neighbours left to try,
        count so far]; a pivot with no free neighbour counts 0."""
        stack: list[list[int]] = []
        value = memo.get(free)
        while True:
            if value is None:
                v = pivot(free, near)
                stack.append([free, v, masks[v] & free, 0])
            elif stack:
                stack[-1][3] += value
            else:
                return value
            top = stack[-1]
            state, v, options, total = top
            if options:
                low = options & -options
                top[2] = options ^ low
                free = state ^ (1 << v) ^ low
                near = masks[v] | masks[low.bit_length() - 1]
                value = memo.get(free)
            else:
                stack.pop()
                value = memo[state] = total

    free = (1 << len(cells)) - 1
    count = completions(free, 0)
    found: list[Matching] = []
    # stack[k] holds the k-th first free cell and its neighbours left to
    # try; chosen[k] is the one taken.
    stack: list[tuple[int, object]] = []
    chosen: list[int] = []
    while len(found) < min(limit, count):
        if free:
            v = (free & -free).bit_length() - 1
            stack.append((v, iter(neighbours[v])))
        while stack:
            v, nbrs = stack[-1]
            if len(chosen) == len(stack):
                free |= 1 << chosen.pop() | 1 << v
            for j in nbrs:
                if free >> j & 1:
                    rest = free ^ (1 << v) ^ (1 << j)
                    if completions(rest, masks[v] | masks[j]):
                        chosen.append(j)
                        free = rest
                        break
            else:
                stack.pop()
                continue
            break
        if not free:
            pairs = [(cells[v], cells[j]) for (v, _), j in zip(stack, chosen)]
            found.append(Matching(pairs, relative_to=pair.sub))
    return count, found


def match_dual_cycle(complex: CellComplex, loop: DualLoop, orientation: int) -> Matching:
    """One of the two complete matchings of the cells on a dual loop,
    relative to the complement subcomplex: orientation 0 matches each link
    cell ``f_i`` with ``c_i``, orientation 1 with ``c_(i+1)``. The loop is
    validated, and the complement taken, by :func:`complement_of_dual_loop`."""
    if orientation not in (0, 1):
        raise ValueError("orientation must be 0 or 1")
    rest = complement_of_dual_loop(complex, loop).sub
    tops = loop.top_cells
    links = loop.link_cells
    k = loop.k
    pairs = [
        (links[i], tops[(i + orientation) % k])
        for i in range(k)
    ]
    return Matching(pairs, relative_to=rest)


def compose_matchings(parts, relative_to=()) -> Matching:
    """Union of partial matchings with pairwise-disjoint coverage."""
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for part in parts:
        for a, b in part.sorted_pairs():
            for c in (a, b):
                if c in seen:
                    raise InvalidMatchingError(f"duplicated: {c}")
                seen.add(c)
            pairs.append((a, b))
    return Matching(pairs, relative_to=relative_to)


def _matched_pairs_by_level(pair: SubcomplexPair, matching: Matching):
    """Matched pairs as (lower, upper) keyed for deterministic iteration."""
    complex = pair.complex
    out = []
    for a, b in matching.pairs:
        if complex.dim_of(a) > complex.dim_of(b):
            a, b = b, a
        out.append((a, b))
    out.sort(key=lambda p: complex.sort_key(p[0]))
    return out


def orbit_analysis(pair: SubcomplexPair, matching: Matching) -> OrbitReport:
    """Classify a complete matching as acyclic (with a collapse order) or
    cyclic (with one witness orbit).

    Pair P points to pair Q when P's upper cell has Q's lower cell among
    its hyperfaces; a directed cycle of pairs unfolds to an alternating
    orbit whose consecutive cells are mates exactly at odd steps.

    The collapse order removes, at each step, the free pair (its lower
    cell has its mate as its only remaining coface) that comes first by
    the sort key of its lower cell. A heap of free pairs with live-coface
    counters finds it, so the replay costs O(sum |faces| + sum
    |cofaces_all| + n log n) over the n matched pairs.
    """
    report = validate_matching(pair, matching)
    if not report.ok:
        raise InvalidMatchingError("; ".join(report.violations[:5]))
    complex = pair.complex
    pairs = _matched_pairs_by_level(pair, matching)
    index = {lower: i for i, (lower, _) in enumerate(pairs)}
    succ: list[list[int]] = []
    for lower, upper in pairs:
        nxt = []
        for f in sorted(complex.hyperfaces(upper), key=complex.sort_key):
            j = index.get(f)
            if j is not None and f != lower:
                nxt.append(j)
        succ.append(nxt)

    cycle = _find_cycle(succ)
    if cycle is not None:
        orbit: list[str] = []
        for i in cycle:
            lower, upper = pairs[i]
            orbit.extend((lower, upper))
        return OrbitReport("cyclic", orbit=tuple(orbit))

    order = _collapse_order(complex, pairs, index)
    return OrbitReport("acyclic", collapse_order=tuple(order))


def _find_cycle(succ: list[list[int]]) -> list[int] | None:
    """First directed cycle in DFS order, or None."""
    color = [0] * len(succ)  # 0 unvisited, 1 on stack, 2 done
    parent: dict[int, int] = {}
    for root in range(len(succ)):
        if color[root]:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for j in it:
                if color[j] == 0:
                    color[j] = 1
                    parent[j] = node
                    stack.append((j, iter(succ[j])))
                    advanced = True
                    break
                if color[j] == 1:
                    cycle = [node]
                    while cycle[-1] != j:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = 2
                stack.pop()
    return None


def _collapse_order(complex: CellComplex, pairs, index):
    """Free-face collapse order of an acyclic matching.

    ``live[i]`` counts the cells of ``cofaces_all(lower_i)`` still in play,
    and pair i is free when it is 1. A pair's upper cell stays in play
    until the pair goes, so a count only falls and never below 1: a free
    pair stays free, and popping the smallest index off a heap of free
    pairs picks the leftmost free pair of a full rescan. Removing a pair
    walks the faces of its two cells separately, since a face of both
    loses two live cofaces.
    """
    in_play = set(index)
    in_play.update(upper for _, upper in pairs)
    live = [
        sum(1 for c in complex.cofaces_all(lower) if c in in_play)
        for lower, _ in pairs
    ]
    free = [i for i, n in enumerate(live) if n == 1]  # ascending: a heap
    removed = [False] * len(pairs)
    order = []
    while free:
        i = heapq.heappop(free)
        removed[i] = True
        order.append(pairs[i])
        for cell in pairs[i]:
            for f in complex.faces(cell):
                j = index.get(f)
                if j is not None and not removed[j]:
                    live[j] -= 1
                    if live[j] == 1:
                        heapq.heappush(free, j)
    if len(order) != len(pairs):  # cannot happen for acyclic matchings
        raise AssertionError("collapse replay stalled on an acyclic matching")
    return order
