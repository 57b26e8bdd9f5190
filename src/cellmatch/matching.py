"""Incidence graphs, complete matchings, deficiency certificates, and
orbit/collapse analysis of matchings.

Maximum matching runs Hopcroft-Karp over the even/odd incidence graph with
rank-ordered adjacency, so results are deterministic. When no complete
matching exists the matcher returns a deficiency certificate: a set A of
cells on one side with fewer incident cells than members, obtained by
alternating-path reachability from the unmatched cells.

Inside, the search works on positions: ``_positions`` lists each left
cell's neighbours as positions in the right side, in the order of
:func:`incidence_graph`, and the mates and layer distances are int lists.
Ids come back once, when the matching or certificate is built; the
parity shortcut reads the same positions. :meth:`HallCertificate.verify`
reads only its own cells' facets and cofacets, with no code from the
search. Each phase's breadth-first search walks the whole layer graph
and does not stop at the first layer with a free cell: the depth-first
search takes a free cell at whatever layer it meets one, so stopping
early would cut off the longer augmenting paths it takes now and change
the matching.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain, compress

from .complexes import CellComplex, DualLoop, SubcomplexPair, complement_of_dual_loop
from .complexes import _cofacet_ranks, _facet_ranks, _rank_of
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
    """Each rel cell's rel neighbours in the cell order of
    :func:`_positions`, the adjacency every search reads."""
    rel = pair.rel_cells
    near = _positions(pair.complex, rel, rel)
    adjacency = {c: tuple(map(rel.__getitem__, js)) for c, js in zip(rel, near)}
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
        """Whether the cells are rel cells of the side's parity, their rel
        facets and cofacets are the neighbourhood, and the deficiency, at
        least 1, is how many fewer. Reads only these cells' incidences."""
        complex, sub = pair.complex, pair.sub
        odd = self.side != "even"
        own = (c in complex and c not in sub and complex.dim_of(c) % 2 == odd for c in self.cells)
        if not all(own):
            return False
        rank, down, up = _rank_of(complex), _facet_ranks(complex), _cofacet_ranks(complex)
        near = {x for r in map(rank.__getitem__, self.cells) for x in chain(down[r], up[r])}
        recomputed = set(map(complex.cells().__getitem__, near)) - sub
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


def _positions(complex: CellComplex, left, right) -> list[list[int]]:
    """For each cell of ``left``, the positions in ``right`` of its
    neighbours that lie in ``right``, in the cell order: its facets, read
    backwards, all rank below its cofacets."""
    rank, down, up = _rank_of(complex), _facet_ranks(complex), _cofacet_ranks(complex)
    place = dict(zip(map(rank.__getitem__, right), range(len(right)))).get
    return [
        [j for x in chain(reversed(down[r]), up[r]) if (j := place(x)) is not None]
        for r in map(rank.__getitem__, left)
    ]


def _hopcroft_karp(adj: list[list[int]], n_right: int):
    """Maximum matching of left positions ``0..len(adj)-1`` with right
    positions ``0..n_right-1``; returns the mate lists (left, right), -1
    for unmatched. The first phase runs as a greedy pass with no BFS;
    each later phase's BFS walks the whole layer graph."""
    mate_left = [-1] * len(adj)
    mate_right = [-1] * n_right
    dist = [_UNREACHED] * len(adj)

    def bfs() -> bool:
        queue = []
        for u, v in enumerate(mate_left):
            if v < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _UNREACHED
        found = False
        for u in queue:  # read while it grows: first in, first out
            step = dist[u] + 1
            for v in adj[u]:
                w = mate_right[v]
                if w < 0:
                    found = True
                elif dist[w] == _UNREACHED:
                    dist[w] = step
                    queue.append(w)
        return found

    def augment(root: int) -> None:
        """Depth-first search for an augmenting path from ``root`` along
        the BFS layers, with an explicit stack; ``path[k]`` is the right
        vertex taken from ``stack[k]``. A vertex whose search fails is
        marked unreached."""
        stack = [(root, iter(adj[root]))]
        path: list[int] = []
        while stack:
            u, nbrs = stack[-1]
            for v in nbrs:
                w = mate_right[v]
                if w < 0:
                    path.append(v)
                    for (x, _), y in zip(stack, path):
                        mate_left[x] = y
                        mate_right[y] = x
                    return
                if dist[w] == dist[u] + 1:
                    path.append(v)
                    stack.append((w, iter(adj[w])))
                    break
            else:
                dist[u] = _UNREACHED
                stack.pop()
                if path:
                    path.pop()

    # Phase 1: every left position is free, so each has distance 0 and
    # the search takes only free neighbours: the first-free greedy pass.
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if mate_right[v] < 0:
                mate_left[u] = v
                mate_right[v] = u
                break
    while bfs():
        for u in range(len(adj)):
            if mate_left[u] < 0:
                augment(u)
    return mate_left, mate_right


def _koenig_certificate(side: str, cells, others, adj, mate_side, mate_other):
    """Alternating reachability from the unmatched positions of ``side``:
    ``adj`` and ``mate_side`` run from ``cells`` to ``others``, and
    ``mate_other`` back."""
    reached = [v < 0 for v in mate_side]
    reached_other = [False] * len(others)
    queue = [u for u, free in enumerate(reached) if free]
    for u in queue:  # read while it grows
        for v in adj[u]:
            if not reached_other[v]:
                reached_other[v] = True
                w = mate_other[v]
                if w >= 0 and not reached[w]:
                    reached[w] = True
                    queue.append(w)
    a = frozenset(compress(cells, reached))
    nbhd = frozenset(compress(others, reached_other))
    return HallCertificate(side, a, nbhd, len(a) - len(nbhd))


def complete_matching(pair: SubcomplexPair, use_parity_shortcut: bool = True):
    """A complete matching of the pair, or a deficiency certificate.

    With the parity shortcut (default), an even/odd cell-count imbalance is
    certified directly by the larger side; otherwise Hopcroft-Karp runs and
    an imperfect matching yields the alternating-reachability certificate.
    """
    even, odd = pair.rel_even, pair.rel_odd
    n_even, n_odd = len(even), len(odd)
    if use_parity_shortcut and n_even != n_odd:
        side, cells, others = ("even", even, odd) if n_even > n_odd else ("odd", odd, even)
        reached = set(chain.from_iterable(_positions(pair.complex, cells, others)))
        nbhd = frozenset(map(others.__getitem__, reached))
        return HallCertificate(side, frozenset(cells), nbhd, len(cells) - len(nbhd))
    adj = _positions(pair.complex, even, odd)
    mate_even, mate_odd = _hopcroft_karp(adj, n_odd)
    if n_even == n_odd and -1 not in mate_even:
        return Matching(zip(even, map(odd.__getitem__, mate_even)), relative_to=pair.sub)
    if n_odd > n_even:
        back = _positions(pair.complex, odd, even)
        cert = _koenig_certificate("odd", odd, even, back, mate_odd, mate_even)
    else:  # more even cells, or balanced with unmatched cells on both sides
        cert = _koenig_certificate("even", even, odd, adj, mate_even, mate_odd)
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
            incident = a in complex.facets(b) or b in complex.facets(a)
            if not incident:
                violations.append(f"not incident: {a} / {b}")
    for c in pair.rel_cells:
        if c not in seen:
            violations.append(f"uncovered: {c}")
    return MatchingReport(not violations, tuple(violations))


def _covers(pair: SubcomplexPair, matching: Matching) -> bool:
    """``validate_matching(pair, matching).ok``, in one pass and with no
    report. No cell is in two pairs (or paired with itself) exactly when
    the mate table has two entries per pair; the matched cells are then
    the rel cells exactly when the table has as many entries and holds
    each rel cell, so none is unknown or in the base; and each pair is
    incident. The checks call :func:`validate_matching` only when this
    fails, to report why."""
    mate, rel = matching._mate, pair.rel_cells
    if len(mate) != 2 * len(matching.pairs) or len(mate) != len(rel):
        return False
    if not all(map(mate.__contains__, rel)):
        return False
    rank, down = _rank_of(pair.complex), _facet_ranks(pair.complex)
    ranked = ((rank[a], rank[b]) for a, b in matching.pairs)
    return all(a in down[b] or b in down[a] for a, b in ranked)


def _checked(pair: SubcomplexPair, pairs, what: str) -> Matching:
    """The matching of ``pairs`` relative to ``pair.sub``, after checking
    that it is a complete matching of ``pair``. A construction hands its
    pair list to this call, which builds its one ``Matching``; a failure is
    a bug in the construction ``what`` names. The check is :func:`_covers`;
    only a failure builds the :func:`validate_matching` report for the
    message. It raises explicitly, so the check still runs under
    ``python -O``."""
    matching = Matching(pairs, relative_to=pair.sub)
    if not _covers(pair, matching):
        raise AssertionError(f"{what}: {validate_matching(pair, matching).violations[:3]}")
    return matching


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
    neighbours = _positions(pair.complex, cells, cells)
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
    """Union of Matchings with pairwise-disjoint coverage; raises
    InvalidMatchingError at the first cell covered twice. The package's
    constructions instead check their whole output once."""
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


def _lower_upper_pairs(pair: SubcomplexPair, matching: Matching):
    """The pairs of a matching that covers ``pair`` as (lower, upper), in
    the cell order of their lower cells. The two cells of a pair differ by
    one dimension, and the cell order is by dimension first, so the upper
    cell is the one of higher rank."""
    rank, mate = _rank_of(pair.complex), matching._mate
    return [(c, m) for c in pair.rel_cells if rank[m := mate[c]] > rank[c]]


def orbit_analysis(pair: SubcomplexPair, matching: Matching) -> OrbitReport:
    """Classify a complete matching as acyclic (with a collapse order) or
    cyclic (with one witness orbit).

    Pair P points to pair Q when P's upper cell has Q's lower cell among
    its hyperfaces; a directed cycle of pairs unfolds to an alternating
    orbit whose consecutive cells are mates exactly at odd steps.

    The collapse order removes, at each step, the free pair (its lower
    cell has its mate as its only remaining coface) that comes first by
    the sort key of its lower cell. A heap of free pairs with live-cofacet
    counters finds it, so the replay costs O(sum |facets| + n log n) over
    the n matched pairs.

    The matching is checked by :func:`_covers`; only an invalid one builds
    the :func:`validate_matching` report, whose first five violations the
    error lists.
    """
    if not _covers(pair, matching):
        raise InvalidMatchingError("; ".join(validate_matching(pair, matching).violations[:5]))
    complex = pair.complex
    rank, down = _rank_of(complex), _facet_ranks(complex)
    pairs = _lower_upper_pairs(pair, matching)
    ranked = [(rank[lower], rank[upper]) for lower, upper in pairs]
    index = [-1] * len(complex)  # each lower cell's pair, by rank
    for i, (lower, _) in enumerate(ranked):
        index[lower] = i
    succ = [
        [j for f in reversed(down[upper]) if f != lower and (j := index[f]) >= 0]
        for lower, upper in ranked
    ]

    cycle = _find_cycle(succ)
    if cycle is not None:
        orbit: list[str] = []
        for i in cycle:
            lower, upper = pairs[i]
            orbit.extend((lower, upper))
        return OrbitReport("cyclic", orbit=tuple(orbit))

    order = _collapse_order(complex, ranked)
    return OrbitReport("acyclic", collapse_order=tuple(map(pairs.__getitem__, order)))


def _find_cycle(succ: list[list[int]]) -> list[int] | None:
    """First directed cycle in DFS order, or None. The stack is the path
    from the root, so an edge back to a node on it closes the cycle that
    runs from that node up the stack."""
    color = [0] * len(succ)  # 0 unvisited, 1 on stack, 2 done
    for root in range(len(succ)):
        if color[root]:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            for j in it:
                if color[j] == 0:
                    color[j] = 1
                    stack.append((j, iter(succ[j])))
                    break
                if color[j] == 1:
                    path = [v for v, _ in stack]
                    return path[path.index(j):]
            else:
                color[node] = 2
                stack.pop()
    return None


def _collapse_order(complex: CellComplex, pairs):
    """Free-face collapse order of an acyclic matching, replayed on facet
    counters (Forman's correspondence of acyclic matchings and collapses):
    the indices of ``pairs``, its (lower, upper) ranks, in that order.

    The cells left, the base and the pairs not yet removed, always form a
    closed complex, and every proper coface of a cell contains one of its
    cofacets, since faces are the transitive closure of facets. So a
    pair's upper cell is its lower cell's only live coface exactly when
    the lower cell has one live cofacet (the upper cell) and the upper
    cell has none. ``live`` keeps those two counts per pair, lower at
    ``2i`` and upper at ``2i + 1``. They start at the cofacet counts:
    the base is closed, so every coface of a matched cell is matched.
    Removing a pair decrements the counts of its two cells' facets, and a
    pair is pushed on the heap when a decrement brings its counts to 1
    and 0. Counts only fall, and a lower count never below 1 while its
    upper cell is in play, so a free pair stays free and is never
    decremented again: it is pushed once, and popping the smallest index
    picks the leftmost free pair of a full rescan. The replay costs
    O(sum |facets| + n log n) over the n matched pairs.
    """
    cells = list(chain.from_iterable(pairs))
    slot = [-1] * len(complex)  # each matched cell's slot, by rank
    for s, c in enumerate(cells):
        slot[c] = s
    down, up = _facet_ranks(complex), _cofacet_ranks(complex)
    live = [len(up[c]) for c in cells]
    free = [i for i in range(len(pairs)) if live[2 * i] == 1 and not live[2 * i + 1]]
    order = []
    while free:  # ascending: a heap
        i = heapq.heappop(free)
        order.append(i)
        for cell in pairs[i]:
            for f in down[cell]:
                s = slot[f]
                if s >= 0:
                    live[s] -= 1
                    j = s & ~1
                    if live[j] == 1 and not live[j + 1]:
                        heapq.heappush(free, j >> 1)
    if len(order) != len(pairs):  # cannot happen for acyclic matchings
        raise AssertionError("collapse replay stalled on an acyclic matching")
    return order
