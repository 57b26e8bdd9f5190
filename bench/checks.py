"""Independent checks of cellmatch artifacts.

Everything here is computed from the maximal simplices the benchmark
generated, with ``itertools.combinations``; nothing imports cellmatch.
Each check raises ``CheckError`` with a reason when an artifact is wrong.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations


class CheckError(Exception):
    pass


def _token_key(token):
    return (0, token, "") if isinstance(token, int) else (1, 0, token)


def cell_id(tokens) -> str:
    """The cell id format of cellmatch files: ascending tokens, dot-joined."""
    return ".".join(str(t) for t in sorted(set(tokens), key=_token_key))


def load(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


class Cx:
    """Face table of the complex spanned by a list of maximal simplices."""

    def __init__(self, tops):
        self.cells: dict[str, frozenset] = {}
        for top in tops:
            for k in range(1, len(top) + 1):
                for face in combinations(top, k):
                    fs = frozenset(face)
                    if len(fs) != k:
                        raise ValueError(f"repeated vertex in {top}")
                    self.cells.setdefault(cell_id(fs), fs)
        self.ids = {fs: cid for cid, fs in self.cells.items()}
        self.dim = max(len(fs) for fs in self.cells.values()) - 1
        self._cofaces: dict[str, list[str]] | None = None

    def dim_of(self, cid: str) -> int:
        return len(self.cells[cid]) - 1

    def hyperfaces(self, cid: str) -> list[str]:
        fs = self.cells[cid]
        if len(fs) == 1:
            return []
        return [self.ids[fs - {v}] for v in fs]

    def cofaces(self, cid: str) -> list[str]:
        if self._cofaces is None:
            self._cofaces = {c: [] for c in self.cells}
            for c in self.cells:
                for f in self.hyperfaces(c):
                    self._cofaces[f].append(c)
        return self._cofaces[cid]

    def proper_faces(self, cid: str):
        fs = tuple(self.cells[cid])
        for k in range(1, len(fs)):
            for face in combinations(fs, k):
                yield self.ids[frozenset(face)]

    def closure(self, ids) -> frozenset[str]:
        out = set(ids)
        for c in ids:
            out.update(self.proper_faces(c))
        return frozenset(out)

    def incident(self, a: str, b: str) -> bool:
        fa, fb = self.cells[a], self.cells[b]
        if len(fa) > len(fb):
            fa, fb = fb, fa
        return len(fb) == len(fa) + 1 and fa < fb


def _format(obj, name: str) -> None:
    _require(isinstance(obj, dict) and obj.get("format") == name,
             f"expected format {name}")


def check_matching(cx: Cx, base, obj) -> list[tuple[str, str]]:
    """Incident, disjoint pairs that cover exactly the cells outside ``base``."""
    _format(obj, "cellmatch-matching-v1")
    base = frozenset(base)
    _require(sorted(obj["relative_to"]) == sorted(base), "wrong relative_to")
    seen: set[str] = set()
    pairs = []
    for a, b in obj["pairs"]:
        for c in (a, b):
            _require(c in cx.cells, f"unknown cell {c}")
            _require(c not in base, f"cell {c} lies in the base")
            _require(c not in seen, f"cell {c} matched twice")
            seen.add(c)
        _require(cx.incident(a, b), f"pair {a} / {b} is not incident")
        pairs.append((a, b))
    _require(len(seen) + len(base) == len(cx.cells), "matching leaves cells uncovered")
    return pairs


def check_certificate(cx: Cx, base, obj) -> None:
    """One-sided set A whose recomputed neighbourhood is smaller than A."""
    _format(obj, "cellmatch-certificate-v1")
    base = frozenset(base)
    parity = {"even": 0, "odd": 1}.get(obj["side"])
    _require(parity is not None, "bad side")
    cells = set(obj["A"])
    for c in cells:
        _require(c in cx.cells and c not in base, f"A holds {c}, not a relative cell")
        _require(cx.dim_of(c) % 2 == parity, f"A mixes sides at {c}")
    nbhd = {n for c in cells for n in cx.hyperfaces(c) + cx.cofaces(c) if n not in base}
    _require(set(obj["IA"]) == nbhd, "IA is not the neighbourhood of A")
    _require(len(nbhd) < len(cells), "|I(A)| is not below |A|")
    _require(obj["deficiency"] == len(cells) - len(nbhd), "wrong deficiency")


def check_collapse(cx: Cx, pairs, order) -> None:
    """Replay ``order`` as free-face removals over the matched cells; the
    live-coface counts make this linear in the number of face incidences."""
    live = {c for p in pairs for c in p}
    _require({frozenset(p) for p in pairs} == {frozenset(s) for s in order}
             and len(order) == len(pairs), "collapse order is not the matching")
    count = dict.fromkeys(live, 0)
    for c in live:
        for f in cx.proper_faces(c):
            if f in live:
                count[f] += 1
    for lower, upper in order:
        _require(lower in live and upper in live, f"step {lower} / {upper} reuses a cell")
        _require(cx.dim_of(upper) == cx.dim_of(lower) + 1 and cx.incident(lower, upper),
                 f"step {lower} / {upper} is not a face pair")
        _require(count[lower] == 1, f"{lower} is not a free face at its step")
        for c in (lower, upper):
            live.discard(c)
            for f in cx.proper_faces(c):
                if f in live:
                    count[f] -= 1


def check_orbit(cx: Cx, pairs, orbit) -> None:
    """Closed alternating orbit: lower_i, upper_i matched, lower_(i+1) a
    hyperface of upper_i other than lower_i, wrapping around."""
    matched = {frozenset(p) for p in pairs}
    _require(len(orbit) >= 4 and len(orbit) % 2 == 0, "orbit has odd or short length")
    _require(len(set(orbit)) == len(orbit), "orbit repeats a cell")
    k = len(orbit) // 2
    for i in range(k):
        lower, upper = orbit[2 * i], orbit[2 * i + 1]
        nxt = orbit[(2 * i + 2) % len(orbit)]
        _require(frozenset((lower, upper)) in matched, f"{lower} / {upper} is not matched")
        _require(cx.dim_of(upper) == cx.dim_of(lower) + 1, f"{upper} is not above {lower}")
        _require(nxt != lower and cx.incident(nxt, upper)
                 and cx.dim_of(nxt) == cx.dim_of(lower), f"orbit breaks after {upper}")


def check_orbit_report(cx: Cx, matching_obj, obj) -> None:
    _format(obj, "cellmatch-orbit-v1")
    pairs = [tuple(p) for p in matching_obj["pairs"]]
    if obj["classification"] == "acyclic":
        check_collapse(cx, pairs, [tuple(s) for s in obj["collapse_order"]])
    elif obj["classification"] == "cyclic":
        check_orbit(cx, pairs, obj["orbit"])
    else:
        raise CheckError("unknown classification")


def check_loop(cx: Cx, cells) -> None:
    """Simple closed sequence alternating top cells and shared codim-1 cells."""
    n = cx.dim
    _require(len(cells) >= 4 and len(cells) % 2 == 0, "loop has odd or short length")
    _require(len(set(cells)) == len(cells), "loop repeats a cell")
    for i in range(0, len(cells), 2):
        top, link, nxt = cells[i], cells[i + 1], cells[(i + 2) % len(cells)]
        _require(cx.dim_of(top) == n and cx.dim_of(nxt) == n, "loop top has wrong dimension")
        _require(cx.dim_of(link) == n - 1, "loop link has wrong dimension")
        _require(cx.incident(link, top) and cx.incident(link, nxt),
                 f"{link} does not join {top} and {nxt}")


def check_betti(obj, field: str, betti) -> None:
    _format(obj, "cellmatch-betti-v1")
    _require(obj["field"] == field, f"field {obj['field']}, expected {field}")
    _require(list(obj["betti"]) == list(betti), f"betti {obj['betti']}, expected {betti}")


def barycentric_tops(tops) -> list[tuple[str, ...]]:
    """Maximal simplices of the barycentric subdivision of a pure complex:
    one per full flag of each maximal simplex, with vertex "b<cell id>"."""
    out = []
    for top in tops:
        for perm in permutations(top):
            out.append(tuple("b" + cell_id(perm[:i]) for i in range(1, len(perm) + 1)))
    return out


def check_complex(obj, tops) -> None:
    _format(obj, "cellmatch-complex-v1")
    got = {frozenset(s) for s in obj["simplices"]}
    _require(got == {frozenset(t) for t in tops}, "maximal simplices differ")


def _det(rows) -> Fraction:
    m = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            for c in range(col, len(m)):
                m[r][c] -= factor * m[col][c]
    return det


def exiting_base(cx: Cx, coords, field) -> frozenset[str]:
    """Closure of the boundary codim-1 cells the field leaves through: for
    boundary face f of top t with opposite vertex u, the barycentric
    coordinate of u decreases along the field (Cramer's rule)."""
    exiting = []
    for f in cx.cells:
        if cx.dim_of(f) != cx.dim - 1:
            continue
        tops = cx.cofaces(f)
        if len(tops) != 1:
            continue
        verts = cx.cells[f]
        (u,) = cx.cells[tops[0]] - verts
        origin = min(verts, key=_token_key)
        others = sorted(verts - {origin}, key=_token_key) + [u]
        edge = [[coords[w][i] - coords[origin][i] for w in others]
                for i in range(len(field))]
        with_field = [row[:-1] + [field[i]] for i, row in enumerate(edge)]
        rate = _det(with_field) / _det(edge)
        _require(rate != 0, f"field is tangent to boundary face {f}")
        if rate < 0:
            exiting.append(f)
    return cx.closure(exiting)
