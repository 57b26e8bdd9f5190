"""Seeded inputs and op lists of the three benchmark workloads.

The complexes are generated here, not by cellmatch, so that the checks in
``checks.py`` have their own ground truth. A labelling key (derived from
the seed) permutes the vertex labels of every complex, together with its
coordinates; cellmatch sees only the files written here. Each op is one ``cellmatch.cli.main(argv)``
call with an expected exit code and an independent check of its artifact.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from checks import (
    CheckError,
    Cx,
    barycentric_tops,
    cell_id,
    check_betti,
    check_certificate,
    check_complex,
    check_matching,
    check_orbit_report,
    exiting_base,
    load,
)

# Subcommand metrics of each workload, in the order of the generic
# end-to-end names cmd1_s, cmd2_s, cmd3_s (every run must report every
# end-to-end metric, so the names are shared across workloads).
GROUPS = {
    "hall": ("match_s", "orbits_s", "enumerate_s"),
    "exact": ("homology_s", "acyclic_s", "pipeline_s"),
    "construct": ("subdivide_s", "flow_s", "dualloop_s"),
}

S3_MATCHINGS = 82584  # complete matchings of sphere_boundary(4), any labelling
TORUS_BETTI = (1, 2, 1)


# -- generators: maximal simplices and optional exact coordinates ----------


def torus7():
    return [t for i in range(7) for t in ((i, (i + 1) % 7, (i + 3) % 7),
                                          (i, (i + 2) % 7, (i + 3) % 7))], None


def wedge():
    loops = [(0, 4), (4, 5), (0, 5), (0, 6), (6, 7), (0, 7)]
    return list(combinations(range(4), 3)) + loops, None


def sphere_boundary(k: int):
    return list(combinations(range(k + 1), k)), None


def interval(k: int):
    return [(i, i + 1) for i in range(k)], {i: (Fraction(i, k),) for i in range(k + 1)}


def path(k: int):
    return [(i, i + 1) for i in range(k)], None


def grid_square(m: int):
    def v(i, j):
        return j * (m + 1) + i

    tops = []
    for i in range(m):
        for j in range(m):
            tops.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tops.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    coords = {v(i, j): (Fraction(i), Fraction(j)) for i in range(m + 1) for j in range(m + 1)}
    return tops, coords


def product(a, b):
    """Staircase triangulation: one top simplex per monotone lattice path
    through the vertex grid of each pair of maximal simplices."""
    (tops_a, coords_a), (tops_b, coords_b) = a, b
    stride = max(v for t in tops_b for v in t) + 1
    tops = []
    for sa in tops_a:
        for sb in tops_b:
            sa, sb = sorted(sa), sorted(sb)
            for steps in _lattice_paths(len(sa) - 1, len(sb) - 1):
                tops.append(tuple(sa[i] * stride + sb[j] for i, j in steps))
    coords = {u * stride + w: coords_a[u] + coords_b[w] for u in coords_a for w in coords_b}
    return tops, coords


def _lattice_paths(p: int, q: int):
    paths = [[(0, 0)]]
    for _ in range(p + q):
        paths = [pth + [(i + di, j + dj)] for pth in paths
                 for (i, j) in (pth[-1],) for di, dj in ((1, 0), (0, 1))
                 if i + di <= p and j + dj <= q]
    return paths


def barycentric(spec):
    return barycentric_tops(spec[0]), None


def relabel(spec, name: str, labelling: str):
    """Permute the vertex labels to 0..n-1 by a permutation drawn from the
    labelling key; coordinates move with their vertices."""
    tops, coords = spec
    verts = sorted({v for t in tops for v in t}, key=lambda v: (isinstance(v, str), v))
    perm = list(range(len(verts)))
    random.Random(f"{name}:{labelling}").shuffle(perm)
    new = dict(zip(verts, perm))
    out_tops = [tuple(new[v] for v in t) for t in tops]
    out_coords = None if coords is None else {new[v]: coords[v] for v in verts}
    return out_tops, out_coords, new


# -- files ------------------------------------------------------------------


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def complex_obj(tops, coords) -> dict:
    obj = {"format": "cellmatch-complex-v1", "kind": "simplicial",
           "simplices": [list(t) for t in tops]}
    if coords is not None:
        obj["coordinates"] = {str(v): [f"{x.numerator}/{x.denominator}" for x in p]
                              for v, p in coords.items()}
    return obj


@dataclass
class Op:
    name: str
    group: str
    argv: list[str]
    expect: int
    artifacts: list[str]  # the first one is passed to ``check``
    check: Callable[[object, str], None]  # (loaded artifact or None, stdout)
    kind: str  # artifact kind, for the corruption self-test
    cx: str | None  # the complex the artifact lives on


class Inputs:
    """Writes one workload's input files and builds its op list."""

    def __init__(self, labelling: str, work: str, lib):
        self.labelling, self.work, self.lib = labelling, work, lib
        self.ops: list[Op] = []
        self.defects: list[Op] = []  # known-defect ops: run once, untimed, not counted
        self.tops: dict[str, list] = {}
        self.coords: dict[str, dict | None] = {}
        self.labels: dict[str, dict] = {}
        self._cx: dict[str, Cx] = {}
        os.makedirs(os.path.join(work, "out"), exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name + ".json")

    def out(self, name: str) -> str:
        return os.path.join(self.work, "out", name + ".json")

    def add_complex(self, name: str, spec) -> str:
        tops, coords, labels = relabel(spec, name, self.labelling)
        self.tops[name], self.coords[name], self.labels[name] = tops, coords, labels
        _write(self.path(name), complex_obj(tops, coords))
        return self.path(name)

    def vertex(self, name: str, original) -> str:
        return cell_id([self.labels[name][original]])

    def add_rel(self, name: str, cells) -> str:
        path = self.path(name + "_rel")
        _write(path, {"format": "cellmatch-sub-v1", "cells": sorted(cells), "closure": False})
        return path

    def library_matching(self, name: str, rel=()) -> str:
        """A complete matching made by cellmatch, used only as an input."""
        lib = self.lib
        cx = lib.io.load_complex(self.path(name))
        outcome = lib.matching.complete_matching(lib.complexes.SubcomplexPair(cx, rel))
        if not isinstance(outcome, lib.matching.Matching):
            raise CheckError(f"set-up could not match {name}")
        path = self.path(name + "_match")
        lib.io.save_matching(outcome, path)
        return path

    def cx(self, name: str) -> Cx:
        if name not in self._cx:
            self._cx[name] = Cx(self.tops[name])
        return self._cx[name]

    def release(self) -> None:
        """Drop the face tables once the checks are done, so that they do
        not add to the run's peak memory later."""
        self._cx.clear()

    def op(self, name, group, argv, expect, check, kind, cx=None, flag="-o", extra=()):
        out = self.out(name)
        self.ops.append(Op(name, group, argv + [flag, out], expect, [out, *extra],
                           check, kind, cx))

    def matching_op(self, name, group, argv, cx, base):
        def check(obj, stdout):
            check_matching(self.cx(cx), base, obj)
        self.op(name, group, argv, 0, check, "matching", cx)


def setup_hall(inp: Inputs) -> None:
    g20 = inp.add_complex("g20", grid_square(20))
    v = inp.vertex("g20", 0)
    g20_rel = inp.add_rel("g20", [v])
    g20_match = inp.library_matching("g20", [v])
    t2 = inp.add_complex("t2", barycentric(barycentric(torus7())))
    wedge_path = inp.add_complex("wedge", wedge())
    p = inp.add_complex("path", path(5000))
    p0 = inp.vertex("path", 0)
    p_rel = inp.add_rel("path", [p0])
    i3000 = inp.add_complex("i3000", interval(3000))
    i0 = inp.vertex("i3000", 0)
    i_rel = inp.add_rel("i3000", [i0])
    lab = inp.labels["i3000"]
    i_match = inp.path("i3000_match")
    _write(i_match, {  # the unique matching: each edge with its far vertex
        "format": "cellmatch-matching-v1", "relative_to": [i0],
        "pairs": sorted(sorted([cell_id([lab[k], lab[k + 1]]), cell_id([lab[k + 1]])])
                        for k in range(3000)),
    })
    s4 = inp.add_complex("s4", sphere_boundary(4))

    def cert(name, argv, cx):
        def check(obj, stdout):
            check_certificate(inp.cx(cx), (), obj)
        inp.op(name, "match_s", argv, 2, check, "certificate", cx)

    def orbits(name, argv, cx, match_path):
        def check(obj, stdout):
            check_orbit_report(inp.cx(cx), load(match_path), obj)
        inp.op(name, "orbits_s", argv + ["--matching", match_path], 0, check, "orbits", cx)

    def count(obj, stdout):
        if stdout.strip() != str(S3_MATCHINGS) or obj["count"] != S3_MATCHINGS:
            raise CheckError(f"count {stdout.strip()}, expected {S3_MATCHINGS}")

    inp.matching_op("match_g20", "match_s", ["match", g20, "--rel", g20_rel], "g20", [v])
    cert("match_hall_g20", ["match", g20, "--method", "hall"], "g20")
    inp.matching_op("match_t2", "match_s", ["match", t2], "t2", ())
    cert("match_hall_wedge", ["match", wedge_path, "--method", "hall"], "wedge")
    # Known defect: Hopcroft-Karp recursion overflows on this path on most
    # labellings. The op expects success and runs once per labelling,
    # untimed and outside the op counts, so that the failure is printed
    # until it is fixed without making the failed count depend on how many
    # passes fit in a run.
    inp.matching_op("match_path5000", "match_s", ["match", p, "--rel", p_rel], "path", [p0])
    inp.defects.append(inp.ops.pop())
    orbits("orbits_g20", ["orbits", g20, "--rel", g20_rel], "g20", g20_match)
    orbits("orbits_i3000", ["orbits", i3000, "--rel", i_rel], "i3000", i_match)
    inp.op("enumerate_s4", "enumerate_s", ["enumerate", s4], 0, count, "count")


def setup_exact(inp: Inputs) -> None:
    def betti(name, argv, field, expected):
        def check(obj, stdout):
            check_betti(obj, field, expected)
        inp.op(name, "homology_s", argv + ["--field", field], 0, check, "betti")

    for m in (8, 12):
        inp.add_complex(f"g{m}", grid_square(m))
        inp.add_rel(f"g{m}", [inp.vertex(f"g{m}", 0)])
    t1 = inp.add_complex("t1", barycentric(torus7()))
    t2 = inp.add_complex("t2", barycentric(barycentric(torus7())))
    s4 = inp.add_complex("s4", sphere_boundary(4))
    s6 = inp.add_complex("s6", sphere_boundary(6))

    betti("homology_g12", ["homology", inp.path("g12"), "--rel", inp.path("g12_rel")],
          "q", (0, 0, 0))
    betti("homology_t1", ["homology", t1], "q", TORUS_BETTI)
    betti("homology_t2_f2", ["homology", t2], "f2", TORUS_BETTI)
    for m in (8, 12):
        g = f"g{m}"
        inp.matching_op(f"acyclic_{g}", "acyclic_s",
                        ["match", inp.path(g), "--rel", inp.path(g + "_rel"),
                         "--method", "acyclic"], g, [inp.vertex(g, 0)])
    for name, path_ in (("s4", s4), ("s6", s6)):
        inp.matching_op(f"pipeline_{name}", "pipeline_s", ["pipeline", "sphere", path_],
                        name, ())


def setup_construct(inp: Inputs) -> None:
    sources = {
        "torus7": torus7(),
        "t1": barycentric(torus7()),
        "t2": barycentric(barycentric(torus7())),
        "s4": sphere_boundary(4),
    }
    for name, spec in sources.items():
        source = inp.add_complex(name, spec)
        match = inp.library_matching(name)
        sub = "sub_" + name
        inp.tops[sub] = barycentric_tops(inp.tops[name])
        sub_out = inp.out(sub)

        def check(obj, stdout, sub=sub, sub_out=sub_out):
            check_complex(load(sub_out), inp.tops[sub])
            check_matching(inp.cx(sub), (), obj)

        inp.op(f"subdivide_{name}", "subdivide_s",
               ["subdivide", source, "-o", sub_out, "--propagate", match], 0, check,
               "matching", sub, flag="--matching-out", extra=[sub_out])
    g20 = inp.add_complex("g20", grid_square(20))
    prod = inp.add_complex("prod", product(interval(4), grid_square(8)))
    for name, path_, field in (("g20", g20, "1,-3"), ("prod", prod, "1,-3,5")):
        def check(obj, stdout, name=name, field=field):
            cx = inp.cx(name)
            vec = [Fraction(x) for x in field.split(",")]
            check_matching(cx, exiting_base(cx, inp.coords[name], vec), obj)

        inp.op(f"flow_{name}", "flow_s", ["flow", path_, "--field", field], 0, check,
               "matching", name)

    def no_loop(obj, stdout):
        if obj is not None:
            raise CheckError("a loop was written although the budget ran out")

    inp.op("dualloop_t1", "dualloop_s",
           ["dualloop", "find", inp.path("t1"), "--complement-empty", "--budget", "2000"],
           2, no_loop, "none")


SETUPS = {"hall": setup_hall, "exact": setup_exact, "construct": setup_construct}
