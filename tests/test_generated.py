"""Generated inputs, one contract. First, a seeded, stdlib-only corpus of
connected polyominoes and polycubes under random nonzero integer fields.

Each unit cube is cut into its Kuhn simplices, one per order of the axes
(the triangulation of ``grid_square`` and of the staircase ``product``),
so every draw is a valid geometric complex. For every transverse draw,
``flow_matching`` must return a matching that validates or raise a
``PreconditionError``; any other exception fails the test. The verdict
must also be the one predicted by the mate rule's pairs, built from the
structure's public fields alone.

Second, bundled complexes and two files whose vertex sets clash on a cell
id, each written again with its simplices, tokens and coordinates
shuffled, and with its tokens relabelled. Every subcommand that applies
runs through ``cli.main``: a shuffled listing must change no byte of its
output, and a relabelled file's artifacts must pass the conftest
oracles."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, permutations
from types import SimpleNamespace

import pytest

from cellmatch import (
    GeometricComplex,
    Matching,
    NotTransverseError,
    PreconditionError,
    SubcomplexPair,
    direction,
    flow_matching,
    flow_structure,
    from_simplices,
    io,
    validate_matching,
)
from cellmatch.cli import main
from cellmatch.generators import (
    circle,
    cone,
    grid_square,
    interval,
    product,
    sphere_boundary,
    torus7,
    wedge,
)

from conftest import (
    count_matchings_by_permutations,
    dense_boundary,
    dense_pivot_columns,
    derivatives_by_cramer,
    dual_loops_by_rewalk,
    face_poset_chains,
    flow_matching_by_vertex_sets,
    flow_structure_by_resolve,
    hopcroft_karp_by_ids,
    simplicial_tables_by_combinations,
    sphere_pipeline_by_recursion,
    verify_by_incidence_graph,
)


def _polycube(rng: random.Random, shape: tuple[int, ...], size: int) -> list[tuple[int, ...]]:
    """``size`` unit cubes of the box ``shape``, face-connected: grown from
    a random cube, each step trying a random axis neighbour of a random
    cube already taken."""
    cubes = {tuple(rng.randrange(n) for n in shape)}
    while len(cubes) < size:
        cube = list(rng.choice(sorted(cubes)))
        axis = rng.randrange(len(shape))
        cube[axis] += rng.choice((-1, 1))
        if 0 <= cube[axis] < shape[axis]:
            cubes.add(tuple(cube))
    return sorted(cubes)


def _kuhn(cubes, shape) -> GeometricComplex:
    """The cubes, each cut into one simplex per order of the axes: the
    path from its lowest to its highest corner that steps along the axes
    in that order. Lattice points are int tokens, with integer coordinates."""
    strides = [1]
    for n in shape[:-1]:
        strides.append(strides[-1] * (n + 1))
    coords = {}
    tops = []
    for cube in cubes:
        for order in permutations(range(len(shape))):
            point = list(cube)
            path = [tuple(point)]
            for axis in order:
                point[axis] += 1
                path.append(tuple(point))
            top = [sum(x * s for x, s in zip(p, strides)) for p in path]
            coords.update(zip(top, (tuple(map(Fraction, p)) for p in path)))
            tops.append(top)
    return GeometricComplex(from_simplices(tops, coordinates=coords))


def _field(rng: random.Random, dim: int) -> tuple[int, ...]:
    field = (0,) * dim
    while not any(field):
        field = tuple(rng.randint(-4, 4) for _ in range(dim))
    return field


# family: (seed, box, fewest and most cubes, draws)
_FAMILIES = {
    "polyominoes": (1, (4, 4), (1, 8), 400),
    "polycubes": (2, (2, 3, 3), (1, 6), 160),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_every_transverse_draw_gets_a_matching_or_a_precondition_error(family):
    seed, shape, (fewest, most), draws = _FAMILIES[family]
    rng = random.Random(seed)
    outcomes = {"matched": 0, "refused": 0}
    for _ in range(draws):
        cubes = _polycube(rng, shape, rng.randint(fewest, most))
        field = _field(rng, len(shape))
        geom = _kuhn(cubes, shape)
        try:
            fs = flow_structure(geom, field)
        except NotTransverseError:
            continue
        except PreconditionError:
            outcomes["refused"] += 1
            continue
        pair = SubcomplexPair(geom.complex, fs.split.exiting)
        predicted = validate_matching(pair, flow_matching_by_vertex_sets(fs)).ok
        try:
            matching = flow_matching(fs)
        except PreconditionError:
            assert not predicted, (cubes, field)
            outcomes["refused"] += 1
        else:
            assert predicted and validate_matching(pair, matching).ok, (cubes, field)
            outcomes["matched"] += 1
    assert outcomes["matched"] and outcomes["refused"], outcomes


def _claims_an_exiting_cell(geom: GeometricComplex, field) -> bool:
    """Whether a top simplex is downstream-claimant of a cell of the exiting
    closure: the cell is a face of it holding all its falling vertices.
    Read off the derivatives by Cramer's rule and the exiting facets."""
    X = geom.complex
    derivs = derivatives_by_cramer(geom, field)
    exiting = set()
    for f in X.cells_of_dim(X.dim - 1):
        tops = X.cofacets(f)
        if len(tops) == 1:
            (tip,) = set(X.vertices(tops[0])) - set(X.vertices(f))
            if derivs[tops[0]][tip] < 0:
                exiting |= X.faces(f) | {f}
    return any(
        set(X.vertices(c)) <= set(X.vertices(t))
        and all(derivs[t][u] > 0 for u in X.vertices(t) if u not in X.vertices(c))
        for t in X.top_cells()
        for c in exiting
    )


# Polycubes in the box (2, 3, 3) where a top simplex claims a cell of the
# exiting closure and the mate rule is still a complete matching, so that
# "no top claims a cell of the exiting closure" is not the exact condition.
_CLAIMED_YET_MATCHED = {
    "bent_up": ([(0, 0, 1), (0, 0, 2), (1, 0, 2)], (2, -1, 1)),
    "bent_flat": ([(0, 0, 0), (0, 1, 0), (1, 1, 0)], (1, 2, 3)),
}


@pytest.mark.parametrize("case", list(_CLAIMED_YET_MATCHED))
def test_a_claimed_exiting_cell_does_not_rule_out_the_matching(case):
    cubes, field = _CLAIMED_YET_MATCHED[case]
    geom = _kuhn(cubes, (2, 3, 3))
    assert _claims_an_exiting_cell(geom, field)
    fs = flow_structure(geom, field)
    pair = SubcomplexPair(geom.complex, fs.split.exiting)
    assert validate_matching(pair, flow_matching(fs)).ok


def test_cli_flow_refuses_a_polycube_whose_mate_leaves_the_rel_cells(tmp_path, capsys):
    """Three cubes of the box (2, 3, 3) in an L: the rel edge 0.13 would be
    paired with its vertex 13, at (1, 0, 1), of the exiting closure. The
    Euler characteristic rel that closure is 0, so the message names only
    the pair."""
    path = tmp_path / "cubes.json"
    io.save_complex(_kuhn([(0, 0, 0), (1, 0, 0), (1, 0, 1)], (2, 3, 3)).complex, str(path))
    assert main(["flow", str(path), "--field", "-2,1,-1"]) == 3
    assert capsys.readouterr().err == (
        "cellmatch: the flow mate of 0.13 in its downstream simplex 0.12.13.16 is 13, "
        "which lies in the exiting closure\n"
    )


# Listing order and labels: each input is a complex file, and the field
# to run ``flow`` with when it has coordinates. The generator writes the
# file again with its maximal simplices, each simplex's tokens and its
# coordinates listed in a random order, and with its tokens relabelled.
# The last two files clash: two distinct vertex sets would share a cell id.
_LISTED = {
    "torus7": (io.encode_complex(torus7()), None),
    "sphere_boundary4": (io.encode_complex(sphere_boundary(4)), None),
    "wedge": (io.encode_complex(wedge()), None),
    "grid_square3": (io.encode_complex(grid_square(3)), "1,3"),
    "product": (io.encode_complex(product(interval(2), grid_square(2))), "1,3,9"),
    "cone_circle5": (io.encode_complex(cone(circle(5))), None),
    "dotted_token_and_edge": (
        {"format": io.COMPLEX_FORMAT, "kind": "simplicial", "simplices": [["1.2"], [1, 2]]}, None
    ),
    "int_and_str_token": (
        {"format": io.COMPLEX_FORMAT, "kind": "simplicial", "simplices": [[1, 2], ["1", 3]]}, None
    ),
}


def _shuffled(obj: dict, rng: random.Random) -> dict:
    """The file ``obj`` with its simplices, the tokens of each simplex and
    its coordinates listed in a random order."""
    simplices = rng.sample(obj["simplices"], len(obj["simplices"]))
    out = dict(obj, simplices=[rng.sample(s, len(s)) for s in simplices])
    if "coordinates" in obj:
        points = list(obj["coordinates"].items())
        out["coordinates"] = dict(rng.sample(points, len(points)))
    return out


def _relabelled(obj: dict, rng: random.Random, kind) -> dict:
    """The file ``obj`` with its tokens moved to distinct random labels of
    ``range(3 * n)``, as ``kind`` (int or str), coordinates carried along."""
    tokens = sorted({t for s in obj["simplices"] for t in s}, key=str)
    perm = dict(zip(tokens, map(kind, rng.sample(range(3 * len(tokens)), len(tokens)))))
    out = dict(obj, simplices=[[perm[t] for t in s] for s in obj["simplices"]])
    if "coordinates" in obj:
        out["coordinates"] = {str(perm[t]): obj["coordinates"][str(t)] for t in tokens}
    return out


def _run_every_subcommand(obj: dict, field: str | None, folder, capsys) -> dict:
    """Write ``obj`` to ``folder`` and run each subcommand on it through
    ``cli.main``, its artifacts written beside it: each run's exit code,
    stdout and stderr by name."""
    folder.mkdir()
    path = str(folder / "complex.json")
    io.write_json(path, obj)
    runs = {
        "chi": ["chi", path],
        "match_auto": ["match", path, "--method", "auto"],
        "match_hall": ["match", path, "--method", "hall"],
        "homology_q": ["homology", path, "--field", "q"],
        "homology_f2": ["homology", path, "--field", "f2"],
        "subdivide": ["subdivide", path, "--map-out", str(folder / "map.json")],
        "pipeline": ["pipeline", "sphere", path],
        "dualloop": ["dualloop", "find", path, "--complement-empty", "--budget", "30"],
        "enumerate": ["enumerate", path, "--bound", "60", "--limit", "3"],
    }
    if field is not None:
        runs["flow"] = ["flow", path, "--field", field]
    outcomes = {}
    for name, argv in runs.items():
        if name != "chi":  # the one subcommand without -o
            argv += ["-o", str(folder / f"{name}.json")]
        code = main(argv)
        outcomes[name] = (code, *capsys.readouterr())
    return outcomes


def _artifacts(folder) -> dict[str, bytes]:
    """The bytes of every file the runs wrote in ``folder``."""
    return {p.name: p.read_bytes() for p in folder.iterdir() if p.name != "complex.json"}


def _check_by_oracles(obj: dict, field: str | None, folder, outcomes: dict, invariant: dict):
    """Every artifact of the runs on ``obj`` against the conftest oracles.
    ``invariant`` holds what relabelling cannot change: the enumerated
    count, the plain file's when it loads, and the Betti numbers. What it
    lacks is found on ``obj``, the count by permutations."""
    tables = simplicial_tables_by_combinations(obj["simplices"])
    X = io.load_complex(str(folder / "complex.json"))
    pair = SubcomplexPair(X)

    def artifact(name):
        return io.read_json(str(folder / f"{name}.json"))

    assert int(outcomes["chi"][1]) == sum((-1) ** d for d in tables["dims"].values())
    for name in ("match_auto", "match_hall"):
        code = outcomes[name][0]
        assert isinstance(hopcroft_karp_by_ids(pair), Matching) == (code == 0), name
        if code == 0:
            assert validate_matching(pair, io.decode_matching(artifact(name))).ok
        else:
            assert verify_by_incidence_graph(io.decode_certificate(artifact(name)), pair)
    counts = Counter(tables["dims"].values())
    for f in ("q", "f2"):
        if f not in invariant:
            ranks = [
                len(dense_pivot_columns(dense_boundary(pair, d, f), f)) for d in range(X.dim + 2)
            ]
            invariant[f] = tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(X.dim + 1))
        assert io.decode_betti(artifact(f"homology_{f}")).betti == invariant[f]
    # the face poset from the oracle's vertex tuples: a cell's faces are
    # the ids of its proper nonempty vertex subsets
    faces = {
        c: {".".join(map(str, s)) for k in range(1, len(v)) for s in combinations(v, k)}
        for c, v in tables["verts"].items()
    }
    poset = SimpleNamespace(cells=lambda: tables["order"], faces=faces.__getitem__)
    chains = {frozenset("b" + c for c in ch) for ch in face_poset_chains(poset)}
    tops = artifact("subdivide")["simplices"]
    written = {frozenset(f) for t in tops for k in range(len(t)) for f in combinations(t, k + 1)}
    assert written == chains
    if outcomes["pipeline"][0] == 0:
        assert io.decode_matching(artifact("pipeline")) == sphere_pipeline_by_recursion(X)
    if outcomes["dualloop"][0] == 0:
        loop = io.decode_loop(artifact("dualloop")).cells
        assert loop in islice(dual_loops_by_rewalk(X), 30)
    if field is not None and outcomes["flow"][0] == 0:
        fs = flow_structure_by_resolve(GeometricComplex(X), direction(*field.split(",")))
        assert io.decode_matching(artifact("flow")) == flow_matching_by_vertex_sets(fs)
    code, out, _ = outcomes["enumerate"]
    if code == 0:
        if "count" not in invariant:
            invariant["count"] = count_matchings_by_permutations(pair)
        assert int(out) == invariant["count"]
        for m in artifact("enumerate")["matchings"]:
            assert validate_matching(pair, io.decode_matching(m)).ok


@pytest.mark.parametrize("name", list(_LISTED))
def test_listing_order_and_labels_change_no_verdict(name, tmp_path, capsys):
    """Three shuffled listings of each input give the exit code, stdout,
    stderr and artifact bytes of the plain file, a clash on a cell id
    included; two relabellings, by ints and by strs, each exit with 0, 1,
    2 or 3, and their artifacts pass the oracles."""
    obj, field = _LISTED[name]
    rng = random.Random(name)
    plain = _run_every_subcommand(obj, field, tmp_path / "plain", capsys)
    written = _artifacts(tmp_path / "plain")
    for i in range(3):
        folder = tmp_path / f"shuffled{i}"
        assert _run_every_subcommand(_shuffled(obj, rng), field, folder, capsys) == plain, i
        assert _artifacts(folder) == written, i
    code, out, _ = plain["enumerate"]
    invariant = {"count": int(out)} if code == 0 else {}
    for kind in (int, str):
        relabelled = _relabelled(_shuffled(obj, rng), rng, kind)
        folder = tmp_path / f"relabelled_{kind.__name__}"
        outcomes = _run_every_subcommand(relabelled, field, folder, capsys)
        assert {code for code, _, _ in outcomes.values()} <= {0, 1, 2, 3}, outcomes
        _check_by_oracles(relabelled, field, folder, outcomes, invariant)
