"""Generated inputs, one contract: a seeded, stdlib-only corpus of
connected polyominoes and polycubes under random nonzero integer fields.

Each unit cube is cut into its Kuhn simplices, one per order of the axes
(the triangulation of ``grid_square`` and of the staircase ``product``),
so every draw is a valid geometric complex. For every transverse draw,
``flow_matching`` must return a matching that validates or raise a
``PreconditionError``; any other exception fails the test. The verdict
must also be the one predicted by the mate rule's pairs, built from the
structure's public fields alone."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest

from cellmatch import (
    GeometricComplex,
    NotTransverseError,
    PreconditionError,
    SubcomplexPair,
    flow_matching,
    flow_structure,
    from_simplices,
    io,
    validate_matching,
)
from cellmatch.cli import main

from conftest import derivatives_by_cramer, flow_matching_by_vertex_sets


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
