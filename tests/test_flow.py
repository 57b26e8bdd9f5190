from __future__ import annotations

import dataclasses
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from cellmatch import (
    GeometricComplex,
    InvalidComplexError,
    NotTransverseError,
    PreconditionError,
    SubcomplexPair,
    check_transverse,
    direction,
    euler_characteristic,
    flow_matching,
    flow_structure,
    from_simplices,
    orbit_analysis,
    validate_matching,
)
from cellmatch import cli, io
from cellmatch.generators import grid_square, interval, product

from conftest import (
    affinely_independent_by_minors,
    flow_matching_by_vertex_sets,
    flow_structure_by_resolve,
    subprocess_env,
)


def _triangle() -> GeometricComplex:
    coords = {
        0: (Fraction(0), Fraction(0)),
        1: (Fraction(1), Fraction(0)),
        2: (Fraction(1, 2), Fraction(1)),
    }
    return GeometricComplex(from_simplices([[0, 1, 2]], coordinates=coords))


def test_direction_parsing():
    assert direction("1/2", 3) == (Fraction(1, 2), Fraction(3))
    with pytest.raises(InvalidComplexError):
        direction(0, 0)
    with pytest.raises(InvalidComplexError):
        direction(0.5, 1)


def test_triangle_split_downward():
    split = check_transverse(_triangle(), (0, -1))
    assert split.exiting_hyperfaces == {"0.1"}
    assert split.entering_hyperfaces == {"0.2", "1.2"}
    assert split.exiting == {"0", "1", "0.1"}
    assert split.entering == {"0", "1", "2", "0.2", "1.2"}


def test_triangle_split_upward_flips():
    split = check_transverse(_triangle(), (0, 1))
    assert split.exiting_hyperfaces == {"0.2", "1.2"}
    assert split.entering_hyperfaces == {"0.1"}


def test_triangle_structure():
    fs = flow_structure(_triangle(), (0, -1))
    assert fs.downstream["2"] == "0.1.2"
    assert fs.downstream["0.2"] == "0.1.2"
    assert fs.downstream["1.2"] == "0.1.2"
    assert fs.unstable["0.1.2"] >= {"0.1"}
    assert fs.unstable_core["0.1.2"] == "0.1"
    assert fs.base_vertex["0.1.2"] == 0  # lowest-id rule picks vertex 0


def test_triangle_matching_both_bases():
    fs = flow_structure(_triangle(), (0, -1))
    m = flow_matching(fs)
    assert m.pairs == {("0.2", "2"), ("0.1.2", "1.2")}

    fs_b = dataclasses.replace(fs, base_vertex={"0.1.2": 1})
    m_b = flow_matching(fs_b)
    assert m_b.pairs == {("1.2", "2"), ("0.1.2", "0.2")}


def test_grid_boundary_split():
    geom = GeometricComplex(grid_square(3))
    split = check_transverse(geom, (1, -3))

    def v(i, j):
        return j * 4 + i

    bottom = {f"{min(v(i,0), v(i+1,0))}.{max(v(i,0), v(i+1,0))}" for i in range(3)}
    right = {f"{min(v(3,j), v(3,j+1))}.{max(v(3,j), v(3,j+1))}" for j in range(3)}
    assert split.exiting_hyperfaces == bottom | right
    top = {f"{min(v(i,3), v(i+1,3))}.{max(v(i,3), v(i+1,3))}" for i in range(3)}
    left = {f"{min(v(0,j), v(0,j+1))}.{max(v(0,j), v(0,j+1))}" for j in range(3)}
    assert split.entering_hyperfaces == top | left


def test_grid_vertical_field_degenerate():
    geom = GeometricComplex(grid_square(2))
    with pytest.raises(NotTransverseError) as err:
        check_transverse(geom, (0, -1))
    assert len(err.value.simplices) == 6  # all vertical edges


def test_interval_structure():
    geom = GeometricComplex(interval(4))
    fs = flow_structure(geom, (-1,))
    assert fs.rel_base() == {"0"}
    for i in range(1, 5):
        edge = f"{i - 1}.{i}"
        assert fs.unstable_core[edge] == str(i - 1)
        assert fs.base_vertex[edge] == i - 1
    m = flow_matching(fs)
    assert m.pairs == {(f"{i - 1}.{i}", f"{i}") for i in range(1, 5)}


def test_interior_hyperface_is_d_of_one_and_u_of_other():
    geom = GeometricComplex(grid_square(3))
    fs = flow_structure(geom, (1, -3))
    X = geom.complex
    for f in X.cells_of_dim(1):
        cofs = sorted(X.cofaces(f))
        if len(cofs) != 2:
            continue
        d, u = fs.downstream[f], fs.upstream[f]
        assert {d, u} == set(cofs)


def test_face_laws_exhaustive():
    geom = GeometricComplex(grid_square(2))
    fs = flow_structure(geom, (1, -3))
    X = geom.complex
    for top in X.top_cells():
        hyper = X.hyperfaces(top)
        stable_h = {f for f in hyper if f in fs.stable[top]}
        unstable_h = {f for f in hyper if f in fs.unstable[top]}
        # dichotomy and non-emptiness
        assert stable_h | unstable_h == set(hyper)
        assert not (stable_h & unstable_h)
        assert stable_h and unstable_h
        assert fs.unstable_core[top] in X.faces(top) | {top}
        # face stability law
        for face in list(X.faces(top)) + [top]:
            is_stable = face in fs.stable[top]
            hyper_containing = [
                f for f in hyper if face == f or face in X.faces(f)
            ] if face != top else []
            if face == top:
                continue
            expected = all(f in stable_h for f in hyper_containing)
            if face in fs.split.exiting:
                assert not is_stable
            else:
                assert is_stable == expected


def test_involution_and_d_compatibility():
    geom = GeometricComplex(grid_square(3))
    fs = flow_structure(geom, (1, -3))
    m = flow_matching(fs)
    pair = SubcomplexPair(geom.complex, fs.rel_base())
    assert validate_matching(pair, m).ok
    for a, b in m.pairs:
        assert fs.downstream[a] == fs.downstream[b]
        assert m.mate(m.mate(a)) == a


def test_seeded_random_bases_all_validate():
    geom = GeometricComplex(grid_square(2))
    matchings = set()
    for seed in range(10):
        fs = flow_structure(geom, (1, -3), base_rule="random", seed=seed)
        m = flow_matching(fs)
        pair = SubcomplexPair(geom.complex, fs.rel_base())
        assert validate_matching(pair, m).ok
        matchings.add(m.pairs)
    # determinism for equal seeds
    fs_again = flow_structure(geom, (1, -3), base_rule="random", seed=3)
    m3 = flow_matching(flow_structure(geom, (1, -3), base_rule="random", seed=3))
    assert m3 == flow_matching(fs_again)


def test_chi_rel_exiting_is_zero():
    for geom, vec in [
        (GeometricComplex(grid_square(3)), (1, -3)),
        (GeometricComplex(interval(7)), (-1,)),
        (_triangle(), (0, -1)),
    ]:
        split = check_transverse(geom, vec)
        pair = SubcomplexPair(geom.complex, split.exiting)
        assert euler_characteristic(pair) == 0


def test_orbit_analysis_runs_on_flow_matchings():
    # observational only: classification is not asserted either way
    geom = GeometricComplex(grid_square(2))
    fs = flow_structure(geom, (1, -3))
    m = flow_matching(fs)
    pair = SubcomplexPair(geom.complex, fs.rel_base())
    report = orbit_analysis(pair, m)
    assert report.classification in ("acyclic", "cyclic")


def test_degenerate_simplex_rejected():
    for simplex, coords in [
        ([0, 1, 2], {0: (0, 0), 1: (1, 1), 2: (2, 2)}),
        ([0, 1, 2], {0: (0, 0, 0), 1: ("1/3", -1, 2), 2: ("2/3", -2, 4)}),  # collinear in R^3
        ([0, 1], {0: ("1/2", "-1/3"), 1: ("1/2", "-1/3")}),  # zero length in R^2
    ]:
        X = from_simplices([simplex], coordinates=coords)
        with pytest.raises(InvalidComplexError) as err:
            GeometricComplex(X)
        assert str(err.value) == f"degenerate top simplex {X.top_cells()[0]}"


_SPACE = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1), 4: (0, -1, 0)}


@pytest.mark.parametrize(
    "simplices, coords, message",
    [
        ([[0, 1]], None, "geometric complexes require coordinates"),
        ([[0, 1, 2]], {0: (0, 0), 2: (0, 1)}, "missing coordinates for vertices [1]"),
        ([[0, 1]], {0: (0,), 1: (1, 0)}, "all coordinates must have the same length"),
        ([[0, 1, 2]], {0: (0,), 1: (1,), 2: (2,)}, "ambient dimension 1 below complex dimension 2"),
        (
            [[0, 1, 2], [0, 1, 3], [0, 1, 4]], _SPACE,
            "codimension-1 simplex 0.1 bounds more than two top simplices",
        ),
    ],
    ids=["no_coordinates", "vertex_without", "two_lengths", "ambient_below", "three_tops"],
)
def test_geometric_complex_rejects_bad_embeddings(simplices, coords, message):
    X = from_simplices(simplices, coordinates=coords)
    with pytest.raises(InvalidComplexError) as err:
        GeometricComplex(X)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "make, rule, seed, error, message",
    [
        (_triangle, "highest", None, ValueError, "base_rule must be 'lowest' or 'random'"),
        (_triangle, "random", None, ValueError, "base_rule 'random' requires a seed"),
        (
            lambda: GeometricComplex(from_simplices([[0]], coordinates={0: (0,)})),
            "lowest", None, PreconditionError, "flow structures need dimension at least 1",
        ),
    ],
    ids=["unknown_rule", "random_without_seed", "zero_dimensional"],
)
def test_flow_structure_rejects_bad_arguments(make, rule, seed, error, message):
    geom = make()
    with pytest.raises(error) as err:
        flow_structure(geom, (1,) * geom.ambient_dim, base_rule=rule, seed=seed)
    assert str(err.value) == message


def test_float_coordinates_rejected():
    with pytest.raises(InvalidComplexError, match="float"):
        from_simplices([[0, 1]], coordinates={0: (0.0,), 1: (1.0,)})


def test_field_not_tangent_reported():
    # a 1-complex in the plane and a 2-complex in space, fields off them
    for geom, field in [(_segment_in_plane(), (0, 1)), (_tilted_grid(), (1, -3, 1))]:
        with pytest.raises(NotTransverseError) as err:
            check_transverse(geom, field)
        top = geom.complex.top_cells()[0]
        assert str(err.value) == f"field is not tangent to top simplex {top}"


def test_non_simplicial_rejected():
    from cellmatch import build_cw

    X = build_cw([
        ("u", 0, []), ("v", 0, []),
        ("e", 1, ["u", "v"]), ("f", 1, ["u", "v"]),
    ])
    with pytest.raises(InvalidComplexError, match="simplicial"):
        GeometricComplex(X)


def _folded() -> GeometricComplex:
    """Two triangles on one side of their common edge 0.1."""
    coords = {
        0: (Fraction(0), Fraction(0)),
        1: (Fraction(1), Fraction(0)),
        2: (Fraction(0), Fraction(1)),
        3: (Fraction(2), Fraction(1)),
    }
    return GeometricComplex(from_simplices([[0, 1, 2], [0, 1, 3]], coordinates=coords))


@pytest.mark.parametrize("field, message", [
    ((1, 3), "degenerate configuration at 0.1: 2 candidate top simplices"),
    ((1, -3), "degenerate configuration at 0: 0 candidate top simplices"),
])
def test_folded_triangles_have_no_unique_downstream_simplex(field, message):
    with pytest.raises(PreconditionError) as err:
        flow_structure(_folded(), field)
    assert str(err.value) == message


def _fan(exit_at_0: bool = False) -> GeometricComplex:
    """Three triangles that share only vertex 0 and lie above it, each
    holding the upward ray from 0, with no vertical edge: under the field
    (0, 1) all three are downstream of vertex 0. With ``exit_at_0`` a
    fourth triangle below 0 puts 0 in the exiting closure, through its
    edge 0.7, so that the three claims are allowed."""
    coords = {
        0: (0, 0), 1: (-1, 1), 2: (1, 1), 3: (-1, 2), 4: (2, 3), 5: (-3, 1), 6: (1, 2),
    }
    tops = [[0, 1, 2], [0, 3, 4], [0, 5, 6]]
    if exit_at_0:
        coords.update({7: (2, 1), 8: (1, -1)})
        tops.append([0, 7, 8])
    return GeometricComplex(from_simplices(tops, coordinates=coords))


def test_three_claims_of_one_cell_are_counted():
    geom = _fan()
    message = "degenerate configuration at 0: 3 candidate top simplices"
    assert _outcome(flow_structure, geom, (0, 1)) == (PreconditionError, message)
    assert _outcome(flow_structure_by_resolve, geom, (0, 1)) == (PreconditionError, message)


# The flow structure of interval(4) under the field (-1,), built
# positionally with the base vertex of edge 0.1 moved off its unstable
# core {0}: to vertex 3, outside the edge, which leaves cell 1 without a
# mate, or to vertex 1, which would pair cell 1 with nothing and pairs
# 0.1 with the base cell 0.
_WRONG_BASE = (
    "from cellmatch import FlowStructure, GeometricComplex, flow_structure\n"
    "from cellmatch.generators import interval\n"
    "fs = flow_structure(GeometricComplex(interval(4)), (-1,))\n"
    "wrong = FlowStructure(\n"
    "    fs.geometry, fs.field, fs.split, fs.downstream, fs.upstream, fs.stable,\n"
    "    fs.unstable, fs.unstable_core, {{**fs.base_vertex, '0.1': {base}}}, fs.base_rule,\n"
    ")\n"
)
_WRONG_BASE_TEXT = {
    3: "flow matching failed validation: ('uncovered: 1', 'uncovered: 0.1')",
    1: "flow matching failed validation: ('cell in relative base: 0', 'uncovered: 1')",
}


@pytest.mark.parametrize("base", list(_WRONG_BASE_TEXT))
def test_wrong_base_vertex_fails_the_one_check(base):
    scope = {}
    exec(_WRONG_BASE.format(base=base), scope)
    with pytest.raises(AssertionError) as err:
        flow_matching(scope["wrong"])
    assert str(err.value) == _WRONG_BASE_TEXT[base]


@pytest.mark.parametrize("base", list(_WRONG_BASE_TEXT))
def test_wrong_base_vertex_fails_the_one_check_under_optimize(base):
    script = (
        "if __debug__:\n"
        "    raise SystemExit('assertions are enabled')\n"
        "from cellmatch import flow_matching\n"
        + _WRONG_BASE.format(base=base)
        + "try:\n"
        "    flow_matching(wrong)\n"
        "except AssertionError as err:\n"
        "    print('raised:', err)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"raised: {_WRONG_BASE_TEXT[base]}\n"


def _segment_in_plane() -> GeometricComplex:
    coords = {0: (Fraction(0), Fraction(0)), 1: (Fraction(1), Fraction(0))}
    return GeometricComplex(from_simplices([[0, 1]], coordinates=coords))


def _sheared_grid() -> GeometricComplex:
    """``grid_square(2)`` under the affine map (x, y) -> (-x/3 + 2y/7 - 1,
    -x/3 - y/7), so that coordinates are negative with mixed denominators."""
    X = grid_square(2)
    coords = {
        t: (-x / 3 + 2 * y / 7 - 1, -x / 3 - y / 7) for t, (x, y) in X.coordinates.items()
    }
    return GeometricComplex(
        from_simplices([X.vertices(t) for t in X.top_cells()], coordinates=coords)
    )


def _tilted_grid() -> GeometricComplex:
    """``grid_square(2)`` on the plane z = x/2 - y/3 in R^3, so that every
    top simplex has a row left over by its elimination."""
    X = grid_square(2)
    coords = {t: (x, y, x / 2 - y / 3) for t, (x, y) in X.coordinates.items()}
    return GeometricComplex(
        from_simplices([X.vertices(t) for t in X.top_cells()], coordinates=coords)
    )


def _bent_pair() -> GeometricComplex:
    """Two triangles on the edge 0.1 in R^3, one in the plane z = 0 and one
    in y = 0. The field (0, 1, 0) is tangent to the first, with its facet
    0.2 degenerate, and not tangent to the second: the tangency error of
    the later top comes before the degeneracy of the earlier one."""
    coords = {
        0: (Fraction(0), Fraction(0), Fraction(0)),
        1: (Fraction(1), Fraction(0), Fraction(0)),
        2: (Fraction(0), Fraction(1), Fraction(0)),
        3: (Fraction(0), Fraction(0), Fraction(1)),
    }
    return GeometricComplex(from_simplices([[0, 1, 2], [0, 1, 3]], coordinates=coords))


def _jittered_grid() -> GeometricComplex:
    """``grid_square(4)`` with each vertex moved by small rationals over
    11 * 13 and 13, so that every top simplex has a translate key of its
    own and goes through an elimination of its own."""
    X = grid_square(4)
    rng = random.Random(4)
    coords = {
        t: (x + Fraction(rng.randint(-3, 3), 11 * 13), y + Fraction(rng.randint(-3, 3), 13))
        for t, (x, y) in X.coordinates.items()
    }
    return GeometricComplex(
        from_simplices([X.vertices(t) for t in X.top_cells()], coordinates=coords)
    )


def _mirror_pair() -> GeometricComplex:
    """Two triangles on the edge 0.1, mirror images of each other in the
    x-axis: congruent, but not translates."""
    coords = {0: (0, 0), 1: (1, 0), 2: ("1/3", 1), 3: ("1/3", -1)}
    return GeometricComplex(from_simplices([[0, 1, 2], [0, 1, 3]], coordinates=coords))


def _stretched_pair() -> GeometricComplex:
    """Two disjoint triangles, the second a translate of the first with
    its edge 3.4 halved. Their keys agree in the numerators N_j * D_0 -
    N_0 * D_j and differ only in D_0 * D_j, and their derivatives differ
    in sign under the field (1, -3/2)."""
    coords = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (5, 0), 4: ("11/2", 0), 5: (5, 1)}
    return GeometricComplex(from_simplices([[0, 1, 2], [3, 4, 5]], coordinates=coords))


def _l_shape() -> GeometricComplex:
    """``grid_square(2)`` without its upper right square."""
    X = grid_square(2)
    tops = [X.vertices(t) for t in X.top_cells() if not set(X.vertices(t)) <= {4, 5, 7, 8}]
    return GeometricComplex(from_simplices(tops, coordinates=X.coordinates))


@pytest.mark.parametrize("make, field", [
    (_l_shape, (1, -3)), (_l_shape, (-2, 5)), (_l_shape, (3, 1)), (_l_shape, (1, 1)),
    (_fan, (0, -1)), (lambda: _fan(exit_at_0=True), (0, 1)),
    (lambda: _fan(exit_at_0=True), (1, 3)),
], ids=["l_down", "l_up", "l_none", "l_tangent", "fan_down", "fan_exit", "fan_exit_tilted"])
def test_claims_in_the_boundary_closures_are_left_out(make, field):
    """At the reflex vertex 4 of the L-shape, and at vertex 0 of the fan
    with a triangle exiting there, top simplices claim a cell of the
    exiting (or entering) closure: those claims, even three of one cell,
    are no error, and the stable (or unstable) sets leave the cell out.
    Under (0, -1) the plain fan has three upstream claims of vertex 0,
    which is off the entering closure: an error. Every outcome equals the
    per-cell search's. Only the structure is compared, as the flow
    matching of the first fields pairs a cell with one in the base."""
    geom = make()
    got = _outcome(flow_structure, geom, field)
    assert got == _outcome(flow_structure_by_resolve, geom, field)


# Inputs whose mate rule pairs a rel cell with a cell of the exiting
# closure: the reflex vertex 4 of the L-shape, and vertex 0 of the fan with
# a triangle exiting there. Each has a negative Euler characteristic rel
# that closure, so no complete matching rel it exists at all.
_LEAVING_THE_BASE = {
    "l_down": (_l_shape, (1, -3), ("1.4", "1.4.5", "4", -1)),
    "l_up": (_l_shape, (-2, 5), ("3.4", "3.4.7", "4", -1)),
    "fan_exit": (lambda: _fan(exit_at_0=True), (0, 1), ("0.1", "0.1.2", "0", -3)),
    "fan_exit_tilted": (lambda: _fan(exit_at_0=True), (1, 3), ("0.1", "0.1.2", "0", -3)),
}


def _leaving_text(cell, top, partner, chi) -> str:
    return (
        f"the flow mate of {cell} in its downstream simplex {top} is {partner}, which lies in "
        f"the exiting closure; the Euler characteristic relative to that closure is {chi}, "
        "so no complete matching relative to it exists"
    )


@pytest.mark.parametrize("case", list(_LEAVING_THE_BASE))
def test_a_mate_in_the_exiting_closure_is_a_precondition_error(case):
    """The structure is the per-cell search's; the matching is refused
    with the cell, its downstream simplex and its partner, where the mate
    rule alone pairs exactly that cell with a cell of the base."""
    make, field, (cell, top, partner, chi) = _LEAVING_THE_BASE[case]
    geom = make()
    fs = flow_structure(geom, field)
    with pytest.raises(PreconditionError) as err:
        flow_matching(fs)
    assert str(err.value) == _leaving_text(cell, top, partner, chi)
    pair = SubcomplexPair(geom.complex, fs.split.exiting)
    assert euler_characteristic(pair) == chi
    rule = flow_matching_by_vertex_sets(fs)
    assert rule.mate(cell) == partner and partner in fs.split.exiting


@pytest.mark.parametrize("case", ["l_down", "fan_exit"])
def test_cli_flow_exits_3_when_a_mate_leaves_the_rel_cells(tmp_path, capsys, case):
    make, field, expected = _LEAVING_THE_BASE[case]
    path = tmp_path / "x.json"
    io.save_complex(make().complex, str(path))
    assert cli.main(["flow", str(path), "--field", ",".join(map(str, field))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cellmatch: {_leaving_text(*expected)}\n"


def _eliminations(geom: GeometricComplex) -> int:
    return len({id(solve) for solve in geom._eliminated.values()})


def test_translates_share_one_elimination():
    # two triangle shapes, each in at most 3! vertex orders
    assert _eliminations(GeometricComplex(grid_square(6))) <= 12
    jittered = _jittered_grid()
    assert _eliminations(jittered) == len(jittered.complex.top_cells())
    assert _eliminations(_mirror_pair()) == 2
    assert _eliminations(_stretched_pair()) == 2


_ORACLE_CASES = [
    (grid_square(3), [(1, -3), (3, 1), (-2, 5), (2, -1), (1, 1), (0, -1), (1, 2, 3)]),
    (interval(4), [(1,), (-1,), ("1/2",)]),
    (product(interval(2), grid_square(2)), [(1, -3, 5), (-1, 2, 7), (2, 3, -1), (1, 1, 1)]),
    (_folded().complex, [(1, 3), (1, -3), (3, 1), (-1, -2), (1, 0)]),
    (_segment_in_plane().complex, [(0, 1), (1, 1)]),
    (_sheared_grid().complex, [("1/3", "-2/7"), (5, "3/11"), (-1, -1), (2, -1), ("-7/5", 3)]),
    (_tilted_grid().complex, [(1, -3, "3/2"), (2, 1, "2/3"), (1, -3, 1)]),
    (_bent_pair().complex, [(0, 1, 0), (1, 1, 0), (1, 0, 0)]),
    (product(interval(4), grid_square(2)), [(1, -3, 5), (2, 3, -1), ("1/2", 1, -7), (0, 1, 1)]),
    (_jittered_grid().complex, [(1, -3), (3, 1), (-2, 5), (1, 1), (0, -1)]),
    (_mirror_pair().complex, [(1, 1), (1, -3), (-2, 1), (0, 1), (1, 0)]),
    (_stretched_pair().complex, [(1, "-3/2"), (1, 1), (-1, "1/2")]),
]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (PreconditionError, InvalidComplexError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("base_rule, seed", [("lowest", None), ("random", 0), ("random", 5)])
def test_flow_structure_equals_per_cell_resolve_oracle(base_rule, seed):
    """Every field of the structure, the boundary split, the matching and
    every error type and message agree with the per-cell search."""
    for complex, fields in _ORACLE_CASES:
        geom = GeometricComplex(complex)
        for field in fields:
            got = _outcome(flow_structure, geom, field, base_rule=base_rule, seed=seed)
            want = _outcome(flow_structure_by_resolve, geom, field, base_rule, seed)
            split = _outcome(check_transverse, geom, field)
            if isinstance(want, tuple):
                assert got == want, field
                if want[0] is not PreconditionError or "candidate" not in want[1]:
                    assert split == want, field
                continue
            for f in dataclasses.fields(want):
                assert getattr(got, f.name) == getattr(want, f.name), (field, f.name)
            assert split == want.split
            assert flow_matching(got) == flow_matching(want)
            assert flow_matching(got) == flow_matching_by_vertex_sets(want)


def _random_simplex(rng: random.Random):
    """One simplex of dimension 1-3 in an ambient space of its dimension up
    to two more, with fractional coordinates over mixed denominators; one
    case in five has its last point an affine combination of the others.
    Returns its complex, its points and its fields: a tangent field; when
    n > 1, one along an edge, which makes a facet degenerate; and when the
    ambient space leaves room, one pushed off its plane."""

    def q():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 11)))

    n = rng.randint(1, 3)
    k = rng.randint(n, n + 2)
    points = [tuple(q() for _ in range(k)) for _ in range(n + 1)]
    if rng.random() < 0.2:
        weights = [q() for _ in range(n - 1)]
        points[n] = tuple(
            p0 + sum(w * (p[i] - p0) for w, p in zip(weights, points[1:n]))
            for i, p0 in enumerate(points[0])
        )
    weights = [q() for _ in range(n)]
    tangent = tuple(
        sum(w * (p[i] - p0) for w, p in zip(weights, points[1:]))
        for i, p0 in enumerate(points[0])
    )
    fields = [tangent]
    if n > 1:
        fields.append(tuple(a - b for a, b in zip(points[1], points[0])))
    if k > n:
        fields.append(tuple(x + q() for x in tangent))
    labels = rng.sample(range(10), n + 1)
    complex = from_simplices([labels], coordinates=dict(zip(labels, points)))
    return complex, points, fields


def _without_geometry(structure):
    if isinstance(structure, tuple):
        return structure
    return {f.name: getattr(structure, f.name)
            for f in dataclasses.fields(structure) if f.name != "geometry"}


def test_random_simplices_equal_minors_and_resolve_oracles():
    """Degeneracy against nonzero minors, and every field's structure,
    boundary split and errors against the per-cell search; one geometry
    serves every field of a simplex, and gives what a fresh one gives."""
    rng = random.Random(17)
    outcomes = {"degenerate": 0, "structure": 0, "error": 0}
    for _ in range(400):
        complex, points, fields = _random_simplex(rng)
        geom = _outcome(GeometricComplex, complex)
        assert isinstance(geom, GeometricComplex) == affinely_independent_by_minors(points)
        if not isinstance(geom, GeometricComplex):
            top = complex.top_cells()[0]
            assert geom == (InvalidComplexError, f"degenerate top simplex {top}")
            outcomes["degenerate"] += 1
            continue
        for field in fields:
            got = _outcome(flow_structure, geom, field)
            want = _outcome(flow_structure_by_resolve, geom, field)
            fresh = _outcome(flow_structure, GeometricComplex(complex), field)
            assert _without_geometry(got) == _without_geometry(want), field
            assert _without_geometry(fresh) == _without_geometry(got), field
            split = _outcome(check_transverse, geom, field)
            assert split == (want if isinstance(want, tuple) else want.split), field
            outcomes["error" if isinstance(want, tuple) else "structure"] += 1
    assert min(outcomes.values()) >= 40, outcomes
