from __future__ import annotations

import json
from fractions import Fraction
import random
import re
import subprocess
import sys

import pytest

from cellmatch import (
    DualLoop,
    GeometricComplex,
    InvalidComplexError,
    InvalidLoopError,
    InvalidSubcomplexError,
    PreconditionError,
    SubcomplexPair,
    build_cw,
    complement_of_dual_loop,
    dual_graph,
    euler_characteristic,
    from_simplices,
    incidence_graph,
    spanning_dual_loop,
    star_cycle,
)
from cellmatch import generators
from cellmatch.complexes import _alternating_cycle
from cellmatch.generators import (
    apex_of,
    circle,
    cone,
    grid_square,
    interval,
    product,
    simplex,
    sphere_boundary,
    torus7,
    wedge,
)
from cellmatch.subdivision import barycentric

from conftest import (
    alternating_cycle_by_scan,
    face_poset_chains,
    simplicial_tables_by_combinations,
    subprocess_env,
    two_disc_sphere,
)


def test_from_simplices_circle():
    X = from_simplices([[0, 1], [1, 2], [0, 2]])
    assert len(X) == 6
    assert X.cells_of_dim(0) == ("0", "1", "2")
    assert X.cells_of_dim(1) == ("0.1", "0.2", "1.2")


def test_from_simplices_solid_tetrahedron():
    X = from_simplices([[0, 1, 2, 3]])
    assert [len(X.cells_of_dim(d)) for d in range(4)] == [4, 6, 4, 1]
    assert len(X) == 15


def test_from_simplices_idempotent():
    once = from_simplices([[0, 1, 2]])
    twice = from_simplices([[0, 1, 2], [0, 1, 2]])
    assert once.cells() == twice.cells()
    assert len(once) == 7


def test_from_simplices_empty_rejected():
    with pytest.raises(InvalidComplexError, match="empty complex"):
        from_simplices([])
    with pytest.raises(InvalidComplexError, match="empty complex"):
        from_simplices([[]])
    with pytest.raises(InvalidComplexError, match="empty complex"):
        from_simplices([[0, 1], []])


@pytest.mark.parametrize(
    "simplices, message",
    [
        ([[0, 1], [True, 2]], "bad vertex token True"),
        ([[0, 1], [None]], "bad vertex token None"),
        ([[0, -3], [-5, 1]], "negative vertex index -3$"),
        # the first faulty simplex in input order names the fault
        ([[0, 1], [-2, 1], ["a", None]], "negative vertex index -2$"),
        ([[0, 1], [None, 2], [-4]], "bad vertex token None"),
        ([[0, -1], []], "negative vertex index -1$"),
        ([[], [False]], "empty complex"),
    ],
)
def test_from_simplices_rejects_the_first_bad_simplex(simplices, message):
    with pytest.raises(InvalidComplexError, match=message):
        from_simplices(simplices)


_DOTTED = "vertex sets ('1.2',) and (1, 2) share the cell id '1.2'"
_INT_AND_STR = "vertex sets (1,) and ('1',) share the cell id '1'"


@pytest.mark.parametrize(
    "simplices, message",
    [
        ([["1.2"], [1, 2]], _DOTTED),
        ([[1, 2], ["1.2"]], _DOTTED),
        ([[1, 2], ["1", 3]], _INT_AND_STR),
        ([["1", 3], [1, 2]], _INT_AND_STR),
    ],
    ids=["dotted_token_and_edge", "edge_and_dotted_token", "int_and_str_token", "str_and_int_token"],
)
def test_from_simplices_rejects_colliding_ids(simplices, message):
    """The error names the first cell in the cell order whose id an earlier
    cell holds, the earlier cell first, whatever the listing order."""
    with pytest.raises(InvalidComplexError) as info:
        from_simplices(simplices)
    assert str(info.value) == message


def test_face_closure_property():
    X = torus7()
    for c in X.cells():
        for f in X.hyperfaces(c):
            assert f in X
        for f in X.faces(c):
            assert f in X


def test_build_cw_square():
    records = [
        ("a", 0, []), ("b", 0, []), ("c", 0, []), ("d", 0, []),
        ("ab", 1, ["a", "b"]), ("bc", 1, ["b", "c"]),
        ("cd", 1, ["c", "d"]), ("da", 1, ["d", "a"]),
        ("f", 2, ["ab", "bc", "cd", "da"]),
    ]
    X = build_cw(records[::-1])
    assert len(X) == 9
    assert euler_characteristic(SubcomplexPair(X)) == 1
    assert X.cells() == tuple(c for c, _, _ in records)  # by (dim, id)
    assert sorted(X.cells(), key=X.sort_key) == list(X.cells())


def test_build_cw_digon():
    records = [
        ("u", 0, []), ("v", 0, []),
        ("e", 1, ["u", "v"]), ("f", 1, ["u", "v"]),
        ("disk", 2, ["e", "f"]),
    ]
    X = build_cw(records)
    assert euler_characteristic(SubcomplexPair(X)) == 1


def test_build_cw_rank_violation():
    records = [
        ("a", 0, []), ("b", 0, []),
        ("e", 1, ["a", "b"]), ("f", 1, ["a", "b"]),
        ("d1", 2, ["e", "f"]), ("d2", 2, ["e", "d1"]),
    ]
    with pytest.raises(InvalidComplexError, match="dimension"):
        build_cw(records)


def test_build_cw_dangling_face():
    with pytest.raises(InvalidComplexError, match="dangling"):
        build_cw([("a", 0, []), ("e", 1, ["a", "zz"])])


def test_build_cw_irregular_edge():
    with pytest.raises(InvalidComplexError, match="exactly 2"):
        build_cw([("a", 0, []), ("e", 1, ["a"])])


_CW_GOOD = [
    ("a", 0, []), ("b", 0, []),
    ("e", 1, ["a", "b"]), ("f", 1, ["a", "b"]),
    ("d", 2, ["e", "f"]),
]
_CW_MALFORMED = {
    "no_records": ([], "empty complex"),
    "id_not_str": ([(5, 0, [])] + _CW_GOOD, "bad cell id 5"),
    "id_empty": ([("", 0, [])] + _CW_GOOD, "bad cell id ''"),
    "dim_negative": ([("x", -1, [])] + _CW_GOOD, "cell x: bad dimension -1"),
    "dim_not_int": ([("x", "0", [])] + _CW_GOOD, "cell x: bad dimension '0'"),
    "duplicate_id": (_CW_GOOD + [("a", 0, [])], "duplicate cell id 'a'"),
    "dangling_face": (
        _CW_GOOD + [("g", 1, ["a", "zz"])], "cell g: dangling hyperface 'zz'"
    ),
    "wrong_dimension_face": (
        _CW_GOOD + [("g", 2, ["a", "e"])],
        "cell g: hyperface a has dimension 0, expected 1",
    ),
    # a vertex's face can only be a cell of the wrong dimension
    "vertex_with_face": (
        _CW_GOOD + [("v", 0, ["a"])],
        "cell v: hyperface a has dimension 0, expected -1",
    ),
    "edge_with_one_face": (
        _CW_GOOD + [("g", 1, ["a"])],
        "1-cell g must have exactly 2 hyperfaces (regularity)",
    ),
    "edge_with_three_faces": (
        _CW_GOOD + [("c", 0, []), ("g", 1, ["a", "b", "c"])],
        "1-cell g must have exactly 2 hyperfaces (regularity)",
    ),
}


@pytest.mark.parametrize("case", sorted(_CW_MALFORMED))
def test_build_cw_rejects_malformed_record(case):
    records, message = _CW_MALFORMED[case]
    with pytest.raises(InvalidComplexError, match=f"^{re.escape(message)}$"):
        build_cw(records)


def test_euler_characteristic_examples():
    assert euler_characteristic(SubcomplexPair(circle(5))) == 0
    assert euler_characteristic(SubcomplexPair(sphere_boundary(3))) == 2
    assert euler_characteristic(SubcomplexPair(wedge())) == 0


def test_euler_additivity_over_random_subcomplexes():
    rng = random.Random(7)
    X = torus7()
    cells = list(X.cells())
    for _ in range(25):
        seeds = rng.sample(cells, rng.randint(0, 6))
        sub = X.closure(seeds)
        total = euler_characteristic(SubcomplexPair(X))
        rel = euler_characteristic(SubcomplexPair(X, sub))
        if sub:
            inner = euler_characteristic(SubcomplexPair(X.restrict(sub)))
        else:
            inner = 0
        assert total == rel + inner


def test_subcomplex_pair_closure_check():
    X = simplex(2)
    with pytest.raises(InvalidSubcomplexError):
        SubcomplexPair(X, ["0.1"])  # edge without its endpoints
    pair = SubcomplexPair(X, ["0.1"], close=True)
    assert pair.sub == {"0", "1", "0.1"}
    even = {c for c in pair.rel_even}
    assert even == {"2", "0.1.2"}


def test_pair_parity_split():
    pair = SubcomplexPair(simplex(2), ["0"])
    assert set(pair.rel_even) == {"1", "2", "0.1.2"}
    assert set(pair.rel_odd) == {"0.1", "0.2", "1.2"}


def _everything_but(X, *cells):
    return [c for c in X.cells() if c not in cells]


@pytest.mark.parametrize(
    "sub, message",
    [
        # a few sub cells
        (["1.2", "0"], "subcomplex not closed under hyperfaces; missing ['1', '2']"),
        (["0", "nope"], "unknown cell 'nope'"),
        # all cells but one or two vertices, or all and one unknown: the
        # hyperfaces of every sub cell are read just the same
        (
            _everything_but(grid_square(3), "5"),
            "subcomplex not closed under hyperfaces; missing ['5', '5', '5', '5', '5']",
        ),
        (
            _everything_but(grid_square(3), "0", "8"),
            "subcomplex not closed under hyperfaces; missing ['0', '0', '0', '8', '8']",
        ),
        (list(grid_square(3).cells()) + ["9.9.9"], "unknown cell '9.9.9'"),
    ],
    ids=["sub_open", "sub_unknown", "all_but_vertex", "all_but_two_vertices", "all_and_unknown"],
)
def test_subcomplex_pair_rejects_on_either_side(sub, message):
    with pytest.raises(InvalidSubcomplexError) as err:
        SubcomplexPair(grid_square(3), sub)
    assert str(err.value) == message


_SEEDED_ERRORS = """
import json
from fractions import Fraction
from cellmatch import SubcomplexPair, build_cw, from_simplices
from cellmatch.generators import torus7
from cellmatch.subdivision import barycentric

def text(make):
    try:
        make()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"

unknown = ["zz", "yy", "xx", "ww"]
smap = barycentric(from_simplices([[0, 1]]))
smap.carrier["b0.b0.1"] = "1"
print(json.dumps([
    text(lambda: SubcomplexPair(torus7(), unknown)),
    text(lambda: torus7().is_closed(unknown)),
    text(lambda: torus7().closure(unknown)),
    text(lambda: build_cw([("a", 0, []), ("e", 1, unknown)])),
    text(smap.validate),
]))
"""


def test_error_texts_do_not_depend_on_the_hash_seed():
    """Each error names one fixed cell whatever the string hash seed: the
    smallest unknown id, the first listed dangling hyperface, and the first
    facet at which a carrier is not monotone."""
    expected = [
        "InvalidSubcomplexError: unknown cell 'ww'",
        "InvalidSubcomplexError: unknown cell 'ww'",
        "InvalidSubcomplexError: unknown cell 'ww'",
        "InvalidComplexError: cell e: dangling hyperface 'zz'",
        "InvalidSubdivisionError: carrier not monotone at b0.1 < b0.b0.1",
    ]
    for seed in range(4):
        proc = subprocess.run(
            [sys.executable, "-c", _SEEDED_ERRORS],
            capture_output=True, text=True, timeout=60,
            env={**subprocess_env(), "PYTHONHASHSEED": str(seed)},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected, seed


@pytest.mark.parametrize(
    "X", [grid_square(3), barycentric(torus7()).subdivided], ids=["grid3", "bary_torus7"]
)
def test_subcomplex_pair_rel_cells_equal_filter_on_either_side(X):
    rng = random.Random(11)
    cells = list(X.cells())
    sides = set()
    for share in (0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0):
        for _ in range(4):
            sub = X.closure(c for c in cells if rng.random() < share)
            pair = SubcomplexPair(X, sub)
            rel = [c for c in cells if c not in sub]
            assert pair.sub == sub
            assert pair.rel_cells == tuple(rel)
            assert pair.rel_even == tuple(c for c in rel if X.dim_of(c) % 2 == 0)
            assert pair.rel_odd == tuple(c for c in rel if X.dim_of(c) % 2 == 1)
            assert SubcomplexPair(X, sub, close=True).rel_cells == pair.rel_cells
            sides.add(len(rel) < len(sub))
            # dropping a sub cell that has a coface in sub opens it
            face = next((c for c in cells if X.cofaces(c) & sub and c in sub), None)
            if face is not None:
                opened = sub - {face}
                missing = sorted(
                    f for c in opened for f in X.hyperfaces(c) if f not in opened
                )
                with pytest.raises(InvalidSubcomplexError) as err:
                    SubcomplexPair(X, opened)
                assert str(err.value) == (
                    f"subcomplex not closed under hyperfaces; missing {missing[:5]}"
                )
    assert sides == {True, False}


def _reversed_cw_sphere():
    """Two squares glued along their rims, its records listed top cells
    first, so every cell's cofaces arrive in descending id order."""
    records = [(f"v{i}", 0, []) for i in range(4)]
    records += [(f"e{i}", 1, [f"v{i}", f"v{(i + 1) % 4}"]) for i in range(4)]
    records += [(name, 2, ["e0", "e1", "e2", "e3"]) for name in ("north", "south")]
    return build_cw(reversed(records))


def _neighbour_order_cases():
    grid = grid_square(3)
    bary = barycentric(torus7()).subdivided
    piece = bary.restrict(bary.closure(bary.top_cells()[:20]))
    cw = _reversed_cw_sphere()
    return [
        (grid, {grid.cells_of_dim(0)[4]}),
        (bary, set()),
        (cw, cw.closure(["e0"])),
        (piece, piece.closure(piece.cells_of_dim(1)[:3])),
    ]


@pytest.mark.parametrize(
    "index", range(4), ids=["grid3_rel_vertex", "bary_torus7", "reversed_cw", "restricted"]
)
def test_neighbour_lists_are_in_cell_order(index):
    X, sub = _neighbour_order_cases()[index]
    key = X.sort_key
    for c in X.cells():
        cofs = X.cofacets(c)
        assert isinstance(cofs, tuple), c
        assert list(cofs) == sorted(cofs, key=key), c
        assert sorted(cofs) == sorted(X.cofaces(c)), c
    pair = SubcomplexPair(X, sub)
    adjacency = incidence_graph(pair).adjacency
    for c in pair.rel_cells:
        expected = sorted((X.cofaces(c) | X.hyperfaces(c)) - pair.sub, key=key)
        assert adjacency[c] == tuple(expected), c
    rng = random.Random(index)
    cells = list(X.cells())
    for size in (1, 2, 5, 20):
        ids = rng.sample(cells, min(size, len(cells)))
        assert X.closure(ids) == set(ids).union(*(X.faces(c) for c in ids))


@pytest.mark.parametrize(
    "X", [sphere_boundary(4), barycentric(sphere_boundary(4)).subdivided],
    ids=["sphere4", "bary_sphere4"],
)
def test_star_cycle_equals_cofaces_all_star(X):
    n = X.dim
    for tau in X.cells_of_dim(n - 2):
        star = X.cofaces_all(tau)
        tops = sorted((c for c in star if X.dim_of(c) == n), key=X.sort_key)
        mids = {c: X.cofaces(c) for c in star if X.dim_of(c) == n - 1}
        assert star_cycle(X, tau) == _alternating_cycle(tops, mids), tau


def test_dual_graph_tetrahedron_boundary():
    g = dual_graph(sphere_boundary(3))
    assert len(g.nodes) == 4
    assert g.edge_count == 6
    assert not g.boundary and not g.non_manifold


def test_dual_graph_torus7():
    g = dual_graph(torus7())
    assert len(g.nodes) == 14
    assert g.edge_count == 21
    assert not g.boundary and not g.non_manifold


def test_dual_graph_single_edge():
    g = dual_graph(simplex(1))
    assert len(g.nodes) == 1
    assert g.edge_count == 0
    assert g.boundary == {"0", "1"}


def test_dual_graph_rejects_non_pure():
    X = from_simplices([[0, 1, 2], [2, 3]])
    assert not X.is_pure()
    with pytest.raises(PreconditionError, match="pure"):
        dual_graph(X)


def test_dual_graph_rejects_non_pure_cw():
    X = build_cw([
        ("u", 0, []), ("v", 0, []), ("w", 0, []),
        ("e", 1, ["u", "v"]), ("f", 1, ["u", "v"]), ("g", 1, ["v", "w"]),
        ("disk", 2, ["e", "f"]),
    ])
    assert not X.is_pure()
    assert X.restrict(X.closure(["disk"])).is_pure()
    with pytest.raises(PreconditionError, match="pure"):
        dual_graph(X)


def test_geometric_complex_rejects_non_pure():
    coords = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    X = from_simplices([[0, 1, 2], [2, 3]], coordinates=coords)
    with pytest.raises(PreconditionError, match="must be pure-dimensional"):
        GeometricComplex(X)


def test_from_simplices_makes_coordinates_exact():
    """Ints and texts become Fractions, a float anywhere in a point is
    refused, and a point that already is a tuple of Fractions is kept."""
    kept = (Fraction(1, 3), Fraction(2))
    X = from_simplices([[0, 1, 2]], coordinates={0: kept, 1: [1, "1/2"], 2: ("3", 4)})
    assert X.coordinates == {
        0: kept, 1: (Fraction(1), Fraction(1, 2)), 2: (Fraction(3), Fraction(4))
    }
    assert X.coordinates[0] is kept
    assert {type(x) for p in X.coordinates.values() for x in p} == {Fraction}
    assert all(type(p) is tuple for p in X.coordinates.values())
    for bad in [(0.5, Fraction(1)), (Fraction(1), 0.5), [0.5], (1, 2.0)]:
        with pytest.raises(InvalidComplexError) as err:
            from_simplices([[0, 1]], coordinates={0: (Fraction(0),), 1: bad})
        assert str(err.value) == "exact rational coordinates required; got a float"
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        from_simplices([[0, 1]], coordinates={0: ("x",), 1: (1,)})
    # the coordinates are read only after every check on the simplices
    with pytest.raises(InvalidComplexError) as err:
        from_simplices([[1, 2], ["1.2"]], coordinates={1: (0.5,), 2: (1,), "1.2": (2,)})
    assert str(err.value) == "vertex sets ('1.2',) and (1, 2) share the cell id '1.2'"


def test_dual_graph_edge_count_matches_interior():
    for X in (sphere_boundary(4), torus7()):
        g = dual_graph(X)
        interior = [
            f for f in X.cells_of_dim(X.dim - 1) if len(X.cofaces(f)) == 2
        ]
        assert g.edge_count == len(interior)


def test_spanning_dual_loop_circle():
    X = circle(4)
    loop = spanning_dual_loop(X)
    assert loop.k == 4
    assert set(loop.top_cells) == set(X.cells_of_dim(1))
    assert set(loop.link_cells) == set(X.cells_of_dim(0))


def test_dual_graph_neighbors_equal_edge_scan():
    for X in (sphere_boundary(3), sphere_boundary(4), torus7(), circle(5)):
        g = dual_graph(X)
        for node in g.nodes + ("absent",):
            scan = sorted(
                (f, b if a == node else a)
                for f, (a, b) in g.edges.items()
                if node in (a, b)
            )
            assert g.neighbors(node) == tuple(scan)


def test_spanning_dual_loop_long_circle():
    X = circle(3000)
    loop = spanning_dual_loop(X)
    assert loop.k == 3000
    assert set(loop.cells) == set(X.cells())


@pytest.mark.parametrize("k", [3, 4, 7, 50])
def test_spanning_dual_loop_equals_scan_oracle(k):
    X = circle(k)
    assert spanning_dual_loop(X).cells == alternating_cycle_by_scan(X)


def test_star_cycle_equals_scan_oracle():
    cases = [
        (X, tau)
        for X in (sphere_boundary(m) for m in range(3, 7))
        for tau in X.cells_of_dim(X.dim - 2)
    ]
    sd_torus = barycentric(torus7()).subdivided
    cases += [(sd_torus, v) for v in sd_torus.cells_of_dim(0)]
    for X, tau in cases:
        expected = alternating_cycle_by_scan(X, tau)
        assert expected is not None
        assert star_cycle(X, tau).cells == expected, (X, tau)


def test_star_cycle_long_cone_apex():
    X = cone(circle(1500))
    loop = star_cycle(X, apex_of(X))
    assert loop.k == 1500
    assert set(loop.link_cells) == set(X.cofaces(apex_of(X)))


def test_complement_of_full_circle_loop_is_empty():
    X = circle(3)
    loop = spanning_dual_loop(X)
    pair = complement_of_dual_loop(X, loop)
    assert pair.sub == frozenset()
    assert set(pair.rel_cells) == set(X.cells())


def test_complement_of_torus_loop_chi_zero():
    from cellmatch import find_dual_loop

    X = torus7()
    loop = find_dual_loop(X, lambda pair: True, budget=10)
    assert loop is not None
    pair = complement_of_dual_loop(X, loop)
    assert len(pair.rel_cells) == 2 * loop.k
    assert euler_characteristic(pair) == 0
    assert pair.complex.is_closed(pair.sub)


def test_loop_rejects_repeats():
    X = circle(3)
    with pytest.raises(InvalidLoopError, match="not simple"):
        DualLoop(("0.1", "0", "0.1", "1")).validate(X)


def test_long_loop_with_a_repeat_is_rejected_in_one_pass():
    X = circle(10000)
    cells = spanning_dual_loop(X).cells
    repeated = cells[:2] + cells[:2] + cells[4:]
    assert len(repeated) == 20000
    with pytest.raises(
        InvalidLoopError, match=f"^not simple: repeated cell {re.escape(min(cells[:2]))}$"
    ):
        DualLoop(repeated).validate(X)


def test_star_cycle_tetrahedron_boundary_vertex():
    X = sphere_boundary(3)
    loop = star_cycle(X, "0")
    assert set(loop.link_cells) == {"0.1", "0.2", "0.3"}
    assert set(loop.top_cells) == {"0.1.2", "0.1.3", "0.2.3"}
    for c in loop.cells:
        assert 0 in X.vertices(c)


def test_star_cycle_4_sphere_edge():
    X = sphere_boundary(4)
    loop = star_cycle(X, "0.1")
    assert loop.k == 3
    assert all(X.dim_of(c) == 2 for c in loop.link_cells)
    assert all(X.dim_of(c) == 3 for c in loop.top_cells)
    for c in loop.cells:
        assert {0, 1} <= set(X.vertices(c))


def test_star_cycle_boundary_vertex_rejected():
    X = simplex(2)
    with pytest.raises(PreconditionError, match="single cycle"):
        star_cycle(X, "0")


def test_star_cycle_wrong_codimension():
    X = sphere_boundary(3)
    with pytest.raises(PreconditionError, match="dimension"):
        star_cycle(X, "0.1")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: torus7().restrict(()), InvalidSubcomplexError,
         "cannot restrict to an empty cell set"),
        (lambda: build_cw(_CW_GOOD).vertices("a"), InvalidComplexError,
         "cw-kind cells carry no vertex tuples"),
        (lambda: DualLoop(("0.1", "0")), InvalidLoopError,
         "loop needs an alternating sequence of >= 4 cells, got 2"),
        (lambda: spanning_dual_loop(from_simplices([[0, 1, 2], [0, 1, 3], [0, 1, 4]])),
         InvalidLoopError, "dual graph has boundary or non-manifold cells"),
        (lambda: spanning_dual_loop(sphere_boundary(3)), InvalidLoopError,
         "dual graph is not a single cycle"),
        (lambda: star_cycle(torus7(), "nope"), InvalidSubcomplexError, "unknown cell 'nope'"),
    ],
    ids=["restrict_empty", "cw_vertices", "two_cell_loop", "non_manifold_edge",
         "sphere_dual_graph", "star_of_unknown_cell"],
)
def test_input_checks_raise_their_texts(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_cw_vertex_tokens_are_the_vertex_ids():
    assert build_cw(_CW_GOOD).vertex_tokens() == ("a", "b")


def test_repr_lists_the_f_vector():
    assert repr(torus7()) == "CellComplex(kind='simplicial', f=(7, 21, 14))"


def test_restrict_roundtrip():
    X = torus7()
    sub = X.closure(["0.1.3", "0.2.3"])
    Y = X.restrict(sub)
    assert set(Y.cells()) == set(sub)
    assert all(Y.dim_of(c) == X.dim_of(c) for c in Y.cells())
    with pytest.raises(InvalidSubcomplexError):
        X.restrict(["0.1"])  # not closed


def _assert_tables_equal(X, oracle):
    assert X.cells() == tuple(oracle["order"])
    assert sorted(X.cells(), key=X.sort_key) == list(X.cells())
    rank = {c: i for i, c in enumerate(oracle["order"])}
    for c in X.cells():
        assert X.dim_of(c) == oracle["dims"][c], c
        assert X.vertices(c) == oracle["verts"][c], c
        assert X.hyperfaces(c) == oracle["hyperfaces"][c], c
        assert X.cofaces(c) == oracle["cofaces"][c], c
        assert list(X.cofacets(c)) == sorted(oracle["cofaces"][c], key=rank.__getitem__), c
        v = oracle["verts"][c]
        dropped = [v[:i] + v[i + 1:] for i in range(len(v))] if len(v) > 1 else []
        assert [X.vertices(f) for f in X.facets(c)] == dropped, c


def _built_with_inputs(monkeypatch, make):
    """The complex ``make()`` returns, with the maximal simplices its last
    ``from_simplices`` call was given."""
    inputs = []

    def recording(simplices, coordinates=None):
        inputs.append([list(s) for s in simplices])
        return from_simplices(inputs[-1], coordinates=coordinates)

    monkeypatch.setattr(generators, "from_simplices", recording)
    X = make()
    monkeypatch.undo()
    return X, inputs[-1]


def _subdivided_with_chains(source):
    """The barycentric subdivision of ``source``, with every chain of its
    face poset as a list of "b"+id tokens, from ``face_poset_chains``."""
    return (
        barycentric(source).subdivided,
        [["b" + c for c in ch] for ch in face_poset_chains(source)],
    )


def _mixed_shuffled_torus7(seed):
    rng = random.Random(seed)
    X = torus7()
    fresh = rng.sample(range(100), 7)
    label = {
        t: (n if i % 2 else f"v{n}")
        for i, (t, n) in enumerate(zip(X.vertex_tokens(), fresh))
    }
    tops = [[label[t] for t in X.vertices(c)] for c in X.top_cells()]
    for s in tops:
        rng.shuffle(s)
    rng.shuffle(tops)
    return tops


_TABLE_CASES = {
    "circle5": lambda: circle(5),
    "simplex3": lambda: simplex(3),
    "sphere_boundary4": lambda: sphere_boundary(4),
    "torus7": torus7,
    "wedge": wedge,
    "interval6": lambda: interval(6),
    "grid_square3": lambda: grid_square(3),
    "product": lambda: product(circle(3), sphere_boundary(2)),
    "cone": lambda: cone(circle(5)),
    # through the module attribute, so the recording hook sees the input
    "mixed_shuffled_torus7": lambda: generators.from_simplices(_mixed_shuffled_torus7(4)),
    # id-string order ("10" < "100" < "11" < "9") differs from token order
    "mixed_9_10_a": lambda: generators.from_simplices(
        [[9, 10, "a"], ["a", 10, 11], ["b", 9], [100, 11, "b"], [100, "a"]]
    ),
    "duplicate_and_nested": lambda: generators.from_simplices(
        [[0, 1, 2], [2, 1, 0], [0, 1], [2]]
    ),
    "repeated_token": lambda: generators.from_simplices([[0, 0, 1]]),
}


# subdivisions, checked against their source's chains
_SUBDIVIDED_CASES = {
    "barycentric_torus7": torus7,
    "barycentric2_torus7": lambda: barycentric(torus7()).subdivided,
    "barycentric_cw_two_disc_sphere": two_disc_sphere,
}


@pytest.mark.parametrize("case", sorted(_TABLE_CASES) + sorted(_SUBDIVIDED_CASES))
def test_from_simplices_and_restrict_equal_combinations_oracle(monkeypatch, case):
    if case in _SUBDIVIDED_CASES:
        X, maximal = _subdivided_with_chains(_SUBDIVIDED_CASES[case]())
    else:
        X, maximal = _built_with_inputs(monkeypatch, _TABLE_CASES[case])
    oracle = simplicial_tables_by_combinations(maximal)
    _assert_tables_equal(X, oracle)
    rng = random.Random(case)
    for _ in range(6):
        seeds = rng.sample(oracle["order"], rng.randint(1, min(8, len(oracle["order"]))))
        closed = simplicial_tables_by_combinations(oracle["verts"][c] for c in seeds)
        Y = X.restrict(closed["order"])
        _assert_tables_equal(Y, closed)
        inner = simplicial_tables_by_combinations(
            closed["verts"][c] for c in closed["order"][-2:]
        )
        _assert_tables_equal(Y.restrict(inner["order"]), inner)
