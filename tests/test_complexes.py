from __future__ import annotations

import random

import pytest

from cellmatch import (
    DualLoop,
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
    spanning_dual_loop,
    star_cycle,
)
from cellmatch.generators import (
    apex_of,
    circle,
    cone,
    simplex,
    sphere_boundary,
    torus7,
    wedge,
)
from cellmatch.subdivision import barycentric

from conftest import alternating_cycle_by_scan


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
    X = build_cw(records)
    assert len(X) == 9
    assert euler_characteristic(SubcomplexPair(X)) == 1


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
    with pytest.raises(PreconditionError, match="pure"):
        dual_graph(X)


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


def test_restrict_roundtrip():
    X = torus7()
    sub = X.closure(["0.1.3", "0.2.3"])
    Y = X.restrict(sub)
    assert set(Y.cells()) == set(sub)
    assert all(Y.dim_of(c) == X.dim_of(c) for c in Y.cells())
    with pytest.raises(InvalidSubcomplexError):
        X.restrict(["0.1"])  # not closed
