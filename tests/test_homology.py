from __future__ import annotations

from fractions import Fraction
import json
import os
import random
import subprocess
import sys

import pytest

import cellmatch
from cellmatch import (
    HomologyNonzeroError,
    PreconditionError,
    SubcomplexPair,
    acyclic_filtration,
    betti_numbers,
    build_cw,
    chain_complex,
    complete_matching,
    enumerate_matchings,
    euler_characteristic,
    from_simplices,
    match_acyclic_pair,
    validate_matching,
)
from cellmatch import io, subdivision
from cellmatch.generators import (
    apex_of,
    circle,
    cone,
    grid_square,
    interval,
    simplex,
    sphere_boundary,
    torus7,
    wedge,
)
from cellmatch.subdivision import barycentric

from conftest import (
    dense_boundary,
    dense_pivot_columns,
    is_zero_matrix,
    mat_mul,
    match_acyclic_pair_by_layer_complexes,
)


def _rp2():
    """The six-vertex real projective plane (half the icosahedron)."""
    return from_simplices([
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
        (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
    ])


def test_circle_boundary_rank():
    cc = chain_complex(SubcomplexPair(circle(3)))
    assert len(cc.basis(1)) == 3
    assert cc.rank(1) == 2
    assert cc.kernel_dim(1) == 1


def test_relative_disk_mod_boundary():
    X = simplex(2)
    pair = SubcomplexPair(X, X.closure(["0.1", "0.2", "1.2"]))
    cc = chain_complex(pair)
    assert cc.basis(2) == ("0.1.2",)
    assert cc.basis(1) == () and cc.basis(0) == ()
    assert cc.matrix(2) == []
    bv = betti_numbers(pair)
    assert bv.betti == (0, 0, 1)


def test_boundary_squared_zero_both_fields():
    for field in ("q", "f2"):
        cc = chain_complex(SubcomplexPair(sphere_boundary(4)), field=field)
        for d in range(1, 4):
            lower, upper = cc.matrix(d - 1), cc.matrix(d)
            if lower and upper:
                assert is_zero_matrix(mat_mul(lower, upper, field))


def test_rank_nullity_per_degree():
    cc = chain_complex(SubcomplexPair(torus7()))
    for d in range(3):
        assert len(cc.basis(d)) == cc.rank(d) + cc.kernel_dim(d)


def test_betti_spheres():
    for k in range(2, 6):
        bv = betti_numbers(SubcomplexPair(sphere_boundary(k)))
        expected = [0] * k
        expected[0] = 1
        expected[-1] += 1
        assert bv.betti == tuple(expected)


def test_betti_torus_and_cone():
    assert betti_numbers(SubcomplexPair(torus7())).betti == (1, 2, 1)
    pair = SubcomplexPair(simplex(2), ["0"])
    assert betti_numbers(pair).betti == (0, 0, 0)


def test_betti_torsion_differs_between_fields():
    pair = SubcomplexPair(_rp2())
    assert betti_numbers(pair, field="q").betti == (1, 0, 0)
    assert betti_numbers(pair, field="f2").betti == (1, 1, 1)


def test_betti_alternating_sum_equals_chi():
    cases = [
        SubcomplexPair(circle(6)),
        SubcomplexPair(torus7()),
        SubcomplexPair(simplex(3), ["0"]),
        SubcomplexPair(sphere_boundary(4)),
    ]
    for pair in cases:
        bv = betti_numbers(pair)
        assert bv.alternating_sum() == euler_characteristic(pair)


def test_fields_agree_on_bundled_generators():
    complexes = [
        circle(4),
        sphere_boundary(2),
        sphere_boundary(3),
        sphere_boundary(4),
        torus7(),
        simplex(3),
        cone(circle(5)),
    ]
    for X in complexes:
        bq = betti_numbers(SubcomplexPair(X), field="q")
        b2 = betti_numbers(SubcomplexPair(X), field="f2")
        assert bq.betti == b2.betti, X


def test_cw_needs_signs_for_rationals():
    X = build_cw([
        ("u", 0, []), ("v", 0, []),
        ("e", 1, ["u", "v"]), ("f", 1, ["u", "v"]),
        ("disk", 2, ["e", "f"]),
    ])
    pair = SubcomplexPair(X)
    with pytest.raises(PreconditionError, match="signs"):
        chain_complex(pair, field="q")
    bv = betti_numbers(pair)  # default field for cw is f2
    assert bv.field == "f2"
    assert bv.betti == (1, 0, 0)


def test_cw_rational_with_signs():
    X = build_cw([
        ("u", 0, []), ("v", 0, []),
        ("e", 1, ["u", "v"]), ("f", 1, ["u", "v"]),
        ("disk", 2, ["e", "f"]),
    ])
    signs = {
        ("e", "u"): -1, ("e", "v"): 1,
        ("f", "u"): -1, ("f", "v"): 1,
        ("disk", "e"): 1, ("disk", "f"): -1,
    }
    bv = betti_numbers(SubcomplexPair(X), field="q", signs=signs)
    assert bv.betti == (1, 0, 0)


def test_acyclic_filtration_triangle_rel_vertex():
    pair = SubcomplexPair(simplex(2), ["0"])
    filtration = acyclic_filtration(pair)
    stages = [set(s) for s in filtration.stages]
    assert stages[0] == {"0"}
    assert stages[1] == {"0", "1", "2", "0.1", "0.2"}
    assert stages[2] == {"0", "1", "2", "0.1", "0.2", "1.2", "0.1.2"}
    # layer contents: selected edges against leftover vertices, then the
    # triangle against the leftover edge
    assert stages[1] - stages[0] == {"1", "2", "0.1", "0.2"}
    assert stages[2] - stages[1] == {"1.2", "0.1.2"}


def test_acyclic_filtration_single_edge():
    pair = SubcomplexPair(simplex(1), ["0"])
    filtration = acyclic_filtration(pair)
    assert [set(s) for s in filtration.stages] == [{"0"}, {"0", "1", "0.1"}]


def test_acyclic_filtration_rejects_circle():
    with pytest.raises(HomologyNonzeroError) as err:
        acyclic_filtration(SubcomplexPair(circle(3)))
    assert err.value.betti.betti == (1, 1)


def test_match_acyclic_triangle_rel_vertex():
    pair = SubcomplexPair(simplex(2), ["0"])
    m = match_acyclic_pair(pair)
    assert len(m) == 3
    assert validate_matching(pair, m).ok


def test_match_acyclic_tetrahedron_rel_vertex():
    pair = SubcomplexPair(simplex(3), ["0"])
    m = match_acyclic_pair(pair)
    assert len(m) == 7  # 14 cells
    assert validate_matching(pair, m).ok


def test_match_acyclic_whole_rel_whole():
    X = circle(3)
    pair = SubcomplexPair(X, X.cells())
    m = match_acyclic_pair(pair)
    assert len(m) == 0


def test_match_acyclic_agrees_with_oracle_on_small_pairs():
    cases = [
        SubcomplexPair(simplex(2), ["0"]),
        SubcomplexPair(simplex(3), ["0"]),
        SubcomplexPair(cone(circle(4)), [apex_of(cone(circle(4)))]),
        SubcomplexPair(cone(circle(4)), ["0"]),
    ]
    for pair in cases:
        m = match_acyclic_pair(pair)
        assert validate_matching(pair, m).ok
        count, _ = enumerate_matchings(pair)
        assert count >= 1


def test_cones_acyclic_rel_any_vertex():
    for base in (circle(5), simplex(2), torus7()):
        X = cone(base)
        for rel in (apex_of(X), "0"):
            pair = SubcomplexPair(X, [rel])
            bv = betti_numbers(pair)
            assert bv.is_zero()
            m = match_acyclic_pair(pair)
            assert validate_matching(pair, m).ok


def test_layer_boundary_full_column_rank_checked():
    # a closed cell relative to all hyperfaces but one: a single free pair
    X = simplex(2)
    pair = SubcomplexPair(X, X.closure(["0.1", "0.2"]))
    filtration = acyclic_filtration(pair)
    assert [set(s) for s in filtration.stages][-1] == set(X.cells())
    assert set(pair.rel_cells) == {"1.2", "0.1.2"}


def _shuffled_grid_rel_vertex(m: int, seed: int) -> SubcomplexPair:
    X = grid_square(m)
    tokens = list(X.vertex_tokens())
    relabel = dict(zip(tokens, random.Random(seed).sample(tokens, len(tokens))))
    Y = from_simplices([[relabel[v] for v in X.vertices(c)] for c in X.top_cells()])
    return SubcomplexPair(Y, [Y.cells_of_dim(0)[0]])


def test_sparse_reduction_matches_dense_elimination():
    pairs = [
        SubcomplexPair(X)
        for X in (
            circle(5), simplex(3), sphere_boundary(2), sphere_boundary(3),
            sphere_boundary(4), sphere_boundary(5), torus7(), wedge(),
            interval(4), grid_square(2), cone(circle(4)), _rp2(),
        )
    ]
    pairs.append(_shuffled_grid_rel_vertex(3, seed=11))
    pairs.append(SubcomplexPair(barycentric(torus7()).subdivided))  # str tokens
    S = sphere_boundary(4)
    piece = S.restrict(S.closure(S.top_cells()[:3]))
    pairs.append(SubcomplexPair(piece, [piece.cells_of_dim(0)[-1]]))
    for pair in pairs:
        for field in ("q", "f2"):
            cc = chain_complex(pair, field=field)
            for d in range(pair.complex.dim + 1):
                dense = dense_boundary(pair, d, field)
                assert cc.matrix(d) == dense, (pair, field, d)
                entry = int if field == "f2" else Fraction
                assert all(type(x) is entry for row in cc.matrix(d) for x in row)
                pivots = dense_pivot_columns(dense, field)
                assert list(cc.pivot_columns(d)) == pivots, (pair, field, d)
                assert cc.rank(d) == len(pivots)


def _cw_square_grid(m: int):
    """An m-by-m grid of squares as a cw complex, with incidence signs:
    edges run from their smaller coordinate to their larger, and each
    square's boundary runs counterclockwise."""
    def v(i, j):
        return f"v{i}_{j}"

    def h(i, j):
        return f"h{i}_{j}"  # from (i, j) to (i + 1, j)

    def u(i, j):
        return f"u{i}_{j}"  # from (i, j) to (i, j + 1)

    records, signs = [], {}
    for i in range(m + 1):
        for j in range(m + 1):
            records.append((v(i, j), 0, []))
            if i < m:
                records.append((h(i, j), 1, [v(i, j), v(i + 1, j)]))
                signs.update({(h(i, j), v(i, j)): -1, (h(i, j), v(i + 1, j)): 1})
            if j < m:
                records.append((u(i, j), 1, [v(i, j), v(i, j + 1)]))
                signs.update({(u(i, j), v(i, j)): -1, (u(i, j), v(i, j + 1)): 1})
            if i < m and j < m:
                s = f"s{i}_{j}"
                records.append((s, 2, [h(i, j), u(i + 1, j), h(i, j + 1), u(i, j)]))
                signs.update({
                    (s, h(i, j)): 1, (s, u(i + 1, j)): 1,
                    (s, h(i, j + 1)): -1, (s, u(i, j)): -1,
                })
    return build_cw(records), signs


def test_match_acyclic_pair_equals_layer_complex_oracle(monkeypatch):
    cases = [(_shuffled_grid_rel_vertex(m, seed=m), None) for m in (3, 4, 5)]
    for base in (circle(4), circle(7)):
        X = cone(base)
        cases += [(SubcomplexPair(X, [apex_of(X)]), None), (SubcomplexPair(X, ["0"]), None)]
    grid, signs = _cw_square_grid(3)
    cases.append((SubcomplexPair(grid, ["v0_0"]), signs))
    # One of its layers has two complete matchings, so which side is on
    # the left and the order of the neighbours decide the result.
    X = from_simplices([
        [1, 0, 8], [3, 8, 6, 0], [4, 8, 9, 0], [3, 5, 4], [5, 4, 2, 8],
        [6, 2, 3, 5], [4, 3, 0, 8], [1, 5, 8, 9], [5, 2, 3], [4, 8, 0],
    ])
    cases.append((SubcomplexPair(X, ["1.8.9"], close=True), None))
    blocks = []
    real = subdivision.match_acyclic_pair
    monkeypatch.setattr(
        subdivision, "match_acyclic_pair", lambda pair: blocks.append(pair) or real(pair)
    )
    B = barycentric(torus7()).subdivided
    subdivision.propagate_matching(
        barycentric(B), SubcomplexPair(B), complete_matching(SubcomplexPair(B))
    )
    assert len(blocks) == len(B) // 2
    cases += [(block, None) for block in blocks]
    for pair, signs in cases:
        for field in ("q", "f2"):
            got = match_acyclic_pair(pair, field=field, signs=signs)
            want = match_acyclic_pair_by_layer_complexes(pair, field=field, signs=signs)
            assert json.dumps(io.encode_matching(got)) == json.dumps(
                io.encode_matching(want)
            ), (pair, field)


def test_inconsistent_cw_signs_fail_boundary_squared():
    X = build_cw([
        ("u", 0, []), ("v", 0, []),
        ("e", 1, ["u", "v"]), ("f", 1, ["u", "v"]),
        ("disk", 2, ["e", "f"]),
    ])
    signs = {
        ("e", "u"): -1, ("e", "v"): 1,
        ("f", "u"): -1, ("f", "v"): 1,
        ("disk", "e"): 1, ("disk", "f"): 1,
    }
    with pytest.raises(PreconditionError, match="boundary squared"):
        chain_complex(SubcomplexPair(X), field="q", signs=signs)
    # a disk on one edge: its boundary's boundary u + v is nonzero mod 2
    Y = build_cw([("u", 0, []), ("v", 0, []), ("e", 1, ["u", "v"]), ("disk", 2, ["e"])])
    with pytest.raises(PreconditionError, match="boundary squared"):
        chain_complex(SubcomplexPair(Y), field="f2")


def test_cw_signs_are_read_only_among_the_pairs_cells():
    X = build_cw([
        ("u", 0, []), ("v", 0, []),
        ("e", 1, ["u", "v"]), ("f", 1, ["u", "v"]),
        ("disk", 2, ["e", "f"]),
    ])
    full = {
        ("e", "u"): -1, ("e", "v"): 1,
        ("f", "u"): -1, ("f", "v"): 1,
        ("disk", "e"): 1, ("disk", "f"): -1,
    }
    partial = {k: s for k, s in full.items() if k[1] != "u"}
    # relative to u, no boundary entry reaches u
    bv = betti_numbers(SubcomplexPair(X, ["u"]), field="q", signs=partial)
    assert bv.betti == (0, 0, 0)
    with pytest.raises(PreconditionError, match=r"missing incidence sign for \(e, u\)"):
        chain_complex(SubcomplexPair(X), field="q", signs=partial)
    with pytest.raises(PreconditionError, match=r"missing incidence sign for \(disk, f\)"):
        chain_complex(SubcomplexPair(X), field="q", signs={**full, ("disk", "f"): 2})
    # over f2 the table is not read
    assert chain_complex(SubcomplexPair(X), field="f2", signs={}).rank(2) == 1


def test_postcondition_raises_under_optimize():
    script = (
        "import cellmatch.homology as homology\n"
        "from cellmatch import SubcomplexPair\n"
        "from cellmatch.generators import simplex\n"
        "from cellmatch.matching import MatchingReport\n"
        "if __debug__:\n"
        "    raise SystemExit('assertions are enabled')\n"
        "homology.validate_matching = lambda pair, m: MatchingReport(False, ('forced',))\n"
        "try:\n"
        "    homology.match_acyclic_pair(SubcomplexPair(simplex(2), ['0']))\n"
        "except AssertionError as err:\n"
        "    print('raised:', err)\n"
    )
    src = os.path.dirname(os.path.dirname(cellmatch.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "raised: acyclic-pair matching failed validation" in result.stdout
