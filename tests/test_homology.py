from __future__ import annotations

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
    enumerate_matchings,
    euler_characteristic,
    from_simplices,
    match_acyclic_pair,
    validate_matching,
)
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

from conftest import dense_boundary, dense_pivot_columns, is_zero_matrix, mat_mul


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
            interval(4), grid_square(2), cone(circle(4)),
        )
    ]
    pairs.append(_shuffled_grid_rel_vertex(3, seed=11))
    for pair in pairs:
        for field in ("q", "f2"):
            cc = chain_complex(pair, field=field)
            for d in range(pair.complex.dim + 1):
                dense = dense_boundary(pair, d, field)
                assert cc.matrix(d) == dense, (pair, field, d)
                pivots = dense_pivot_columns(dense, field)
                assert list(cc.pivot_columns(d)) == pivots, (pair, field, d)
                assert cc.rank(d) == len(pivots)


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
