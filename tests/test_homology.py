from __future__ import annotations

from fractions import Fraction
import json
import random
import subprocess
import sys

import pytest

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
    match_loop_pipeline,
    match_sphere_pipeline,
    star_cycle,
    validate_matching,
)
from cellmatch import Matching, SubdivisionMap, io, pipelines, subdivision
from cellmatch import matching as matching_module
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
    dense_boundary,
    dense_pivot_columns,
    is_zero_matrix,
    mat_mul,
    match_acyclic_pair_by_layer_complexes,
    propagation_blocks,
    relabeled,
    subprocess_env,
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


def test_boundary_squared_zero_both_fields(monkeypatch):
    """The library checks boundary squared only on cw complexes; it must
    hold on every simplicial shape it trusts, pairs and pieces included."""
    pairs = [
        SubcomplexPair(X)
        for X in (
            circle(5), simplex(3), sphere_boundary(2), sphere_boundary(3),
            sphere_boundary(4), sphere_boundary(5), torus7(), wedge(),
            interval(4), grid_square(2), cone(circle(4)), product(circle(3), circle(3)),
            _rp2(), barycentric(torus7()).subdivided,  # str tokens
        )
    ]
    S = sphere_boundary(4)
    piece = S.restrict(S.closure(S.top_cells()[:3]))
    pairs += [
        SubcomplexPair(piece),
        SubcomplexPair(piece, [piece.cells_of_dim(0)[-1]]),
        SubcomplexPair(simplex(3), ["0"]),
        SubcomplexPair(_mixed_dimensions(), ["1.8.9"], close=True),
    ]
    middles = []
    real = pipelines._acyclic_pairs
    monkeypatch.setattr(
        pipelines, "_acyclic_pairs", lambda pair: middles.append(pair) or real(pair)
    )
    match_sphere_pipeline(sphere_boundary(6))
    assert [pair.complex.dim for pair in middles] == [5, 3]
    pairs += middles  # (rest, rim)
    for pair in pairs:
        for field in ("q", "f2"):
            cc = chain_complex(pair, field=field)
            for d in range(1, pair.complex.dim + 1):
                lower, upper = cc.matrix(d - 1), cc.matrix(d)
                if lower and upper:
                    assert is_zero_matrix(mat_mul(lower, upper, field)), (pair, field, d)


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
    with pytest.raises(ValueError) as err:
        betti_numbers(pair, field="z")
    assert str(err.value) == "unknown field 'z'; expected 'q' or 'f2'"


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
    # every layer's boundary, built afresh, is square with full column rank
    grid, signs = _cw_square_grid(3)
    cases = [(pair, None), (SubcomplexPair(grid, ["v0_0"]), signs)]
    cases += [
        (SubcomplexPair(Y, [rel]), None)
        for Y, rel in ((simplex(3), "0"), (cone(circle(5)), "0"), (cone(torus7()), "0"))
    ]
    cases += [
        (_shuffled_grid_rel_vertex(3, seed=3), None),
        (SubcomplexPair(_mixed_dimensions(), ["1.8.9"], close=True), None),
    ]
    for case, case_signs in cases:
        Y = case.complex
        for field in ("q", "f2"):
            layers = list(acyclic_filtration(case, field=field, signs=case_signs).layers())
            assert layers, (case, field)
            for below, stage in layers:
                d = max(Y.dim_of(c) for c in stage - below)
                layer = SubcomplexPair(Y.restrict(stage), below)
                boundary = dense_boundary(layer, d, field, signs=case_signs)
                n_cols = len(boundary[0]) if boundary else 0
                assert n_cols and len(boundary) == n_cols, (case, field, d)
                assert len(dense_pivot_columns(boundary, field)) == n_cols, (case, field, d)


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


def _mixed_dimensions():
    """Triangles and tetrahedra. Relative to the closure of ``1.8.9``, one
    layer has two complete matchings, so which side is on the left and the
    order of the neighbours decide the result."""
    return from_simplices([
        [1, 0, 8], [3, 8, 6, 0], [4, 8, 9, 0], [3, 5, 4], [5, 4, 2, 8],
        [6, 2, 3, 5], [4, 3, 0, 8], [1, 5, 8, 9], [5, 2, 3], [4, 8, 0],
    ])


def test_match_acyclic_pair_equals_layer_complex_oracle():
    cases = [(_shuffled_grid_rel_vertex(m, seed=m), None) for m in (3, 4, 5)]
    for base in (circle(4), circle(7)):
        X = cone(base)
        cases += [(SubcomplexPair(X, [apex_of(X)]), None), (SubcomplexPair(X, ["0"]), None)]
    grid, signs = _cw_square_grid(3)
    cases.append((SubcomplexPair(grid, ["v0_0"]), signs))
    cases.append((SubcomplexPair(_mixed_dimensions(), ["1.8.9"], close=True), None))
    B = barycentric(torus7()).subdivided
    blocks = propagation_blocks(
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


def test_propagate_matching_equals_blockwise_matching(monkeypatch):
    """Blocks that share an indexed shape are matched once and renamed; the
    result must be every block matched on its own, then put together. Maps
    that do not come from ``barycentric`` (a shuffled carrier dict, a map
    read back from its file), and a pair over a copy of the map's source,
    match every block."""
    B = barycentric(torus7()).subdivided
    shared = [SubcomplexPair(relabeled(B, seed)[0]) for seed in (1, 2, 3)]
    cases = [SubcomplexPair(relabeled(torus7(), seed)[0]) for seed in (1, 2, 3)] + shared
    S = sphere_boundary(4)
    cases += [SubcomplexPair(relabeled(X, 5)[0]) for X in (S, barycentric(S).subdivided)]
    cases.append(SubcomplexPair(simplex(3), ["0"]))
    cases.append(SubcomplexPair(grid_square(3), ["0"]))  # ids "10" < "9"
    cases.append(SubcomplexPair(_cw_square_grid(3)[0], ["v0_0"]))
    cases.append(SubcomplexPair(_mixed_dimensions(), ["1.8.9"], close=True))
    runs = [(pair, barycentric(pair.complex)) for pair in cases]
    smap = barycentric(shared[0].complex)
    items = list(smap.carrier.items())
    random.Random(4).shuffle(items)
    shuffled = SubdivisionMap(smap.source, smap.subdivided, dict(items))
    decoded = io.decode_subdivision(io.encode_subdivision(smap), smap.source, smap.subdivided)
    assert list(shuffled.carrier) != list(smap.carrier) != list(decoded.carrier)
    foreign = [shuffled, decoded]
    runs += [(shared[0], other) for other in foreign]
    copy = io.decode_complex(io.encode_complex(smap.source))
    runs.append((SubcomplexPair(copy), smap))
    calls = []
    real = subdivision._acyclic_pairs
    monkeypatch.setattr(
        subdivision, "_acyclic_pairs", lambda pair: calls.append(pair) or real(pair)
    )
    for pair, smap in runs:
        matching = complete_matching(pair)
        assert isinstance(matching, Matching), pair
        blocks = propagation_blocks(smap, pair, matching)
        want = Matching(
            [p for block in blocks for p in match_acyclic_pair(block).pairs],
            relative_to=smap.cells_over(pair.sub),
        )
        calls.clear()
        got = subdivision.propagate_matching(smap, pair, matching)
        assert json.dumps(io.encode_matching(got)) == json.dumps(
            io.encode_matching(want)
        ), pair
        if any(smap is other for other in foreign) or pair.complex is not smap.source:
            assert len(calls) == len(blocks)
        elif pair in shared:
            assert 0 < len(calls) < len(blocks), (len(calls), len(blocks))


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


def _stdout_under_optimize(body: str) -> str:
    """Run ``body`` in a child interpreter under ``python -O``, which strips
    ``assert`` statements, and return what it prints."""
    script = "if __debug__:\n    raise SystemExit('assertions are enabled')\n" + body
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


# Per construction: the text of its post-condition, and a script that sets
# X to the complex of its final check and `run` to the construction.
_POSTCONDITIONS = {
    "acyclic": (
        "acyclic-pair matching failed validation",
        "X = simplex(2)\n"
        "run = lambda: cellmatch.match_acyclic_pair(SubcomplexPair(X, ['0']))\n",
    ),
    "sphere": (
        "sphere pipeline output invalid",
        "X = sphere_boundary(4)\n"
        "run = lambda: cellmatch.match_sphere_pipeline(X)\n",
    ),
    "loop": (
        "loop pipeline output invalid",
        "X = sphere_boundary(3)\n"
        "loop = cellmatch.star_cycle(X, '0')\n"
        "run = lambda: cellmatch.match_loop_pipeline(X, loop, base=['0', '1'])\n",
    ),
    "propagation": (
        "propagated matching failed validation",
        "smap = cellmatch.barycentric(circle(3))\n"
        "pair = SubcomplexPair(smap.source)\n"
        "X, m = smap.subdivided, cellmatch.complete_matching(pair)\n"
        "run = lambda: cellmatch.propagate_matching(smap, pair, m)\n",
    ),
    "flow": (
        "flow matching failed validation",
        "X = interval(4)\n"
        "fs = cellmatch.flow_structure(cellmatch.GeometricComplex(X), (1,))\n"
        "run = lambda: cellmatch.flow_matching(fs)\n",
    ),
}


@pytest.mark.parametrize("construction", list(_POSTCONDITIONS))
def test_postcondition_raises_under_optimize(construction):
    """Each construction's final check fails on its own complex X, with
    every inner check left real, and raises its own text."""
    text, script = _POSTCONDITIONS[construction]
    stdout = _stdout_under_optimize(
        "import cellmatch\n"
        "import cellmatch.matching as matching\n"
        "from cellmatch import SubcomplexPair\n"
        "from cellmatch.generators import circle, interval, simplex, sphere_boundary\n"
        + script
        + "real = matching._covers\n"
        "matching._covers = lambda pair, m: False if pair.complex is X else real(pair, m)\n"
        "try:\n"
        "    run()\n"
        "except AssertionError as err:\n"
        "    print('raised:', err)\n"
    )
    assert f"raised: {text}" in stdout


def _sphere_output():
    X = sphere_boundary(6)
    return SubcomplexPair(X), match_sphere_pipeline(X)


def _loop_output():
    X = sphere_boundary(3)
    m = match_loop_pipeline(X, star_cycle(X, "0"), base=["0", "1"])
    return SubcomplexPair(X, ["0", "1"]), m


def _propagation_output():
    smap = barycentric(torus7())
    pair = SubcomplexPair(smap.source)
    m = subdivision.propagate_matching(smap, pair, complete_matching(pair))
    return SubcomplexPair(smap.subdivided, m.relative_to), m


@pytest.mark.parametrize("run", [_sphere_output, _loop_output, _propagation_output])
def test_each_construction_checks_its_output_once(monkeypatch, run):
    """A construction that glues parts checks no part on its own: its one
    ``_covers`` call is on the output pair and its matching."""
    seen = []
    real = matching_module._covers
    monkeypatch.setattr(
        matching_module,
        "_covers",
        lambda pair, m: seen.append((pair, m)) or real(pair, m),
    )
    pair, m = run()
    assert len(seen) == 1, len(seen)
    checked_pair, checked = seen[0]
    assert checked is m
    assert checked_pair.complex is pair.complex
    assert checked_pair.sub == pair.sub


def test_layer_check_raises_under_optimize():
    """With lowest rows that miss the leftover cells, the layer walk raises
    its own error."""
    stdout = _stdout_under_optimize(
        "import cellmatch.homology as homology\n"
        "from cellmatch import SubcomplexPair\n"
        "from cellmatch.generators import simplex\n"
        "real = homology.ChainComplex._reduced\n"
        "def shifted(self, d):\n"
        "    lows = real(self, d)\n"
        "    return {j: low + 1 for j, low in lows.items()} if d == 1 else lows\n"
        "homology.ChainComplex._reduced = shifted\n"
        "try:\n"
        "    homology.match_acyclic_pair(SubcomplexPair(simplex(2), ['0']))\n"
        "except AssertionError as err:\n"
        "    print('raised:', err)\n"
    )
    assert (
        "raised: layer 1: 2 leftover cells of dimension 0 are not the lowest rows "
        "of its 2 selected cells of dimension 1"
    ) in stdout, stdout
