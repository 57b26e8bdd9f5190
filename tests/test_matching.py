from __future__ import annotations

import random

import pytest

from cellmatch import (
    BruteForceBoundError,
    GeometricComplex,
    HallCertificate,
    InvalidMatchingError,
    Matching,
    SubcomplexPair,
    cell_id,
    complete_matching,
    compose_matchings,
    enumerate_matchings,
    euler_characteristic,
    flow_matching,
    flow_structure,
    from_simplices,
    incidence_graph,
    match_acyclic_pair,
    match_dual_cycle,
    orbit_analysis,
    spanning_dual_loop,
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

from conftest import (
    count_matchings_by_permutations,
    greedy_collapse_order,
    matchings_by_backtracking,
    relabeled,
    replay_collapse,
    shuffled_path_rel_end,
)


def test_incidence_graph_circle():
    g = incidence_graph(SubcomplexPair(circle(3)))
    assert len(g.even) == 3 and len(g.odd) == 3
    assert sum(len(g.adjacency[c]) for c in g.even) == 6


def test_incidence_graph_triangle_rel_vertex():
    pair = SubcomplexPair(simplex(2), ["0"])
    g = incidence_graph(pair)
    assert set(g.even) == {"1", "2", "0.1.2"}
    assert set(g.odd) == {"0.1", "0.2", "1.2"}
    adjacency_pairs = sum(len(g.adjacency[c]) for c in g.even)
    assert adjacency_pairs == 7


def test_incidence_graph_symmetry():
    g = incidence_graph(SubcomplexPair(torus7()))
    for c, nbrs in g.adjacency.items():
        for n in nbrs:
            assert c in g.adjacency[n]


def test_incidence_graph_empty_rel_whole():
    X = circle(4)
    pair = SubcomplexPair(X, X.cells())
    g = incidence_graph(pair)
    assert not g.even and not g.odd


def test_complete_matching_circle4():
    pair = SubcomplexPair(circle(4))
    m = complete_matching(pair)
    assert isinstance(m, Matching)
    assert len(m) == 4
    assert validate_matching(pair, m).ok


def test_wedge_certificate():
    pair = SubcomplexPair(wedge())
    cert = complete_matching(pair)
    assert isinstance(cert, HallCertificate)
    assert cert.side == "even"
    assert len(cert.cells) == 7
    assert len(cert.neighborhood) == 6
    assert cert.deficiency == 1
    assert cert.verify(pair)


def test_parity_certificate_triangle():
    pair = SubcomplexPair(simplex(2))
    cert = complete_matching(pair)
    assert isinstance(cert, HallCertificate)
    assert cert.side == "even"
    assert len(cert.cells) == 4 and len(cert.neighborhood) == 3
    assert cert.verify(pair)


def test_certificate_without_parity_shortcut():
    pair = SubcomplexPair(simplex(2))
    cert = complete_matching(pair, use_parity_shortcut=False)
    assert isinstance(cert, HallCertificate)
    assert cert.verify(pair)


def test_validate_roundtrip_and_violations():
    pair = SubcomplexPair(circle(4))
    m = complete_matching(pair)
    assert validate_matching(pair, m).ok

    bad = Matching([("0", "0.1.2.3")])
    report = validate_matching(SubcomplexPair(simplex(3)), bad)
    assert not report.ok
    assert any(v.startswith("not incident") for v in report.violations)
    assert any(v.startswith("uncovered") for v in report.violations)


def test_validate_reports_every_uncovered_cell():
    pair = SubcomplexPair(circle(3))
    report = validate_matching(pair, Matching([("0", "0.1")]))
    uncovered = {v.split(": ")[1] for v in report.violations if v.startswith("uncovered")}
    assert uncovered == {"1", "2", "0.2", "1.2"}


def test_enumerate_circle_counts():
    for k in range(3, 9):
        count, matchings = enumerate_matchings(SubcomplexPair(circle(k)), limit=2)
        assert count == 2
        assert len(matchings) == 2
        assert matchings[0].pairs != matchings[1].pairs


def test_enumerate_odd_cell_count_is_zero():
    count, _ = enumerate_matchings(SubcomplexPair(simplex(1)))
    assert count == 0


def test_enumerate_triangle_rel_vertex_is_three():
    pair = SubcomplexPair(simplex(2), ["0"])
    assert count_matchings_by_permutations(pair) == 3
    count, _ = enumerate_matchings(pair)
    assert count == 3


def test_enumerate_agrees_with_permutation_oracle():
    cases = [
        SubcomplexPair(circle(5)),
        SubcomplexPair(simplex(2), ["0"]),
        SubcomplexPair(simplex(3), ["0"]),
        SubcomplexPair(sphere_boundary(3)),
        SubcomplexPair(cone(circle(3)), [apex_of(cone(circle(3)))]),
    ]
    for pair in cases:
        expected = count_matchings_by_permutations(pair)
        count, _ = enumerate_matchings(pair)
        assert count == expected


def test_enumerate_lists_in_backtracking_order():
    cases = [
        SubcomplexPair(circle(6)),
        SubcomplexPair(simplex(3), ["0"]),
        SubcomplexPair(sphere_boundary(3)),
        SubcomplexPair(grid_square(2), ["0"]),
        SubcomplexPair(cone(circle(4)), ["0"]),
        SubcomplexPair(cone(circle(4)), [apex_of(cone(circle(4)))]),
        SubcomplexPair(simplex(1)),
        SubcomplexPair(circle(3), circle(3).cells()),
    ]
    for pair in cases:
        count, expected = matchings_by_backtracking(pair, limit=10**9)
        for limit in (1, 3, count, count + 5):
            got_count, found = enumerate_matchings(pair, limit=limit)
            assert got_count == count, pair
            assert [m.sorted_pairs() for m in found] == [
                m.sorted_pairs() for m in expected[:limit]
            ]


def test_enumerate_depth_does_not_grow_with_the_input():
    # 1500 pairs deep: past the interpreter's default recursion limit
    pair = SubcomplexPair(interval(1500), ["0"])
    count, found = enumerate_matchings(pair, limit=1, bound=10**6)
    assert count == 1
    assert validate_matching(pair, found[0]).ok


def test_enumerate_bound():
    with pytest.raises(BruteForceBoundError):
        enumerate_matchings(SubcomplexPair(torus7()))
    count, _ = enumerate_matchings(SubcomplexPair(torus7()), bound=42)
    assert count == 193_548


def test_enumerate_sphere_boundary_4_count():
    # the count the benchmark checks its enumerate op against
    count, _ = enumerate_matchings(SubcomplexPair(sphere_boundary(4)))
    assert count == 82_584


def test_enumerate_unbalanced_even_sized_pair_is_zero():
    # a triangle and two points: eight cells, five even and three odd
    pair = SubcomplexPair(from_simplices([[0, 1], [1, 2], [0, 2], [3], [4]]))
    assert len(pair.rel_cells) == 8
    assert len(pair.rel_even) != len(pair.rel_odd)
    assert enumerate_matchings(pair, limit=3) == (0, [])


def test_enumerate_pair_with_every_cell_in_the_base_lists_the_empty_matching():
    X = torus7()
    count, found = enumerate_matchings(SubcomplexPair(X, X.cells()), limit=3)
    assert count == 1
    assert found == [Matching([], relative_to=X.cells())]


def test_match_dual_cycle_two_orientations():
    X = circle(3)
    loop = spanning_dual_loop(X)
    m0 = match_dual_cycle(X, loop, 0)
    m1 = match_dual_cycle(X, loop, 1)
    pair = SubcomplexPair(X)
    assert validate_matching(pair, m0).ok
    assert validate_matching(pair, m1).ok
    assert not (m0.pairs & m1.pairs)
    assert m0.pairs == {("0", "0.1"), ("0.2", "2"), ("1", "1.2")}


def test_match_dual_cycle_torus():
    from cellmatch import complement_of_dual_loop, find_dual_loop

    X = torus7()
    loop = find_dual_loop(X, lambda pair: True, budget=10)
    pair = complement_of_dual_loop(X, loop)
    for orientation in (0, 1):
        m = match_dual_cycle(X, loop, orientation)
        assert len(m) == loop.k
        assert validate_matching(pair, m).ok


def test_match_dual_cycle_long_circle():
    X = circle(3000)
    loop = spanning_dual_loop(X)
    m = match_dual_cycle(X, loop, 1)
    assert len(m) == 3000
    assert m.relative_to == frozenset()
    assert validate_matching(SubcomplexPair(X), m).ok


def test_match_dual_cycle_relative_to_complement():
    from cellmatch import complement_of_dual_loop, find_dual_loop

    X = torus7()
    loop = find_dual_loop(X, lambda pair: True, budget=10)
    rest = set(X.cells()) - set(loop.cells)
    assert match_dual_cycle(X, loop, 0).relative_to == rest
    assert complement_of_dual_loop(X, loop).sub == rest


def test_two_matchings_share_no_pair_property():
    for k in (3, 5, 8):
        X = circle(k)
        loop = spanning_dual_loop(X)
        m0 = match_dual_cycle(X, loop, 0)
        m1 = match_dual_cycle(X, loop, 1)
        assert not (m0.pairs & m1.pairs)


def test_matching_soundness_and_euler_on_random_pairs():
    rng = random.Random(20240801)
    bundled = [circle(6), simplex(3), sphere_boundary(3), torus7(), wedge()]
    for _ in range(60):
        X = rng.choice(bundled)
        seeds = rng.sample(list(X.cells()), rng.randint(0, 5))
        pair = SubcomplexPair(X, X.closure(seeds))
        outcome = complete_matching(pair)
        if isinstance(outcome, Matching):
            assert validate_matching(pair, outcome).ok
            assert euler_characteristic(pair) == 0
        else:
            assert outcome.verify(pair)
        if euler_characteristic(pair) != 0:
            assert isinstance(outcome, HallCertificate)


def test_enumerate_agrees_with_backtracking_on_shuffled_pairs():
    rng = random.Random(271)
    figure_eight_and_point = from_simplices(
        [[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4], [5]]
    )
    bundled = [
        circle(6), simplex(3), sphere_boundary(3), wedge(), grid_square(2),
        cone(circle(4)), figure_eight_and_point,
    ]
    counts = set()
    for _ in range(60):
        X, _ = relabeled(rng.choice(bundled), rng.randrange(1 << 30))
        seeds = rng.sample(list(X.cells()), rng.randint(0, 4))
        pair = SubcomplexPair(X, X.closure(seeds))
        limit = rng.randint(0, 9)
        count, found = enumerate_matchings(pair, limit=limit)
        expected_count, expected = matchings_by_backtracking(pair, limit)
        assert count == expected_count
        assert [m.sorted_pairs() for m in found] == [m.sorted_pairs() for m in expected]
        counts.add(min(count, 2))
    assert counts == {0, 1, 2}


def test_oracle_equivalence_small_pairs():
    rng = random.Random(99)
    bundled = [circle(4), circle(7), simplex(2), simplex(3), sphere_boundary(2), sphere_boundary(3)]
    for _ in range(40):
        X = rng.choice(bundled)
        seeds = rng.sample(list(X.cells()), rng.randint(0, 4))
        pair = SubcomplexPair(X, X.closure(seeds))
        if len(pair.rel_cells) > 40:
            continue
        outcome = complete_matching(pair)
        count, _ = enumerate_matchings(pair)
        assert isinstance(outcome, Matching) == (count >= 1)


def test_complete_matching_agrees_with_permutation_oracle_on_shuffled_pairs():
    rng = random.Random(314)
    figure_eight_and_point = from_simplices(
        [[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4], [5]]
    )
    bundled = [
        circle(5), circle(6), simplex(2), simplex(3), sphere_boundary(3), wedge(),
        figure_eight_and_point,
    ]
    kinds = set()
    for _ in range(120):
        X, _ = relabeled(rng.choice(bundled), rng.randrange(1 << 30))
        seeds = rng.sample(list(X.cells()), rng.randint(0, 5))
        pair = SubcomplexPair(X, X.closure(seeds))
        graph = incidence_graph(pair)
        balanced = len(graph.even) == len(graph.odd)
        if balanced and len(graph.even) > 7:
            continue
        count = count_matchings_by_permutations(pair)
        kinds.add((balanced, count > 0))
        for shortcut in (True, False):
            outcome = complete_matching(pair, use_parity_shortcut=shortcut)
            if count > 0:
                assert isinstance(outcome, Matching)
                assert validate_matching(pair, outcome).ok
            else:
                assert isinstance(outcome, HallCertificate)
                assert outcome.verify(pair)
    assert kinds == {(True, True), (True, False), (False, False)}


def test_orbit_circle_is_cyclic_length6():
    X = circle(3)
    pair = SubcomplexPair(X)
    loop = spanning_dual_loop(X)
    for orientation in (0, 1):
        m = match_dual_cycle(X, loop, orientation)
        report = orbit_analysis(pair, m)
        assert report.classification == "cyclic"
        assert len(report.orbit) == 6
        dims = [X.dim_of(c) for c in report.orbit]
        assert dims == [0, 1, 0, 1, 0, 1]
        # consecutive cells incident; mates exactly at odd steps
        for i in range(6):
            a, b = report.orbit[i], report.orbit[(i + 1) % 6]
            low, high = (a, b) if X.dim_of(a) < X.dim_of(b) else (b, a)
            assert low in X.hyperfaces(high)
            if i % 2 == 0:
                assert m.mate(a) == b
            else:
                assert m.mate(a) != b


def test_orbit_triangle_rel_vertex_acyclic():
    pair = SubcomplexPair(simplex(2), ["0"])
    m = Matching([("1", "0.1"), ("2", "0.2"), ("1.2", "0.1.2")], relative_to=pair.sub)
    report = orbit_analysis(pair, m)
    assert report.classification == "acyclic"
    assert report.collapse_order[0] == ("1.2", "0.1.2")
    replay_collapse(pair, report.collapse_order)


def test_orbit_single_edge_one_step():
    pair = SubcomplexPair(simplex(1), ["0"])
    m = Matching([("1", "0.1")], relative_to=pair.sub)
    report = orbit_analysis(pair, m)
    assert report.classification == "acyclic"
    assert report.collapse_order == (("1", "0.1"),)


def test_orbit_rejects_invalid_matching():
    pair = SubcomplexPair(circle(3))
    with pytest.raises(InvalidMatchingError):
        orbit_analysis(pair, Matching([("0", "0.1")]))


def test_collapse_replay_on_cone():
    X = cone(circle(4))
    pair = SubcomplexPair(X, [apex_of(X)])  # relative to the apex
    from cellmatch import match_acyclic_pair

    m = match_acyclic_pair(pair)
    report = orbit_analysis(pair, m)
    if report.classification == "acyclic":
        replay_collapse(pair, report.collapse_order)


def _shuffled_acyclic_cases():
    rng = random.Random(2718)
    for k in (3, 4, 5):
        X, _ = relabeled(grid_square(k), rng.randrange(1 << 30))
        pair = SubcomplexPair(X, [rng.choice(X.cells_of_dim(0))])
        yield pair, match_acyclic_pair(pair)
    for k, direction in ((3, (1, -3)), (4, (-2, 1)), (5, (3, 1))):
        X, _ = relabeled(grid_square(k), rng.randrange(1 << 30))
        fs = flow_structure(GeometricComplex(X), direction)
        yield SubcomplexPair(X, fs.rel_base()), flow_matching(fs)
    for k in (1, 7, 40):
        X, perm = relabeled(interval(k), rng.randrange(1 << 30))
        pair = SubcomplexPair(X, [str(perm[rng.choice((0, k))])])
        yield pair, complete_matching(pair)


def test_collapse_order_equals_greedy_rescan():
    for pair, m in _shuffled_acyclic_cases():
        report = orbit_analysis(pair, m)
        assert report.classification == "acyclic"
        assert list(report.collapse_order) == greedy_collapse_order(pair, m)


def test_collapse_order_long_shuffled_interval_runs_back_to_base():
    n = 3000
    X, perm = relabeled(interval(n), seed=11)
    pair = SubcomplexPair(X, [str(perm[0])])
    report = orbit_analysis(pair, complete_matching(pair))
    assert report.collapse_order == tuple(
        (str(perm[i]), cell_id([perm[i - 1], perm[i]])) for i in range(n, 0, -1)
    )


def test_compose_matchings():
    empty = compose_matchings([])
    assert len(empty) == 0
    a = Matching([("0", "0.1")])
    b = Matching([("1", "1.2")])
    union = compose_matchings([a, b])
    assert len(union) == 2
    with pytest.raises(InvalidMatchingError, match="duplicated: 0.1"):
        compose_matchings([a, Matching([("0.1", "0.1.2")])])


def test_complete_matching_deterministic():
    pair = SubcomplexPair(torus7())
    first = complete_matching(pair)
    second = complete_matching(pair)
    assert first == second


def test_long_shuffled_path_matches_at_default_recursion_limit():
    pair = shuffled_path_rel_end(5000, seed=3)
    m = complete_matching(pair)
    assert isinstance(m, Matching)
    assert len(m) == 5000
    assert validate_matching(pair, m).ok
