from __future__ import annotations

import random

import pytest

from cellmatch import (
    io,
    HallCertificate,
    InvalidComplexError,
    InvalidMatchingError,
    InvalidSubdivisionError,
    Matching,
    SubcomplexPair,
    SubdivisionMap,
    betti_numbers,
    build_cw,
    complete_matching,
    euler_characteristic,
    from_simplices,
    match_acyclic_pair,
    match_dual_cycle,
    spanning_dual_loop,
    validate_matching,
)
from cellmatch.generators import circle, interval, simplex, sphere_boundary, torus7, wedge
from cellmatch.subdivision import barycentric, propagate_matching

from conftest import face_poset_chains, propagation_blocks, two_disc_sphere


def test_barycentric_circle():
    smap = barycentric(circle(3))
    X2 = smap.subdivided
    assert len(X2.cells_of_dim(0)) == 6
    assert len(X2.cells_of_dim(1)) == 6


def test_barycentric_triangle_counts():
    smap = barycentric(simplex(2))
    X2 = smap.subdivided
    assert len(X2.cells_of_dim(0)) == 7
    assert len(X2.cells_of_dim(1)) == 12
    assert len(X2.cells_of_dim(2)) == 6
    assert euler_characteristic(SubcomplexPair(X2)) == 1


def test_barycentric_edge_is_path():
    smap = barycentric(simplex(1))
    X2 = smap.subdivided
    assert len(X2.cells_of_dim(0)) == 3
    assert len(X2.cells_of_dim(1)) == 2


def test_carrier_vertices_named_after_cells():
    smap = barycentric(simplex(1))
    assert smap.carrier["b0"] == "0"
    assert smap.carrier["b0.1"] == "0.1"
    assert set(smap.carrier.values()) == set(smap.source.cells())


def test_carrier_invariants_validate():
    for X in (circle(4), simplex(2), simplex(3)):
        smap = barycentric(X)
        smap.validate()  # monotone carrier + interior Euler counts


def test_carrier_validation_catches_corruption():
    smap = barycentric(simplex(1))
    bad = dict(smap.carrier)
    bad["b0"] = "0.1"
    with pytest.raises(InvalidSubdivisionError):
        SubdivisionMap(smap.source, smap.subdivided, bad).validate()


def _without_b0(carrier):
    return {c: s for c, s in carrier.items() if c != "b0"}


@pytest.mark.parametrize(
    "change, message",
    [
        (_without_b0, "no carrier recorded for b0"),
        (lambda carrier: {**carrier, "bx": "0"}, "carrier names unknown cell bx"),
        (lambda carrier: {**carrier, "b0": "x"}, "carrier of b0 names unknown cell x"),
    ],
    ids=["no_carrier", "unknown_subdivided_cell", "unknown_source_cell"],
)
def test_carrier_validation_names_unknown_cells(change, message):
    smap = barycentric(simplex(1))
    bad = SubdivisionMap(smap.source, smap.subdivided, change(dict(smap.carrier)))
    with pytest.raises(InvalidSubdivisionError) as err:
        bad.validate()
    assert str(err.value) == message


def test_propagate_rejects_a_map_of_another_complex():
    smap = barycentric(circle(3))
    pair = SubcomplexPair(circle(4))
    with pytest.raises(InvalidSubdivisionError) as err:
        propagate_matching(smap, pair, complete_matching(pair))
    assert str(err.value) == "subdivision map does not cover the pair's complex"


def _bare_2_cell():
    """An edge and a 2-cell with no hyperfaces (allowed for cw cells)."""
    return build_cw([("a", 0, []), ("b", 0, []), ("e", 1, ["a", "b"]), ("Z", 2, [])])


_CHAIN_CASES = {
    "torus7": torus7,
    "sphere_boundary3": lambda: sphere_boundary(3),
    "torus7_piece": lambda: torus7().restrict(torus7().closure(["0.1.3", "0.2.3", "1.2.4"])),
    "mixed_tokens": lambda: from_simplices([[9, 10, "a"], ["a", 10, 11], ["b", 9], [100, "a"]]),
    "cw_two_disc_sphere": two_disc_sphere,
    "cw_bare_2_cell": _bare_2_cell,
}


@pytest.mark.parametrize("case", sorted(_CHAIN_CASES))
def test_barycentric_equals_face_poset_chains(case):
    """One subdivided cell per chain of the face poset, carried by the
    chain's largest cell."""
    X = _CHAIN_CASES[case]()
    smap = barycentric(X)
    Y = smap.subdivided
    chains = face_poset_chains(X)
    assert len(Y) == len(chains)
    assert set(smap.carrier) == set(Y.cells())
    got = {frozenset(Y.vertices(c)): smap.carrier[c] for c in Y.cells()}
    assert got == {frozenset("b" + c for c in ch): ch[-1] for ch in chains}


@pytest.mark.parametrize("case", sorted(_CHAIN_CASES))
def test_barycentric_lists_carried_cells_as_a_fresh_map_does(case):
    """The carried cells ``barycentric`` fills in equal, in order, those a
    map built from its carrier dict alone derives."""
    smap = barycentric(_CHAIN_CASES[case]())
    fresh = SubdivisionMap(smap.source, smap.subdivided, dict(smap.carrier))
    assert list(smap._carried.items()) == list(fresh._carried.items())


@pytest.mark.parametrize("extra, message", [
    ([], "vertex sets ('ba', 'bb') and ('ba.bb',) share the cell id 'ba.bb'"),
    ([("b.bc", 0, [])], "vertex sets ('bb', 'bc') and ('bb.bc',) share the cell id 'bb.bc'"),
], ids=["one_pair", "two_pairs"])
def test_barycentric_names_the_first_vertex_sets_that_share_an_id(extra, message):
    """The vertex "b"+"a.bb" and the chain of "a" and "b" get one id; with
    "b.bc" too, two pairs do, and the one named is the one the maximal
    flags, walked as ``from_simplices`` walks them, meet first."""
    X = build_cw([("a", 0, []), ("c", 0, []), ("b", 1, ["a", "c"]), ("a.bb", 0, []), *extra])
    with pytest.raises(InvalidComplexError) as err:
        barycentric(X)
    assert str(err.value) == message


def test_cells_over_equals_carrier_scan():
    rng = random.Random(2)
    for X in (circle(4), simplex(3), torus7()):
        smap = barycentric(X)
        cells = list(X.cells())
        for wanted in [[], cells, ["absent"]] + [
            rng.sample(cells, rng.randint(1, 6)) for _ in range(10)
        ]:
            scan = {c for c, s in smap.carrier.items() if s in set(wanted)}
            assert smap.cells_over(wanted) == scan


def test_propagate_long_interval():
    k = 2000
    X = interval(k)
    pair = SubcomplexPair(X, ["0"])
    m = Matching(
        [(str(i), f"{i - 1}.{i}") for i in range(1, k + 1)], relative_to=pair.sub
    )
    smap = barycentric(X)
    pm = propagate_matching(smap, pair, m)
    assert len(pm) == 2 * k
    target = SubcomplexPair(smap.subdivided, smap.cells_over(pair.sub))
    assert validate_matching(target, pm).ok


def test_chi_invariance_under_subdivision():
    for X in (circle(5), simplex(2), wedge()):
        smap = barycentric(X)
        assert euler_characteristic(SubcomplexPair(smap.subdivided)) == (
            euler_characteristic(SubcomplexPair(X))
        )
    # relative version
    X = simplex(2)
    smap = barycentric(X)
    sub = X.closure(["0.1"])
    sub2 = smap.cells_over(sub)
    assert euler_characteristic(SubcomplexPair(X, sub)) == euler_characteristic(
        SubcomplexPair(smap.subdivided, sub2)
    )


def test_propagate_circle_matching():
    X = circle(3)
    pair = SubcomplexPair(X)
    m = match_dual_cycle(X, spanning_dual_loop(X), 0)
    smap = barycentric(X)
    pm = propagate_matching(smap, pair, m)
    assert len(pm) == 6  # 12 subdivided cells
    assert validate_matching(SubcomplexPair(smap.subdivided), pm).ok


def test_propagate_single_edge_rel_vertex():
    X = simplex(1)
    pair = SubcomplexPair(X, ["0"])
    m = Matching([("1", "0.1")], relative_to=pair.sub)
    smap = barycentric(X)
    pm = propagate_matching(smap, pair, m)
    covered = pm.cells()
    assert covered == {"b1", "b0.1", "b0.b0.1", "b0.1.b1"}
    assert len(pm) == 2


def test_propagate_block_coverage_matches_open_cells():
    X = simplex(2)
    pair = SubcomplexPair(X, ["0"])
    m = Matching(
        [("1", "0.1"), ("2", "0.2"), ("1.2", "0.1.2")], relative_to=pair.sub
    )
    smap = barycentric(X)
    pm = propagate_matching(smap, pair, m)
    # the propagated matching covers exactly the cells carried by the
    # interiors of the matched cells
    expected = {
        c
        for c, s in smap.carrier.items()
        if s in {"1", "0.1", "2", "0.2", "1.2", "0.1.2"}
    }
    assert pm.cells() == expected
    target = SubcomplexPair(smap.subdivided, smap.cells_over(pair.sub))
    assert validate_matching(target, pm).ok


def test_propagate_block_betti_zero_at_runtime():
    # every matched block of the propagation is an acyclic pair
    X = simplex(3)
    pair = SubcomplexPair(X, ["0"])
    from cellmatch import match_acyclic_pair

    m = match_acyclic_pair(pair)
    smap = barycentric(X)
    for a, b in m.pairs:
        upper, lower = (a, b) if X.dim_of(a) > X.dim_of(b) else (b, a)
        closed = X.faces(upper) | {upper}
        rim = closed - {upper, lower}
        block = SubcomplexPair(
            smap.subdivided.restrict(smap.cells_over(closed)),
            smap.cells_over(rim),
        )
        assert betti_numbers(block).is_zero()
    pm = propagate_matching(smap, pair, m)
    target = SubcomplexPair(smap.subdivided, smap.cells_over(pair.sub))
    assert validate_matching(target, pm).ok


def test_propagate_validates_only_maps_from_elsewhere(monkeypatch):
    """A map from ``barycentric`` is correct by construction and is not
    validated again. A map from elsewhere is validated once: a map read
    back from its file when it is decoded, and a caller's map inside the
    first call that propagates on it."""
    runs = []
    real = SubdivisionMap.validate
    monkeypatch.setattr(SubdivisionMap, "validate", lambda smap: runs.append(smap) or real(smap))
    X = torus7()
    pair = SubcomplexPair(X)
    matching = complete_matching(pair)
    smap = barycentric(X)
    built = propagate_matching(smap, pair, matching)
    assert runs == []
    decoded = io.decode_subdivision(io.encode_subdivision(smap), X, smap.subdivided)
    assert propagate_matching(decoded, pair, matching) == built
    assert runs == [decoded]
    runs.clear()
    caller_map = SubdivisionMap(X, smap.subdivided, dict(smap.carrier))
    assert propagate_matching(caller_map, pair, matching) == built
    assert propagate_matching(caller_map, pair, matching) == built
    assert runs == [caller_map]


def test_propagate_rejects_a_non_monotone_caller_map():
    smap = barycentric(simplex(1))
    bad = dict(smap.carrier)
    bad["b0.b0.1"] = "0"
    pair = SubcomplexPair(smap.source, ["0"])
    matching = Matching([("1", "0.1")], relative_to=pair.sub)
    caller_map = SubdivisionMap(smap.source, smap.subdivided, bad)
    with pytest.raises(InvalidSubdivisionError) as err:
        propagate_matching(caller_map, pair, matching)
    assert str(err.value) == "carrier not monotone at b0.1 < b0.b0.1"


def test_propagate_on_a_subdivision_that_is_not_barycentric():
    """Edge 0.1 cut in two and edge 1.2 in three: a valid carrier map whose
    two blocks have the same source shape but different cells, so each is
    matched on its own."""
    X = interval(2)
    Y = from_simplices([("0", "a"), ("a", "1"), ("1", "b"), ("b", "c"), ("c", "2")])
    carrier = {c: c for c in ("0", "1", "2")}
    carrier.update({c: "0.1" for c in ("a", "0.a", "1.a")})
    carrier.update({c: "1.2" for c in ("b", "c", "1.b", "b.c", "2.c")})
    smap = SubdivisionMap(X, Y, carrier)
    smap.validate()
    pair = SubcomplexPair(X, ["0"])
    matching = Matching([("1", "0.1"), ("2", "1.2")], relative_to=pair.sub)
    want = Matching(
        [p for block in propagation_blocks(smap, pair, matching)
         for p in match_acyclic_pair(block).pairs],
        relative_to=["0"],
    )
    assert propagate_matching(smap, pair, matching) == want
    assert len(want) == 5


def test_propagate_empty_matching():
    X = circle(3)
    pair = SubcomplexPair(X, X.cells())
    smap = barycentric(X)
    pm = propagate_matching(smap, pair, Matching([], relative_to=pair.sub))
    assert len(pm) == 0
    assert pm.relative_to == frozenset(smap.subdivided.cells())


def test_propagate_rejects_invalid_matching():
    X = circle(3)
    pair = SubcomplexPair(X)
    smap = barycentric(X)
    with pytest.raises(InvalidMatchingError):
        propagate_matching(smap, pair, Matching([("0", "0.1")]))


def test_wedge_stays_unmatchable_depth2():
    X = wedge()
    for _ in range(2):
        smap = barycentric(X)
        X = smap.subdivided
        cert = complete_matching(SubcomplexPair(X))
        assert isinstance(cert, HallCertificate)
        assert cert.deficiency == 1
        assert cert.verify(SubcomplexPair(X))
