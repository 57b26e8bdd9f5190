"""Acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints
one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines as they happen.
"""

from __future__ import annotations

import contextlib
import random
import time
from fractions import Fraction

import pytest

from cellmatch import (
    GeometricComplex,
    HallCertificate,
    Matching,
    PreconditionError,
    SubcomplexPair,
    betti_numbers,
    chain_complex,
    check_transverse,
    complete_matching,
    enumerate_matchings,
    euler_characteristic,
    flow_matching,
    flow_structure,
    from_simplices,
    match_acyclic_pair,
    match_dual_cycle,
    match_sphere_pipeline,
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
from cellmatch.subdivision import barycentric, propagate_matching

from conftest import is_zero_matrix, mat_mul, replay_collapse


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description}")


def test_criterion_1_circle_counts():
    with criterion(1, "every cycle complex has exactly two complete matchings"):
        start = time.monotonic()
        for n in range(3, 11):
            pair = SubcomplexPair(circle(n))
            count, matchings = enumerate_matchings(pair, limit=2)
            assert count == 2
            result = complete_matching(pair)
            assert isinstance(result, Matching)
            assert result.pairs in {m.pairs for m in matchings}
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_wedge_counterexample():
    with criterion(2, "wedge stays certifiably unmatchable through 2 subdivisions"):
        start = time.monotonic()
        X = wedge()
        pair = SubcomplexPair(X)
        cert = complete_matching(pair)
        assert isinstance(cert, HallCertificate)
        assert cert.deficiency == 1
        assert len(cert.cells) == 7 and len(cert.neighborhood) == 6
        assert cert.verify(pair)
        for _ in range(2):
            X = barycentric(X).subdivided
            pair = SubcomplexPair(X)
            cert = complete_matching(pair)
            assert isinstance(cert, HallCertificate)
            assert cert.deficiency == 1
            assert cert.verify(pair)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_euler_necessary_condition():
    with criterion(3, "200 fuzzed sub-pairs: matchings validate, imbalance certifies"):
        rng = random.Random(0xCE11)
        bundled = [
            circle(4), circle(7), simplex(2), simplex(3), sphere_boundary(2),
            sphere_boundary(3), torus7(), wedge(), interval(5), grid_square(2),
            cone(circle(5)),
        ]
        for _ in range(200):
            X = rng.choice(bundled)
            seeds = rng.sample(list(X.cells()), rng.randint(0, 6))
            pair = SubcomplexPair(X, X.closure(seeds))
            outcome = complete_matching(pair)
            if isinstance(outcome, Matching):
                assert validate_matching(pair, outcome).ok
                assert euler_characteristic(pair) == 0
            else:
                assert outcome.verify(pair)
            if euler_characteristic(pair) != 0:
                assert isinstance(outcome, HallCertificate)


def test_criterion_4_acyclic_pair_soundness():
    with criterion(4, "cones rel apex/vertex are acyclic and constructively matched"):
        bases = [circle(k) for k in range(3, 7)]
        bases += [simplex(k) for k in range(1, 7)]
        bases.append(torus7())
        for base in bases:
            X = cone(base)
            for rel in (apex_of(X), "0"):
                pair = SubcomplexPair(X, [rel])
                assert betti_numbers(pair).is_zero()
                m = match_acyclic_pair(pair)
                assert validate_matching(pair, m).ok
                if len(pair.rel_cells) <= 40:
                    count, _ = enumerate_matchings(pair)
                    assert count >= 1


def test_criterion_5_oracle_equivalence():
    with criterion(5, "matcher agrees with brute force on all small bundled pairs"):
        bundled = (
            [circle(n) for n in range(3, 11)]
            + [simplex(k) for k in range(1, 5)]
            + [sphere_boundary(k) for k in range(2, 5)]
            + [interval(k) for k in (1, 4, 9)]
            + [grid_square(1), grid_square(2)]
            + [cone(circle(k)) for k in range(3, 7)]
            + [wedge()]
        )
        for X in bundled:
            pair = SubcomplexPair(X)
            if len(pair.rel_cells) > 40:
                continue
            outcome = complete_matching(pair)
            count, _ = enumerate_matchings(pair)
            assert isinstance(outcome, Matching) == (count >= 1), X


def test_criterion_6_subdivision_propagation():
    with criterion(6, "matchings propagate through barycentric subdivision"):
        # matched cycles
        for n in range(3, 7):
            X = circle(n)
            pair = SubcomplexPair(X)
            m = match_dual_cycle(X, spanning_dual_loop(X), 0)
            smap = barycentric(X)
            pm = propagate_matching(smap, pair, m)
            target = SubcomplexPair(smap.subdivided)
            assert validate_matching(target, pm).ok
        # single-pair blocks: a closed simplex relative to all hyperfaces
        # but one, in each dimension up to 3
        for k in range(1, 4):
            X = simplex(k)
            top = X.cells_of_dim(k)[0]
            kept = sorted(X.hyperfaces(top))[0]
            rim = X.closure(sorted(X.hyperfaces(top))[1:])
            pair = SubcomplexPair(X, rim)
            m = Matching([(kept, top)], relative_to=pair.sub)
            assert validate_matching(pair, m).ok
            smap = barycentric(X)
            # the block relative Betti vectors are zero at runtime
            closed = X.faces(top) | {top}
            block = SubcomplexPair(
                smap.subdivided.restrict(smap.cells_over(closed)),
                smap.cells_over(closed - {top, kept}),
            )
            assert betti_numbers(block).is_zero()
            pm = propagate_matching(smap, pair, m)
            target = SubcomplexPair(smap.subdivided, smap.cells_over(pair.sub))
            assert validate_matching(target, pm).ok


def test_criterion_7_flow_matching():
    with criterion(7, "flow matchings validate on grids and intervals, all laws hold"):
        start = time.monotonic()
        runs = [(grid_square(m), (1, -3)) for m in range(1, 9)]
        runs += [(interval(k), (-1,)) for k in range(1, 21)]
        for X, vec in runs:
            geom = GeometricComplex(X)
            split = check_transverse(geom, vec)
            fs = flow_structure(geom, vec)
            _check_structure_laws(geom, fs)
            pair = SubcomplexPair(X, split.exiting)
            structures = [fs]
            structures += [
                flow_structure(geom, vec, base_rule="random", seed=seed)
                for seed in range(10)
            ]
            for structure in structures:
                m = flow_matching(structure)
                assert validate_matching(pair, m).ok
                for a, b in m.pairs:
                    assert structure.downstream[a] == structure.downstream[b]
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def _check_structure_laws(geom, fs):
    X = geom.complex
    for top in X.top_cells():
        hyper = X.hyperfaces(top)
        stable_h = {f for f in hyper if f in fs.stable[top]}
        unstable_h = {f for f in hyper if f in fs.unstable[top]}
        assert stable_h | unstable_h == set(hyper)  # dichotomy
        assert not (stable_h & unstable_h)
        assert stable_h, f"{top} has no stable hyperface"
        assert fs.unstable_core[top]  # common face of unstable hyperfaces
        core_verts = set(X.vertices(fs.unstable_core[top]))
        for f in unstable_h:
            assert core_verts <= set(X.vertices(f))
        # face stability law for faces off the exiting boundary
        for face in X.faces(top):
            if face in fs.split.exiting:
                continue
            containing = [f for f in hyper if face == f or face in X.faces(f)]
            expected = all(f in stable_h for f in containing)
            assert (face in fs.stable[top]) == expected


def test_criterion_8_worked_example_fidelity():
    with criterion(8, "hand-worked triangle produces exactly the stated pairs"):
        import dataclasses

        coords = {
            0: (Fraction(0), Fraction(0)),   # A
            1: (Fraction(1), Fraction(0)),   # B
            2: (Fraction(1, 2), Fraction(1)),  # C
        }
        geom = GeometricComplex(from_simplices([[0, 1, 2]], coordinates=coords))
        fs = flow_structure(geom, (0, -1))
        assert fs.base_vertex["0.1.2"] == 0
        m_a = flow_matching(fs)
        assert m_a.pairs == {("0.2", "2"), ("0.1.2", "1.2")}  # {C,AC},{BC,ABC}
        fs_b = dataclasses.replace(fs, base_vertex={"0.1.2": 1})
        m_b = flow_matching(fs_b)
        assert m_b.pairs == {("1.2", "2"), ("0.1.2", "0.2")}  # {C,BC},{AC,ABC}


def test_criterion_9_sphere_pipeline():
    with criterion(9, "3-sphere pipeline: 15 pairs in 3+9+3 stages; even dim rejected"):
        X = sphere_boundary(4)
        assert len(X) == 30
        m = match_sphere_pipeline(X)
        assert len(m) == 15
        assert validate_matching(SubcomplexPair(X), m).ok

        def verts(c):
            return set(X.vertices(c))

        stage1 = [
            p for p in m.pairs if {0, 1} <= verts(p[0]) and {0, 1} <= verts(p[1])
        ]
        stage3 = [
            p for p in m.pairs
            if verts(p[0]) < {0, 1, 2} and verts(p[1]) < {0, 1, 2}
        ]
        assert len(stage1) == 3 and len(stage3) == 3
        assert len(m) - len(stage1) - len(stage3) == 9
        with pytest.raises(PreconditionError, match="odd dimension"):
            match_sphere_pipeline(sphere_boundary(3))


def test_criterion_10_homology_sanity():
    with criterion(10, "Betti vectors, field agreement, boundary-squared-zero"):
        for k in range(2, 6):
            bv = betti_numbers(SubcomplexPair(sphere_boundary(k)))
            expected = [0] * k
            expected[0] = 1
            expected[-1] += 1
            assert bv.betti == tuple(expected)
        assert betti_numbers(SubcomplexPair(torus7())).betti == (1, 2, 1)
        bundled = [
            circle(5), simplex(3), sphere_boundary(2), sphere_boundary(3),
            sphere_boundary(4), sphere_boundary(5), torus7(), wedge(),
            interval(4), grid_square(2), cone(circle(4)),
        ]
        for X in bundled:
            pair = SubcomplexPair(X)
            betti_by_field = {}
            for field in ("q", "f2"):
                cc = chain_complex(pair, field=field)
                for d in range(1, X.dim + 1):
                    lower, upper = cc.matrix(d - 1), cc.matrix(d)
                    if lower and upper:
                        assert is_zero_matrix(mat_mul(lower, upper, field))
                bv = betti_numbers(pair, field=field)
                betti_by_field[field] = bv.betti
                assert bv.alternating_sum() == euler_characteristic(pair)
            assert betti_by_field["q"] == betti_by_field["f2"]


def test_criterion_11_orbit_analysis():
    with criterion(11, "cycle matchings are cyclic; cone matching collapses freely"):
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
            for i in range(6):
                a, b = report.orbit[i], report.orbit[(i + 1) % 6]
                low, high = (a, b) if X.dim_of(a) < X.dim_of(b) else (b, a)
                assert low in X.hyperfaces(high)
                assert (m.mate(a) == b) == (i % 2 == 0)

        tri = simplex(2)
        pair2 = SubcomplexPair(tri, ["0"])
        m2 = Matching(
            [("1", "0.1"), ("2", "0.2"), ("1.2", "0.1.2")], relative_to=pair2.sub
        )
        report2 = orbit_analysis(pair2, m2)
        assert report2.classification == "acyclic"
        assert report2.collapse_order[0] == ("1.2", "0.1.2")
        replay_collapse(pair2, report2.collapse_order)
