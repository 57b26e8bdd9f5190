from __future__ import annotations

import hashlib
import json
from itertools import combinations, islice, permutations

import pytest

from cellmatch import (
    BettiVector,
    DualLoop,
    HomologyNonzeroError,
    InvalidLoopError,
    PreconditionError,
    SearchBudgetExceededError,
    SubcomplexPair,
    betti_numbers,
    build_cw,
    cell_id,
    complement_of_dual_loop,
    find_dual_loop,
    from_simplices,
    match_dual_cycle,
    match_loop_pipeline,
    match_sphere_pipeline,
    spanning_dual_loop,
    star_cycle,
    validate_matching,
)
from cellmatch import homology, io, pipelines
from cellmatch.cli import main
from cellmatch.generators import circle, product, simplex, sphere_boundary, torus7
from cellmatch.subdivision import barycentric

from conftest import (
    dual_loops_by_rewalk,
    relabeled,
    sphere_pipeline_by_recursion,
    sphere_pipeline_checking_every_step,
)


def _annulus_complement(pair) -> bool:
    if not pair.sub:
        return False
    Y = pair.complex.restrict(pair.sub)
    return betti_numbers(SubcomplexPair(Y)).betti == (1, 1, 0)


def _find_core_circle(Y):
    """Smallest vertex cycle of Y's 1-skeleton that Y collapses to."""
    vertices = [int(v) for v in Y.cells() if Y.dim_of(v) == 0]
    edges = {c for c in Y.cells() if Y.dim_of(c) == 1}
    for r in range(3, len(vertices) + 1):
        for subset in combinations(vertices, r):
            for perm in permutations(subset[1:]):
                cyc = (subset[0],) + perm
                ids = [cell_id([cyc[i], cyc[(i + 1) % r]]) for i in range(r)]
                if all(e in edges for e in ids):
                    cells = frozenset(ids) | frozenset(str(v) for v in cyc)
                    if betti_numbers(SubcomplexPair(Y, cells)).is_zero():
                        return cells
    return None


def test_sphere_pipeline_4_boundary():
    X = sphere_boundary(4)
    m = match_sphere_pipeline(X)
    assert len(m) == 15
    assert validate_matching(SubcomplexPair(X), m).ok
    # stage pair counts 3 + 9 + 3 around sigma=0.1.2, tau=0.1
    def verts(c):
        return set(X.vertices(c))

    stage1 = [p for p in m.pairs if {0, 1} <= verts(p[0]) and {0, 1} <= verts(p[1])]
    stage3 = [p for p in m.pairs if verts(p[0]) < {0, 1, 2} and verts(p[1]) < {0, 1, 2}]
    assert len(stage1) == 3
    assert len(stage3) == 3
    assert len(m) - len(stage1) - len(stage3) == 9


def test_sphere_pipeline_circle_base_case():
    X = circle(6)
    m = match_sphere_pipeline(X)
    assert len(m) == 6
    assert validate_matching(SubcomplexPair(X), m).ok


def test_sphere_pipeline_rejects_even_dimension():
    with pytest.raises(PreconditionError, match="odd dimension"):
        match_sphere_pipeline(sphere_boundary(3))


def test_sphere_pipeline_rejects_non_sphere():
    figure8 = from_simplices([[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]])
    with pytest.raises(HomologyNonzeroError):
        match_sphere_pipeline(figure8)


# Homology spheres over f2 whose pipeline meets, at some step, a cell of
# codimension 1 with no hyperface or no such cell at all, with the error
# each raises. The third passes its 5-sphere step; its rim is the 3-sphere
# of ``_cw_three_sphere`` with one edge pair and a cancelling disk "a".
_STEP_FAULTS = {
    "no_hyperface": (
        [("v0", 0, []), ("f", 2, []), ("t0", 3, ["f"]), ("t1", 3, ["f"])],
        "3-sphere step: f has no hyperfaces",
    ),
    "no_codimension_1_cell": (
        [("v0", 0, []), ("t", 3, [])],
        "3-sphere step: no cell of dimension 2",
    ),
    "second_step": (
        [
            ("v0", 0, []), ("v1", 0, []),
            ("e0", 1, ["v0", "v1"]), ("e1", 1, ["v0", "v1"]),
            ("a", 2, []), ("f0", 2, ["e0", "e1"]), ("f1", 2, ["e0", "e1"]),
            ("s0", 3, ["a"]), ("s1", 3, ["a", "f0", "f1"]), ("t0", 3, ["f0", "f1"]),
            ("g0", 4, ["s0", "s1", "t0"]), ("g1", 4, ["s0", "s1", "t0"]),
            ("b0", 5, ["g0", "g1"]), ("b1", 5, ["g0", "g1"]),
        ],
        "3-sphere step: a has no hyperfaces",
    ),
}


@pytest.mark.parametrize("case", sorted(_STEP_FAULTS))
def test_sphere_pipeline_step_without_a_hyperface_is_a_precondition_error(case):
    """A cw homology sphere need not have a codimension-1 cell with a
    hyperface at every step; the step names its cell in a
    PreconditionError instead of failing on an empty tuple."""
    records, message = _STEP_FAULTS[case]
    X = build_cw(records)
    n = X.dim
    assert betti_numbers(SubcomplexPair(X)).betti == (1, *[0] * (n - 1), 1)
    with pytest.raises(PreconditionError) as err:
        match_sphere_pipeline(X)
    assert str(err.value) == message


def _cw_three_sphere():
    """A 3-sphere with two cells in each dimension, each pair glued along
    the two cells below; with no sign table it is matched over f2."""
    return build_cw([
        ("v0", 0, []), ("v1", 0, []),
        ("e0", 1, ["v0", "v1"]), ("e1", 1, ["v0", "v1"]),
        ("f0", 2, ["e0", "e1"]), ("f1", 2, ["e0", "e1"]),
        ("t0", 3, ["f0", "f1"]), ("t1", 3, ["f0", "f1"]),
    ])


# Each sphere, and the chain complexes its pipeline builds: one for the
# input's Betti numbers and one per acyclic step.
_SPHERES = {
    "circle6": (lambda: circle(6), 1),
    "sphere4": (lambda: sphere_boundary(4), 2),
    "sphere6": (lambda: sphere_boundary(6), 3),
    "bary_sphere4_relabeled": (
        lambda: relabeled(barycentric(sphere_boundary(4)).subdivided, 3)[0], 2
    ),
    "cw_three_sphere": (_cw_three_sphere, 2),
}


@pytest.mark.parametrize("make", [make for make, _ in _SPHERES.values()], ids=list(_SPHERES))
def test_sphere_pipeline_equals_recursion_oracle(make):
    """The loop down the dimensions matches the recursive construction
    pair for pair; sphere_boundary(6) takes three steps."""
    X = make()
    m = match_sphere_pipeline(X)
    assert m == sphere_pipeline_by_recursion(X)
    assert 2 * len(m) == len(X)


@pytest.mark.parametrize("make, chain_complexes", list(_SPHERES.values()), ids=list(_SPHERES))
def test_sphere_pipeline_checks_its_input_sphere_once(monkeypatch, make, chain_complexes):
    """Betti numbers are computed once, for the input; every other chain
    complex is the acyclic pair of one step."""
    X = make()
    calls, built = [], []
    real_betti, real_init = pipelines.betti_numbers, homology.ChainComplex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(
        pipelines, "betti_numbers", lambda pair: calls.append(pair) or real_betti(pair)
    )
    monkeypatch.setattr(homology.ChainComplex, "__init__", counting_init)
    m = match_sphere_pipeline(X)
    assert [pair.complex for pair in calls] == [X]
    assert len(built) == chain_complexes
    assert m == sphere_pipeline_checking_every_step(X)


def _two_three_spheres():
    tops = [sphere_boundary(4).vertices(c) for c in sphere_boundary(4).top_cells()]
    return from_simplices(tops + [[v + 5 for v in t] for t in tops])


@pytest.mark.parametrize(
    "make",
    [
        lambda: from_simplices([[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]]),
        lambda: product(circle(4), sphere_boundary(3)),
        lambda: product(circle(3), torus7()),
        _two_three_spheres,
        lambda: sphere_boundary(3),
        lambda: _pillow(),
    ],
    ids=["figure8", "circle_x_sphere2", "circle_x_torus", "two_three_spheres",
         "sphere2", "pillow"],
)
def test_sphere_pipeline_raises_as_a_check_of_every_step(make):
    """On non-spheres the pipeline raises what a check of every sphere
    raises: the same type, text and Betti numbers."""
    X = make()
    with pytest.raises((PreconditionError, HomologyNonzeroError)) as expected:
        sphere_pipeline_checking_every_step(X)
    with pytest.raises(expected.type) as err:
        match_sphere_pipeline(X)
    assert str(err.value) == str(expected.value)
    assert getattr(err.value, "betti", None) == getattr(expected.value, "betti", None)


def test_sphere_pipeline_on_the_47292_cell_rung():
    """barycentric(sphere_boundary(6)), 47 292 cells, gives the recorded
    matching: the first 16 hex digits of the sha256 of its sorted pairs
    as JSON."""
    X = barycentric(sphere_boundary(6)).subdivided
    assert len(X) == 47292
    pairs = match_sphere_pipeline(X).sorted_pairs()
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:16] == "983d99883e4831e4"


def test_find_dual_loop_torus_annulus():
    X = torus7()
    loop = find_dual_loop(X, _annulus_complement, budget=3000)
    assert loop is not None
    pair = complement_of_dual_loop(X, loop)
    assert _annulus_complement(pair)


def test_find_dual_loop_none_on_sphere():
    X = sphere_boundary(3)

    def impossible(pair):
        if not pair.sub:
            return False
        Y = pair.complex.restrict(pair.sub)
        return betti_numbers(SubcomplexPair(Y)).is_zero()

    assert find_dual_loop(X, impossible, budget=10000) is None


def test_find_dual_loop_full_circle():
    X = circle(5)
    loop = find_dual_loop(X, lambda pair: not pair.sub, budget=100)
    assert loop is not None
    assert loop.k == 5
    assert set(loop.cells) == set(X.cells())


def test_find_dual_loop_budget_exhaustion():
    X = torus7()
    calls = []
    with pytest.raises(SearchBudgetExceededError, match="within budget 5"):
        find_dual_loop(X, lambda pair: calls.append(pair) and False, budget=5)
    assert len(calls) == 5  # the predicate runs exactly budget times


def _pillow():
    """A 2-sphere of a bigon and two triangles; the triangles share two
    edges, so two dual links join them."""
    return build_cw([
        ("a", 0, []), ("b", 0, []), ("c", 0, []),
        ("ab1", 1, ["a", "b"]), ("ab2", 1, ["a", "b"]),
        ("bc", 1, ["b", "c"]), ("ca", 1, ["c", "a"]),
        ("F1", 2, ["ab1", "ab2"]),
        ("F2", 2, ["ab1", "bc", "ca"]),
        ("F3", 2, ["ab2", "bc", "ca"]),
    ])


def _bary_torus7(seed=None):
    X = barycentric(torus7()).subdivided
    return X if seed is None else relabeled(X, seed)[0]


def _bary_mobius():
    """barycentric of the 5-vertex Moebius band; its dual graph is not
    bipartite, and its shortest odd cycle has length 15."""
    band = from_simplices([[i, (i + 1) % 5, (i + 2) % 5] for i in range(5)])
    return barycentric(band).subdivided


def _bary_torus7_and_k4():
    """barycentric(torus7), whose dual graph is bipartite, beside a
    relabelled tetrahedron boundary, whose dual graph K4 has triangles."""
    X, K = _bary_torus7(), relabeled(sphere_boundary(3), 1)[0]
    tops = [X.vertices(c) for c in X.cells_of_dim(2)]
    return from_simplices(tops + [K.vertices(c) for c in K.cells_of_dim(2)])


def _search(monkeypatch, X, predicate, budget):
    """find_dual_loop's result, or "over budget", and the loops it tried,
    in the order it tried them."""
    tried = []
    complement = pipelines._part_pair

    def recording(complex, cells):
        tried.append(tuple(cells))
        return complement(complex, cells)

    monkeypatch.setattr(pipelines, "_part_pair", recording)
    try:
        return pipelines.find_dual_loop(X, predicate, budget=budget), tried
    except SearchBudgetExceededError:
        return "over budget", tried


@pytest.mark.parametrize(
    "make, budget",
    [
        (torus7, None),
        (lambda: sphere_boundary(3), None),
        (lambda: circle(5), None),
        (lambda: circle(12), None),
        (_pillow, None),
        (_bary_torus7, 2000),
        (lambda: _bary_torus7(1), 2000),
        (lambda: _bary_torus7(2), 2000),
        (lambda: _bary_torus7(3), 2000),
        (_bary_mobius, None),
        (_bary_torus7_and_k4, 2000),
    ],
    ids=[
        "torus7", "sphere3", "circle5", "circle12", "pillow", "bary_torus7",
        "bary_torus7_seed1", "bary_torus7_seed2", "bary_torus7_seed3",
        "bary_mobius", "bary_torus7_and_k4",
    ],
)
def test_find_dual_loop_candidates_equal_rewalk_oracle(monkeypatch, make, budget):
    X = make()
    expected = list(islice(dual_loops_by_rewalk(X), budget))
    # a full enumeration gets a budget of exactly its length and ends first
    outcome, tried = _search(
        monkeypatch, X, lambda pair: False, budget or len(expected)
    )
    assert tried == expected
    assert outcome == ("over budget" if budget else None)


@pytest.mark.parametrize(
    "make", [torus7, lambda: circle(12), _pillow, _bary_torus7, _bary_mobius,
             _bary_torus7_and_k4],
    ids=["torus7", "circle12", "pillow", "bary_torus7", "bary_mobius", "bary_torus7_and_k4"],
)
def test_find_dual_loop_trusts_the_loops_it_builds(monkeypatch, make):
    """The search validates no candidate; each one it tries is valid."""
    X = make()
    validated = []
    real = DualLoop.validate
    monkeypatch.setattr(
        DualLoop, "validate", lambda loop, complex: validated.append(loop) or real(loop, complex)
    )
    _, tried = _search(monkeypatch, X, lambda pair: False, 2000)
    assert tried and validated == []
    for sequence in tried:
        DualLoop(sequence).validate(X)
    assert len(validated) == len(tried)


def _pair_fields(pair):
    return pair.sub, pair.rel_cells, pair.rel_even, pair.rel_odd, repr(pair)


@pytest.mark.parametrize(
    "make", [torus7, _pillow, lambda: circle(12), _bary_torus7],
    ids=["torus7", "pillow", "circle12", "bary_torus7"],
)
def test_loop_complement_equals_constructor_oracle(monkeypatch, make):
    X = make()
    _, tried = _search(monkeypatch, X, lambda pair: False, 2000)
    assert tried
    cells = set(X.cells())
    for sequence in tried:
        loop = DualLoop(sequence)
        pair = complement_of_dual_loop(X, loop)
        oracle = SubcomplexPair(X, cells - set(loop.cells))
        assert _pair_fields(pair) == _pair_fields(oracle), sequence


def test_loop_complement_builds_sub_when_first_read():
    X = barycentric(_bary_torus7()).subdivided
    loop = find_dual_loop(X, lambda pair: True, budget=1)
    pair = complement_of_dual_loop(X, loop)
    assert len(pair.rel_cells) == len(loop.cells)
    repr(pair)
    assert "sub" not in vars(pair)
    assert pair.sub == frozenset(X.cells()) - set(loop.cells)
    assert "sub" in vars(pair)
    assert isinstance(pair.sub, frozenset)


def _third_coface_complex():
    """Three triangles round vertex 0 form a disc; a fourth triangle on
    the edge 0.1 gives that link a third coface."""
    return from_simplices([[0, 1, 2], [0, 1, 3], [0, 2, 3], [0, 1, 4]])


@pytest.mark.parametrize(
    "cells, message",
    [
        (("0.1.2", "0.1", "0.1.2", "0.2"), "not simple: repeated cell 0.1.2"),
        (("0.1.2", "0.1", "nope", "0.2"), "unknown cell 'nope'"),
        (("0.1.2", "0.1", "0.3", "0.2"), "0.3 is not a top-dimensional cell"),
        (
            ("0.1.2", "0.1", "0.1.3", "0.3", "0.2.3", "0.2"),
            "0.1 must have exactly the two cofaces ['0.1.2', '0.1.3'], "
            "found ['0.1.2', '0.1.3', '0.1.4']",
        ),
        (("0.1.2", "1", "0.1.3", "0.1"), "1 is not a codimension-1 cell"),
        # a bad link comes first, but every top is checked before any link
        (("0.1.2", "1", "0.3", "0.2"), "0.3 is not a top-dimensional cell"),
    ],
    ids=["repeat", "unknown", "not_top", "third_coface", "not_codim1", "two_faults"],
)
def test_loop_complement_rejects_invalid_loops(cells, message):
    X = _third_coface_complex()
    loop = DualLoop(cells)
    for check in (loop.validate, lambda X: complement_of_dual_loop(X, loop)):
        with pytest.raises(InvalidLoopError) as err:
            check(X)
        assert str(err.value) == message


def test_cli_dualloop_complement_empty(tmp_path, capsys):
    c = tmp_path / "c.json"
    t = tmp_path / "t.json"
    loop = tmp_path / "loop.json"
    assert main(["generate", "circle", "--params", "3", "-o", str(c)]) == 0
    assert main(["dualloop", "find", str(c), "--complement-empty", "-o", str(loop)]) == 0
    assert io.load_loop(str(loop)) == spanning_dual_loop(io.load_complex(str(c)))
    loop.unlink()
    assert main(["generate", "torus7", "-o", str(t)]) == 0
    capsys.readouterr()
    assert main(["dualloop", "find", str(t), "--complement-empty",
                 "--budget", "50", "-o", str(loop)]) == 2
    assert "within budget 50" in capsys.readouterr().err
    assert not loop.exists()


def test_pillow_tries_its_parallel_links_first(monkeypatch):
    _, tried = _search(monkeypatch, _pillow(), lambda pair: False, 10)
    assert tried[0] == ("F2", "bc", "F3", "ca")
    assert len(tried) == 3


def test_find_dual_loop_hit_on_last_allowed_candidate():
    X = torus7()
    fifth = list(islice(dual_loops_by_rewalk(X), 5))[-1]
    calls = []

    def on_fifth(pair):
        calls.append(pair)
        return len(calls) == 5

    loop = find_dual_loop(X, on_fifth, budget=5)
    assert loop is not None and loop.cells == fifth


def test_find_dual_loop_ends_before_budget():
    X = torus7()
    total = sum(1 for _ in dual_loops_by_rewalk(X))
    for budget in (total, 10 * total):
        calls = []
        assert find_dual_loop(X, lambda pair: calls.append(pair) and False, budget) is None
        assert len(calls) == total


def test_find_dual_loop_long_circle():
    X = circle(150)
    loop = find_dual_loop(X, lambda pair: not pair.sub)
    assert loop is not None and loop.k == 150
    assert set(loop.cells) == set(X.cells())


def test_find_dual_loop_second_subdivision_runs_to_budget():
    X = barycentric(_bary_torus7()).subdivided
    calls = []
    with pytest.raises(SearchBudgetExceededError):
        find_dual_loop(X, lambda pair: calls.append(pair) or not pair.sub, budget=2000)
    assert len(calls) == 2000


def test_loop_pipeline_torus():
    X = torus7()
    loop = find_dual_loop(X, _annulus_complement, budget=3000)
    Y = X.restrict(complement_of_dual_loop(X, loop).sub)
    core = _find_core_circle(Y)
    assert core is not None
    m = match_loop_pipeline(X, loop, base=(), circle_cells=core)
    assert len(m) == 21  # all 42 cells
    assert validate_matching(SubcomplexPair(X), m).ok


@pytest.mark.parametrize("n", [3, 5])
def test_loop_pipeline_loop_through_every_cell(n):
    """The loop that ``--complement-empty`` finds on a circle leaves no
    complement: its cycle matching is the whole answer."""
    X = circle(n)
    loop = find_dual_loop(X, lambda pair: len(pair.rel_cells) == len(X))
    assert set(loop.cells) == set(X.cells())
    m = match_loop_pipeline(X, loop)
    assert m == match_dual_cycle(X, loop, 0)
    assert len(m) == n and validate_matching(SubcomplexPair(X), m).ok


def test_loop_pipeline_rejects_bad_complement():
    X = torus7()
    # the cycle around vertex 0 is contractible: its complement is a
    # punctured torus plus a stranded vertex, never acyclic rel a circle
    loop = star_cycle(X, "0")
    core = frozenset({"1", "2", "3", "1.2", "2.3", "1.3"})
    with pytest.raises(HomologyNonzeroError) as err:
        match_loop_pipeline(X, loop, base=(), circle_cells=core)
    assert not err.value.betti.is_zero()


def test_loop_pipeline_error_keeps_the_complements_dimension():
    """The dual loop through all 14 triangles of torus7 leaves a graph of
    7 vertices and 7 edges. Its Betti vector has the complement's length,
    as for a copy of the complement, not the torus's (1, 1, 0)."""
    X = torus7()
    loop = find_dual_loop(X, lambda pair: len(pair.rel_cells) == 28)
    assert loop.cells[:3] == ("0.1.3", "0.1", "0.1.5")
    with pytest.raises(HomologyNonzeroError) as err:
        match_loop_pipeline(X, loop)
    assert str(err.value) == "loop complement is not acyclic relative to the base: betti (1, 1)"
    assert err.value.betti == BettiVector((1, 1), "q")


def test_loop_pipeline_reduces_once(monkeypatch):
    X = torus7()
    loop = find_dual_loop(X, _annulus_complement, budget=3000)
    core = _find_core_circle(X.restrict(complement_of_dual_loop(X, loop).sub))
    built = []
    real_init = homology.ChainComplex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(homology.ChainComplex, "__init__", counting_init)
    match_loop_pipeline(X, loop, base=(), circle_cells=core)
    assert len(built) == 1
    built.clear()
    bad_core = frozenset({"1", "2", "3", "1.2", "2.3", "1.3"})
    with pytest.raises(HomologyNonzeroError) as err:
        match_loop_pipeline(X, star_cycle(X, "0"), base=(), circle_cells=bad_core)
    assert len(built) == 1
    assert str(err.value).startswith(
        "loop complement is not acyclic relative to the base: betti "
    )
    assert not err.value.betti.is_zero()


def _cylinder_rims(X):
    """The two boundary circles of product(circle(3), simplex(1))."""
    return [
        X.closure([cell_id([2 * a + s, 2 * ((a + 1) % 3) + s]) for a in range(3)])
        for s in (0, 1)
    ]


def test_loop_pipeline_rejects_two_circles_before_reducing(monkeypatch):
    X = product(circle(3), simplex(1))
    bottom, top = _cylinder_rims(X)
    loop = find_dual_loop(X, lambda pair: True, budget=100)
    built = []
    real_init = homology.ChainComplex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(homology.ChainComplex, "__init__", counting_init)
    with pytest.raises(PreconditionError, match="single cycle"):
        match_loop_pipeline(X, loop, base=(), circle_cells=bottom | top)
    assert built == []


def test_cli_loop_pipeline_two_circles_is_exit_3(tmp_path):
    X = product(circle(3), simplex(1))
    bottom, top = _cylinder_rims(X)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("x", "loop", "circle")}
    io.save_complex(X, paths["x"])
    io.save_loop(find_dual_loop(X, lambda pair: True, budget=100), paths["loop"])
    io.save_subcomplex(bottom | top, paths["circle"])
    argv = ["pipeline", "loop", paths["x"], "--loop", paths["loop"],
            "--circle", paths["circle"], "-o", str(tmp_path / "m.json")]
    assert main(argv) == 3


def _product_sphere_loop():
    """Dual loop of product(circle(3), sphere_boundary(3)) running once
    around the circle factor over the base triangle (1,2,3)."""
    stride = 4

    def enc(a, b):
        return a * stride + b

    def tet_path(a0, a1, t):
        b0, b1, b2 = t
        tets = (
            [enc(a0, b0), enc(a0, b1), enc(a0, b2), enc(a1, b2)],
            [enc(a0, b0), enc(a0, b1), enc(a1, b1), enc(a1, b2)],
            [enc(a0, b0), enc(a1, b0), enc(a1, b1), enc(a1, b2)],
        )
        return [cell_id(T) for T in tets]

    t = (1, 2, 3)
    seq = []
    for a0, a1, forward in ((0, 1, True), (1, 2, True), (0, 2, False)):
        t1, t2, t3 = tet_path(a0, a1, t)
        mid12 = cell_id([enc(a0, t[0]), enc(a0, t[1]), enc(a1, t[2])])
        mid23 = cell_id([enc(a0, t[0]), enc(a1, t[1]), enc(a1, t[2])])
        exit_low = cell_id([enc(a0, b) for b in t])
        exit_high = cell_id([enc(a1, b) for b in t])
        if forward:
            seq += [t1, mid12, t2, mid23, t3, exit_high]
        else:
            seq += [t3, mid23, t2, mid12, t1, exit_low]
    return DualLoop(tuple(seq))


def test_loop_pipeline_product_sphere():
    X = product(circle(3), sphere_boundary(3))
    loop = _product_sphere_loop()
    loop.validate(X)
    core = frozenset(
        {cell_id([a * 4]) for a in range(3)}
        | {cell_id([0, 4]), cell_id([4, 8]), cell_id([0, 8])}
    )
    m = match_loop_pipeline(X, loop, base=(), circle_cells=core)
    assert 2 * len(m) == len(X)
    assert validate_matching(SubcomplexPair(X), m).ok


def test_loop_pipeline_disjointness_checks():
    X = torus7()
    loop = find_dual_loop(X, _annulus_complement, budget=3000)
    with pytest.raises(PreconditionError, match="disjoint"):
        match_loop_pipeline(X, loop, base=X.closure([loop.cells[0]]))


def _triangle_rim(X, top):
    return X.closure(X.facets(top))


@pytest.mark.parametrize(
    "base, circle, message",
    [
        (["1.2"], None, "base is not a subcomplex"),
        ((), lambda X: {"1.2"}, "circle subcomplex is not closed under hyperfaces"),
        ((), lambda X: X.closure(["1.2.4"]), "circle subcomplex must consist of vertices and edges"),
        ((), lambda X: _triangle_rim(X, "0.1.3"), "circle must be disjoint from the loop cells"),
        (["1"], lambda X: _triangle_rim(X, "1.2.4"), "circle must be disjoint from the base"),
    ],
    ids=["base_not_closed", "circle_not_closed", "circle_with_2_cell", "circle_meets_loop",
         "circle_meets_base"],
)
def test_loop_pipeline_rejects_bad_base_and_circle(base, circle, message):
    X = torus7()
    loop = star_cycle(X, "0")
    with pytest.raises(PreconditionError) as err:
        match_loop_pipeline(X, loop, base=base, circle_cells=circle and circle(X))
    assert str(err.value) == message


def test_loop_pipeline_annulus_with_boundary_base():
    # a cylinder over a 3-cycle, matched relative to both boundary circles:
    # the dual loop runs around the middle and its complement collapses
    # onto the boundary
    from cellmatch import euler_characteristic
    from cellmatch.generators import product, simplex

    X = product(circle(3), simplex(1))
    base = X.closure(
        [cell_id([2 * a, 2 * ((a + 1) % 3)]) for a in range(3)]
        + [cell_id([2 * a + 1, 2 * ((a + 1) % 3) + 1]) for a in range(3)]
    )
    assert euler_characteristic(SubcomplexPair(X, base)) == 0

    def acyclic_rel_base(pair):
        if not pair.sub:
            return False
        Y = pair.complex.restrict(pair.sub)
        return betti_numbers(SubcomplexPair(Y, base)).is_zero()

    loop = find_dual_loop(X, acyclic_rel_base, budget=3000)
    assert loop is not None
    m = match_loop_pipeline(X, loop, base=base)
    target = SubcomplexPair(X, base)
    assert validate_matching(target, m).ok
    assert 2 * len(m) == len(target.rel_cells)
