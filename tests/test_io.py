from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from cellmatch import (
    FileFormatError,
    GeometricComplex,
    HallCertificate,
    SubcomplexPair,
    betti_numbers,
    build_cw,
    complete_matching,
    direction,
    flow_matching,
    flow_structure,
    from_simplices,
    validate_matching,
)
from cellmatch import io
from cellmatch.generators import circle, grid_square, torus7
from cellmatch.homology import BettiVector, Filtration
from cellmatch.subdivision import barycentric
from conftest import simplicial_tables_by_combinations


def test_complex_roundtrip_simplicial(tmp_path):
    X = torus7()
    path = tmp_path / "t.json"
    io.save_complex(X, str(path))
    Y = io.load_complex(str(path))
    assert Y.cells() == X.cells()
    assert Y.kind == X.kind


def test_complex_roundtrip_with_coordinates(tmp_path):
    X = grid_square(2)
    path = tmp_path / "g.json"
    io.save_complex(X, str(path))
    Y = io.load_complex(str(path))
    assert Y.coordinates == X.coordinates
    assert Y.coordinates[4] == (Fraction(1), Fraction(1))


def test_complex_roundtrip_cw(tmp_path):
    X = build_cw([
        ("u", 0, []), ("v", 0, []),
        ("e", 1, ["u", "v"]), ("f", 1, ["u", "v"]),
        ("disk", 2, ["e", "f"]),
    ])
    path = tmp_path / "cw.json"
    io.save_complex(X, str(path))
    Y = io.load_complex(str(path))
    assert Y.cells() == X.cells()
    assert Y.hyperfaces("disk") == {"e", "f"}


def test_complex_roundtrip_subdivided(tmp_path):
    X2 = barycentric(circle(3)).subdivided
    path = tmp_path / "sd.json"
    io.save_complex(X2, str(path))
    Y = io.load_complex(str(path))
    assert Y.cells() == X2.cells()


def test_complex_roundtrip_mixed_int_and_str_tokens(tmp_path):
    X = from_simplices([[0, "a"], ["b", "c"], [2, 1, "a"]])
    assert io.encode_complex(X)["simplices"] == [[0, "a"], [1, 2, "a"], ["b", "c"]]
    path = tmp_path / "mixed.json"
    io.save_complex(X, str(path))
    Y = io.load_complex(str(path))
    assert Y.cells() == X.cells()
    assert [Y.vertices(c) for c in Y.cells()] == [X.vertices(c) for c in X.cells()]


@pytest.mark.parametrize("token", ["7", "\u00b2"])
def test_coordinates_keep_str_tokens_that_read_as_digits(tmp_path, token):
    X = from_simplices(
        [[token, "x", "y"]], coordinates={token: (0, 0), "x": (1, 0), "y": (0, 1)}
    )
    path = tmp_path / "t.json"
    io.save_complex(X, str(path))
    Y = io.load_complex(str(path))
    assert Y.coordinates == X.coordinates
    assert set(Y.coordinates) == {token, "x", "y"}
    matching = flow_matching(flow_structure(GeometricComplex(Y), direction(1, 3)))
    assert validate_matching(SubcomplexPair(Y, matching.relative_to), matching).ok


def test_coordinate_keys_naming_no_token():
    Y = io.decode_complex({
        "format": io.COMPLEX_FORMAT,
        "kind": "simplicial",
        "simplices": [[0, 1]],
        "coordinates": {"0": ["0"], "1": ["1"], "-2": ["2"], "\u00b2": ["3"], "x": ["4"]},
    })
    assert set(Y.coordinates) == {0, 1, -2, "\u00b2", "x"}


def test_complex_rejects_floats():
    with pytest.raises(FileFormatError):
        io.decode_complex({
            "format": io.COMPLEX_FORMAT,
            "kind": "simplicial",
            "simplices": [[0, 1]],
            "coordinates": {"0": [0.5], "1": [1.5]},
        })


def _simplicial(simplices, coordinates=None) -> dict:
    obj = {"format": io.COMPLEX_FORMAT, "kind": "simplicial", "simplices": simplices}
    if coordinates is not None:
        obj["coordinates"] = coordinates
    return obj


_LABELS = {
    "ints_from_0": lambda rng: list(range(9)),
    "sparse_ints": lambda rng: rng.sample(range(60), 9),
    "strs": lambda rng: [f"v{n}" for n in rng.sample(range(60), 9)],
    "digit_strs": lambda rng: [str(n) for n in rng.sample(range(60), 9)],
    "mixed": lambda rng: [n if n % 2 else str(n) for n in rng.sample(range(60), 9)],
}


@pytest.mark.parametrize("case", sorted(_LABELS))
def test_decoded_complex_equals_combinations_oracle(case):
    """Seeded simplices, each listing its tokens in random order, decode to
    the tables ``itertools.combinations`` gives."""
    rng = random.Random(case)
    for _ in range(8):
        labels = _LABELS[case](rng)
        simplices = [[t] for t in labels]
        simplices += [rng.sample(labels, rng.randint(1, 4)) for _ in range(rng.randint(1, 9))]
        rng.shuffle(simplices)
        X = io.decode_complex(_simplicial(simplices))
        oracle = simplicial_tables_by_combinations(simplices)
        assert X.cells() == tuple(oracle["order"])
        for c in oracle["order"]:
            v = oracle["verts"][c]
            assert X.dim_of(c) == oracle["dims"][c] and X.vertices(c) == v, c
            dropped = [v[:i] + v[i + 1:] for i in range(len(v))] if len(v) > 1 else []
            assert [X.vertices(f) for f in X.facets(c)] == dropped, c
            assert X.cofacets(c) == tuple(sorted(oracle["cofaces"][c], key=X.sort_key)), c


@pytest.mark.parametrize(
    "text", ["2/4", "-0/3", "5", " 1/2", "1_0/3", "\u0661/\u0662", "-7/014", "+3/6", "0/1"]
)
def test_coordinate_texts_read_as_fraction_does(text):
    Y = io.decode_complex(_simplicial([[0, 1]], {"0": [text, text], "1": ["1/3", text]}))
    assert Y.coordinates == {0: (Fraction(text),) * 2, 1: (Fraction(1, 3), Fraction(text))}
    assert all(type(x) is Fraction for point in Y.coordinates.values() for x in point)


_BAD_SIMPLEX = "expected a list of integer or string vertex tokens"


@pytest.mark.parametrize(
    "obj, message",
    [
        (_simplicial([[0, 1]], {"0": ["1/0"], "1": ["0"]}), "bad rational '1/0'"),
        (_simplicial([[0, 1]], {"0": ["0"], "1": ["1/00"]}), "bad rational '1/00'"),
        (_simplicial([[0, 1]], {"0": ["1/2"], "1": [None]}), "bad rational None"),
        (
            _simplicial([[0, 1]], {"0": ["1/2"], "1": [1.5]}),
            "floating-point numbers are rejected; use 'p/q' text",
        ),
        # the bulk check finds a fault; the pass in file order names the first
        (
            _simplicial([[0, 1]], {"0": ["1/2", 1.5], "1": ["1/0"]}),
            "floating-point numbers are rejected; use 'p/q' text",
        ),
        (
            _simplicial([[0, 1, 2]], {"0": ["1/2"], "1": ["1/3"], "2": ["0", "x"]}),
            "bad rational 'x'",
        ),
        (_simplicial([[0, 1], [0, True]]), f"bad simplex [0, True]: {_BAD_SIMPLEX}"),
        (_simplicial([[0, 1], [2, 1.5], "ab"]), f"bad simplex [2, 1.5]: {_BAD_SIMPLEX}"),
        (_simplicial([[0, 1], "01"]), f"bad simplex '01': {_BAD_SIMPLEX}"),
        (_simplicial([[0, 1], {"0": 1}]), f"bad simplex {{'0': 1}}: {_BAD_SIMPLEX}"),
    ],
    ids=["zero_den", "zero_den_padded", "null", "float", "float_before_zero_den",
         "only_fault_under_later_key", "bool_token", "first_of_two",
         "str_simplex", "object_simplex"],
)
def test_complex_file_faults_keep_their_texts(obj, message):
    with pytest.raises(FileFormatError) as err:
        io.decode_complex(obj)
    assert str(err.value) == message


def test_complex_bad_format_tag():
    with pytest.raises(FileFormatError, match="format"):
        io.decode_complex({"format": "nope", "kind": "simplicial", "simplices": [[0]]})


def test_subcomplex_roundtrip(tmp_path):
    path = tmp_path / "sub.json"
    io.save_subcomplex(["0", "1", "0.1"], str(path), closure=False)
    cells, closure = io.load_subcomplex(str(path))
    assert set(cells) == {"0", "1", "0.1"}
    assert closure is False


def test_loop_roundtrip(tmp_path):
    from cellmatch import spanning_dual_loop

    X = circle(4)
    loop = spanning_dual_loop(X)
    path = tmp_path / "loop.json"
    io.save_loop(loop, str(path))
    back = io.load_loop(str(path))
    assert back.cells == loop.cells
    back.validate(X)


def test_matching_roundtrip_sorted(tmp_path):
    X = circle(4)
    m = complete_matching(SubcomplexPair(X))
    path = tmp_path / "m.json"
    io.save_matching(m, str(path))
    data = io.read_json(str(path))
    assert data["pairs"] == sorted(data["pairs"])
    back = io.load_matching(str(path))
    assert back == m


@pytest.mark.parametrize(
    "pairs, named",
    [
        ([["a", "b"], ["c"], ["d", 5]], "['c']"),
        ([["a", "b"], "cd"], "'cd'"),
        ([["a", "b", "c"]], "['a', 'b', 'c']"),
        ([["a", "b"], ["c", None]], "['c', None]"),
        ([["a", "b"], ["c", "d"], {"e": "f"}], "{'e': 'f'}"),
    ],
    ids=["first_of_two_bad", "not_a_list", "three_ids", "null_id", "object_pair"],
)
def test_matching_file_names_its_first_bad_pair(pairs, named):
    obj = {"format": io.MATCHING_FORMAT, "relative_to": [], "pairs": pairs}
    with pytest.raises(FileFormatError) as err:
        io.decode_matching(obj)
    assert str(err.value) == f"bad matching pair {named}: expected two ids"


def test_certificate_roundtrip(tmp_path):
    cert = HallCertificate("even", frozenset({"a", "b"}), frozenset({"x"}), 1)
    path = tmp_path / "cert.json"
    io.save_certificate(cert, str(path))
    back = io.load_certificate(str(path))
    assert back == cert


def test_betti_roundtrip():
    bv = betti_numbers(SubcomplexPair(torus7()))
    back = io.decode_betti(io.encode_betti(bv))
    assert back == bv


def test_filtration_encode():
    filt = Filtration((frozenset(), frozenset({"0", "1", "0.1"})))
    obj = io.encode_filtration(filt)
    assert obj["stages"][1] == ["0", "0.1", "1"]
    assert io.decode_filtration(obj).stages[1] == filt.stages[1]


def test_subdivision_roundtrip(tmp_path):
    smap = barycentric(circle(3))
    obj = io.encode_subdivision(smap)
    back = io.decode_subdivision(obj, smap.source, smap.subdivided)
    assert back.carrier == smap.carrier


_SMAP = barycentric(circle(3))
_GOOD_ARTIFACTS = {
    "betti": (io.decode_betti, io.encode_betti(BettiVector((1, 0), "q")), ()),
    "certificate": (
        io.decode_certificate,
        io.encode_certificate(HallCertificate("even", frozenset("ab"), frozenset("x"), 1)),
        (),
    ),
    "filtration": (
        io.decode_filtration, io.encode_filtration(Filtration((frozenset(), frozenset("0")))), ()
    ),
    "subdivision": (
        io.decode_subdivision, io.encode_subdivision(_SMAP), (_SMAP.source, _SMAP.subdivided)
    ),
}
_MALFORMED_FIELDS = {
    "betti_float": ("betti", {"betti": [1.7, 0]}),
    "betti_str": ("betti", {"betti": ["1", "0"]}),
    "betti_bool": ("betti", {"betti": [True, 0]}),
    "betti_field_int": ("betti", {"field": 5}),
    "certificate_cells_str": ("certificate", {"A": "abc"}),
    "certificate_deficiency_float": ("certificate", {"deficiency": 1.9}),
    "certificate_side": ("certificate", {"side": "up"}),
    "filtration_stage_str": ("filtration", {"stages": ["abc"]}),
    "filtration_stage_nested": ("filtration", {"stages": [[["0"]]]}),
    "subdivision_carrier_list": ("subdivision", {"carrier": {"b0": ["0"]}}),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_FIELDS))
def test_readers_reject_malformed_shapes(case):
    """A well-formed artifact with one field of the wrong shape is a
    file-format error, never a silent coercion or a ``TypeError``."""
    kind, fields = _MALFORMED_FIELDS[case]
    decode, good, args = _GOOD_ARTIFACTS[kind]
    decode(good, *args)
    with pytest.raises(FileFormatError):
        decode({**good, **fields}, *args)


def test_atomic_write_leaves_no_temp(tmp_path):
    path = tmp_path / "out.json"
    io.write_json(str(path), {"x": 1})
    io.write_json(str(path), {"x": 2})
    assert io.read_json(str(path)) == {"x": 2}
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def _random_value(rng: random.Random, depth: int = 0):
    """A nested JSON-able value: str (unicode, escapes, newlines), int,
    bool, None and float leaves, lists of one leaf kind, and nested lists
    and dicts, empty ones included."""
    r = rng.random()
    if depth > 3 or r < 0.3:
        return rng.choice([
            lambda: "".join(rng.choice('ab0é\n"\\ \x00\x7f😀/') for _ in range(rng.randint(0, 4))),
            lambda: rng.randint(-10**6, 10**6),
            lambda: rng.choice([True, False, None, 0.5, -1e300]),
        ])()
    if r < 0.45:
        leaf = rng.choice([lambda: str(rng.randint(0, 99)), lambda: rng.randint(-5, 5)])
        return [leaf() for _ in range(rng.randint(0, 5))]
    if r < 0.7:
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {
        "".join(rng.choice('ab"\n') for _ in range(rng.randint(0, 3))): _random_value(rng, depth + 1)
        for _ in range(rng.randint(0, 4))
    }


@pytest.mark.parametrize("block", [None, 1, 2])
def test_json_text_equals_json_dumps_on_random_values(monkeypatch, block):
    """Also with lists and dicts cut into pieces of one or two items."""
    if block is not None:
        monkeypatch.setattr(io, "_BLOCK", block)
    rng = random.Random(20)
    for _ in range(2000):
        value = _random_value(rng)
        if rng.random() < 0.5:
            value = {f"k{i}": _random_value(rng, 1) for i in range(rng.randint(0, 4))}
        assert io._json_text(value) == json.dumps(value, indent=2, sort_keys=True), value


def test_json_text_of_values_longer_than_a_piece():
    n = 2 * io._BLOCK + 5
    ids = [f"c{i}\u00e9" for i in range(n)]
    value = {
        "ints": list(range(-n, n)),
        "ids": ids,
        "pairs": [[a, b] for a, b in zip(ids, ids[1:])],
        "table": {a: b for a, b in zip(ids, reversed(ids))},
        "rows": {a: [i, a] for i, a in enumerate(ids)},
    }
    assert io._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def _artifacts():
    """The object of every artifact kind the package writes."""
    from cellmatch import orbit_analysis, spanning_dual_loop
    from cellmatch.matching import enumerate_matchings

    grid = grid_square(3)
    yield "int tokens, coordinates", io.encode_complex(grid)
    yield "str tokens", io.encode_complex(from_simplices([["a", "b"], ["b", "c"], ["a", "c"]]))
    yield "mixed tokens", io.encode_complex(from_simplices([[0, "a"], ["a", 1], [0, 1]]))
    yield "str tokens, coordinates", io.encode_complex(
        from_simplices([["p", "q"]], coordinates={"p": (Fraction(1, 3),), "q": (Fraction(-2),)})
    )
    yield "cw", io.encode_complex(build_cw([
        ("u", 0, []), ("v", 0, []), ("e", 1, ["u", "v"]), ("f", 1, ["u", "v"]),
    ]))
    smap = barycentric(torus7())
    yield "subdivided", io.encode_complex(smap.subdivided)
    yield "carrier", io.encode_subdivision(smap)
    pair = SubcomplexPair(grid, ["0"])
    m = complete_matching(pair)
    yield "matching", io.encode_matching(m)
    yield "certificate", io.encode_certificate(complete_matching(SubcomplexPair(grid)))
    yield "betti", io.encode_betti(betti_numbers(SubcomplexPair(torus7())))
    yield "filtration", io.encode_filtration(Filtration((frozenset(), frozenset({"0", "0.1"}))))
    X = circle(4)
    yield "loop", io.encode_loop(spanning_dual_loop(X))
    yield "subcomplex", io.encode_subcomplex(["0", "1", "0.1"], closure=True)
    count, found = enumerate_matchings(SubcomplexPair(circle(3)), limit=2)
    yield "enumeration", {
        "format": io.ENUMERATION_FORMAT,
        "count": count,
        "matchings": [io.encode_matching(x) for x in found],
    }
    report = orbit_analysis(pair, m)
    yield "orbit", {
        "format": io.ORBIT_FORMAT,
        "classification": report.classification,
        "collapse_order": [list(p) for p in report.collapse_order],
    }


def test_json_text_equals_json_dumps_on_every_artifact(tmp_path, capsys):
    """Every encoder's output, as ``write_json`` writes it, is the text of
    ``json.dumps(obj, indent=2, sort_keys=True)`` and a newline."""
    kinds = []
    for kind, obj in _artifacts():
        expected = json.dumps(obj, indent=2, sort_keys=True)
        assert io._json_text(obj) == expected, kind
        path = tmp_path / "a.json"
        io.write_json(str(path), obj)
        assert path.read_text(encoding="utf-8") == expected + "\n", kind
        kinds.append(kind)
    assert len(kinds) == 15
    # Standard output takes the same text: the capabilities object, and an
    # artifact written without -o.
    from cellmatch.cli import main

    assert main(["--formats"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert main(["generate", "grid_square", "--params", "2"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(io.encode_complex(grid_square(2)), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value, error", [
    ({"a": {1: "x", "b": "y"}}, TypeError),
    ({"a": [object()]}, TypeError),
    ({"a": [1, 2], "b": {"c": float("nan")}}, None),
])
def test_json_text_raises_what_json_dumps_raises(value, error):
    if error is None:
        assert io._json_text(value) == json.dumps(value, indent=2, sort_keys=True)
        return
    with pytest.raises(error) as expected:
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(error) as got:
        io._json_text(value)
    assert str(got.value) == str(expected.value)


def test_json_text_reports_a_circular_reference():
    looped: dict = {"a": []}
    looped["a"].append(looped)
    with pytest.raises(ValueError, match="Circular reference detected"):
        io._json_text(looped)
