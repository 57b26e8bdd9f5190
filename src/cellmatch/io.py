"""JSON file formats for complexes, subcomplexes, loops, matchings,
certificates, Betti vectors, filtrations, and subdivision maps.

Every format carries a "format" tag; writers emit deterministic, sorted
output and write atomically (temp file plus rename). Rational numbers are
serialized as "p/q" strings; floats are rejected on input.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from fractions import Fraction
from itertools import chain

from .complexes import (
    CW,
    SIMPLICIAL,
    CellComplex,
    DualLoop,
    _facet_ranks,
    _maximal_simplices,
    _token_key,
    build_cw,
    from_simplices,
)
from .errors import FileFormatError
from .homology import BettiVector, Filtration
from .linalg import FIELDS
from .matching import HallCertificate, Matching
from .subdivision import SubdivisionMap

COMPLEX_FORMAT = "cellmatch-complex-v1"
SUB_FORMAT = "cellmatch-sub-v1"
LOOP_FORMAT = "cellmatch-loop-v1"
MATCHING_FORMAT = "cellmatch-matching-v1"
CERTIFICATE_FORMAT = "cellmatch-certificate-v1"
BETTI_FORMAT = "cellmatch-betti-v1"
FILTRATION_FORMAT = "cellmatch-filtration-v1"
SUBDIV_FORMAT = "cellmatch-subdiv-v1"
ENUMERATION_FORMAT = "cellmatch-enumeration-v1"
ORBIT_FORMAT = "cellmatch-orbit-v1"


def _require_format(obj, expected: str):
    if not isinstance(obj, dict):
        raise FileFormatError(f"expected a JSON object with format {expected!r}")
    found = obj.get("format")
    if found != expected:
        raise FileFormatError(f"expected format {expected!r}, found {found!r}")


def _fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parse_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise FileFormatError("floating-point numbers are rejected; use 'p/q' text")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"bad rational {value!r}") from exc


# The encoder's own "p/q" text: ASCII digits, an optional minus sign and a
# nonzero denominator. Fraction reads it as the two ints it names.
_RATIO = re.compile(r"(-?[0-9]+)/(0*[1-9][0-9]*)")


def _is(value, types) -> bool:
    """``isinstance``, except that a JSON boolean is never an integer."""
    return isinstance(value, types) and not isinstance(value, bool)


def _all_of(values, types) -> bool:
    """Whether every one of ``values`` is of ``types``, a JSON boolean never
    an integer: one pass reads their types, and each distinct type is
    checked once."""
    return all(
        issubclass(kind, types) and not issubclass(kind, bool)
        for kind in set(map(type, values))
    )


def _is_list_of(value, types) -> bool:
    return isinstance(value, list) and _all_of(value, types)


def _decode_coordinates(points, tokens):
    """A function that gives the coordinates keyed by vertex token, which
    the complex calls when they are first read. A key names the complex's
    own token written as that text; a key that names no token is an int
    when it is ASCII digits after an optional minus sign, else the text.

    Every value is checked here: one bulk pass accepts the file when all
    are texts in the encoder's "p/q" form; otherwise a pass in file order
    reads each other value with ``_parse_fraction``, so the values accepted
    and the first error raised are Fraction's own. The function reads a
    "p/q" text as its two ints, each distinct text once."""
    values = points.values()
    if not (
        {str}.issuperset(map(type, chain.from_iterable(values)))
        and all(map(_RATIO.fullmatch, chain.from_iterable(values)))
    ):
        for value in chain.from_iterable(values):
            if type(value) is not str or not _RATIO.fullmatch(value):
                _parse_fraction(value)
    by_text = dict(zip(map(str, tokens), tokens))
    by_text.update(
        (key, int(key) if re.fullmatch(r"-?[0-9]+", key) else key)
        for key in points.keys() - by_text.keys()
    )
    out = dict(zip(map(by_text.__getitem__, points), values))
    texts: dict[str, Fraction] = {}

    def read(value) -> Fraction:
        if type(value) is not str:
            return _parse_fraction(value)
        q = texts.get(value)
        if q is None:
            m = _RATIO.fullmatch(value)
            q = texts[value] = Fraction(int(m[1]), int(m[2])) if m else _parse_fraction(value)
        return q

    return lambda: {token: tuple(map(read, point)) for token, point in out.items()}


# -- writing ------------------------------------------------------------------
#
# ``json.dumps`` with an indent always runs the pure-Python encoder, one
# generator step per value. The artifacts are nearly all lists of ids,
# lists of such lists, and dicts of them, so ``_json_pieces`` joins those
# from the C escaper's texts and ``int.__repr__``, the texts the encoder
# itself writes, and hands any other value to ``json.dumps`` with its
# lines moved to the value's indent. That is exact: JSON escapes every
# newline inside a string, so each "\n" of the text starts a line. A
# long list or dict is joined ``_BLOCK`` items at a time, so a writer
# never holds the text of a whole large artifact at once.

_escape = json.encoder.encode_basestring_ascii
_BLOCK = 4096


def _leaf(value) -> str:
    return _escape(value) if type(value) is str else int.__repr__(value)


def _leaf_text(kinds):
    """The text function for leaves of the types ``kinds``: str, or int
    but not bool (a subclass); None for any other type."""
    if kinds <= {str}:
        return _escape
    if kinds <= {int}:
        return int.__repr__
    if kinds <= {str, int}:
        return _leaf
    return None


def _item_texts(values: list, indent: str):
    """A function from a slice of ``values`` to its items' texts, each to
    start a line at ``indent``, when all are leaves or all are lists of
    leaves; else None."""
    kinds = set(map(type, values))
    text = _leaf_text(kinds)
    if text is not None:
        return lambda block: map(text, block)
    if kinds != {list}:
        return None
    text = _leaf_text(set(map(type, chain.from_iterable(values))))
    if text is None:
        return None
    head, sep, tail = f"[\n{indent}  ", f",\n{indent}  ", f"\n{indent}]"
    return lambda block: [head + sep.join(map(text, v)) + tail if v else "[]" for v in block]


def _pieces(value, indent: str):
    """The text of one value on a line at ``indent``, in pieces: a leaf; a
    non-empty list, or str-keyed dict, of leaves or of lists of leaves,
    ``_BLOCK`` items a piece; else the text of ``json.dumps`` moved to
    the indent."""
    kind = type(value)
    if kind is str or kind is int:
        yield _leaf(value)
        return
    keys = items = texts = None
    if kind is dict and value and set(map(type, value)) == {str}:
        keys = sorted(value)
        items = list(map(value.__getitem__, keys))
    elif kind is list and value:
        items = value
    if items is not None:
        texts = _item_texts(items, indent + "  ")
    if texts is None:
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)
        return
    sep = f",\n{indent}  "
    yield ("[" if keys is None else "{") + f"\n{indent}  "
    for start in range(0, len(items), _BLOCK):
        block = texts(items[start:start + _BLOCK])
        if keys is not None:
            block = map(": ".join, zip(map(_escape, keys[start:start + _BLOCK]), block))
        yield sep.join(block) if not start else sep + sep.join(block)
    yield f"\n{indent}" + ("]" if keys is None else "}")


def _json_pieces(obj):
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, in
    pieces: a non-empty str-keyed dict member by member, each value by
    ``_pieces``; any other value by ``_pieces`` alone. Nothing here calls
    itself, so no depth grows with the input."""
    if type(obj) is dict and obj and set(map(type, obj)) == {str}:
        for i, key in enumerate(sorted(obj)):
            yield ",\n  " if i else "{\n  "
            yield _escape(key) + ": "
            yield from _pieces(obj[key], "  ")
        yield "\n}"
    else:
        yield from _pieces(obj, "")


def _json_text(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``."""
    return "".join(_json_pieces(obj))


def write_json(path: str, obj) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True)`` and a newline
    atomically: its pieces from ``_json_pieces`` go to a temp file in one
    ``writelines`` call, and the file is renamed into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(chain(_json_pieces(obj), "\n"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc


# -- complexes ------------------------------------------------------------


def encode_complex(complex: CellComplex) -> dict:
    obj: dict = {"format": COMPLEX_FORMAT, "kind": complex.kind}
    if complex.kind == SIMPLICIAL:
        maximal = list(map(list, _maximal_simplices(complex)))
        try:
            obj["simplices"] = sorted(maximal)
        except TypeError:  # an int and a str token met; ints go first
            obj["simplices"] = sorted(maximal, key=lambda s: list(map(_token_key, s)))
    else:
        ids = complex.cells()
        obj["cells"] = [
            {"id": c, "dim": complex.dim_of(c), "faces": sorted(map(ids.__getitem__, fs))}
            for c, fs in sorted(zip(ids, _facet_ranks(complex)))
        ]
    if complex.coordinates is not None:
        obj["coordinates"] = {
            str(token): [_fraction_text(x) for x in point]
            for token, point in sorted(
                complex.coordinates.items(), key=lambda kv: str(kv[0])
            )
        }
    return obj


def decode_complex(obj) -> CellComplex:
    _require_format(obj, COMPLEX_FORMAT)
    kind = obj.get("kind")
    points = obj.get("coordinates")
    if "coordinates" in obj and not (
        isinstance(points, dict) and _all_of(points.values(), list)
    ):
        raise FileFormatError("'coordinates' must map vertex tokens to lists")
    if kind == SIMPLICIAL:
        simplices = obj.get("simplices")
        if not isinstance(simplices, list):
            raise FileFormatError("simplicial complex file needs a 'simplices' list")
        # One pass over every token; only a fault takes the per-simplex
        # loop, which names the first faulty simplex.
        if not (
            _all_of(simplices, list)
            and _all_of(chain.from_iterable(simplices), (int, str))
        ):
            for simplex in simplices:
                if not _is_list_of(simplex, (int, str)):
                    raise FileFormatError(
                        f"bad simplex {simplex!r}: expected a list of integer or "
                        "string vertex tokens"
                    )
        if points is not None:
            points = _decode_coordinates(points, set(chain.from_iterable(simplices)))
        return from_simplices(simplices, coordinates=points)
    if kind == CW:
        cells = obj.get("cells")
        if not isinstance(cells, list):
            raise FileFormatError("cw complex file needs a 'cells' list")
        records = []
        for record in cells:
            if not (
                isinstance(record, dict)
                and _is(record.get("id"), str)
                and _is(record.get("dim"), int)
                and _is_list_of(record.get("faces"), str)
            ):
                raise FileFormatError(
                    f"bad cell record {record!r}: expected a str 'id', an int "
                    "'dim' and a list of str 'faces'"
                )
            records.append((record["id"], record["dim"], record["faces"]))
        if points is not None:
            points = _decode_coordinates(points, [cid for cid, _, _ in records])
        return build_cw(records, coordinates=points)
    raise FileFormatError(f"unknown complex kind {kind!r}")


def save_complex(complex: CellComplex, path: str) -> None:
    write_json(path, encode_complex(complex))


def load_complex(path: str) -> CellComplex:
    return decode_complex(read_json(path))


# -- subcomplexes ----------------------------------------------------------


def encode_subcomplex(cells, closure: bool = False) -> dict:
    return {"format": SUB_FORMAT, "cells": sorted(cells), "closure": bool(closure)}


def decode_subcomplex(obj) -> tuple[list[str], bool]:
    _require_format(obj, SUB_FORMAT)
    cells = obj.get("cells")
    if not _is_list_of(cells, str):
        raise FileFormatError("subcomplex file needs a 'cells' list of ids")
    closure = obj.get("closure", False)
    if not isinstance(closure, bool):
        raise FileFormatError("subcomplex 'closure' must be true or false")
    return list(cells), closure


def save_subcomplex(cells, path: str, closure: bool = False) -> None:
    write_json(path, encode_subcomplex(cells, closure))


def load_subcomplex(path: str) -> tuple[list[str], bool]:
    return decode_subcomplex(read_json(path))


# -- dual loops -------------------------------------------------------------


def encode_loop(loop: DualLoop) -> dict:
    return {"format": LOOP_FORMAT, "cells": list(loop.cells)}


def decode_loop(obj) -> DualLoop:
    _require_format(obj, LOOP_FORMAT)
    cells = obj.get("cells")
    if not _is_list_of(cells, str):
        raise FileFormatError("loop file needs a 'cells' list of ids")
    return DualLoop(tuple(cells))


def save_loop(loop: DualLoop, path: str) -> None:
    write_json(path, encode_loop(loop))


def load_loop(path: str) -> DualLoop:
    return decode_loop(read_json(path))


# -- matchings and certificates ---------------------------------------------


def encode_matching(matching: Matching) -> dict:
    return {
        "format": MATCHING_FORMAT,
        "relative_to": sorted(matching.relative_to),
        "pairs": [list(p) for p in matching.sorted_pairs()],
    }


def decode_matching(obj) -> Matching:
    _require_format(obj, MATCHING_FORMAT)
    pairs = obj.get("pairs")
    if not isinstance(pairs, list):
        raise FileFormatError("matching file needs a 'pairs' list")
    # One bulk pass over every pair and id; only a fault takes the per-pair
    # loop, which names the first bad pair.
    if not (
        _all_of(pairs, list)
        and {2}.issuperset(map(len, pairs))
        and _all_of(chain.from_iterable(pairs), str)
    ):
        for p in pairs:
            if not (isinstance(p, list) and len(p) == 2
                    and isinstance(p[0], str) and isinstance(p[1], str)):
                raise FileFormatError(f"bad matching pair {p!r}: expected two ids")
    relative_to = obj.get("relative_to", [])
    if not _is_list_of(relative_to, str):
        raise FileFormatError("matching 'relative_to' must be a list of ids")
    return Matching(pairs, relative_to=relative_to)


def save_matching(matching: Matching, path: str) -> None:
    write_json(path, encode_matching(matching))


def load_matching(path: str) -> Matching:
    return decode_matching(read_json(path))


def encode_certificate(certificate: HallCertificate) -> dict:
    return {
        "format": CERTIFICATE_FORMAT,
        "side": certificate.side,
        "A": sorted(certificate.cells),
        "IA": sorted(certificate.neighborhood),
        "deficiency": certificate.deficiency,
    }


def decode_certificate(obj) -> HallCertificate:
    _require_format(obj, CERTIFICATE_FORMAT)
    side, cells, neighborhood = obj.get("side"), obj.get("A"), obj.get("IA")
    deficiency = obj.get("deficiency")
    if not (
        side in ("even", "odd")
        and _is_list_of(cells, str)
        and _is_list_of(neighborhood, str)
        and _is(deficiency, int)
    ):
        raise FileFormatError("bad certificate file")
    return HallCertificate(side, frozenset(cells), frozenset(neighborhood), deficiency)


def save_certificate(certificate: HallCertificate, path: str) -> None:
    write_json(path, encode_certificate(certificate))


def load_certificate(path: str) -> HallCertificate:
    return decode_certificate(read_json(path))


# -- homology artifacts -------------------------------------------------------


def encode_betti(betti: BettiVector) -> dict:
    return {"format": BETTI_FORMAT, "field": betti.field, "betti": list(betti.betti)}


def decode_betti(obj) -> BettiVector:
    _require_format(obj, BETTI_FORMAT)
    betti, field = obj.get("betti"), obj.get("field")
    if not (_is_list_of(betti, int) and field in FIELDS):
        raise FileFormatError("bad betti file")
    return BettiVector(tuple(betti), field)


def encode_filtration(filtration: Filtration) -> dict:
    return {
        "format": FILTRATION_FORMAT,
        "stages": [sorted(stage) for stage in filtration.stages],
    }


def decode_filtration(obj) -> Filtration:
    _require_format(obj, FILTRATION_FORMAT)
    stages = obj.get("stages")
    if not isinstance(stages, list):
        raise FileFormatError("filtration file needs a 'stages' list")
    for stage in stages:
        if not _is_list_of(stage, str):
            raise FileFormatError(f"bad filtration stage {stage!r}: expected a list of ids")
    return Filtration(tuple(frozenset(stage) for stage in stages))


# -- subdivision maps ---------------------------------------------------------


def encode_subdivision(smap: SubdivisionMap) -> dict:
    return {"format": SUBDIV_FORMAT, "carrier": dict(sorted(smap.carrier.items()))}


def decode_subdivision(obj, source: CellComplex, subdivided: CellComplex) -> SubdivisionMap:
    """Rebuild a subdivision map from its carrier table and the two
    complexes (stored in their own complex files); validates the result,
    and the map keeps the mark, so propagation does not validate it again."""
    _require_format(obj, SUBDIV_FORMAT)
    carrier = obj.get("carrier")
    if not isinstance(carrier, dict):
        raise FileFormatError("subdivision file needs a 'carrier' object")
    if not _all_of(carrier.values(), str):
        raise FileFormatError("subdivision 'carrier' must map cell ids to cell ids")
    smap = SubdivisionMap(source, subdivided, dict(carrier))
    smap.validate()
    return smap
