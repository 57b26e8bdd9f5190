"""Command-line front-end.

Every subcommand reads and writes the JSON formats from :mod:`cellmatch.io`
and reports through stable exit codes for scripting:

* 0 - success
* 1 - usage or file-format error
* 2 - negative verdict with an artifact (deficiency certificate written,
      or a bounded search found nothing)
* 3 - precondition violation (nonzero homology, degenerate field, wrong
      dimension, invalid matching, size bound exceeded)
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__, io
from .complexes import SubcomplexPair, euler_characteristic
from .errors import (
    BruteForceBoundError,
    CellmatchError,
    InvalidMatchingError,
    PreconditionError,
    SearchBudgetExceededError,
)
from .flow import GeometricComplex, direction, flow_matching, flow_structure
from .generators import FamilySpec, family_names, generate
from .homology import betti_numbers, match_acyclic_pair
from .matching import (
    HallCertificate,
    _covers,
    complete_matching,
    enumerate_matchings,
    orbit_analysis,
    validate_matching,
)
from .pipelines import find_dual_loop, match_loop_pipeline, match_sphere_pipeline
from .subdivision import barycentric, propagate_matching

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_PRECONDITION = 3

_PRECONDITION_ERRORS = (
    PreconditionError,
    InvalidMatchingError,
    BruteForceBoundError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(obj, path: str | None) -> None:
    if path is None:
        sys.stdout.write(io._json_text(obj) + "\n")
    else:
        io.write_json(path, obj)


def _sub_cells(complex, path: str) -> frozenset[str]:
    """The cells of the subcomplex file ``path``, closed in ``complex`` when
    the file asks for its closure."""
    cells, closure = io.load_subcomplex(path)
    return complex.closure(cells) if closure else frozenset(cells)


def _rel_pair(complex, rel: str | None) -> SubcomplexPair:
    """``complex`` relative to the subcomplex file ``rel``, if one is given."""
    if rel:
        return SubcomplexPair(complex, _sub_cells(complex, rel))
    return SubcomplexPair(complex)


def _load_pair(args) -> SubcomplexPair:
    return _rel_pair(io.load_complex(args.complex), args.rel)


def _parse_params(text: str | None, flag: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"bad {flag} value {text!r}; expected integers") from None


def _parse_base_rule(text: str) -> tuple[str, int | None]:
    if text == "lowest":
        return "lowest", None
    if text.startswith("random:"):
        try:
            return "random", int(text.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad --base value {text!r}") from None
    raise _UsageError(f"bad --base value {text!r}; expected lowest or random:SEED")


def _cmd_generate(args) -> int:
    spec = FamilySpec(args.family, _parse_params(args.params, "--params"))
    complex = generate(spec)
    _emit(io.encode_complex(complex), args.output)
    return EXIT_OK


def _cmd_chi(args) -> int:
    pair = _load_pair(args)
    print(euler_characteristic(pair))
    return EXIT_OK


def _cmd_match(args) -> int:
    pair = _load_pair(args)
    if args.method == "acyclic":
        matching = match_acyclic_pair(pair)
        _emit(io.encode_matching(matching), args.output)
        return EXIT_OK
    outcome = complete_matching(pair, use_parity_shortcut=args.method == "auto")
    if isinstance(outcome, HallCertificate):
        _emit(io.encode_certificate(outcome), args.output)
        print(
            f"unmatchable: side={outcome.side} |A|={len(outcome.cells)} "
            f"|I(A)|={len(outcome.neighborhood)} deficiency={outcome.deficiency}",
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    _emit(io.encode_matching(outcome), args.output)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    for flag, value in (("--bound", args.bound), ("--limit", args.limit)):
        if value < 0:
            raise _UsageError(f"{flag} must be nonnegative, got {value}")
    pair = _load_pair(args)
    count, matchings = enumerate_matchings(pair, limit=args.limit, bound=args.bound)
    print(count)
    if args.output:
        io.write_json(
            args.output,
            {
                "format": io.ENUMERATION_FORMAT,
                "count": count,
                "matchings": [io.encode_matching(m) for m in matchings],
            },
        )
    return EXIT_OK


def _cmd_homology(args) -> int:
    pair = _load_pair(args)
    bv = betti_numbers(pair, field=args.field)
    _emit(io.encode_betti(bv), args.output)
    return EXIT_OK


def _cmd_subdivide(args) -> int:
    if args.propagate and not args.matching_out:
        raise _UsageError("--propagate requires --matching-out")
    if not args.propagate and (args.rel or args.matching_out):
        raise _UsageError("--rel and --matching-out require --propagate")
    complex = io.load_complex(args.complex)
    smap = barycentric(complex)
    if args.propagate:
        matching = io.load_matching(args.propagate)
        propagated = propagate_matching(smap, _rel_pair(complex, args.rel), matching)
        io.write_json(args.matching_out, io.encode_matching(propagated))
    _emit(io.encode_complex(smap.subdivided), args.output)
    if args.map_out:
        io.write_json(args.map_out, io.encode_subdivision(smap))
    return EXIT_OK


def _cmd_flow(args) -> int:
    field_vec = direction(*args.field.split(","))
    rule, seed = _parse_base_rule(args.base)
    geom = GeometricComplex(io.load_complex(args.complex))
    structure = flow_structure(geom, field_vec, base_rule=rule, seed=seed)
    matching = flow_matching(structure)
    _emit(io.encode_matching(matching), args.output)
    return EXIT_OK


def _cmd_orbits(args) -> int:
    pair = _load_pair(args)
    matching = io.load_matching(args.matching)
    report = orbit_analysis(pair, matching)
    obj = {"format": io.ORBIT_FORMAT, "classification": report.classification}
    if report.orbit is not None:
        obj["orbit"] = list(report.orbit)
    if report.collapse_order is not None:
        obj["collapse_order"] = [list(p) for p in report.collapse_order]
    _emit(obj, args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    pair = _load_pair(args)
    matching = io.load_matching(args.matching)
    if not _covers(pair, matching):
        for violation in validate_matching(pair, matching).violations:
            print(violation, file=sys.stderr)
        return EXIT_PRECONDITION
    print("ok")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    loop_only = (args.loop, args.circle, args.base)
    if args.kind == "sphere" and any(f is not None for f in loop_only):
        raise _UsageError("--loop, --circle and --base require pipeline loop")
    if args.kind == "loop" and not args.loop:
        raise _UsageError("pipeline loop requires --loop")
    complex = io.load_complex(args.complex)
    if args.kind == "sphere":
        matching = match_sphere_pipeline(complex)
    else:
        loop = io.load_loop(args.loop)
        base = _sub_cells(complex, args.base) if args.base else ()
        circle_cells = _sub_cells(complex, args.circle) if args.circle else None
        matching = match_loop_pipeline(complex, loop, base=base, circle_cells=circle_cells)
    _emit(io.encode_matching(matching), args.output)
    return EXIT_OK


def _cmd_dualloop(args) -> int:
    if args.budget < 0:
        raise _UsageError(f"--budget must be nonnegative, got {args.budget}")
    complex = io.load_complex(args.complex)
    if args.complement_empty:
        def predicate(pair):
            return len(pair.rel_cells) == len(pair.complex)
    elif args.complement_betti:
        wanted = _parse_params(args.complement_betti, "--complement-betti")

        def predicate(pair):
            if len(pair.rel_cells) == len(pair.complex):
                return False
            sub_complex = pair.complex.restrict(pair.sub)
            return betti_numbers(SubcomplexPair(sub_complex)).betti == wanted
    else:
        raise _UsageError("dualloop find needs --complement-betti or --complement-empty")
    loop = find_dual_loop(complex, predicate, budget=args.budget)
    if loop is None:
        print("not found: no simple dual cycle satisfies the predicate", file=sys.stderr)
        return EXIT_NEGATIVE
    _emit(io.encode_loop(loop), args.output)
    return EXIT_OK


_FORMAT_NAMES = [
    io.COMPLEX_FORMAT,
    io.SUB_FORMAT,
    io.LOOP_FORMAT,
    io.MATCHING_FORMAT,
    io.CERTIFICATE_FORMAT,
    io.BETTI_FORMAT,
    io.FILTRATION_FORMAT,
    io.SUBDIV_FORMAT,
    io.ENUMERATION_FORMAT,
    io.ORBIT_FORMAT,
]


def _print_formats(subcommands) -> int:
    obj = {
        "version": __version__,
        "formats": _FORMAT_NAMES,
        "subcommands": list(subcommands),
        "families": list(family_names()),
        "exit_codes": {"0": "success", "1": "usage/format", "2": "negative verdict",
                       "3": "precondition violation"},
    }
    _emit(obj, None)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="cellmatch", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cellmatch {__version__}")
    parser.add_argument(
        "--formats", action="store_true", help="print machine-readable capabilities"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="emit a bundled example complex")
    p.add_argument("family", choices=family_names())
    p.add_argument("--params", help="comma-separated integer parameters")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("chi", help="relative Euler characteristic")
    p.add_argument("complex")
    p.add_argument("--rel", help="subcomplex file")
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("match", help="complete matching or deficiency certificate")
    p.add_argument("complex")
    p.add_argument("--rel")
    p.add_argument("--method", choices=("auto", "hall", "acyclic"), default="auto")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("enumerate", help="count complete matchings exactly, memoized")
    p.add_argument("complex")
    p.add_argument("--rel")
    p.add_argument("--limit", type=int, default=0, help="matchings to include in -o")
    p.add_argument("--bound", type=int, default=40, help="cell-count safety bound")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("homology", help="Betti numbers over q or f2")
    p.add_argument("complex")
    p.add_argument("--rel")
    p.add_argument("--field", choices=("q", "f2"), default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("subdivide", help="barycentric subdivision, optional propagation")
    p.add_argument("complex")
    p.add_argument("-o", "--output")
    p.add_argument("--map-out", help="write the carrier map here")
    p.add_argument("--propagate", help="matching file to carry to the subdivision")
    p.add_argument("--rel", help="subcomplex file for the propagated pair")
    p.add_argument("--matching-out", help="write the propagated matching here")
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("flow", help="matching from a transverse constant field")
    p.add_argument("complex")
    p.add_argument("--field", required=True, help="components p/q,p/q,...")
    p.add_argument("--base", default="lowest", help="lowest | random:SEED")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("orbits", help="classify a matching: collapse order or orbit")
    p.add_argument("complex")
    p.add_argument("--matching", required=True)
    p.add_argument("--rel")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("validate", help="check a matching against its pair")
    p.add_argument("complex")
    p.add_argument("--matching", required=True)
    p.add_argument("--rel")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("pipeline", help="composite constructions")
    p.add_argument("kind", choices=("sphere", "loop"))
    p.add_argument("complex")
    p.add_argument("--loop", help="dual loop file (pipeline loop)")
    p.add_argument("--circle", help="circle subcomplex file (pipeline loop)")
    p.add_argument("--base", help="relative base subcomplex file (pipeline loop)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("dualloop", help="search the dual graph for a loop")
    p.add_argument("operation", choices=("find",))
    p.add_argument("complex")
    wanted = p.add_mutually_exclusive_group()
    wanted.add_argument("--complement-betti", help="required Betti numbers of the complement")
    wanted.add_argument("--complement-empty", action="store_true")
    p.add_argument("--budget", type=int, default=2000,
                   help="most candidate loops to test (default 2000)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dualloop)

    parser.set_defaults(subcommands=tuple(sub.choices))
    return parser


@functools.cache
def _parser() -> _Parser:
    """The process's one parser: parsing reads it and never changes it, so
    every call gets a fresh namespace filled from the same defaults."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.formats:
            return _print_formats(args.subcommands)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except _PRECONDITION_ERRORS as exc:
        print(f"cellmatch: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SearchBudgetExceededError as exc:
        print(f"cellmatch: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (_UsageError, CellmatchError, ValueError, OSError) as exc:
        print(f"cellmatch: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
