from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import cellmatch


def test_package_imports_only_the_standard_library():
    package = Path(cellmatch.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside, outside


def test_cell_complex_is_constructed_only_in_complexes():
    """The builders own the tables and the cell order, and the constructor
    trusts both, so no other module calls ``CellComplex(...)``."""
    package = Path(cellmatch.__file__).resolve().parent
    callers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "CellComplex" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {"complexes.py"}, callers


def test_simplex_ids_are_written_only_in_complexes():
    """``complexes._simplex_id`` writes the id format; every other module
    reads ids off the tables (``facets``, ``vertices``) or calls ``cell_id``."""
    package = Path(cellmatch.__file__).resolve().parent
    users = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "_simplex_id" in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
        )
    }
    assert users == {"complexes.py"}, users


def _call_sites(name: str) -> list[str]:
    """``file: top-level definition`` of every call of ``name`` in the
    package, in file order."""
    package = Path(cellmatch.__file__).resolve().parent
    return [
        f"{path.name}: {getattr(top, 'name', None)}"
        for path in sorted(package.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_reduce_columns_is_called_only_by_the_chain_complex():
    """Ranks, pivot columns, Betti numbers and the acyclic layers all read
    the one reduction per dimension that ``homology.ChainComplex`` runs."""
    sites = _call_sites("reduce_columns")
    assert sites == ["homology.py: ChainComplex"], sites


def test_validate_matching_is_called_only_by_the_checks():
    """Every construction ends in ``matching._checked``; the other callers
    check a matching handed in, or report on it for ``cellmatch validate``.
    Each runs the one-pass ``_covers`` and builds the report only in the
    branch where it failed."""
    sites = _call_sites("validate_matching")
    assert sites == [
        "cli.py: _cmd_validate",
        "matching.py: _checked",
        "matching.py: orbit_analysis",
        "subdivision.py: propagate_matching",
    ], sites
    assert _call_sites("_covers") == [
        "cli.py: _cmd_validate",
        "matching.py: _checked",
        "matching.py: orbit_analysis",
        "subdivision.py: propagate_matching",
    ]
    package = Path(cellmatch.__file__).resolve().parent
    guarded = []
    for name in ("cli.py", "matching.py", "subdivision.py"):
        for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.If) and isinstance(node.test, ast.UnaryOp)):
                continue
            test = node.test
            if (
                isinstance(test.op, ast.Not)
                and isinstance(test.operand, ast.Call)
                and getattr(test.operand.func, "id", None) == "_covers"
            ):
                guarded += [
                    f"{name}: validate_matching"
                    for stmt in node.body
                    for call in ast.walk(stmt)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "validate_matching"
                ]
    assert len(guarded) == 4, guarded


def test_json_is_written_only_by_the_joined_formatter():
    """Artifacts go through ``io._json_pieces``, which joins the C
    escaper's texts; ``json.dumps`` runs only in its fallback for other
    values, and nothing streams through the pure-Python ``json.dump``."""
    assert _call_sites("dump") == []
    assert _call_sites("dumps") == ["io.py: _pieces"]


def test_hopcroft_karp_runs_on_positions_from_one_builder():
    """The search runs on the int adjacency that ``matching._positions``
    builds, and only the complete matching and the acyclic layers run it;
    the public incidence graph, the parity shortcut's certificate, the
    odd-side certificate and the enumerator read the same adjacency."""
    assert _call_sites("_hopcroft_karp") == [
        "homology.py: _acyclic_pairs",
        "matching.py: complete_matching",
    ]
    assert _call_sites("_positions") == [
        "homology.py: _acyclic_pairs",
        "matching.py: incidence_graph",
        "matching.py: complete_matching",
        "matching.py: complete_matching",
        "matching.py: complete_matching",
        "matching.py: enumerate_matchings",
    ]


@pytest.mark.parametrize("name", ["compose_matchings", "incidence_graph"])
def test_no_construction_composes_parts_or_builds_the_incidence_graph(name):
    """Constructions hand their parts' pairs to one ``Matching`` and check
    it once, and certificates read their own cells; both public functions
    stay for callers and for the test oracles."""
    assert _call_sites(name) == []


def test_constructions_hand_their_pairs_to_checked():
    """No construction builds its own ``Matching``: ``_checked`` builds the
    output from the pair list and checks it. The other sites build a
    search's result, an enumerated or cycle matching, a union of parts
    or a matching read from a file."""
    assert _call_sites("Matching") == [
        "io.py: decode_matching",
        "matching.py: complete_matching",
        "matching.py: _checked",
        "matching.py: enumerate_matchings",
        "matching.py: match_dual_cycle",
        "matching.py: compose_matchings",
    ]


def test_acyclic_pairs_feed_only_checked_constructions():
    """The unchecked acyclic-pair list goes only into constructions that
    end in one check of their whole output."""
    assert _call_sites("_acyclic_pairs") == [
        "homology.py: match_acyclic_pair",
        "pipelines.py: match_sphere_pipeline",
        "pipelines.py: match_loop_pipeline",
        "subdivision.py: propagate_matching",
    ]


def test_constructions_read_their_parts_off_the_complex_they_walk():
    """Every part a construction derives, a sphere step's acyclic pair, a
    loop complement, a propagation block, the complement the CLI's
    ``--complement-betti`` reads and each dual-loop candidate, is a pair
    that ``complexes._part_pair`` reads off its complex, with no copy and
    no second check. ``restrict`` copies only a piece the construction
    walks on: the next sphere, and the circle whose loop it finds. Every
    other ``SubcomplexPair`` is built on a whole complex: a caller's
    pair, a sphere's input check or a construction's checked output."""
    assert _call_sites("_part_pair") == [
        "cli.py: _cmd_dualloop",
        "complexes.py: complement_of_dual_loop",
        "pipelines.py: match_sphere_pipeline",
        "pipelines.py: match_loop_pipeline",
        "pipelines.py: find_dual_loop",
        "subdivision.py: propagate_matching",
    ]
    assert _call_sites("restrict") == [
        "pipelines.py: match_sphere_pipeline",
        "pipelines.py: _circle_cycle_matching",
    ]
    assert _call_sites("SubcomplexPair") == [
        "cli.py: _rel_pair",
        "cli.py: _rel_pair",
        "flow.py: flow_matching",
        "pipelines.py: match_sphere_pipeline",
        "pipelines.py: match_sphere_pipeline",
        "pipelines.py: match_loop_pipeline",
        "subdivision.py: propagate_matching",
    ]


def _writes_marker(node: ast.AST, marker: str) -> bool:
    """Whether ``node`` sets attribute ``marker``: as a store to
    ``x.marker``, or by a ``setattr``/``__setattr__`` call naming it."""
    if isinstance(node, ast.Attribute):
        return node.attr == marker and isinstance(node.ctx, ast.Store)
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        return name in ("setattr", "__setattr__") and any(
            isinstance(arg, ast.Constant) and arg.value == marker for arg in node.args
        )
    return False


def test_only_barycentric_marks_a_subdivision_map_as_trusted():
    """``propagate_matching`` skips validating a map only when it carries
    the mark that ``barycentric`` gives the map it builds; nothing else in
    the package writes that mark."""
    package = Path(cellmatch.__file__).resolve().parent
    sites = [
        f"{path.name}: {getattr(top, 'name', None)}"
        for path in sorted(package.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if _writes_marker(node, "_from_barycentric")
    ]
    assert sites == ["subdivision.py: barycentric"], sites


def test_only_validation_and_barycentric_mark_a_subdivision_map_as_validated():
    """``propagate_matching`` validates a map unless it carries the mark
    that a passed ``SubdivisionMap.validate`` or ``barycentric`` gives it;
    nothing else in the package writes that mark."""
    package = Path(cellmatch.__file__).resolve().parent
    sites = [
        f"{path.name}: {getattr(top, 'name', None)}"
        for path in sorted(package.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if _writes_marker(node, "_validated")
    ]
    assert sites == ["subdivision.py: SubdivisionMap", "subdivision.py: barycentric"], sites


_CELL_COMPLEX_TABLES = {
    "_dim", "_hyperfaces", "_facets", "_cofaces", "_verts", "_rank", "_sorted_cells"
}


def test_cell_complex_tables_are_read_only_in_complexes():
    """The tables' layout is private to ``complexes.py``; every other module
    goes through the ``CellComplex`` methods, so the layout can change."""
    package = Path(cellmatch.__file__).resolve().parent
    readers = {
        f"{path.name}: {node.attr}"
        for path in package.glob("*.py")
        if path.name != "complexes.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in _CELL_COMPLEX_TABLES
    }
    assert not readers, readers


def test_conftest_imports_no_private_name_of_the_package():
    """The oracles in ``conftest.py`` stay independent of the code they
    check, so they import only the package's public names."""
    conftest = Path(__file__).resolve().parent / "conftest.py"
    private = []
    for node in ast.walk(ast.parse(conftest.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cellmatch"):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.startswith("cellmatch")]
        else:
            continue
        private += [name for name in names if any(p.startswith("_") for p in name.split("."))]
    assert not private, private


def test_package_has_no_assert_statements():
    """Post-conditions raise explicitly, so they still run under
    ``python -O``, which strips ``assert`` statements."""
    package = Path(cellmatch.__file__).resolve().parent
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, asserts


# Functions that may call themselves, each with the bound on its depth.
_BOUNDED_RECURSION: dict[str, str] = {}


def _calls_itself(function: ast.FunctionDef) -> bool:
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == function.name:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr == function.name
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            return True
    return False


def test_no_recursion_whose_depth_grows_with_the_input():
    """No package function calls itself by name (directly, or as
    ``self.name``), apart from the few whose depth the dimension bounds."""
    package = Path(cellmatch.__file__).resolve().parent
    recursive = set()
    for path in package.glob("*.py"):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qualname = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                        recursive.add(qualname)
                    stack.append((child, qualname))
                else:
                    stack.append((child, prefix))
    assert recursive == set(_BOUNDED_RECURSION), recursive
