"""Per-layer tracing from outside the program.

Each target is a public function, method or constructor of a cellmatch
module. ``Tracer.install`` wraps it in every cellmatch module namespace
where it is bound (``from .x import f`` binds one function in several), so
calls through any of those names are counted. A target whose name no
longer resolves is listed as absent. Spans nest on a stack: a span's self
time is its duration minus the durations of the spans it encloses, so it
stays correct across recursion, and the time spent in counter hooks is
charged to no span.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

# Counters kept by the hooks below: name -> (unit, better).
COUNTERS = {
    "io.bytes_read": ("bytes", "lower"),
    "io.bytes_written": ("bytes", "lower"),
    "complexes.cells_built": ("count", "lower"),
    "matching.incidence_edges": ("count", "lower"),
    "matching.collapse_steps": ("count", "lower"),
    "matching.enumerated": ("count", "lower"),
    "linalg.row_reduce.entries": ("count", "lower"),
    "linalg.row_reduce.nnz": ("count", "lower"),
    "linalg.row_reduce.rank": ("count", "lower"),
    "linalg.mat_mul.entries": ("count", "lower"),
    "homology.stages": ("count", "lower"),
    "subdivision.blocks": ("count", "lower"),
    "pipelines.candidates": ("count", "lower"),
}
# Ratios derived from counters: name -> (numerator, denominator, unit, better).
RATIOS = {
    "linalg.row_reduce.density": ("linalg.row_reduce.nnz", "linalg.row_reduce.entries",
                                  "ratio", "higher"),
    "pipelines.hit_ratio": ("pipelines.hits", "pipelines.candidates", "ratio", "higher"),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for module, qualname, _ in TARGETS:
        out.append((f"{module}.{qualname}.calls", "count", "lower"))
        out.append((f"{module}.{qualname}.self_s", "s", "lower"))
    out += [(f"{m}.errors", "count", "lower") for m in MODULES]
    out += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    out += [(name, unit, better) for name, (_, _, unit, better) in RATIOS.items()]
    return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# Hooks run before the call with (tracer, args, kwargs); they return the
# arguments to call with and a function of the result, or None.
def _bytes_read(t, args, kwargs):
    t.count("io.bytes_read", _size(_arg(args, kwargs, 0, "path")))
    return args, None


def _bytes_written(t, args, kwargs):
    path = _arg(args, kwargs, 0, "path")
    return args, lambda result: t.count("io.bytes_written", _size(path))


def _cells_built(t, args, kwargs):
    return args, lambda result: t.count("complexes.cells_built", len(result))


def _incidence_edges(t, args, kwargs):
    return args, lambda g: t.count("matching.incidence_edges",
                                   sum(len(a) for a in g.adjacency.values()) // 2)


def _collapse_steps(t, args, kwargs):
    return args, lambda r: t.count("matching.collapse_steps", len(r.collapse_order or ()))


def _enumerated(t, args, kwargs):
    return args, lambda r: t.count("matching.enumerated", r[0])


def _row_reduce(t, args, kwargs):
    rows = _arg(args, kwargs, 0, "rows")
    t.count("linalg.row_reduce.entries", len(rows) * (len(rows[0]) if rows else 0))
    t.count("linalg.row_reduce.nnz", sum(1 for row in rows for x in row if x))
    return args, lambda r: t.count("linalg.row_reduce.rank", r[0])


def _mat_mul(t, args, kwargs):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    if a and b:
        t.count("linalg.mat_mul.entries", len(a) * len(b) * len(b[0]))
    return args, None


def _stages(t, args, kwargs):
    return args, lambda f: t.count("homology.stages", len(f.stages))


def _blocks(t, args, kwargs):
    t.count("subdivision.blocks", len(_arg(args, kwargs, 2, "matching").pairs))
    return args, None


def _candidates(t, args, kwargs):
    predicate = _arg(args, kwargs, 1, "predicate")

    def counted(pair):
        t.count("pipelines.candidates")
        hit = predicate(pair)
        if hit:
            t.count("pipelines.hits")
        return hit

    if len(args) > 1:
        args = args[:1] + (counted,) + args[2:]
    else:
        kwargs["predicate"] = counted
    return args, None


# (module, qualname, counter hook or None). A qualname naming a class
# traces its constructor.
TARGETS = [
    ("cli", "main", None),
    ("io", "load_complex", _bytes_read),
    ("io", "load_matching", _bytes_read),
    ("io", "write_json", _bytes_written),
    ("io", "encode_complex", None),
    ("io", "encode_matching", None),
    ("complexes", "from_simplices", _cells_built),
    ("complexes", "CellComplex.restrict", _cells_built),
    ("complexes", "CellComplex.closure", None),
    ("complexes", "SubcomplexPair", None),
    ("complexes", "dual_graph", None),
    ("complexes", "DualGraph.neighbors", None),
    ("complexes", "complement_of_dual_loop", None),
    ("complexes", "star_cycle", None),
    ("complexes", "spanning_dual_loop", None),
    ("matching", "incidence_graph", _incidence_edges),
    ("matching", "complete_matching", None),
    ("matching", "HallCertificate.verify", None),
    ("matching", "validate_matching", None),
    ("matching", "orbit_analysis", _collapse_steps),
    ("matching", "enumerate_matchings", _enumerated),
    ("matching", "compose_matchings", None),
    ("linalg", "row_reduce", _row_reduce),
    ("linalg", "mat_mul", _mat_mul),
    ("linalg", "matrix_rank", None),
    ("linalg", "solve_exact", None),
    ("homology", "ChainComplex", None),
    ("homology", "ChainComplex.rank", None),
    ("homology", "ChainComplex.pivot_columns", None),
    ("homology", "betti_numbers", None),
    ("homology", "acyclic_filtration", _stages),
    ("homology", "match_acyclic_pair", None),
    ("subdivision", "barycentric", None),
    ("subdivision", "propagate_matching", _blocks),
    ("subdivision", "SubdivisionMap.validate", None),
    ("subdivision", "SubdivisionMap.cells_over", None),
    ("flow", "GeometricComplex", None),
    ("flow", "flow_structure", None),
    ("flow", "flow_matching", None),
    ("pipelines", "match_sphere_pipeline", None),
    ("pipelines", "find_dual_loop", _candidates),
]

MODULES = sorted({m for m, _, _ in TARGETS})

_INHERITED = object()


class Tracer:
    def __init__(self):
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._child: list[float] = []  # time inside child spans, per open span
        self._last_error: BaseException | None = None
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def install(self, package: str = "cellmatch") -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for module, qualname, hook in TARGETS:
            key = f"{module}.{qualname}"
            owner = sys.modules.get(f"{package}.{module}")
            head, _, method = qualname.partition(".")
            obj = getattr(owner, head, None)
            if obj is None or (method and method not in vars(obj)):
                self.absent.append(key)
                continue
            if method or isinstance(obj, type):
                cls, attr = obj, method or "__init__"
                original = getattr(cls, attr)
                self._set(cls, attr, self._wrap(key, module, original, hook))
                continue
            wrapper = self._wrap(key, module, obj, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if original is _INHERITED:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._undo.clear()

    def _set(self, target, attr, value) -> None:
        self._undo.append((target, attr, vars(target).get(attr, _INHERITED)))
        setattr(target, attr, value)

    def _wrap(self, key, module, func, hook):
        clock = time.perf_counter
        child = self._child

        def traced(*args, **kwargs):
            h0 = clock()
            try:
                after = None
                if hook is not None:
                    args, after = hook(self, args, kwargs)
                child.append(0.0)
                t0 = clock()
                try:
                    result = func(*args, **kwargs)
                except BaseException as exc:
                    if exc is not self._last_error:  # count at the innermost span only
                        self._last_error = exc
                        self.errors[module] += 1
                    raise
                finally:
                    t1 = clock()
                    inner = child.pop()
                    self.calls[key] += 1
                    self.self_s[key] += (t1 - t0) - inner
                if after is not None:
                    after(result)
                return result
            finally:
                if child:  # hook time is charged to no span
                    child[-1] += clock() - h0

        traced.__wrapped__ = func
        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for module, qualname, _ in TARGETS:
            key = f"{module}.{qualname}"
            out[key + ".calls"] = self.calls[key]
            out[key + ".self_s"] = self.self_s[key]
        for m in MODULES:
            out[m + ".errors"] = self.errors[m]
        for name in COUNTERS:
            out[name] = self.counters[name]
        for name, (num, den, _, _) in RATIOS.items():
            out[name] = self.counters[num] / self.counters[den] if self.counters[den] else 0.0
        return out
