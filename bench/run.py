"""cellmatch benchmark: closed-loop workloads of in-process CLI calls.

Usage:
    python3 bench/run.py --workload hall|exact|construct --seed N \
        --seconds S --trace 0|1 [--record-digests]

One caller in one process runs the workload's op list over and over; each
op is one ``cellmatch.cli.main(argv)`` call on files generated from the
seed, so a timing covers JSON load, validation, compute and the atomic
write, and leaves out interpreter start-up. The seed gives LABELLINGS
vertex labellings of every input; passes cycle through them, at least one
pass each, and a timing is the mean over the labellings of the median of
each labelling's passes, because the cost of exact elimination depends on
the labelling. The first pass of each labelling is checked independently
(see checks.py), outside the timed region; later passes must reproduce
its exit codes and artifact bytes. A workload's known-defect ops run once
per labelling, untimed and outside the op counts, and their outcomes are
printed. With ``--trace 1`` each pass is run
traced (see tracer.py) and then untraced, and per-layer metrics are
reported in place of the end-to-end ones. The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 5
LABELLINGS = 3
CMD_METRICS = ("cmd1_s", "cmd2_s", "cmd3_s")

sys.path.insert(0, HERE)

from checks import CheckError, Cx, check_loop, load  # noqa: E402
from tracer import Tracer, metric_specs  # noqa: E402
from workloads import GROUPS, SETUPS, Inputs  # noqa: E402


def import_cellmatch():
    """Import cellmatch afresh from the checkout's src (timed as set-up)."""
    for name in [n for n in sys.modules if n == "cellmatch" or n.startswith("cellmatch.")]:
        del sys.modules[name]
    names = ("cli", "io", "matching", "complexes")
    return SimpleNamespace(**{n: importlib.import_module("cellmatch." + n) for n in names})


def setup(workload: str, seed: int, work: str):
    """Import cellmatch and write every labelling's inputs."""
    lib = import_cellmatch()
    labellings = []
    for j in range(LABELLINGS):
        inp = Inputs(f"{seed}.{j}", os.path.join(work, str(j)), lib)
        SETUPS[workload](inp)
        labellings.append(inp)
    return labellings, lib


def digest(path: str) -> str | None:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except FileNotFoundError:
        return None


class SpeedProbe:
    """Samples the machine's speed while ops run.

    This machine's speed drifts by up to a half over minutes as the host's
    load changes, and that swamps the run-to-run comparison. So a SIGALRM
    timer runs four fixed slices of benchmark-owned work every
    PROBE_PERIOD_S, during the ops themselves: dict stores, small-Fraction
    arithmetic, integer arithmetic and large-Fraction arithmetic. Kinds of
    work slow down by different amounts as the load changes, and the
    geometric mean of the four slices' slow-downs tracked the ops' own
    times better than any one slice did. An op's adjusted time is its time
    minus the probes' time, divided by that mean slow-down during the op:
    seconds on a machine where slice i takes NOMINAL_S[i].
    """

    PROBE_PERIOD_S = 0.005
    NOMINAL_S = (1.8e-4, 2.0e-4, 3.5e-5, 1.3e-4)
    MIN_SAMPLES = 10

    def __init__(self):
        self.count = 0
        self.totals = [0.0] * len(self.NOMINAL_S)
        self._table = dict.fromkeys(range(37), 0)
        self._small = [Fraction(1, k) for k in range(2, 14)]
        self._large = [Fraction(k * 7919 % 10007, k * 104729 % 1000003 + 1) for k in range(1, 13)]

    def _dicts(self) -> None:
        table = self._table
        for i in range(400):
            table[i % 37] = i * i % 7
        self._fractions(self._small)

    def _small_fractions(self) -> None:
        self._fractions(self._small)
        self._fractions(self._small)

    @staticmethod
    def _integers() -> None:
        x = 7
        for i in range(300):
            x = (x * 31 + i) % 1000003

    def _large_fractions(self) -> None:
        self._fractions(self._large)

    @staticmethod
    def _fractions(values) -> None:
        x = Fraction(0)
        for h in values:
            x = x + h * h - h

    def _probe(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection here would time the program's heap
        try:
            for i, part in enumerate((self._dicts, self._small_fractions,
                                      self._integers, self._large_fractions)):
                t0 = time.perf_counter()
                part()
                self.totals[i] += time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
        self.count += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PROBE_PERIOD_S, self.PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reading(self) -> tuple[int, tuple[float, ...]]:
        return self.count, tuple(self.totals)

    def since(self, start) -> tuple[int, tuple[float, ...]]:
        """Probes run, and each slice's total time, since ``start = reading()``."""
        return self.count - start[0], tuple(t - t0 for t, t0 in zip(self.totals, start[1]))

    def _slowdown(self, n: int, spent) -> float:
        return math.exp(statistics.fmean(math.log(t / n / nominal)
                                         for t, nominal in zip(spent, self.NOMINAL_S)))

    def adjust(self, intervals) -> list[float]:
        """Speed-adjusted times of intervals given as (time, probes run,
        slice times). An interval with too few probes of its own is scaled
        by the slow-down over all the intervals."""
        count = sum(n for _, n, _ in intervals)
        pooled = [sum(spent[i] for _, _, spent in intervals) for i in range(len(self.NOMINAL_S))]
        group = self._slowdown(count, pooled) if count else 1.0
        return [(dt - sum(spent)) / (self._slowdown(n, spent) if n >= self.MIN_SAMPLES else group)
                for dt, n, spent in intervals]


def run_pass(cli, ops, probe: SpeedProbe | None = None):
    """Run every op once; returns the pass wall time and per-op results.
    ``cli.main`` is looked up per call, so a traced wrapper is seen. Each
    result carries its time ``dt`` and, with a probe, its speed-adjusted
    time ``adj`` (else ``adj`` is ``dt``)."""
    results = []
    t_start = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        start = probe.reading() if probe else None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except Exception as exc:  # a crash is an outcome to report, not to stop on
                code = type(exc).__name__
            dt = time.perf_counter() - t0
        results.append(SimpleNamespace(code=code, dt=dt, adj=dt, stdout=out.getvalue(),
                                       probes=probe.since(start) if probe else None))
    wall = time.perf_counter() - t_start
    if probe:
        for r, adj in zip(results, probe.adjust([(r.dt, *r.probes) for r in results])):
            r.adj = adj
    for op, r in zip(ops, results):
        r.digests = [digest(p) for p in op.artifacts]
    return wall, results


def judge_first(ops, results):
    """Expected exit code and independent check of each op of a labelling's
    first pass. Returns per-op outcome text ("ok" when the op passed), the
    loaded artifacts, and the ops that answered wrongly (as opposed to
    having raised)."""
    outcomes, objs, wrong = [], {}, []
    for op, r in zip(ops, results):
        if isinstance(r.code, str):
            outcomes.append(f"raised {r.code}")
            continue
        if r.code != op.expect:
            outcomes.append(f"exit {r.code}, expected {op.expect}")
            wrong.append(op.name)
            continue
        try:
            obj = load(op.artifacts[0]) if os.path.exists(op.artifacts[0]) else None
            op.check(obj, r.stdout)
            objs[op.name] = obj
            outcomes.append("ok")
        except (CheckError, ValueError, KeyError, TypeError) as exc:
            outcomes.append(f"check failed: {exc!r}")
            wrong.append(op.name)
    return outcomes, objs, wrong


def _corruptions(op, obj, cx: Cx):
    """Corrupted copies of a real artifact, each of which must be rejected."""
    if op.kind == "matching" and len(obj["pairs"]) >= 2:
        pairs = obj["pairs"]
        yield "dropped pair", dict(obj, pairs=pairs[1:])
        (a, b) = pairs[0]
        for j, (c, d) in enumerate(pairs[1:], 1):
            if not cx.incident(a, d):
                swapped = [[a, d], [c, b]] + pairs[1:j] + pairs[j + 1:]
                yield "non-incident pair", dict(obj, pairs=swapped)
                break
    elif op.kind == "certificate":
        yield "wrong IA", dict(obj, IA=obj["IA"][1:], deficiency=obj["deficiency"] + 1)
    elif op.kind == "orbits" and obj["classification"] == "acyclic":
        order = obj["collapse_order"]
        live = {c for step in order for c in step}
        for i, (lower, _) in enumerate(order[1:], 1):
            if sum(1 for c in cx.cofaces(lower) if c in live) >= 2:  # not free at the start
                bad = [order[i]] + order[:i] + order[i + 1:]
                yield "non-free collapse step", dict(obj, collapse_order=bad)
                break


def corruption_selftest(inp: Inputs, objs, results) -> list[str]:
    """Feed each checker corrupted copies of the first artifact of each kind."""
    problems, done = [], set()
    for op, r in zip(inp.ops, results):
        obj = objs.get(op.name)
        if obj is None or op.kind in done:
            continue
        cases = list(_corruptions(op, obj, inp.cx(op.cx))) if op.cx else []
        if cases:
            done.add(op.kind)
        for label, bad in cases:
            try:
                op.check(bad, r.stdout)
                problems.append(f"{op.name}: checker accepted a {label}")
            except CheckError:
                pass
    square = Cx([(0, 1), (1, 2), (2, 3), (0, 3)])
    try:
        check_loop(square, ["0.1", "1", "1.2", "2", "2.3", "3", "0.3", "0"])
        check_loop(square, ["0.1", "1", "2.3", "2", "1.2", "3", "0.3", "0"])
        problems.append("loop checker accepted a non-incident loop")
    except CheckError:
        pass
    return problems


def tail(values):
    """Highest of p75/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}", sorted(values)[math.ceil(p / 100 * n) - 1]
    return None


def describe(values) -> str:
    t = tail(values)
    t_text = f"{t[0]}={t[1]:.4f}" if t else "tail=n/a"
    return f"median={statistics.median(values):.4f} {t_text} n={len(values)}"


def labelling_mean(values) -> float:
    """Mean over the labellings of the median of each labelling's passes;
    pass k ran on labelling k mod LABELLINGS."""
    by_labelling: dict[int, list[float]] = {}
    for k, value in enumerate(values):
        by_labelling.setdefault(k % LABELLINGS, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_labelling.values())


def load_digests() -> dict:
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as handle:
            return json.load(handle)
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's artifact digests in bench/digests.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cellmatch", "__init__.py")):
        print(f"bench: no cellmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))


def measure(args, work: str) -> int:
    # Tracing has no bounds to meet, so traced runs go without the probe,
    # and traced and untraced passes are timed alike for the overhead.
    probe = None if args.trace else SpeedProbe()
    with probe or contextlib.nullcontext():
        return measure_with(args, work, probe)


def measure_with(args, work: str, probe: SpeedProbe | None) -> int:
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        start = probe.reading() if probe else None
        t0 = time.perf_counter()
        labellings, lib = setup(args.workload, args.seed, work)
        dt = time.perf_counter() - t0
        setup_samples.append((dt, *probe.since(start)) if probe else (dt, 0, ()))
    setup_samples = probe.adjust(setup_samples) if probe else [dt for dt, _, _ in setup_samples]
    ops = labellings[0].ops
    tracer = Tracer() if args.trace else None
    modes = ("traced", "untraced") if tracer else ("untraced",)
    first: dict[int, list] = {}  # labelling -> results of its first pass
    outcomes: dict[int, list[str]] = {}
    defects: dict[int, tuple] = {}  # labelling -> (results, outcomes) of its known-defect ops
    problems: list[str] = []
    wrong: list[str] = []
    passes = {mode: [] for mode in modes}  # (wall, results) per pass
    layer_samples = []
    attempted = n_failed = 0
    timed = 0.0
    for k in itertools.count():
        j = k % LABELLINGS
        inp = labellings[j]
        walls = 0.0
        for mode in modes:
            if mode == "traced":
                tracer.reset()
                tracer.install()
            try:
                wall, results = run_pass(lib.cli, inp.ops, probe)
            finally:
                if mode == "traced":
                    tracer.uninstall()
                    layer_samples.append(tracer.metrics())
            walls += wall
            passes[mode].append((wall, results))
            if j not in first:
                first[j] = results
                outcomes[j], objs, bad = judge_first(inp.ops, results)
                wrong += [f"labelling {j}: {name}" for name in bad]
                if j == 0:
                    problems += corruption_selftest(inp, objs, results)
                if inp.defects:
                    _, d_results = run_pass(lib.cli, inp.defects)
                    d_outcomes, _, bad = judge_first(inp.defects, d_results)
                    wrong += [f"labelling {j}: {name}" for name in bad]
                    defects[j] = d_results, d_outcomes
                inp.release()
            attempted += len(results)
            for i, (op, r) in enumerate(zip(inp.ops, results)):
                same = (r.code, r.digests) == (first[j][i].code, first[j][i].digests)
                if not same:
                    problems.append(f"{mode} pass: {op.name} (labelling {j}) differs "
                                    "from the labelling's first pass")
                n_failed += outcomes[j][i] != "ok" or not same
        timed += walls
        if k + 1 >= LABELLINGS and timed + walls > args.seconds:
            break

    untraced = passes["untraced"]
    kind = "speed-adjusted" if probe else "raw"
    print(f"bench {args.workload} seed={args.seed} trace={args.trace} "
          f"labellings={LABELLINGS} passes={len(untraced)} times={kind}")
    print(f"{'op':<18} {'group':<12} {'expect':>6}  outcome per labelling; time (s)")
    for i, op in enumerate(ops):
        seen = "; ".join(f"{j}: {outcomes[j][i]}" for j in sorted(outcomes))
        times = [res[i].adj for _, res in untraced]
        raw = statistics.median(res[i].dt for _, res in untraced)
        print(f"{op.name:<18} {op.group:<12} {op.expect:>6}  {seen}; "
              f"{describe(times)} raw_median={raw:.4f}")
    if defects:
        print("known defects (once per labelling, untimed, not in attempted/failed):")
    for i, op in enumerate(labellings[0].defects):
        seen = "; ".join(f"{j}: {defects[j][1][i]}" for j in sorted(defects))
        times = ", ".join(f"{defects[j][0][i].dt:.4f}" for j in sorted(defects))
        print(f"{op.name:<18} {op.group:<12} {op.expect:>6}  {seen}; raw times {times}")
    groups = GROUPS[args.workload]
    cmd = {name: [sum(r.adj for op, r in zip(ops, res) if op.group == group)
                  for _, res in untraced]
           for name, group in zip(CMD_METRICS, groups)}
    walls = [sum(cmd[name][p] for name in CMD_METRICS) for p in range(len(untraced))]
    raw_walls = [sum(r.dt for r in res) for _, res in untraced]
    print(f"wall_s (s): labelling_mean={labelling_mean(walls):.4f} {describe(walls)} "
          f"raw_median={statistics.median(raw_walls):.4f}")
    for name, group in zip(CMD_METRICS, groups):
        print(f"{name} = {group} (s): labelling_mean={labelling_mean(cmd[name]):.4f} "
              f"{describe(cmd[name])}")
    print(f"setup_s (s): {describe(setup_samples)}")
    print(f"fail_ratio: {n_failed}/{attempted} = {n_failed / attempted:.4f}")

    recorded = load_digests()
    mine = {f"{j}/{op.name}": r.digests
            for j, results in sorted(first.items()) for op, r in zip(ops, results)}
    mine.update({f"{j}/{op.name}": r.digests for j, (results, _) in sorted(defects.items())
                 for op, r in zip(labellings[0].defects, results)})
    total = sum(len(d) for d in mine.values())
    ref = recorded.get(args.workload, {}).get(str(args.seed))
    if ref is None:
        print(f"digests: {total} artifacts; seed {args.seed} not recorded")
    else:
        changed = sum(a != b for key, digests in mine.items()
                      for a, b in zip(digests, ref.get(key, [None] * len(digests))))
        print(f"digests: {changed} of {total} artifacts changed against the recorded set")
    problems += [f"wrong answer: {w}" for w in wrong]
    correct = not problems
    if args.record_digests and correct:
        recorded.setdefault(args.workload, {})[str(args.seed)] = mine
        with open(DIGESTS, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
    for problem in problems:
        print(f"problem: {problem}")

    if tracer:
        traced_walls = [sum(r.dt for r in res) for _, res in passes["traced"]]
        overhead = statistics.median(traced_walls) / statistics.median(raw_walls) - 1
        print(f"trace overhead: traced wall_s {statistics.median(traced_walls):.4f} / "
              f"untraced {statistics.median(raw_walls):.4f} - 1 = {overhead:.4f}")
        print("absent targets: " + (", ".join(tracer.absent) or "none"))
        metrics = {}
        for name, unit, _ in metric_specs():
            value = statistics.median(s[name] for s in layer_samples)
            metrics[name] = {"value": value, "unit": unit}
            if value:
                print(f"  {name} = {value:.6g} {unit}")
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {"wall_s": {"value": labelling_mean(walls), "unit": "s"}}
        for name in CMD_METRICS:
            metrics[name] = {"value": labelling_mean(cmd[name]), "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
