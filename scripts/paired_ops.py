#!/usr/bin/env python3
"""Time two checkouts op by op in one process over a benchmark plan.

Usage (run from anywhere; each LABEL=PATH is the root of a checkout):
    python3 scripts/paired_ops.py parent=../old change=. --workload verdicts --seed 7 --ops 3000
    python3 scripts/paired_ops.py a=../old b=. --workload high-order --seed 13 --ops 200 --reps 1

The plan comes from the ``perfbench/`` next to this script: the first
``--ops`` operations of ``workloads.plan(workload, seed)``.  Each
checkout's ``src/`` is imported as ``nashblowup`` in turn and bound through
``perfbench/worker.make_runner``; its modules are put back into
``sys.modules`` before each of its runs, so an import made inside a
library function resolves to the same checkout.  Every op runs ``--reps``
times under each checkout, the two alternating and taking turns going
first from one op to the next, and each side keeps the least of its times
for that op.  Every answer is checked with ``answers.check``.  Back-to-back
benchmark runs of the same code spread widely on a small shared machine;
alternating op by op puts the same drift on both sides.

The plan runs twice.  The first pass binds the checkouts in the order
given and lets the first go first on even ops; the second binds them the
other way round and lets the second go first on even ops, since readings
shift by about 1 % with the naming order.  For each pass it prints, per op
kind and stratum (``kind/stratum``, such as ``ideal-tn/n5-q``, so that a
workload of one kind still shows which stratum moved) and in total, the op
count, each side's summed time, and the second label's speed-up over the
first (the first's time over its time, minus one); then each side's ops
per second over the summed times, the median and 90th percentile of its
per-op least times (nearest rank, as ``perfbench/run.py`` reads
``op_p50_ms`` and ``op_p90_ms``), and its failed answers.  Last, per op
kind and stratum and in total, the two passes' speed-ups and their mean.
Exits 1 when an answer is wrong.

``--time NAME[,...]`` also reports, for each side and pass, the calls per
op and the wall time per op spent inside each named function, and that
time's share of the side's op time over every rep.  A name is
``MODULE.FUNC``, a function of a module of the package such as
``ideals._finish_primary`` or ``cli.build_parser``, or
``MODULE.CLASS.ATTR``, a method, classmethod, staticmethod, property or
cached property of a class, such as ``ideals.Ideal._from_packed`` or
``ideals.Ideal.generators`` (a property's getter is timed).  Only
outermost calls count, so a function that recurses or calls itself again
is timed once.  Every copy of a module function bound in the side's
modules is rebound, as ``perfbench/spans.py`` does, and a class attribute
is replaced on its class; the timers go in before ``make_runner`` binds
its names, so the functions it imports are timed too.  A name a side does
not define reads ``-``.  The wrappers add their own cost to the op times,
so take speed-ups from a run without ``--time``.
"""

from __future__ import annotations

import argparse
import functools
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def is_library(name: str) -> bool:
    return name == "nashblowup" or name.startswith("nashblowup.")


def bind(root: Path, make_runner, names: list[str]):
    """(run, modules, spent) for the ``nashblowup`` under ``root/src``,
    imported afresh, with the timers of ``names`` installed before the
    runner binds its names (install_timers)."""
    for name in [n for n in sys.modules if is_library(n)]:
        del sys.modules[name]
    src = str(root / "src")
    sys.path.insert(0, src)
    try:
        import nashblowup
        from nashblowup import cli  # noqa: F401  (loads every module the CLI uses)

        if Path(nashblowup.__file__).resolve().parent != root / "src" / "nashblowup":
            raise SystemExit(f"imported nashblowup from {nashblowup.__file__}, not from {root}")
        modules = {n: m for n, m in sys.modules.items() if is_library(n)}
        spent = install_timers(modules, names)
        run = make_runner()
    finally:
        sys.path.remove(src)
    return run, modules, spent


def timed(fn, cell: list):
    """``fn`` adding the calls and seconds of its outermost calls to ``cell``."""
    depth = 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nonlocal depth
        if depth:
            return fn(*args, **kwargs)
        depth = 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            cell[0] += 1
            cell[1] += time.perf_counter() - t0
            depth = 0

    return wrapper


def timed_attribute(raw, cell: list):
    """The class attribute ``raw`` (as the class's ``__dict__`` holds it) with its function timed."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(timed(raw.__func__, cell))
    if isinstance(raw, property):
        return property(timed(raw.fget, cell), raw.fset, raw.fdel, raw.__doc__)
    if isinstance(raw, functools.cached_property):
        wrapped = functools.cached_property(timed(raw.func, cell))
        # only class creation names a cached property
        wrapped.attrname = raw.attrname
        return wrapped
    return timed(raw, cell)


def install_timers(modules: dict, names: list[str]) -> dict:
    """{name: [calls, seconds]} for each MODULE.FUNC or MODULE.CLASS.ATTR the
    side defines: a function rebound in every one of its modules that holds
    it, a class attribute replaced on its class."""
    spent = {}
    for name in names:
        mod_name, *path = name.split(".")
        owner = modules.get(f"nashblowup.{mod_name}")
        if len(path) == 2:
            cls = getattr(owner, path[0], None)
            raw = vars(cls).get(path[1]) if isinstance(cls, type) else None
            if raw is None:
                continue
            spent[name] = [0, 0.0]
            setattr(cls, path[1], timed_attribute(raw, spent[name]))
            continue
        original = getattr(owner, path[0], None) if len(path) == 1 else None
        if original is None:
            continue
        spent[name] = [0, 0.0]
        wrapper = timed(original, spent[name])
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return spent


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, metavar="LABEL=PATH")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--time", metavar="NAME[,...]",
                        help="also report the calls and time per op inside these functions "
                             "(MODULE.FUNC or MODULE.CLASS.ATTR)")
    args = parser.parse_args()
    names = args.time.split(",") if args.time else []
    if args.ops < 1 or args.reps < 1:
        parser.error("--ops and --reps must be at least 1")
    roots = {}
    for spec in args.checkouts:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "src" / "nashblowup").is_dir() or label in roots:
            parser.error(f"{spec!r} is not a distinct LABEL=PATH of a checkout with src/nashblowup")
        roots[label] = Path(path).resolve()

    sys.path.insert(0, str(PERFBENCH))
    import answers
    import workloads
    from worker import make_runner

    table = answers.load_table()
    ops = [op for ops in workloads.plan(args.workload, args.seed) for op in ops][: args.ops]
    if len(ops) < args.ops:
        raise SystemExit(f"plan holds only {len(ops)} ops, {args.ops} requested")
    first, second = roots
    print(f"workload={args.workload} seed={args.seed} ops={len(ops)} reps={args.reps}")
    changes = []
    failed = False
    for bound in ([first, second], [second, first]):
        # the side bound first also goes first on even ops
        sides = {label: bind(roots[label], make_runner, names) for label in bound}
        spent = {label: sides[label][2] for label in bound}
        best, least, count, failures, busy = time_ops(ops, sides, bound, args.reps, answers, table)
        del sides
        failed = failed or any(failures.values())
        print(f"{bound[0]} bound first")
        print(f"{'kind/stratum':<28}{'ops':>6}{first + ' ms':>14}{second + ' ms':>14}{'change':>9}")
        change = {}
        for group in sorted(count) + ["total"]:
            n = len(ops) if group == "total" else count[group]
            a, b = (sum(best[label].values()) if group == "total" else best[label][group] for label in roots)
            change[group] = (a / b - 1) * 100
            print(f"{group:<28}{n:>6}{a * 1e3:>14.1f}{b * 1e3:>14.1f}{change[group]:>+8.1f}%")
        for label in roots:
            total = sum(best[label].values())
            p50, p90 = statistics.median(least[label]) * 1e3, percentile(least[label], 0.9) * 1e3
            print(f"{label}: {len(ops) / total:.1f} ops/s, p50 {p50:.3f} ms, p90 {p90:.3f} ms, "
                  f"{len(failures[label])} failed")
            for line in failures[label][:10]:
                print(f"  {line}")
        if names:
            runs = len(ops) * args.reps
            width = max(36, max(len(f"{label} {name} ") for label in roots for name in names))
            print(f"{'timed, per op over every rep':<{width}}{'calls':>8}{'ms':>10}{'share':>8}")
            for name in names:
                for label in roots:
                    cell = spent[label].get(name)
                    row = f"{label + ' ' + name:<{width}}"
                    if cell is None:
                        print(f"{row}{'-':>8}{'-':>10}{'-':>8}")
                    else:
                        print(f"{row}{cell[0] / runs:>8.2f}{cell[1] * 1e3 / runs:>10.4f}"
                              f"{cell[1] / busy[label] * 100:>7.1f}%")
        changes.append(change)
    print(f"{second} over {first}, both orders")
    print(f"{'kind/stratum':<28}{first + ' first':>16}{second + ' first':>16}{'mean':>9}")
    for group in changes[0]:
        a, b = changes[0][group], changes[1][group]
        print(f"{group:<28}{a:>+15.1f}%{b:>+15.1f}%{(a + b) / 2:>+8.1f}%")
    return 1 if failed else 0


def time_ops(ops, sides, order, reps, answers, table):
    """(best, least, count, failures, busy): per label the summed least time
    per op kind and stratum, the least time of each op in plan order, the op
    count per kind and stratum, the failed answers, and the summed time of
    every rep.  ``order[0]`` goes first on even ops."""
    best = {label: defaultdict(float) for label in sides}
    least = {label: [] for label in sides}
    count: dict[str, int] = defaultdict(int)
    failures = {label: [] for label in sides}
    busy = dict.fromkeys(sides, 0.0)
    for i, op in enumerate(ops):
        group = f"{op.kind}/{op.stratum}"
        times = {label: [] for label in sides}
        for _ in range(reps):
            for label in (order if i % 2 == 0 else order[::-1]):
                run, modules, _ = sides[label]
                sys.modules.update(modules)
                t0 = time.perf_counter()
                try:
                    result = run(op)
                except Exception as exc:  # a raise fails the op, as in the benchmark
                    error = f"raised {type(exc).__name__}: {exc}"
                else:
                    error = None
                times[label].append(time.perf_counter() - t0)
                if error is None:
                    error = answers.check(op, result, table)
                if error is not None:
                    failures[label].append(f"op {i} {op.key} {op.extra}: {error}")
        count[group] += 1
        for label in sides:
            best[label][group] += min(times[label])
            least[label].append(min(times[label]))
            busy[label] += sum(times[label])
    return best, least, count, failures, busy


if __name__ == "__main__":
    sys.exit(main())
