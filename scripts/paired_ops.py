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
kind and in total, the op count, each side's summed time, and the second
label's speed-up over the first (the first's time over its time, minus
one); then each side's ops per second over the summed times, the median and
90th percentile of its per-op least times (nearest rank, as
``perfbench/run.py`` reads ``op_p50_ms`` and ``op_p90_ms``), and its failed
answers.  Last, per op kind and in total, the two passes' speed-ups and
their mean.  Exits 1 when an answer is wrong.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def is_library(name: str) -> bool:
    return name == "nashblowup" or name.startswith("nashblowup.")


def bind(root: Path, make_runner):
    """(run, modules) for the ``nashblowup`` under ``root/src``, imported afresh."""
    for name in [n for n in sys.modules if is_library(n)]:
        del sys.modules[name]
    src = str(root / "src")
    sys.path.insert(0, src)
    try:
        import nashblowup
        from nashblowup import cli  # noqa: F401  (loads every module the CLI uses)

        if Path(nashblowup.__file__).resolve().parent != root / "src" / "nashblowup":
            raise SystemExit(f"imported nashblowup from {nashblowup.__file__}, not from {root}")
        run = make_runner()
    finally:
        sys.path.remove(src)
    return run, {n: m for n, m in sys.modules.items() if is_library(n)}


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
    args = parser.parse_args()
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
        sides = {label: bind(roots[label], make_runner) for label in bound}
        best, least, count, failures = time_ops(ops, sides, bound, args.reps, answers, table)
        del sides
        failed = failed or any(failures.values())
        print(f"{bound[0]} bound first")
        print(f"{'kind':<16}{'ops':>6}{first + ' ms':>14}{second + ' ms':>14}{'change':>9}")
        change = {}
        for kind in sorted(count) + ["total"]:
            n = len(ops) if kind == "total" else count[kind]
            a, b = (sum(best[label].values()) if kind == "total" else best[label][kind] for label in roots)
            change[kind] = (a / b - 1) * 100
            print(f"{kind:<16}{n:>6}{a * 1e3:>14.1f}{b * 1e3:>14.1f}{change[kind]:>+8.1f}%")
        for label in roots:
            total = sum(best[label].values())
            p50, p90 = statistics.median(least[label]) * 1e3, percentile(least[label], 0.9) * 1e3
            print(f"{label}: {len(ops) / total:.1f} ops/s, p50 {p50:.3f} ms, p90 {p90:.3f} ms, "
                  f"{len(failures[label])} failed")
            for line in failures[label][:10]:
                print(f"  {line}")
        changes.append(change)
    print(f"{second} over {first}, both orders")
    print(f"{'kind':<16}{first + ' first':>16}{second + ' first':>16}{'mean':>9}")
    for kind in changes[0]:
        a, b = changes[0][kind], changes[1][kind]
        print(f"{kind:<16}{a:>+15.1f}%{b:>+15.1f}%{(a + b) / 2:>+8.1f}%")
    return 1 if failed else 0


def time_ops(ops, sides, order, reps, answers, table):
    """(best, least, count, failures): per label the summed least time per op kind,
    the least time of each op in plan order, the op count per kind, and the
    failed answers.  ``order[0]`` goes first on even ops."""
    best = {label: defaultdict(float) for label in sides}
    least = {label: [] for label in sides}
    count: dict[str, int] = defaultdict(int)
    failures = {label: [] for label in sides}
    for i, op in enumerate(ops):
        times = {label: [] for label in sides}
        for _ in range(reps):
            for label in (order if i % 2 == 0 else order[::-1]):
                run, modules = sides[label]
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
        count[op.kind] += 1
        for label in sides:
            best[label][op.kind] += min(times[label])
            least[label].append(min(times[label]))
    return best, least, count, failures


if __name__ == "__main__":
    sys.exit(main())
