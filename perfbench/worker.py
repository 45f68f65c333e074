"""One benchmark run in a fresh interpreter: a closed loop of operations.

    python3 perfbench/worker.py --workload W --seed S --seconds T --spawned-at M
        [--ops K] [--trace SPANS_FILE] [--setup-only]

The loop runs one operation at a time from one client, no threads, until
``--seconds`` have passed at the end of a round (or exactly ``--ops``
operations).  Each answer is checked outside the timed region.  The last
line of standard output is a JSON object with the op times and counts;
``run.py`` turns it into metrics.  ``--spawned-at`` is the
``time.monotonic()`` reading taken just before this process was started,
so set-up time covers interpreter start, imports and input generation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_library() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import nashblowup
    from nashblowup import cli  # noqa: F401  (loads every module the CLI uses)

    if Path(nashblowup.__file__).resolve().parent != ROOT / "src" / "nashblowup":
        raise SystemExit(f"imported nashblowup from {nashblowup.__file__}, not from this checkout")


def loaded_caches() -> dict:
    """cache_info() of every cached callable bound in a loaded nashblowup module."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "nashblowup" or mod_name.startswith("nashblowup.")):
            continue
        for attr, value in vars(mod).items():
            info = getattr(value, "cache_info", None)
            if callable(info):
                found[f"{getattr(value, '__module__', mod_name)}.{attr}"] = info()
    return found


def assert_cold() -> list[str]:
    """Every cache starts empty; a library without caches passes trivially."""
    caches = loaded_caches()
    for name, info in caches.items():
        if info.currsize or info.hits or info.misses:
            raise SystemExit(f"cache {name} is not cold before the first op: {info}")
    return sorted(caches)


def make_runner():
    from nashblowup import cli
    from nashblowup.algebras import check_inclusions, nash_ideal_t
    from nashblowup.equivalence import (
        ContactTransform,
        LocalAutomorphism,
        UnitElement,
        check_contact_invariance,
        check_right_covariance,
        check_unit_stability,
    )
    from nashblowup.fields import CoefficientField
    from nashblowup.ideals import Ideal
    from nashblowup.parsing import parse_polynomial
    from nashblowup.polynomials import RingContext

    def run(op):
        if op.kind in ("ideal-tn", "invariants"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op.argv())
            return rc, out.getvalue()
        ring = RingContext(op.variables, CoefficientField(op.chars))

        def poly(text):
            return parse_polynomial(text, ring)

        f = poly(op.germ)
        if op.kind == "inclusions":
            return [(c.name, c.holds, c.asserted) for c in check_inclusions(f, op.n)]
        if op.kind == "covariance":
            phi = LocalAutomorphism(ring, tuple(poly(t) for t in op.extra))
            return check_right_covariance(f, phi, op.n)
        if op.kind == "unit":
            return check_unit_stability(f, UnitElement(poly(op.extra[0])), op.n)
        if op.kind == "contact":
            phi = LocalAutomorphism(ring, tuple(poly(t) for t in op.extra[:-1]))
            transform = ContactTransform(phi, UnitElement(poly(op.extra[-1])))
            return check_contact_invariance(f, transform, op.n)
        if op.kind == "equals-pair":
            return nash_ideal_t(f, op.n).equals(nash_ideal_t(poly(op.extra[0]), op.n))
        if op.kind == "equals-identity":
            return nash_ideal_t(f, op.n).equals(Ideal(ring, [f] + [poly(t) for t in op.extra]))
        if op.kind == "member":
            return nash_ideal_t(f, op.n).contains_element(poly(op.extra[0]))
        raise ValueError(f"unknown operation kind {op.kind}")

    return run


def output_size(op, result) -> int:
    return len(result[1].encode()) if op.kind in ("ideal-tn", "invariants") else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_library()
    sys.path.insert(0, str(HERE))
    import answers
    import workloads

    table = answers.load_table()
    rounds = workloads.plan(args.workload, args.seed)
    recorder = None
    if args.trace:
        import spans

        # before make_runner, so the names it imports are the wrapped ones
        recorder = spans.Recorder()
        spans.install(recorder)
    run = make_runner()
    caches = assert_cold()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    durations: list[float] = []
    strata: list[str] = []
    failures: list[str] = []
    failed = 0
    output_bytes = 0
    start = time.perf_counter()
    for ops in rounds:
        for op in ops:
            if args.ops is not None and len(durations) == args.ops:
                break
            index = len(durations)
            error = None
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    result = run(op)
                else:
                    result = recorder.run_op(index, lambda: run(op))
            except Exception as exc:  # any raise, including a bare RuntimeError, fails the op
                error = f"raised {type(exc).__name__}: {exc}"
            durations.append(time.perf_counter() - t0)
            strata.append(op.stratum)
            if error is None:
                output_bytes += output_size(op, result)
                error = answers.check(op, result, table)
            if error is not None:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{op.key} {op.extra}: {error}")
        if args.ops is not None:
            if len(durations) == args.ops:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    if args.ops is not None and len(durations) < args.ops:
        raise SystemExit(f"plan holds only {len(durations)} ops, {args.ops} requested")

    if recorder is not None:
        path = Path(args.trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": recorder.spans}, fh, separators=(",", ":"))
    print(json.dumps({
        "setup_s": setup_s,
        "durations": durations,
        "strata": strata,
        "failed": failed,
        "failures": failures,
        "output_bytes": output_bytes,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "caches": caches,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
