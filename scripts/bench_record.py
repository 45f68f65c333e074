#!/usr/bin/env python3
"""Record the benchmark of one or more checkouts as one JSON document.

Usage (run from anywhere; each LABEL=PATH is the root of a checkout):
    python3 scripts/bench_record.py parent=../old change=. > BENCH_N.json
    python3 scripts/bench_record.py a=../old b=. --workloads high-order --seeds 31 32 33

For every workload and seed, each checkout runs
``python3 perfbench/run.py --trace 0`` once, with its own ``perfbench/`` and
``src/``; the checkouts take turns going first, one seed to the next, so
drift of the machine falls on both sides.  Then each checkout makes one
``--trace 1`` run per workload at each of the first three seeds, taking
turns the same way: per-layer values of a single traced run spread by
about 30 % between runs of the same code, so the record keeps their
median.  The run length, the default workloads, the metric names and
which direction is better come from the ``BENCHMARK.json`` next to this
script.

The output's settings carry the seeds, the run length, and the Python
version and ``nproc`` the runs reported; each checkout carries the source
commit (or ``src/`` digest) its runs reported.  Per workload it holds every
end-to-end metric's values in seed order, their median and quartiles
(inclusive method), the failed and attempted op counts, and each per-layer
value's median and its values over the traced runs, in seed order.
With two or more checkouts, ``versus_<first label>`` compares each later
checkout with the first, seed by seed: ``wins`` counts the seeds on which
it was better (ties count for neither) and ``median_gap_exceeds_iqr``
says whether the medians differ by more than the first checkout's
interquartile range.  A failed run stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in a checkout: its JSON result plus the fields of its ``run`` line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {root} failed:\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    header = next(line for line in lines if line.startswith("run "))
    result["header"] = dict(f.split("=", 1) for f in header.split()[1:] if "=" in f)
    print(f"{root} {workload} seed={seed} trace={trace} failed={result['failed']}", file=sys.stderr)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def layer_medians(results: list[dict]) -> dict:
    """Each per-layer metric's median and its values over the traced runs."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        out[name] = {"median": statistics.median(values), "values": values}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=PATH")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 13, 21])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCHMARK["workloads"]])
    args = parser.parse_args()
    if len(args.seeds) < 3:
        parser.error("quartiles need at least 3 seeds")
    checkouts = {}
    for spec in args.checkouts:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "perfbench" / "run.py").is_file():
            parser.error(f"{spec!r} is not LABEL=PATH of a checkout with perfbench/run.py")
        checkouts[label] = Path(path).resolve()
    seconds = BENCHMARK["run_seconds"]
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    first, *later = checkouts

    trace_seeds = args.seeds[:3]
    runs = {label: {w: [] for w in args.workloads} for label in checkouts}
    traced = {label: {w: [] for w in args.workloads} for label in checkouts}
    headers = {}
    for w in args.workloads:
        for trace, seeds, into in ((0, args.seeds, runs), (1, trace_seeds, traced)):
            for i, seed in enumerate(seeds):
                order = list(checkouts)
                if i % 2:
                    order.reverse()
                for label in order:
                    result = run(checkouts[label], w, seed, seconds, trace)
                    headers[label] = result["header"]
                    into[label][w].append(result)

    record = {
        "settings": {
            "seconds": seconds,
            "seeds": args.seeds,
            "trace_seeds": trace_seeds,
            "python": headers[first]["python"],
            "nproc": headers[first]["nproc"],
        },
        "checkouts": {},
    }
    for label in checkouts:
        workloads = {}
        for w, results in runs[label].items():
            workloads[w] = {
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "end_to_end": {
                    name: {"unit": results[0]["metrics"][name]["unit"],
                           **summary([r["metrics"][name]["value"] for r in results])}
                    for name in better
                },
                "per_layer": layer_medians(traced[label][w]),
            }
        record["checkouts"][label] = {"source": headers[label]["source"], "workloads": workloads}

    for label in later:
        versus = {}
        for w in args.workloads:
            base = record["checkouts"][first]["workloads"][w]["end_to_end"]
            mine = record["checkouts"][label]["workloads"][w]["end_to_end"]
            versus[w] = {}
            for name, direction in better.items():
                sign = 1 if direction == "higher" else -1
                pairs = zip(base[name]["values"], mine[name]["values"])
                versus[w][name] = {
                    "wins": sum(sign * (b - a) > 0 for a, b in pairs),
                    "pairs": len(args.seeds),
                    "median_gap_exceeds_iqr": sign * (mine[name]["median"] - base[name]["median"])
                    > base[name]["q3"] - base[name]["q1"],
                }
        record["checkouts"][label][f"versus_{first}"] = versus
    json.dump(record, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
