"""The repository's benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload {high-order,high-degree,verdicts} \
        --seed N --seconds T --trace {0,1}

Run from the root of a checkout; it imports ``nashblowup`` from ``src/``.
Every run starts fresh interpreters (``worker.py``), so the library's caches
start cold.  One client runs one operation at a time (a closed loop, no
threads).

``--trace 0`` measures the end-to-end metrics: a worker runs whole rounds of
the workload for ``--seconds``; set-up time is the median over that worker
and eight more that only set up.  ``--trace 1`` runs the same ops twice in
fresh processes, untraced for ``--seconds / 2`` and then traced with the
spans of ``spans.py``, and reports the per-layer metrics per operation;
``trace.overhead_ratio`` compares the two op times.

Every metric is printed as ``name value unit``; the last line is the JSON
result.  The run exits non-zero without a result when it cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_RUNS = 8
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402


class RunError(Exception):
    pass


def source_id() -> str:
    """The commit when the checkout is a git repository, else a digest of src/."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_worker(args, deadline: float, *extra: str) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("out of time")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise RunError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [run_worker(args, deadline, "--seconds", "0", "--setup-only")["setup_s"]
              for _ in range(SETUP_ONLY_RUNS)]
    res = run_worker(args, deadline, "--seconds", str(args.seconds))
    setups.append(res["setup_s"])
    d = res["durations"]
    metrics = {
        "ops_per_s": (len(d) / sum(d), "1/s"),
        "op_p50_ms": (statistics.median(d) * 1000, "ms"),
        "op_p90_ms": (percentile(d, 0.9) * 1000, "ms"),
        "peak_rss_mb": (res["rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, res


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    plain = run_worker(args, deadline, "--seconds", str(args.seconds / 2))
    ops = len(plain["durations"])
    trace_file = HERE / "out" / f"spans-{args.workload}.json"
    res = run_worker(args, deadline, "--seconds", "0", "--ops", str(ops), "--trace", str(trace_file))
    with open(trace_file) as fh:
        recorded = json.load(fh)["spans"]
    metrics = spans.layer_metrics(recorded, ops, res["output_bytes"], sum(res["durations"]), sum(plain["durations"]))
    res["failed"] += plain["failed"]
    res["failures"] += plain["failures"]
    res["durations"] += plain["durations"]
    return metrics, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "nashblowup" / "__init__.py").is_file():
        print(f"no nashblowup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, res = (per_layer if args.trace else end_to_end)(args, deadline)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = len(res["durations"])
    print(f"run workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={res['python']} nproc={res['nproc']} source={source_id()} "
          f"caches={','.join(res['caches']) or 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {res['failed'] / attempted:.6g} ratio ({res['failed']} of {attempted} ops failed)")
    for line in res["failures"]:
        print(f"failed: {line}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
