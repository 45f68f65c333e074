"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Smoke-size runs (a fraction of a second of measuring, which the loop rounds
up to one whole round) of every workload, untraced and traced.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import answers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.fixture(scope="module", params=[(w, t) for w in workloads.WORKLOADS for t in (0, 1)],
                ids=lambda p: f"{p[0]}-trace{p[1]}")
def run(request):
    workload, trace = request.param
    result, lines = smoke(workload, trace)
    return workload, trace, result, lines


def test_emitted_names_and_units_match_spec(run):
    _, trace, result, lines = run
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    printed = {line.split()[0] for line in lines}
    assert {m["name"] for m in spec} <= printed
    assert "error_rate" in printed


def test_smoke_run_verifies_every_answer(run):
    _, _, result, _ = run
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["correct"] is True


def test_traced_self_times_add_up_to_op_time(run):
    workload, trace, _, _ = run
    if not trace:
        pytest.skip("untraced run writes no spans")
    recorded = json.loads((BENCH / "out" / f"spans-{workload}.json").read_text())["spans"]
    op_time = sum(s[4] - s[3] for s in recorded if s[0] == spans.OP_SPAN)
    assert all(s[1] >= 0 or s[0] == spans.OP_SPAN for s in recorded), "a layer span outside every op"
    assert math.isclose(sum(spans.self_times(recorded)), op_time, rel_tol=1e-9)
    assert all(t >= -1e-9 for t in spans.self_times(recorded))


def test_every_layer_is_recorded_on_some_workload():
    seen = set()
    for workload in workloads.WORKLOADS:
        path = BENCH / "out" / f"spans-{workload}.json"
        if not path.exists():
            pytest.skip("traced smoke runs have not written spans")
        seen |= {s[0] for s in json.loads(path.read_text())["spans"]}
    assert set(spans.LAYERS) <= seen


def test_checks_reject_wrong_answers():
    table = answers.load_table()
    rounds = workloads.plan("verdicts", 1) + workloads.plan("high-order", 1)
    ops = {op.kind: op for ops in rounds for op in ops}
    for kind in ("covariance", "unit", "contact", "equals-pair", "equals-identity", "member"):
        op = ops[kind]
        assert answers.check(op, answers.theorem_verdict(op), table) is None
        assert answers.check(op, not answers.theorem_verdict(op), table) is not None
    op = ops["ideal-tn"]
    assert answers.check(op, (0, "{}"), table) is not None
    assert answers.check(op, (3, ""), table) is not None


def test_known_false_verdicts_are_drawn():
    ops = [op for ops in workloads.plan("verdicts", 1)[:20] for op in ops]
    assert any(op.kind == "equals-pair" for op in ops)
    falsified = [op for op in ops if op.kind == "equals-identity" and not answers.theorem_verdict(op)]
    assert falsified and all(op.chars == 5 and op.germ.endswith("y^5") for op in falsified)


def test_brieskorn_closed_form():
    assert answers.brieskorn_invariants((20, 37), 5)["tau"] == 720
    assert answers.brieskorn_invariants((40, 90), 3)["tau"] == 3510
    assert answers.brieskorn_invariants((20, 20), 5)["tau"] == "inf"
    assert answers.brieskorn_invariants((3, 3, 3), 0) == {"tau": 8, "mt": 3, "gpBound": 1, "dimTn.1": 8}
    assert answers.brieskorn_invariants((4, 5), 5) == {"tau": 15, "mt": 4, "gpBound": 26, "dimTn.1": 15}


def test_plan_is_seeded_and_cold():
    assert workloads.plan("high-order", 3) == workloads.plan("high-order", 3)
    assert workloads.plan("high-order", 3) != workloads.plan("high-order", 4)
    for workload in ("high-order", "high-degree"):
        keys = [op.key for ops in workloads.plan(workload, 3) for op in ops]
        assert len(keys) == len(set(keys)), "a CLI input repeats within a run"
