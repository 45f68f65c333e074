"""Build ``expected.json``, the answer table the benchmark checks against.

    python3 perfbench/make_expected.py

Run it on the commit whose answers are the reference (the table records that
commit).  Every input any seed can draw for a table-backed operation is run
once; its CLI JSON digest or inclusion verdicts are stored, and each answer
is cross-checked against an independent source where one exists: the
closed-form invariants of Brieskorn-Pham germs, the linear-algebra oracle
for small ideals, and the inclusions the paper asserts.  A disagreement
stops the build.  Per-op times go to standard error.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# the oracle is dense linear algebra: keep it to ideals it settles quickly
ORACLE_MAX_GENERATORS = 40
ORACLE_MAX_DIMENSION = 100
ORACLE_MAX_BOUND = 20


def seed_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=worker.ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    worker.import_library()
    from nashblowup.fields import CoefficientField
    from nashblowup.parsing import parse_polynomial
    from nashblowup.polynomials import RingContext

    run = worker.make_runner()
    entries: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        for op in workloads.all_table_ops(name):
            if op.key in entries:
                continue
            t0 = time.perf_counter()
            result = run(op)
            elapsed = time.perf_counter() - t0
            print(f"{name}\t{op.stratum}\t{op.key}\t{elapsed:.4f}", file=sys.stderr, flush=True)
            if op.kind == "inclusions":
                checks = [list(c) for c in result]
                if any(asserted and not holds for _, holds, asserted in checks):
                    raise SystemExit(f"{op.key}: an asserted inclusion fails")
                entries[op.key] = {"checks": checks, "source": "theorem (asserted), seed-commit (rest)"}
                continue
            rc, out = result
            if rc != 0:
                raise SystemExit(f"{op.key}: exit code {rc}")
            obj = json.loads(out)
            entry = {"digest": answers.digest(out), "source": "seed-cli-json"}
            if op.kind == "ideal-tn":
                entry["dimension"] = obj["dimension"]
                entry["dimension_source"] = "seed-cli-json"
                gens = obj["generators"]
                if obj["dimension"] != "inf" and len(gens) <= ORACLE_MAX_GENERATORS and obj["dimension"] <= ORACLE_MAX_DIMENSION:
                    ring = RingContext(op.variables, CoefficientField(op.chars))
                    dim = oracle.stable_quotient_dim([parse_polynomial(g, ring) for g in gens], ring, ORACLE_MAX_BOUND)
                    if dim is not None:
                        if dim != obj["dimension"]:
                            raise SystemExit(f"{op.key}: oracle dimension {dim} != {obj['dimension']}")
                        entry["dimension_source"] = "oracle"
            else:
                exponents = answers.brieskorn_exponents(op.germ)
                if exponents is not None:
                    want = answers.brieskorn_invariants(exponents, op.chars)
                    got = {"tau": obj["tau"], "mt": obj["mt"], "gpBound": obj["gpBound"], "dimTn.1": obj["dimTn"]["1"]}
                    if got != want:
                        raise SystemExit(f"{op.key}: closed form {want} != {got}")
                    entry["closed_form"] = sorted(want)
            entries[op.key] = entry
    table = {
        "commit": seed_commit(),
        "sources": answers.__doc__,
        "entries": entries,
    }
    with open(answers.TABLE_PATH, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
