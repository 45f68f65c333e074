"""Expected answers of every benchmark operation, and where each comes from.

* ``closed form`` -- the Tjurina number of a Brieskorn-Pham germ
  ``x_1^e_1 + ... + x_d^e_d``: the characteristic p kills the partial of
  every x_i with p | e_i.  With no such exponent the Jacobian ideal is
  (x_i^(e_i - 1)) and tau = prod(e_i - 1); with one, f itself supplies
  x_j^e_j and tau = e_j * prod_{i != j}(e_i - 1); with two or more the
  quotient is infinite.  T_1 = (f) + J_1(f) is the Tjurina algebra, the
  multiplicity is min(e_i) and the contact-order bound follows from tau.
* ``oracle`` -- dimensions of small ideals, recomputed by the dense
  linear-algebra oracle in ``oracle.py`` when the table was built.
* ``theorem`` -- the inclusions the paper asserts, the covariance, unit
  and contact identities under any automorphism and unit, the README's
  proof that ``(f) + J_2(f) = (f, x^3, x^2*y^3)`` fails for
  ``f = a*x^2 + y^5`` over F_5 (and the identity where the scalar
  ``2*a^2*k*(k-2)`` is invertible), the F_3 pair ``x^4+y^4`` /
  ``x^4+y^4+x^3`` whose order-2 ideals differ, and pure powers of a
  variable outside (f) + J_n(f) for a non-isolated germ, because every
  generator lies in the prime ideal of its singular locus
  (J_n inside J_1 by the descending chain).
* ``seed-cli-json`` / ``seed-commit`` -- everything else: the byte digest
  of the CLI JSON and the non-asserted inclusion verdicts as the seed
  commit printed them, since the reduced bases and JSON must stay
  byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

TABLE_PATH = Path(__file__).resolve().parent / "expected.json"

_BRIESKORN = re.compile(r"^[xyz]\^\d+(\+[xyz]\^\d+)*$")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_table() -> dict:
    with open(TABLE_PATH) as fh:
        return json.load(fh)["entries"]


def brieskorn_exponents(germ: str) -> tuple[int, ...] | None:
    """Exponents of a germ written as x^a+y^b(+z^c), else None."""
    if not _BRIESKORN.match(germ):
        return None
    return tuple(int(term.split("^")[1]) for term in germ.split("+"))


def brieskorn_invariants(exponents: tuple[int, ...], p: int) -> dict:
    """Closed-form fields of ``nashblowup invariants --json`` for a Brieskorn germ."""
    killed = [i for i, e in enumerate(exponents) if p and e % p == 0]
    if len(killed) >= 2:
        tau = "inf"
    else:
        tau = math.prod(e if i in killed else e - 1 for i, e in enumerate(exponents))
    mt = min(exponents)
    if tau == "inf":
        gp = None
    else:
        gp = 2 * tau - 2 * mt + 4 if p else 1
    return {"tau": tau, "mt": mt, "gpBound": gp, "dimTn.1": tau}


def theorem_verdict(op) -> bool:
    """Answer of a verdict operation that a theorem decides."""
    if op.kind in ("covariance", "unit", "contact"):
        return True
    if op.kind == "equals-pair" or op.kind == "member":
        return False
    if op.kind == "equals-identity":
        k = int(op.germ.rsplit("^", 1)[1])
        return not (op.chars and k * (k - 2) % op.chars == 0)
    raise ValueError(f"no theorem decides {op.kind}")


def check(op, result, table: dict) -> str | None:
    """None when ``result`` is the right answer for ``op``, else why it is not."""
    if op.kind in ("ideal-tn", "invariants"):
        rc, out = result
        if rc != 0:
            return f"exit code {rc}"
        entry = table[op.key]
        if digest(out) != entry["digest"]:
            return "output differs from the seed commit's"
        obj = json.loads(out)
        if op.kind == "ideal-tn":
            if obj["dimension"] != entry["dimension"]:
                return f"dimension {obj['dimension']} != {entry['dimension']}"
            return None
        exponents = brieskorn_exponents(op.germ)
        if exponents is not None:
            want = brieskorn_invariants(exponents, op.chars)
            got = {"tau": obj["tau"], "mt": obj["mt"], "gpBound": obj["gpBound"], "dimTn.1": obj["dimTn"]["1"]}
            if got != want:
                return f"closed form {want} != {got}"
        return None
    if op.kind == "inclusions":
        if any(asserted and not holds for _, holds, asserted in result):
            return "an asserted inclusion fails"
        if [list(c) for c in result] != table[op.key]["checks"]:
            return "inclusion verdicts differ from the seed commit's"
        return None
    want = theorem_verdict(op)
    if result is not want:
        return f"verdict {result} != {want}"
    return None
