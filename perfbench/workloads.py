"""Seeded workloads of the benchmark.

A workload is a set of strata.  Each stratum has a pool of inputs and a
count per round; a round takes that many inputs from every stratum and
shuffles them, so every round has the same mix of cheap and expensive
operations.  The CLI workloads never repeat an input within a run (the
library's caches see each input once); ``verdicts`` re-reads its germs
under fresh transforms.  The seed picks which inputs and in which order,
and for ``verdicts`` it also draws the coordinate changes and units.  The
library only ever receives the generated text, or polynomials parsed from
it.

Why these workloads:

* ``high-order`` -- ``nashblowup ideal tn f -n N --reduced --dim --json``
  for plane germs at n = 3..5 and three-variable germs at n = 2, over Q,
  F_3 and F_5.  Matrices up to 15 x 20 (15,504 column subsets) put most of
  the time into the maximal minors of the ``jacobian`` layer; completion in
  ``ideals`` comes second, and there are almost no membership queries.
* ``high-degree`` -- ``nashblowup invariants f --json --n-max 2`` for
  Brieskorn-Pham germs ``x^a+y^b`` with a, b up to 84, perturbed ones and
  a few ``x^a+y^b+z^c``.  Matrices are at most 4 x 9, so ``jacobian`` does
  almost nothing; the time goes to staircase enumeration during completion
  and in ``dimension()``.  Few generators, huge quotients: the opposite
  regime to ``high-order``.
* ``verdicts`` -- library calls that read against ideals instead of
  building them: ``check_inclusions``, the right-covariance, unit-stability
  and contact-invariance identities under coordinate changes drawn here,
  and ``Ideal.equals`` / ``contains_element`` cases whose answer is known
  to be False.  Non-isolated germs take the infinite-colength membership
  path; isolated ones re-derive ``is_m_primary`` on every query.

Three-variable germs at n = 3 (10 x 19 matrices, 2.4-6 s an operation),
``x^a+y^b`` beyond a, b = 84 (up to 6 s at 200), three-variable
non-isolated germs at order 2 in the identities (over 8 s) and quadratic
coordinate changes at order 2 (20 ms to 0.6 s by draw) are left out: a run
must hold the hundred operations a p90 with ten samples beyond it needs,
and one such op would swing a run's throughput with the draw.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

WORKLOADS = ("high-order", "high-degree", "verdicts")

CHARS = (0, 3, 5)
PLANE = ("x", "y")
SPACE = ("x", "y", "z")


@dataclass(frozen=True)
class Op:
    """One benchmark operation: what to call and with which plain inputs."""

    kind: str
    stratum: str
    chars: int
    variables: tuple[str, ...]
    germ: str
    n: int = 0
    extra: tuple[str, ...] = ()  # transform images, unit, second germ or element

    @property
    def key(self) -> str:
        """Key into the expected-answer table (ops decided by theorems need none)."""
        return f"{self.kind}|{self.germ}|{self.n}|{self.chars}"

    def argv(self) -> list[str]:
        if self.kind == "ideal-tn":
            return ["ideal", "tn", self.germ, "-n", str(self.n), "--reduced", "--dim",
                    "--json", "--char", str(self.chars)]
        if self.kind == "invariants":
            return ["invariants", self.germ, "--json", "--char", str(self.chars),
                    "--n-max", str(self.n)]
        raise ValueError(f"{self.kind} is not a CLI operation")


# ---------------------------------------------------------------------------
# germ families


def brieskorn(*exponents: int) -> str:
    return "+".join(f"{SPACE[i]}^{e}" for i, e in enumerate(exponents))


def degenerate_count(exponents, p: int) -> int:
    """How many exponents the characteristic divides (0 over Q)."""
    return sum(1 for e in exponents if p and e % p == 0)


PLANE_PAIRS = [(a, b) for a in range(2, 8) for b in range(a, 16)]
D_SERIES = [f"x^2*y+y^{k - 1}" for k in range(4, 10)]


def _high_order_strata():
    plane = [brieskorn(a, b) for a, b in PLANE_PAIRS]
    n5_q = [Op("ideal-tn", "n5-q", 0, PLANE, g, 5) for g in plane]
    n5_fp = [
        Op("ideal-tn", "n5-f5", 5, PLANE, brieskorn(a, b), 5)
        for a, b in PLANE_PAIRS
        if degenerate_count((a, b), 5) == 0
    ]
    n4 = [
        Op("ideal-tn", "n4", p, PLANE, brieskorn(a, b), 4)
        for p in CHARS
        for a, b in PLANE_PAIRS
        if degenerate_count((a, b), p) == 0
    ]
    light = [Op("ideal-tn", "light", p, PLANE, g, 3) for p in CHARS for g in plane + D_SERIES]
    # over F_3 a Brieskorn germ with 3 | a or 3 | b keeps few minors even at n = 4, 5
    light += [
        Op("ideal-tn", "light", 3, PLANE, brieskorn(a, b), n)
        for n in (4, 5)
        for a, b in PLANE_PAIRS
        if degenerate_count((a, b), 3) == 1
    ]
    light += [
        Op("ideal-tn", "light", p, SPACE, brieskorn(a, b, c), 2)
        for p in CHARS
        for a in range(2, 5)
        for b in range(a, 5)
        for c in range(b, 6)
    ]
    return [(n5_q, 1), (n5_fp, 1), (n4, 6), (light, 16)]


def _high_degree_strata():
    def pairs(lo, hi, step):
        return [(a, b) for a in range(lo, hi + 1, step) for b in range(a, hi + 1, step)]

    def plane(lo, hi, step, name):
        return [
            Op("invariants", name, p, PLANE, brieskorn(a, b), 2)
            for p in CHARS
            for a, b in pairs(lo, hi, step)
            if degenerate_count((a, b), p) < 2
        ]

    light = plane(8, 30, 2, "light")
    light += [
        Op("invariants", "light", p, PLANE, f"x^{a}+y^{b}+x^{i}*y^{i}", 2)
        for p in (0, 5)
        for a, b in pairs(12, 30, 6)
        for i in (2, 3)
    ]
    light += [
        Op("invariants", "light", p, SPACE, brieskorn(a, b, c), 2)
        for p in (0, 5)
        for a in range(2, 5)
        for b in range(a, 6)
        for c in range(b, 6)
        if degenerate_count((a, b, c), p) < 2
    ]
    return [(plane(72, 84, 2, "heavy"), 1), (plane(38, 50, 2, "medium"), 4), (light, 10)]


# verdicts: germs, and which pure power lies outside (f) + J_n(f) for each
# non-isolated germ (every generator lies in the prime of its singular locus)
ISOLATED_PLANE = ("x^2+y^2", "x^3+y^2", "x^3+y^4", "x^3+y^5", "x^3+x*y^2", "x^3+x*y^3", "x*y", "x^4+y^5")
NON_ISOLATED_PLANE = {"x^2*y": "y", "x^2*y^2": "x", "x^3*y": "y"}
ISOLATED_SPACE = ("x^2+y^2+z^2", "x*y+z^2", "x^2+y^3+z^3")
NON_ISOLATED_SPACE = {"x*y*z": "x", "x^2+y^2*z": "z", "x^2*y+z^2": "y"}

def _verdict_strata():
    germs2 = ISOLATED_PLANE + tuple(NON_ISOLATED_PLANE)
    germs3 = ISOLATED_SPACE + tuple(NON_ISOLATED_SPACE)
    inclusions = [Op("inclusions", "inclusions", p, PLANE, g, n) for p in CHARS for g in germs2 for n in (2, 3)]
    inclusions += [Op("inclusions", "inclusions", p, SPACE, g, 2) for p in CHARS for g in germs3]
    covariance = [Op("covariance", "covariance", p, PLANE, g, n) for p in CHARS for g in ISOLATED_PLANE for n in (1, 2)]
    covariance += [Op("covariance", "covariance", p, PLANE, g, 1) for p in CHARS for g in NON_ISOLATED_PLANE]
    covariance += [Op("covariance", "covariance", p, SPACE, g, 1) for p in CHARS for g in ISOLATED_SPACE]
    unit = [Op("unit", "unit", p, PLANE, g, n) for p in CHARS for g in germs2 for n in (1, 2)]
    unit += [Op("unit", "unit", p, SPACE, g, 1) for p in CHARS for g in germs3]
    contact = [Op("contact", "contact", p, PLANE, g, n) for p in CHARS for g in ISOLATED_PLANE for n in (1, 2)]
    contact += [Op("contact", "contact", p, PLANE, g, 1) for p in CHARS for g in NON_ISOLATED_PLANE]
    # T_2 of the F_3 pair differs; (f) + J_2(f) = (f, x^3, x^2*y^(k-2)) for
    # f = a*x^2 + y^k holds over Q and F_5 except at k = 5 over F_5 (README)
    equals = [Op("equals-pair", "equals", 3, PLANE, "x^4+y^4", 2, ("x^4+y^4+x^3",))]
    for p in (0, 5):
        for a in (1, 2):
            for k in (3, 4, 5):
                tail = "x^2*y" if k == 3 else f"x^2*y^{k - 2}"
                equals.append(Op("equals-identity", "equals", p, PLANE, f"{a}*x^2+y^{k}", 2, ("x^3", tail)))
    member = [Op("member", "member", 3, PLANE, "x^4+y^4", 2, ("x^3",))]
    for table, variables in ((NON_ISOLATED_PLANE, PLANE), (NON_ISOLATED_SPACE, SPACE)):
        for g, var in table.items():
            for p in CHARS:
                for n in (1, 2):
                    if len(variables) == 3 and n == 2:
                        continue
                    for k in (2, 4):
                        member.append(Op("member", "member", p, variables, g, n, (f"{var}^{k}",)))
    return [(inclusions, 6), (covariance, 3), (unit, 3), (contact, 2), (equals, 2), (member, 2)]


# workload -> (strata, whether pools may repeat within a run).  The CLI
# workloads never repeat an input, so every run is cold; verdicts re-read the
# same germs under fresh transforms, as an invariance harness does.
STRATA = {
    "high-order": (_high_order_strata, False),
    "high-degree": (_high_degree_strata, False),
    "verdicts": (_verdict_strata, True),
}

MAX_ROUNDS = 400


# ---------------------------------------------------------------------------
# transforms for the invariance identities, drawn from the seed


def _signed_sum(terms: list[tuple[int, str]]) -> str:
    text = ""
    for c, mono in terms:
        sign = "-" if c < 0 else "+"
        body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        text += f"{sign}{body}"
    return text.lstrip("+") or "0"


def _det(matrix: list[list[int]]) -> int:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    return sum(
        (-1) ** j * matrix[0][j] * _det([row[:j] + row[j + 1:] for row in matrix[1:]])
        for j in range(n)
    )


def draw_automorphism(rng: random.Random, variables: tuple[str, ...], p: int, tail: bool) -> tuple[str, ...]:
    """Images of an automorphism: a linear part invertible over the field, so
    the identities are theorems for it, plus one quadratic term per image
    when ``tail`` is set."""
    d = len(variables)
    while True:
        linear = [[rng.choice((-1, 0, 1, 2)) for _ in range(d)] for _ in range(d)]
        det = _det(linear)
        if det and (p == 0 or det % p):
            break
    images = []
    for i in range(d):
        terms = [(linear[i][j], variables[j]) for j in range(d) if linear[i][j]]
        if tail:
            u, v = rng.choice(variables), rng.choice(variables)
            terms.append((rng.choice((-1, 1, 2)), f"{u}*{v}"))
        images.append(_signed_sum(terms))
    return tuple(images)


def draw_unit(rng: random.Random, variables: tuple[str, ...], p: int) -> str:
    """A unit of the local ring: a constant the field does not kill, plus a variable."""
    constant = rng.choice((1, 2) if p == 3 else (1, 2, 3))
    return f"{constant}{rng.choice('+-')}{rng.choice(variables)}"


def _with_transform(op: Op, rng: random.Random) -> Op:
    # at order 2 a quadratic tail makes one check cost from 20 ms to 0.6 s,
    # depending on the draw; linear changes keep the round-to-round cost steady
    tail = op.n == 1
    if op.kind == "covariance":
        extra = draw_automorphism(rng, op.variables, op.chars, tail)
    elif op.kind == "unit":
        extra = (draw_unit(rng, op.variables, op.chars),)
    elif op.kind == "contact":
        extra = draw_automorphism(rng, op.variables, op.chars, tail) + (draw_unit(rng, op.variables, op.chars),)
    else:
        return op
    return Op(op.kind, op.stratum, op.chars, op.variables, op.germ, op.n, extra)


# ---------------------------------------------------------------------------
# the plan of one run


GOLDEN = (5 ** 0.5 - 1) / 2


def _family_and_size(op: Op):
    """Sort key grouping inputs by family, then by the size of the germ."""
    size = 1
    for exponent in re.findall(r"\^(\d+)", op.germ):
        size *= int(exponent)
    return (op.kind, op.n, len(op.variables), op.chars, "*" in op.germ, size, op.germ)


def _spread_order(pool: list[Op], rng: random.Random) -> list[Op]:
    """The pool in an order whose every prefix spreads evenly over the pool
    sorted by family and size (a golden-ratio sequence from a seeded start).

    A run stops after however many rounds fit in its time, so this makes
    every run, whatever its seed, draw the same mix of cheap and costly
    inputs; a plain shuffle lets the run-to-run cost swing with the draw.
    """
    ranked = sorted(pool, key=_family_and_size)
    start = rng.random()
    return [ranked[i] for i in sorted(range(len(ranked)), key=lambda i: (i * GOLDEN + start) % 1.0)]


def plan(workload: str, seed: int) -> list[list[Op]]:
    """All rounds a run may execute, in order; the same seed gives the same plan."""
    make_strata, repeat = STRATA[workload]
    rng = random.Random(f"{workload}:{seed}")
    strata = [(list(pool), count) for pool, count in make_strata()]
    rounds = MAX_ROUNDS if repeat else min(len(pool) // count for pool, count in strata)
    queues: list[list[Op]] = [[] for _ in strata]
    out = []
    for _ in range(rounds):
        ops = []
        for (pool, count), queue in zip(strata, queues):
            for _ in range(count):
                if not queue:
                    queue.extend(reversed(_spread_order(pool, rng)))
                ops.append(queue.pop())
        rng.shuffle(ops)
        out.append([_with_transform(op, rng) for op in ops])
    return out


TABLE_KINDS = ("ideal-tn", "invariants", "inclusions")


def all_table_ops(workload: str) -> list[Op]:
    """Every input a plan of this workload can draw whose answer sits in the table."""
    return [op for pool, _ in STRATA[workload][0]() for op in pool if op.kind in TABLE_KINDS]
