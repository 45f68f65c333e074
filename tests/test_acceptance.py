"""Acceptance suite: one test per criterion, each printing a verdict line.

All checks are exact (tolerance zero); the stated wall-clock budgets are
asserted as upper bounds.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math
import random
import time

import pytest

from nashblowup.algebras import gp_bound, nash_ideal_t, tjurina_ideal, tjurina_number
from nashblowup.corpus import INCLUSION_CORPUS_NAMES, SINGULARITY_CORPUS, CorpusEntry
from nashblowup.equivalence import HarnessConfig, run_invariance_harness
from nashblowup.fields import GF, QQ
from nashblowup.ideals import Ideal, maximal_ideal_power
from nashblowup.jacobian import (
    higher_jacobian_ideal,
    j2_plane_closed_form,
    jac_matrix,
    jacobian_ideal,
)
from nashblowup.parsing import parse_polynomial
from nashblowup.polynomials import Polynomial, RingContext

from conftest import linalg_quotient_dim


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE criterion-{num:02d} {'PASS' if ok else 'FAIL'}  {detail}")


def entry(name: str) -> CorpusEntry:
    return next(e for e in SINGULARITY_CORPUS if e.name == name)


def P(text: str, ring: RingContext) -> Polynomial:
    return parse_polynomial(text, ring)


def ideal(ring, *texts) -> Ideal:
    return Ideal(ring, [P(t, ring) for t in texts])


def test_criterion_01_second_order_algebra_identities():
    failures = []
    for field in (QQ, GF(5)):
        ring = RingContext(("x", "y"), field)
        p = field.characteristic
        # (f_text, expected generators, a monomial that must not be in the ideal)
        cases = [("x^2", ["x^2"], None)]
        for a in (1, 2):
            cases.append((f"{a}*x^2+y^2", [f"{a}*x^2+y^2", "x^3", "y^3"], None))
            for k in (3, 4, 5):
                tail = "x^2*y" if k == 3 else f"x^2*y^{k - 2}"
                if p and k % p == 0:
                    # Here p = k = 5.  The entry at (beta, alpha) is the Hasse
                    # derivative D^(alpha-beta) f, and D^(0,1) f = 5*y^4,
                    # D^(0,2) f = 10*y^3 and D^(1,1) f = 0 all vanish, so
                    #   Jac_2(f) = [[2ax, 0, a, 0, 0], [0, 0, 2ax, 0, 0], [0, 0, 0, 2ax, 0]]
                    # whose only nonzero maximal minor is 8*a^3*x^3.  Hence
                    # (f)+J_2(f) = (f, x^3), of colength I(x^3, a*x^2+y^5) = 15,
                    # and x^2*y^3 is not in it: (f, x^3, x^2*y^3) has colength 13.
                    cases.append((f"{a}*x^2+y^{k}", [f"{a}*x^2+y^{k}", "x^3"], tail))
                else:
                    cases.append((f"{a}*x^2+y^{k}", [f"{a}*x^2+y^{k}", "x^3", tail], None))
        cases.append(("x*y", ["x^3", "x*y", "y^3"], None))
        for f_text, expected_texts, non_member in cases:
            start = time.monotonic()
            f = P(f_text, ring)
            got = nash_ideal_t(f, 2).standard_basis()
            expected = ideal(ring, *expected_texts).standard_basis()
            excluded = non_member is not None and got.contains(P(non_member, ring))
            elapsed = time.monotonic() - start
            if got.elements != expected.elements:
                failures.append(f"f={f_text} over {field}")
            if excluded:
                failures.append(f"f={f_text} over {field}: {non_member} is in (f)+J_2(f)")
            if elapsed >= 1.0:
                failures.append(f"f={f_text} over {field}: took {elapsed:.2f}s")
    ok = not failures
    report(1, ok, "explicit (f)+J_2(f) identities" + ("" if ok else f"; failing: {failures}"))
    assert ok, f"identities not satisfied for: {failures}"


def test_criterion_02_shape_law_and_gradient():
    start = time.monotonic()
    names = ("x", "y", "z", "w")
    ok = True
    for field in (QQ, GF(3), GF(5)):
        for d in range(1, 5):
            ring = RingContext(names[:d], field)
            f = ring.variable(0) ** 2 + ring.variable(d - 1) ** 3
            for n in range(1, 5):
                m = jac_matrix(f, n)
                want = (math.comb(d - 1 + n, d), math.comb(d + n, d) - 1)
                ok = ok and m.shape == want and m.shape[0] <= m.shape[1]
        for e in SINGULARITY_CORPUS:
            f = e.polynomial(field)
            ok = ok and higher_jacobian_ideal(f, 1).equals(jacobian_ideal(f))
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 1.0, f"shape law + first-order gradient ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 1.0


def test_criterion_03_power_inclusion():
    start = time.monotonic()
    bad = []
    for field in (QQ, GF(5)):
        for name in INCLUSION_CORPUS_NAMES:
            f = entry(name).polynomial(field)
            d = f.ring.nvars
            for n in (2, 3):
                power = math.comb(d - 2 + n, d - 1)
                target = jacobian_ideal(f) ** power
                if not target.contains_ideal(higher_jacobian_ideal(f, n)):
                    bad.append((name, field.characteristic, n))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60.0
    report(3, ok, f"J_n inside J_1^C(d-2+n,d-1) on {len(INCLUSION_CORPUS_NAMES)} germs ({elapsed:.1f}s)")
    assert not bad, bad
    assert elapsed < 60.0


def test_criterion_04_descending_chain_and_shifted_inclusion():
    start = time.monotonic()
    bad = []
    for field in (QQ, GF(5)):
        for name in INCLUSION_CORPUS_NAMES:
            f = entry(name).polynomial(field)
            ring = f.ring
            for n in (2, 3):
                prev = higher_jacobian_ideal(f, n - 1)
                if not prev.contains_ideal(higher_jacobian_ideal(f, n)):
                    bad.append(("chain", name, field.characteristic, n))
            f_ideal = Ideal(ring, [f])
            lhs = f_ideal + higher_jacobian_ideal(f, 2)
            rhs = f_ideal + maximal_ideal_power(ring, 1) * (jacobian_ideal(f) ** 2)
            if not rhs.contains_ideal(lhs):
                bad.append(("shifted", name, field.characteristic))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60.0
    report(4, ok, f"descending chains and shifted inclusion ({elapsed:.1f}s)")
    assert not bad, bad
    assert elapsed < 60.0


def test_criterion_05_randomized_invariance_harness():
    start = time.monotonic()
    ring = RingContext(("x", "y"), QQ)
    config = HarnessConfig(
        seed=0, covariance_trials=50, unit_trials=50, contact_trials=25,
        orders=(1, 2), max_degree=3,
    )
    result = run_invariance_harness(ring, config)
    elapsed = time.monotonic() - start
    ok = len(result["checks"]) == 125 and not result["failures"] and elapsed < 300.0
    report(5, ok, f"125 seeded invariance checks, {len(result['failures'])} failures ({elapsed:.1f}s)")
    assert len(result["checks"]) == 125
    assert result["failures"] == []
    assert elapsed < 300.0


def test_criterion_06_char3_pair_separation():
    start = time.monotonic()
    ring = RingContext(("x", "y"), GF(3))
    f = P("x^4+y^4", ring)
    g = P("x^4+y^4+x^3", ring)
    t1f, t1g = tjurina_ideal(f, 0), tjurina_ideal(g, 0)
    expected = ideal(ring, "x^3", "y^3")
    ok = t1f.equals(t1g) and t1f.equals(expected)
    ok = ok and t1f.dimension() == 9 and t1g.dimension() == 9
    t2f, t2g = nash_ideal_t(f, 2), nash_ideal_t(g, 2)
    ok = ok and not t2f.equals(t2g)
    ok = ok and not t2f.contains_element(P("x^3", ring))
    dims = (t2f.dimension(), t2g.dimension())
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(6, ok, f"order-1 data agrees, order-2 separates; dim T_2 = {dims} ({elapsed:.2f}s)")
    assert ok
    assert dims == (30, 27)


def test_criterion_07_rational_pair_comparison():
    start = time.monotonic()
    ring = RingContext(("x", "y"), QQ)
    f = P("x^2+y^2", ring)
    g = P("x^2-y^2", ring)
    t1f, t1g = tjurina_ideal(f, 0), tjurina_ideal(g, 0)
    m1 = ideal(ring, "x", "y")
    ok = t1f.equals(t1g) and t1f.equals(m1) and t1f.dimension() == 1
    t2f, t2g = nash_ideal_t(f, 2), nash_ideal_t(g, 2)
    verdict = t2f.equals(t2g)  # recorded, not asserted either way
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(7, ok, f"order-1 data agrees; order-2 ideal equality verdict: {verdict} ({elapsed:.2f}s)")
    assert ok


def test_criterion_08_tjurina_numbers_two_routes():
    start = time.monotonic()
    ring = RingContext(("x", "y"), QQ)
    table = [(f"x^{k + 1}+y^2", k) for k in range(1, 7)]
    table += [("x^3+y^4", 6), ("x^3+x*y^3", 7), ("x^3+y^5", 8)]
    bad = []
    for text, expected in table:
        f = P(text, ring)
        gens = [f] + list(jacobian_ideal(f).generators)
        # independent oracle: truncated linear algebra, stabilized over two bounds
        dims = {linalg_quotient_dim(gens, ring, b) for b in (9, 10)}
        if dims != {expected} or tjurina_number(f) != expected:
            bad.append((text, expected, dims, tjurina_number(f)))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 30.0
    report(8, ok, f"Tjurina numbers via bases and via linear algebra ({elapsed:.1f}s)")
    assert not bad, bad
    assert elapsed < 30.0


def test_criterion_09_closed_form_oracle_equivalence():
    start = time.monotonic()
    bad = []
    for field in (QQ, GF(3), GF(5)):
        for e in SINGULARITY_CORPUS:
            if len(e.variables) != 2:
                continue
            f = e.polynomial(field)
            if not j2_plane_closed_form(f).equals(higher_jacobian_ideal(f, 2)):
                bad.append((e.name, field.characteristic))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 30.0
    report(9, ok, f"closed form matches maximal minors on the plane corpus ({elapsed:.1f}s)")
    assert not bad, bad
    assert elapsed < 30.0


def test_criterion_10_dimension_oracle_on_random_primary_ideals():
    start = time.monotonic()
    rng = random.Random("criterion-10")
    names = ("x", "y", "z")
    bad = []
    trials = 0
    while trials < 25:
        d = rng.choice((1, 2, 3))
        ring = RingContext(names[:d], QQ)
        powers = [rng.randint(1, 5) for _ in range(d)]
        if math.prod(powers) > 50:
            continue
        trials += 1
        gens = [
            ring.monomial(tuple(p if j == i else 0 for j in range(d)))
            for i, p in enumerate(powers)
        ]
        for _ in range(rng.randint(0, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                alpha = tuple(rng.randint(0, 4) for _ in range(d))
                if sum(alpha) == 0:
                    continue
                terms[alpha] = rng.choice((-2, -1, 1, 2))
            extra = Polynomial(ring, terms)
            if not extra.is_zero():
                gens.append(extra)
        bound = sum(p - 1 for p in powers) + 1
        expected = linalg_quotient_dim(gens, ring, bound)
        got = Ideal(ring, gens).dimension()
        if got != expected or got > 50:
            bad.append((powers, got, expected))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60.0
    report(10, ok, f"25 random primary ideals match the linear-algebra oracle ({elapsed:.1f}s)")
    assert not bad, bad
    assert elapsed < 60.0


def test_criterion_11_contact_order_bound():
    start = time.monotonic()
    bad = []
    for e in SINGULARITY_CORPUS:
        f = e.polynomial(QQ)
        mt = f.multiplicity()
        if mt < 2:
            continue
        tau = tjurina_number(f)
        if tau != e.tau_q:
            bad.append((e.name, "tau", tau))
        for p in (2, 3, 5, 7):
            if gp_bound(tau, mt, p) != 2 * tau - 2 * mt + 4:
                bad.append((e.name, "char-p", p))
        if gp_bound(tau, mt, 0) != 1:
            bad.append((e.name, "char-0"))
    elapsed = time.monotonic() - start
    ok = not bad
    report(11, ok, f"contact-order bound arithmetic on the corpus ({elapsed:.2f}s)")
    assert not bad, bad
