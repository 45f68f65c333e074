"""Built-in verification corpus: named singularities plus runnable fixtures.

Each fixture recomputes one documented identity (explicit second-order
algebra ideals, Tjurina numbers of the ADE equations, matrix shape laws,
inclusion chains, closed-form agreement, the order-one/order-two pair
separations) and reports pass/fail with a short detail string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .algebras import check_inclusions, gp_bound, tjurina_ideal, tjurina_number, nash_ideal_t
from .fields import GF, QQ, CoefficientField
from .ideals import Ideal
from .jacobian import higher_jacobian_ideal, j2_plane_closed_form, jac_matrix, jacobian_ideal
from .parsing import parse_polynomial
from .polynomials import Polynomial, RingContext


@dataclass(frozen=True)
class CorpusEntry:
    """A named singularity: text form, variables, and known Tjurina number over Q."""

    name: str
    text: str
    variables: tuple[str, ...]
    tau_q: int

    def polynomial(self, field: CoefficientField) -> Polynomial:
        return parse_polynomial(self.text, RingContext(self.variables, field))


SINGULARITY_CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("A1", "x^2+y^2", ("x", "y"), 1),
    CorpusEntry("A2", "x^3+y^2", ("x", "y"), 2),
    CorpusEntry("A3", "x^4+y^2", ("x", "y"), 3),
    CorpusEntry("A4", "x^5+y^2", ("x", "y"), 4),
    CorpusEntry("A5", "x^6+y^2", ("x", "y"), 5),
    CorpusEntry("A6", "x^7+y^2", ("x", "y"), 6),
    CorpusEntry("D4", "x^3+x*y^2", ("x", "y"), 4),
    CorpusEntry("E6", "x^3+y^4", ("x", "y"), 6),
    CorpusEntry("E7", "x^3+x*y^3", ("x", "y"), 7),
    CorpusEntry("E8", "x^3+y^5", ("x", "y"), 8),
    CorpusEntry("node", "x*y", ("x", "y"), 1),
    CorpusEntry("diag-cubic-3d", "x^3+y^3+z^3", ("x", "y", "z"), 8),
)

INCLUSION_CORPUS_NAMES = (
    "A1", "A2", "A3", "A4", "A5", "D4", "E6", "E7", "E8", "node", "diag-cubic-3d",
)


@dataclass(frozen=True)
class FixtureResult:
    fixture_id: str
    group: str
    passed: bool
    detail: str

    def to_json_obj(self) -> dict:
        return {
            "id": self.fixture_id,
            "group": self.group,
            "pass": self.passed,
            "detail": self.detail,
        }


def _field_tag(field: CoefficientField) -> str:
    return "Q" if field.characteristic == 0 else f"F{field.characteristic}"


def _second_order_algebra_cases(field: CoefficientField):
    """Explicit (f) + J_2(f) identities for the low-multiplicity plane germs."""
    ring = RingContext(("x", "y"), field)

    def poly(text: str) -> Polynomial:
        return parse_polynomial(text, ring)

    p = field.characteristic
    cases = [("plain-square", poly("x^2"), [poly("x^2")])]
    for a in (1, 2):
        cases.append(
            (f"quadric-a{a}", poly(f"{a}*x^2+y^2"), [poly(f"{a}*x^2+y^2"), poly("x^3"), poly("y^3")])
        )
        for k in (3, 4, 5):
            if p and k * (k - 2) % p == 0:
                # the x^2*y^(k-2) generator arises with coefficient a^2*k*(k-2)
                # (the minor on columns (2,0),(1,1),(0,2) reduced modulo f),
                # so the identity only holds when that scalar is invertible
                continue
            tail = "x^2*y" if k == 3 else f"x^2*y^{k - 2}"
            cases.append(
                (
                    f"cusp-a{a}-k{k}",
                    poly(f"{a}*x^2+y^{k}"),
                    [poly(f"{a}*x^2+y^{k}"), poly("x^3"), poly(tail)],
                )
            )
    cases.append(("node", poly("x*y"), [poly("x^3"), poly("x*y"), poly("y^3")]))
    return ring, cases


def second_order_algebra_fixtures(field: CoefficientField) -> Iterable[FixtureResult]:
    ring, cases = _second_order_algebra_cases(field)
    tag = _field_tag(field)
    for name, f, expected_gens in cases:
        got = nash_ideal_t(f, 2)
        expected = Ideal(ring, expected_gens)
        ok = got.equals(expected)
        yield FixtureResult(
            f"t2-algebra/{name}/{tag}",
            "t2-algebra",
            ok,
            f"(f)+J2(f) for f={f}",
        )


def shape_fixtures(field: CoefficientField) -> Iterable[FixtureResult]:
    tag = _field_tag(field)
    names = ("x", "y", "z", "w")
    for d in range(1, 5):
        ring = RingContext(names[:d], field)
        f = ring.one()
        for i in range(d):
            f = f * ring.variable(i)
        f = f + ring.variable(0) ** (d + 1)
        for n in range(1, 5):
            m = jac_matrix(f, n)
            want = (math.comb(d - 1 + n, d), math.comb(d + n, d) - 1)
            ok = m.shape == want and m.shape[0] <= m.shape[1]
            yield FixtureResult(
                f"matrix-shape/d{d}n{n}/{tag}",
                "matrix-shape",
                ok,
                f"shape {m.shape[0]}x{m.shape[1]}, expected {want[0]}x{want[1]}",
            )


def gradient_fixtures(field: CoefficientField) -> Iterable[FixtureResult]:
    tag = _field_tag(field)
    for entry in SINGULARITY_CORPUS:
        f = entry.polynomial(field)
        ok = higher_jacobian_ideal(f, 1).equals(jacobian_ideal(f))
        yield FixtureResult(
            f"gradient/{entry.name}/{tag}", "gradient", ok, "J_1 equals ideal of partials"
        )


def tjurina_fixtures() -> Iterable[FixtureResult]:
    for entry in SINGULARITY_CORPUS:
        f = entry.polynomial(QQ)
        got = tjurina_number(f)
        yield FixtureResult(
            f"tjurina/{entry.name}/Q",
            "tjurina",
            got == entry.tau_q,
            f"tau = {got}, expected {entry.tau_q}",
        )


def inclusion_fixtures(field: CoefficientField) -> Iterable[FixtureResult]:
    tag = _field_tag(field)
    for name in INCLUSION_CORPUS_NAMES:
        entry = next(e for e in SINGULARITY_CORPUS if e.name == name)
        f = entry.polynomial(field)
        for n in (2, 3):
            report = check_inclusions(f, n)
            ok = report.all_asserted_hold()
            failing = [c.name for c in report if c.asserted and not c.holds]
            yield FixtureResult(
                f"inclusions/{entry.name}/n{n}/{tag}",
                "inclusions",
                ok,
                "all asserted inclusions hold" if ok else f"failing: {failing}",
            )


def closed_form_fixtures(field: CoefficientField) -> Iterable[FixtureResult]:
    if field.characteristic == 2:
        return
    tag = _field_tag(field)
    for entry in SINGULARITY_CORPUS:
        if len(entry.variables) != 2:
            continue
        f = entry.polynomial(field)
        ok = j2_plane_closed_form(f).equals(higher_jacobian_ideal(f, 2))
        yield FixtureResult(
            f"j2-closed-form/{entry.name}/{tag}",
            "j2-closed-form",
            ok,
            "five-generator form matches maximal minors",
        )


def pair_fixtures() -> Iterable[FixtureResult]:
    # order-1 data agrees but order-2 data separates f and g = f + x^p (char p)
    ring = RingContext(("x", "y"), GF(3))
    f = parse_polynomial("x^4+y^4", ring)
    g = parse_polynomial("x^4+y^4+x^3", ring)
    t1f, t1g = tjurina_ideal(f, 0), tjurina_ideal(g, 0)
    expected = Ideal(ring, [parse_polynomial("x^3", ring), parse_polynomial("y^3", ring)])
    ok1 = t1f.equals(t1g) and t1f.equals(expected) and t1f.dimension() == 9
    yield FixtureResult(
        "pair-char3/order1-agrees", "pair-char3", ok1, f"T_1 ideal dim {t1f.dimension()}"
    )
    t2f, t2g = nash_ideal_t(f, 2), nash_ideal_t(g, 2)
    x3 = parse_polynomial("x^3", ring)
    ok2 = (not t2f.equals(t2g)) and (not t2f.contains_element(x3))
    yield FixtureResult(
        "pair-char3/order2-separates",
        "pair-char3",
        ok2,
        f"dim T_2(f) = {t2f.dimension()}, dim T_2(g) = {t2g.dimension()}",
    )
    # rational pair: identical order-1 data, inequivalent germs
    ringq = RingContext(("x", "y"), QQ)
    fq = parse_polynomial("x^2+y^2", ringq)
    gq = parse_polynomial("x^2-y^2", ringq)
    t1fq, t1gq = tjurina_ideal(fq, 0), tjurina_ideal(gq, 0)
    xy_ideal = Ideal(ringq, [ringq.variable(0), ringq.variable(1)])
    ok3 = t1fq.equals(t1gq) and t1fq.equals(xy_ideal) and t1fq.dimension() == 1
    yield FixtureResult(
        "pair-rational/order1-agrees", "pair-rational", ok3, f"T_1 ideal dim {t1fq.dimension()}"
    )
    t2fq, t2gq = nash_ideal_t(fq, 2), nash_ideal_t(gq, 2)
    verdict = t2fq.equals(t2gq)
    yield FixtureResult(
        "pair-rational/order2-compared",
        "pair-rational",
        True,
        f"T_2 ideal equality verdict: {verdict} (dims {t2fq.dimension()}, {t2gq.dimension()})",
    )


def gp_bound_fixtures() -> Iterable[FixtureResult]:
    for entry in SINGULARITY_CORPUS:
        f = entry.polynomial(QQ)
        mt = f.multiplicity()
        if mt < 2:
            continue
        tau = entry.tau_q
        ok = (
            gp_bound(tau, mt, 5) == 2 * tau - 2 * mt + 4
            and gp_bound(tau, mt, 0) == 1
            and gp_bound(tau, mt, 0, algebraically_closed=True) == 0
        )
        yield FixtureResult(
            f"gp-bound/{entry.name}", "gp-bound", ok, f"tau={tau}, mt={mt}"
        )


def run_corpus(name_filter: str | None = None) -> list[FixtureResult]:
    """Run every fixture, the per-field ones over Q, F_3 and F_5; filter by substring of the fixture id."""
    results: list[FixtureResult] = []
    for field in (QQ, GF(3), GF(5)):
        results.extend(second_order_algebra_fixtures(field))
        results.extend(shape_fixtures(field))
        results.extend(gradient_fixtures(field))
        results.extend(closed_form_fixtures(field))
        results.extend(inclusion_fixtures(field))
    results.extend(tjurina_fixtures())
    results.extend(pair_fixtures())
    results.extend(gp_bound_fixtures())
    if name_filter:
        results = [r for r in results if name_filter in r.fixture_id]
    return results
