"""Local automorphisms, contact transforms, and the invariance harness.

A polynomial substitution x_i -> phi_i with phi_i(0) = 0 and invertible
linear part is an automorphism of the completed local ring, which is all
the ideal identities tested here need.  Only polynomial automorphisms are
generated, so every computation stays exact; no inverses are ever taken,
since each identity quantifies over a chosen transform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebras import nash_ideal_t
from .ideals import Ideal, maximal_ideal_power
from .jacobian import higher_jacobian_ideal, jacobian_ideal
from .parsing import parse_polynomial
from .polynomials import Polynomial, RingContext, _substitute_all, multi_indices_in_range


@dataclass(frozen=True)
class LocalAutomorphism:
    """Substitution list x_i -> images[i]; origin-preserving, invertible linear part."""

    ring: RingContext
    images: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.ring.nvars:
            raise ValueError(
                f"expected {self.ring.nvars} images, got {len(self.images)}"
            )
        for g in self.images:
            if g.ring != self.ring:
                raise ValueError("image lives in a different ring context")

    def linear_part(self) -> list[list]:
        """Matrix of coefficients of x_j in images[i]."""
        d = self.ring.nvars
        unit_vectors = [tuple(1 if k == j else 0 for k in range(d)) for j in range(d)]
        zero = self.ring.field.zero()
        return [
            [self.images[i].terms.get(unit_vectors[j], zero) for j in range(d)]
            for i in range(d)
        ]

    def is_valid(self) -> bool:
        zero_index = (0,) * self.ring.nvars
        if any(zero_index in g.terms for g in self.images):
            return False
        return bool(_field_det(self.linear_part(), self.ring.field))

    def apply(self, f: Polynomial) -> Polynomial:
        return f.substitute(list(self.images))


def _field_det(matrix, field):
    """Exact determinant of a small square matrix of field elements."""
    n = len(matrix)
    rows = [list(r) for r in matrix]
    det = field.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return field.zero()
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = field.neg(det)
        det = field.mul(det, rows[col][col])
        inv = field.invert(rows[col][col])
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = field.mul(rows[r][col], inv)
                rows[r] = [
                    field.sub(a, field.mul(factor, b))
                    for a, b in zip(rows[r], rows[col])
                ]
    return det


@dataclass(frozen=True)
class UnitElement:
    """A local unit: nonzero constant term."""

    u: Polynomial

    def is_valid(self) -> bool:
        return self.u.is_unit_at_origin()


@dataclass(frozen=True)
class ContactTransform:
    phi: LocalAutomorphism
    unit: UnitElement

    def is_valid(self) -> bool:
        return self.phi.is_valid() and self.unit.is_valid()

    def apply(self, f: Polynomial) -> Polynomial:
        return self.unit.u * self.phi.apply(f)


def apply_to_ideal(phi: LocalAutomorphism, ideal: Ideal) -> Ideal:
    """Image ideal under the automorphism, each image power shared by the generators."""
    if not phi.is_valid():
        raise ValueError("not a local automorphism")
    return Ideal(ideal.ring, _substitute_all(ideal.ring, ideal.generators, phi.images))


def check_right_covariance(f: Polynomial, phi: LocalAutomorphism, n: int) -> bool:
    """phi(J_n(f)) == J_n(phi(f)); an identity, so False flags a bug."""
    left = apply_to_ideal(phi, higher_jacobian_ideal(f, n))
    right = higher_jacobian_ideal(phi.apply(f), n)
    return left.equals(right)


def check_unit_stability(f: Polynomial, unit: UnitElement, n: int) -> bool:
    """(f) + J_n(f) == (u f) + J_n(u f); an identity, so False flags a bug."""
    if not unit.is_valid():
        raise ValueError("not a unit of the local ring")
    return nash_ideal_t(f, n).equals(nash_ideal_t(unit.u * f, n))


def check_contact_invariance(f: Polynomial, transform: ContactTransform, n: int) -> bool:
    """phi((f) + J_n(f)) == (g) + J_n(g) for g = u * phi(f)."""
    if not transform.is_valid():
        raise ValueError("not a contact transform")
    left = apply_to_ideal(transform.phi, nash_ideal_t(f, n))
    return left.equals(nash_ideal_t(transform.apply(f), n))


def samuel_hypothesis(f: Polynomial, g: Polynomial) -> bool:
    """Whether g - f lies in m * j(f)^2; requires j(f) proper."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    jac = jacobian_ideal(f)
    # in the local ring an ideal is the unit ideal iff a generator is a unit
    if any(g.is_unit_at_origin() for g in jac.generators):
        raise ValueError("hypothesis requires a proper Jacobian ideal")
    target = maximal_ideal_power(f.ring, 1) * (jac ** 2)
    return target.contains_element(g - f)


# ---------------------------------------------------------------------------
# seeded random transforms

COEFF_POOL = (-2, -1, 1, 2)


def _random_coeff(rng: random.Random, ring: RingContext):
    while True:
        c = ring.field.coerce(rng.choice(COEFF_POOL))
        if c:
            return c


def _random_tail(rng: random.Random, ring: RingContext, lo: int, hi: int, max_terms: int = 2) -> Polynomial:
    tail = ring.zero()
    if hi < lo:
        return tail
    candidates = multi_indices_in_range(ring.nvars, lo, hi)
    for _ in range(rng.randint(0, max_terms)):
        alpha = rng.choice(candidates)
        tail = tail + ring.monomial(alpha, _random_coeff(rng, ring))
    return tail


def random_automorphism(ring: RingContext, seed: int, max_degree: int = 3) -> LocalAutomorphism:
    """Deterministic(seed) automorphism: invertible linear part plus short tails."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    # string seeds hash deterministically across processes, tuples do not
    rng = random.Random(f"auto:{seed}")
    d = ring.nvars
    while True:
        linear = [[ring.field.coerce(rng.choice((-2, -1, 0, 0, 1, 2))) for _ in range(d)] for _ in range(d)]
        if _field_det(linear, ring.field):
            break
    images = []
    for i in range(d):
        img = ring.zero()
        for j in range(d):
            if linear[i][j]:
                img = img + ring.variable(j).scalar_mul(linear[i][j])
        images.append(img + _random_tail(rng, ring, 2, max_degree))
    return LocalAutomorphism(ring, tuple(images))


def random_unit(ring: RingContext, seed: int, max_degree: int = 3) -> UnitElement:
    """Deterministic(seed) unit: nonzero constant plus a short tail."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    rng = random.Random(f"unit:{seed}")
    u = ring.constant(_random_coeff(rng, ring)) + _random_tail(rng, ring, 1, max_degree)
    return UnitElement(u)


# ---------------------------------------------------------------------------
# randomized verification harness


@dataclass(frozen=True)
class HarnessConfig:
    """Shape of one randomized verification run; all trials are replayable."""

    seed: int = 0
    covariance_trials: int = 50
    unit_trials: int = 50
    contact_trials: int = 25
    orders: tuple[int, ...] = (1, 2)
    max_degree: int = 3


DEFAULT_GERM_POOL = ("x*y", "x^3+y^2", "x^2+y^3", "x^3+y^3")


def run_invariance_harness(
    ring: RingContext,
    config: HarnessConfig = HarnessConfig(),
    germ_pool: tuple[str, ...] = DEFAULT_GERM_POOL,
) -> dict:
    """Run the seeded covariance / unit / contact checks; JSON-ready report of
    the field's characteristic (``char``), the checks and the failed ones."""
    germs = [parse_polynomial(text, ring) for text in germ_pool]
    degree = config.max_degree
    # (kind, trials, prefix of the seed that picks f and n, check of one trial)
    kinds = (
        ("right-covariance", config.covariance_trials, "pick",
         lambda f, n, seed: check_right_covariance(f, random_automorphism(ring, seed, degree), n)),
        ("unit-stability", config.unit_trials, "pick-u",
         lambda f, n, seed: check_unit_stability(f, random_unit(ring, seed, degree), n)),
        ("contact-invariance", config.contact_trials, "pick-c",
         lambda f, n, seed: check_contact_invariance(f, ContactTransform(
             random_automorphism(ring, seed, degree), random_unit(ring, seed + 10**6, degree)), n)),
    )
    checks = []
    for kind, trials, prefix, check in kinds:
        for seed in range(config.seed, config.seed + trials):
            rng = random.Random(f"{prefix}:{seed}")
            f = rng.choice(germs)
            n = rng.choice(config.orders)
            checks.append({"kind": kind, "seed": seed, "f": str(f), "n": n, "pass": check(f, n, seed)})
    return {
        "char": ring.field.characteristic,
        "checks": checks,
        "failures": [c for c in checks if not c["pass"]],
    }
