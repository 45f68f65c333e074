"""Nash blowup and Tjurina algebras of a hypersurface germ, and their invariants.

For a germ f at the origin, the order-n data is built from the order-n
Jacobian ideal J_n(f): the module-style algebra R/J_n(f), the algebra
R/((f) + J_n(f)), and the k-th Tjurina algebra R/((f) + m^k j(f)) with
j(f) the classical Jacobian ideal.  Dimensions are exact k-dimensions of
the local quotient; infinite values are first-class, not errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ideals import INFINITE, Ideal, QuotientDimension, maximal_ideal_power
from .jacobian import higher_jacobian_ideal, jacobian_ideal
from .polynomials import Polynomial


def _require_germ(f: Polynomial) -> None:
    if f.is_zero():
        raise ValueError("zero polynomial")


def nash_ideal_m(f: Polynomial, n: int) -> Ideal:
    """Defining ideal of the order-n algebra R/J_n(f)."""
    _require_germ(f)
    return higher_jacobian_ideal(f, n)


def nash_ideal_t(f: Polynomial, n: int) -> Ideal:
    """Defining ideal (f) + J_n(f) of the order-n Nash blowup algebra."""
    _require_germ(f)
    return Ideal(f.ring, [f]) + higher_jacobian_ideal(f, n)


def tjurina_ideal(f: Polynomial, k: int = 0) -> Ideal:
    """Defining ideal (f) + m^k j(f) of the k-th Tjurina algebra (k = 0 classical)."""
    _require_germ(f)
    if k < 0:
        raise ValueError("k must be >= 0")
    return Ideal(f.ring, [f]) + maximal_ideal_power(f.ring, k) * jacobian_ideal(f)


def tjurina_number(f: Polynomial) -> QuotientDimension:
    """Dimension of the classical Tjurina algebra R/((f) + j(f))."""
    return tjurina_ideal(f, 0).dimension()


def gp_bound(
    tau: int, mt: int, characteristic: int, *, algebraically_closed: bool = False
) -> int:
    """Order from which the higher Tjurina algebras pin down the contact class.

    2*tau - 2*mt + 4 in positive characteristic; 1 in characteristic zero,
    dropping to 0 only when the caller asserts the field is algebraically
    closed (closure is not decidable from the field descriptor).
    """
    if tau == INFINITE:
        raise ValueError("bound requires a finite Tjurina number")
    if mt < 2:
        raise ValueError("bound requires multiplicity >= 2")
    if characteristic > 0:
        return 2 * tau - 2 * mt + 4
    return 0 if algebraically_closed else 1


@dataclass(frozen=True)
class InclusionCheck:
    name: str
    holds: bool
    asserted: bool  # whether the statement is guaranteed for these parameters


@dataclass(frozen=True)
class InclusionReport:
    f: Polynomial
    n: int
    checks: tuple[InclusionCheck, ...]

    def all_asserted_hold(self) -> bool:
        return all(c.holds for c in self.checks if c.asserted)

    def __iter__(self):
        return iter(self.checks)


def check_inclusions(f: Polynomial, n: int) -> InclusionReport:
    """Verify the inclusion properties of the order-n Jacobian ideal.

    (i)   J_n(f) inside J_{n-1}(f)                  -- always asserted
    (ii)  J_n(f) inside m * J_1(f)^2                -- asserted iff d >= 3
          or n >= 3 or mt(f) >= 3
    (iii) (f) + J_n(f) inside (f) + m * J_1(f)^2    -- always asserted
    (iv)  J_n(f) inside J_1(f)^C(d-2+n, d-1)        -- always asserted

    Requires mt(f) >= 2 and n >= 2.

    Each inclusion is computed at most once, and one that an earlier result
    implies is read off the ideal lattice instead.  mt(f) >= 2 puts J_1
    inside m; let p = C(d-2+n, d-1).  For p >= 3, J_1^p lies in
    J_1^3 = J_1 * J_1^2, inside m * J_1^2, so (iv) gives (ii); for p <= 2
    (d = 1, or d = n = 2), m * J_1^2 lies in J_1^2, inside J_1^p, so (ii)
    gives (iv); and (ii) always gives (iii).  Order: (i); then (iv) when
    p >= 3; then (ii) unless (iv) gave it; (iii) unless (ii) holds; and
    (iv) last when p <= 2 and (ii) fails.  m * J_1^2, its sum with (f) and
    J_1^p are built only when an inclusion is computed against them.
    """
    _require_germ(f)
    if n < 2:
        raise ValueError("inclusion report needs n >= 2")
    mt = f.multiplicity()
    if mt < 2:
        raise ValueError("inclusion report needs multiplicity >= 2")
    ring = f.ring
    d = ring.nvars
    jn = higher_jacobian_ideal(f, n)
    j1 = jacobian_ideal(f)
    power = math.comb(d - 2 + n, d - 1)
    descending = higher_jacobian_ideal(f, n - 1).contains_ideal(jn)
    in_power = power >= 3 and (j1 ** power).contains_ideal(jn)
    if in_power:
        in_m_j1_sq = shifted = True
    else:
        m_j1_sq = maximal_ideal_power(ring, 1) * (j1 ** 2)
        in_m_j1_sq = m_j1_sq.contains_ideal(jn)
        f_ideal = Ideal(ring, [f])
        shifted = in_m_j1_sq or (f_ideal + m_j1_sq).contains_ideal(f_ideal + jn)
        if power <= 2:
            in_power = in_m_j1_sq or (j1 ** power).contains_ideal(jn)
    checks = (
        InclusionCheck("descending-chain", descending, True),
        InclusionCheck("inside-m-j1-squared", in_m_j1_sq, d >= 3 or n >= 3 or mt >= 3),
        InclusionCheck("shifted-inside-m-j1-squared", shifted, True),
        InclusionCheck(f"inside-j1-power-{power}", in_power, True),
    )
    return InclusionReport(f, n, checks)


def dimension_json(value: QuotientDimension) -> int | str:
    """A quotient dimension as JSON reads it: the int, or "inf" for any float infinity."""
    return "inf" if value == INFINITE else value


@dataclass(frozen=True)
class InvariantReport:
    """Numerical profile of a germ: pure function of the polynomial and field."""

    f: Polynomial
    mt: int
    tau: QuotientDimension
    dim_tn: dict[int, QuotientDimension]
    dim_tk: dict[int, QuotientDimension]
    gp: int | None

    def to_json_obj(self) -> dict:
        return {
            "f": str(self.f),
            "char": self.f.ring.field.characteristic,
            "mt": self.mt,
            "tau": dimension_json(self.tau),
            "dimTn": {str(n): dimension_json(v) for n, v in self.dim_tn.items()},
            "dimTk": {str(k): dimension_json(v) for k, v in self.dim_tk.items()},
            "gpBound": self.gp,
        }


def invariant_report(f: Polynomial, n_max: int = 2, k_max: int = 1) -> InvariantReport:
    """Multiplicity, Tjurina number, algebra dimensions, and the contact-order bound."""
    _require_germ(f)
    mt = f.multiplicity()
    tau = tjurina_number(f)
    # the order-1 matrix is the gradient row, so (f) + J_1(f) = (f) + j(f)
    dim_tn = {n: tau if n == 1 else nash_ideal_t(f, n).dimension() for n in range(1, n_max + 1)}
    # the k = 0 ideal is the Tjurina ideal, whose dimension is tau
    dim_tk = {k: tau if k == 0 else tjurina_ideal(f, k).dimension() for k in range(0, k_max + 1)}
    gp = None
    if tau != INFINITE and mt >= 2:
        gp = gp_bound(tau, mt, f.ring.field.characteristic)
    return InvariantReport(f, mt, tau, dim_tn, dim_tk, gp)
