"""Higher Jacobian matrices and higher Jacobian ideals.

The order-n Jacobian matrix of f has rows indexed by multi-indices beta
with 0 <= |beta| <= n-1 and columns by alpha with 1 <= |alpha| <= n, both
in reading order (degree ascending, lex descending); the entry at
(beta, alpha) is the Hasse derivative D^(alpha-beta) f when alpha
dominates beta componentwise and alpha != beta, and 0 otherwise.  The
order-n Jacobian ideal is generated by its maximal minors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .ideals import Ideal, _scalar_class
from .polynomials import (
    MultiIndex,
    Polynomial,
    RingContext,
    multi_indices_in_range,
)


@dataclass(frozen=True)
class JacobianMatrix:
    f: Polynomial
    n: int
    rows: tuple[MultiIndex, ...]
    cols: tuple[MultiIndex, ...]
    entries: tuple[tuple[Polynomial, ...], ...]

    @property
    def ring(self) -> RingContext:
        return self.f.ring

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def pretty(self) -> str:
        """Aligned text grid with multi-index row/column labels."""
        col_labels = [_label(a) for a in self.cols]
        row_labels = [_label(b) for b in self.rows]
        cells = [[str(e) for e in row] for row in self.entries]
        widths = [
            max(len(col_labels[j]), max(len(cells[i][j]) for i in range(len(self.rows))))
            for j in range(len(self.cols))
        ]
        label_w = max(len(lb) for lb in row_labels)
        lines = [f"{len(self.rows)} x {len(self.cols)}"]
        header = " " * (label_w + 3) + "  ".join(
            col_labels[j].rjust(widths[j]) for j in range(len(self.cols))
        )
        lines.append(header)
        for i, row in enumerate(cells):
            body = "  ".join(row[j].rjust(widths[j]) for j in range(len(self.cols)))
            lines.append(f"{row_labels[i].rjust(label_w)} | {body}")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "f": str(self.f),
            "n": self.n,
            "shape": list(self.shape),
            "rows": [list(b) for b in self.rows],
            "cols": [list(a) for a in self.cols],
            "entries": [[str(e) for e in row] for row in self.entries],
        }


def _label(alpha: MultiIndex) -> str:
    return "(" + ",".join(str(e) for e in alpha) + ")"


def jac_matrix(f: Polynomial, n: int) -> JacobianMatrix:
    """The order-n Jacobian matrix of f (n >= 1, f != 0)."""
    if f.is_zero():
        raise ValueError("Jacobian matrix of the zero polynomial")
    if n < 1:
        raise ValueError("n must be >= 1")
    d = f.ring.nvars
    rows = tuple(multi_indices_in_range(d, 0, n - 1))
    cols = tuple(multi_indices_in_range(d, 1, n))
    zero = f.ring.zero()
    derivative_cache: dict[MultiIndex, Polynomial] = {}

    def entry(beta: MultiIndex, alpha: MultiIndex) -> Polynomial:
        gamma = tuple(map(operator.sub, alpha, beta))
        if min(gamma) < 0 or not any(gamma):
            return zero
        got = derivative_cache.get(gamma)
        if got is None:
            got = f.hasse_derivative(gamma)
            derivative_cache[gamma] = got
        return got

    entries = tuple(tuple(entry(b, a) for a in cols) for b in rows)
    return JacobianMatrix(f, n, rows, cols, entries)


# ---------------------------------------------------------------------------
# exact minors via a row-by-row Laplace expansion
#
# The maximal minors of a fixed row set share their row-suffix subproblems:
# taking the rows bottom-up while carrying the map {column bitmask -> minor of
# the rows taken so far on those columns} computes each maximal minor once,
# as the Laplace expansion along its top row.  Bottom-up suits Jacobian
# matrices, whose last rows are the sparsest, so the early states stay few;
# structural zeros are never stored.  The expansion runs on packed entries
# (see _PackedMatrix): integer monomial keys and integer coefficients, so a
# product of two terms is one int addition and one int multiplication.


class _PackedMatrix:
    """A polynomial matrix packed for products of at most k of its entries.

    Each entry becomes {monomial key: int coefficient}.  The exponent of
    x_i sits in its own bit field, wide enough for k times the largest
    exponent of x_i in the matrix, so adding keys multiplies monomials
    without carries.  Over Q every entry is scaled by the lcm D of all
    denominators, so a product of k entries is D^k times the true one; over
    F_p coefficients stay in 0..p-1 and sums are reduced once per state.
    """

    __slots__ = ("ring", "p", "scale", "fields", "cells")

    def __init__(self, entries: Sequence[Sequence[Polynomial]], k: int, ring: RingContext):
        self.ring = ring
        self.p = p = ring.field.characteristic
        # Jacobian matrices repeat one derivative in many cells: pack each once
        distinct = {id(e): e.terms for row in entries for e in row if e.terms}
        monomials = [alpha for terms in distinct.values() for alpha in terms]
        top = [max(column) for column in zip(*monomials)] or [0] * ring.nvars
        den = 1 if p else math.lcm(*(c.denominator for terms in distinct.values() for c in terms.values()))
        self.scale = den**k
        self.fields: list[tuple[int, int]] = []  # (shift, mask) of each variable
        shifts = []
        shift = 0
        for t in top:
            width = (k * t).bit_length()
            self.fields.append((shift, (1 << width) - 1))
            shifts.append(shift)
            shift += width
        packed = {
            cell: tuple(
                (sum(map(operator.lshift, alpha, shifts)), c if p else c.numerator * (den // c.denominator))
                for alpha, c in terms.items()
            )
            for cell, terms in distinct.items()
        }
        self.cells = [[packed.get(id(e), ()) for e in row] for row in entries]

    def polynomial(self, det: dict[int, int]) -> Polynomial:
        """The true minor of a packed one."""
        fields, scale = self.fields, self.scale
        if self.p:
            coeffs = det.values()
        elif scale == 1:
            coeffs = map(Fraction, det.values())
        else:
            coeffs = (Fraction(c, scale) for c in det.values())
        monomials = [tuple([(key >> s) & m for s, m in fields]) for key in det]
        return Polynomial(self.ring, dict(zip(monomials, coeffs)), _canonical=True)


def _minor_dets(matrix: _PackedMatrix, row_ids: Sequence[int], col_ids: Sequence[int]) -> list[dict[int, int]]:
    """The nonzero packed maximal minors on row_ids, column subsets in lex order of col_ids."""
    p = matrix.p
    ncols = len(col_ids)
    # column position ci has bit ncols-1-ci, so the lex order of column
    # subsets is the descending order of their masks
    state: dict[int, dict[int, int]] = {0: {0: 1}}
    for depth, r in enumerate(reversed(row_ids)):
        # (bit, (cell, -cell)): the new row's entry and its negative
        row = [
            (1 << (ncols - 1 - ci), (cell, tuple((key, -c) for key, c in cell)))
            for ci, c in enumerate(col_ids)
            if (cell := matrix.cells[r][c])
        ]
        out: dict[int, dict[int, int]] = {}
        for mask, val in state.items():
            for bit, signed in row:
                if mask & bit:
                    continue
                # the new row is the top row: the sign of its entry is the
                # parity of its column's position among mask | bit
                cell = signed[((mask & (bit - 1)).bit_count() + depth) & 1]
                acc = out.get(mask | bit)
                if acc is None:
                    acc = out[mask | bit] = {}
                get = acc.get
                for k1, c1 in val.items():
                    for k2, c2 in cell:
                        key = k1 + k2
                        acc[key] = get(key, 0) + c1 * c2
        state = {}
        for mask, acc in out.items():
            if p:
                for key, c in acc.items():
                    acc[key] = c % p
            if 0 in acc.values():
                acc = {key: c for key, c in acc.items() if c}
                if not acc:
                    continue
            state[mask] = acc
    return [state[mask] for mask in sorted(state, reverse=True)]


def _packed_minors(
    entries: Sequence[Sequence[Polynomial]], k: int, ring: RingContext
) -> tuple[_PackedMatrix, list[dict[int, int]]]:
    """Every nonzero k x k minor, packed once per matrix: row subsets, then columns, in lex order."""
    packed = _PackedMatrix(entries, k, ring)
    cols = range(len(entries[0]))
    dets = [
        det
        for rows in combinations(range(len(entries)), k)
        for det in _minor_dets(packed, rows, cols)
    ]
    return packed, dets


def _distinct_minors(
    entries: Sequence[Sequence[Polynomial]], k: int, ring: RingContext
) -> list[Polynomial]:
    """The nonzero k x k minors up to a scalar, first occurrence kept, in _packed_minors order."""
    packed, dets = _packed_minors(entries, k, ring)
    seen = set()
    out = []
    for det in dets:
        key = _scalar_class(det, packed.p)
        if key not in seen:
            seen.add(key)
            out.append(packed.polynomial(det))
    return out


def higher_jacobian_ideal(f: Polynomial, n: int) -> Ideal:
    """The order-n Jacobian ideal: maximal minors of the order-n Jacobian matrix.

    Generators are the distinct nonzero minors up to a scalar, in column-lex
    order.  Every call builds a new Ideal; nothing is shared between calls.
    """
    matrix = jac_matrix(f, n)
    return Ideal(f.ring, _distinct_minors(matrix.entries, len(matrix.rows), f.ring))


def jacobian_ideal(f: Polynomial) -> Ideal:
    """The classical Jacobian ideal: all first partial derivatives."""
    if f.is_zero():
        raise ValueError("Jacobian ideal of the zero polynomial")
    d = f.ring.nvars
    partials = []
    for i in range(d):
        gamma = tuple(1 if j == i else 0 for j in range(d))
        partials.append(f.hasse_derivative(gamma))
    return Ideal(f.ring, [p for p in partials if not p.is_zero()])


def j2_plane_closed_form(f: Polynomial) -> Ideal:
    """Closed form of the order-2 Jacobian ideal of a plane curve.

    Generated by the cubes and mixed cubes of the gradient together with
    f_xx f_y^2 - 2 f_xy f_x f_y + f_x^2 f_yy (classical second partials).
    Requires d = 2 and characteristic != 2; in characteristic 2 use
    higher_jacobian_ideal, whose Hasse-derivative minors stay correct.
    """
    if f.ring.nvars != 2:
        raise ValueError("closed form only applies to plane curves (d = 2)")
    if f.ring.field.characteristic == 2:
        raise ValueError(
            "closed form is invalid in characteristic 2; use higher_jacobian_ideal(f, 2)"
        )
    if f.is_zero():
        raise ValueError("zero polynomial")
    fx = f.hasse_derivative((1, 0))
    fy = f.hasse_derivative((0, 1))
    two = f.ring.constant(2)
    fxx = f.hasse_derivative((2, 0)) * two
    fyy = f.hasse_derivative((0, 2)) * two
    fxy = f.hasse_derivative((1, 1))
    hessian_form = fxx * fy * fy - fxy * fx * fy.scalar_mul(2) + fx * fx * fyy
    return Ideal(f.ring, [fx**3, fx**2 * fy, fx * fy**2, fy**3, hessian_form])
