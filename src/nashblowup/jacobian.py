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
from itertools import chain, combinations
from typing import Sequence

from .ideals import Ideal, _Packing
from .polynomials import MultiIndex, Polynomial, RingContext, multi_indices_in_range


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
# structural zeros are never stored.  The expansion runs on the monomial keys
# of a local ideals._Packing and on integer coefficients, so a product of two
# terms is one int addition and one int multiplication.  The packing only
# has to hold a minor's degree, k * top; each kept minor is handed over with
# its packed terms (ideals.Ideal._from_packed) and reaches the capped runs
# without being packed again.  Over Q every entry is scaled by the lcm D of
# all denominators, so a minor comes out D^k times the true one: the packed
# terms are handed over as they are, a positive multiple of the minor, and
# D^k serves only to build the printed Fractions.  Over F_p coefficients
# stay in 0..p-1 and sums are reduced once per state.


def _packed_cells(
    entries: Sequence[Sequence[Polynomial]], k: int, ring: RingContext
) -> tuple[_Packing, int, list[list[tuple]]]:
    """(packing, D^k, cells), each entry as (key, int coefficient) pairs, for products of k entries."""
    # Jacobian matrices repeat one derivative in many cells: pack each once
    distinct = {id(e): e.terms for row in entries for e in row if e.terms}
    top = max((sum(alpha) for terms in distinct.values() for alpha in terms), default=0)
    # a minor has degree at most k * top, so on a packing that holds that
    # degree keys add without carries
    pk = _Packing.sized(ring, k * top)
    p = pk.p
    den = 1 if p else math.lcm(*(c.denominator for terms in distinct.values() for c in terms.values()))
    packed = {
        cell: tuple(
            (pk.key(alpha), c if p else c.numerator * (den // c.denominator)) for alpha, c in terms.items()
        )
        for cell, terms in distinct.items()
    }
    return pk, den**k, [[packed.get(id(e), ()) for e in row] for row in entries]


def _minor_dets(
    cells: Sequence[Sequence[tuple]], p: int, row_ids: Sequence[int], col_ids: Sequence[int]
) -> list[dict[int, int]]:
    """The nonzero packed maximal minors on row_ids, column subsets in lex order of col_ids."""
    ncols = len(col_ids)
    # column position ci has bit ncols-1-ci, so the lex order of column
    # subsets is the descending order of their masks
    state: dict[int, dict[int, int]] = {0: {0: 1}}
    for depth, r in enumerate(reversed(row_ids)):
        # (bit, (cell, -cell)): the new row's entry and its negative
        row = [
            (1 << (ncols - 1 - ci), (cell, tuple((key, -c) for key, c in cell)))
            for ci, c in enumerate(col_ids)
            if (cell := cells[r][c])
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


def _distinct_minors(
    entries: Sequence[Sequence[Polynomial]], k: int, ring: RingContext
) -> Ideal:
    """The ideal of the nonzero k x k minors up to a scalar, first kept: row subsets, then columns, in lex order.

    Each is unpacked once and handed over with its packed terms (Ideal._from_packed).
    """
    pk, scale, cells = _packed_cells(entries, k, ring)
    cols = range(len(cells[0]))
    minors = chain.from_iterable(_minor_dets(cells, pk.p, rows, cols) for rows in combinations(range(len(cells)), k))
    return Ideal._from_packed(pk, scale, minors)


def higher_jacobian_ideal(f: Polynomial, n: int) -> Ideal:
    """The order-n Jacobian ideal: maximal minors of the order-n Jacobian matrix.

    Generators are the distinct nonzero minors up to a scalar, in column-lex
    order.  Every call builds a new Ideal; nothing is shared between calls.
    """
    matrix = jac_matrix(f, n)
    return _distinct_minors(matrix.entries, len(matrix.rows), f.ring)


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
