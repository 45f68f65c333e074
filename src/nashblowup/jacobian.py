"""Higher Jacobian matrices and higher Jacobian ideals.

The order-n Jacobian matrix of f has rows indexed by multi-indices beta
with 0 <= |beta| <= n-1 and columns by alpha with 1 <= |alpha| <= n, both
in reading order (degree ascending, lex descending); the entry at
(beta, alpha) is the Hasse derivative D^(alpha-beta) f when alpha
dominates beta componentwise and alpha != beta, and 0 otherwise.  The
order-n Jacobian ideal is generated by its maximal minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, lcm, prod
from operator import mul
from typing import Sequence

from .ideals import Ideal
from .polynomials import MultiIndex, Polynomial, RingContext, _Packing, multi_indices_in_range


@dataclass(frozen=True, eq=False, repr=False)
class JacobianMatrix:
    """The order-n Jacobian matrix of f, kept as its packed derivative table.

    ``_cells`` holds each entry as (key, int coefficient) pairs on
    ``_packing``'s keys, one tuple per distinct derivative shared by all of
    its cells, over Q ``_scale`` times the entry (``_scale`` is the lcm of
    f's denominators, 1 over F_p).  ``entries`` is unpacked from them on
    its first read, which only the ``matrix`` output and tests make, or
    on that of ==, hash() or repr(), which compare, hash and show
    (f, n, rows, cols, entries).
    """

    f: Polynomial
    n: int
    rows: tuple[MultiIndex, ...]
    cols: tuple[MultiIndex, ...]
    _packing: _Packing
    _scale: int
    _cells: tuple[tuple[tuple, ...], ...]

    @cached_property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        pk, scale, zero = self._packing, self._scale, self.ring.zero()
        # one polynomial per distinct derivative, shared by its cells
        unpacked: dict[int, Polynomial] = {}

        def entry(cell: tuple) -> Polynomial:
            if not cell:
                return zero
            got = unpacked.get(id(cell))
            if got is None:
                got = unpacked[id(cell)] = pk.polynomial(dict(cell), scale=scale)
            return got

        return tuple(tuple(map(entry, row)) for row in self._cells)

    def _key(self) -> tuple:
        return (self.f, self.n, self.rows, self.cols, self.entries)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(f={self.f!r}, n={self.n!r}, rows={self.rows!r}, "
                f"cols={self.cols!r}, entries={self.entries!r})")

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
    """The order-n Jacobian matrix of f (n >= 1, f != 0).

    Builds the derivative table on integer coefficients: each D^gamma f
    with 1 <= |gamma| <= n once, over Q scaled by the lcm D of f's
    denominators (binomials are integers, so every entry is an integer
    polynomial over D), over F_p reduced mod p.  Its terms are keyed on a
    packing that holds the degree of a maximal minor, k * top with k the
    row count and top the largest degree of a nonzero entry, so the minors
    kernel reads the cells as they are.  x^beta goes to x^(beta - gamma),
    whose key is key(beta) - key(gamma): keys are linear in the exponents.
    Each nonzero derivative is placed at (row beta, column beta + gamma)
    through the columns' positions.
    """
    if f.is_zero():
        raise ValueError("Jacobian matrix of the zero polynomial")
    if n < 1:
        raise ValueError("n must be >= 1")
    ring = f.ring
    d, p = ring.nvars, ring.field.characteristic
    # reading order puts the rows, degree below n, first and 0 alone in front
    indices = multi_indices_in_range(d, 0, n)
    rows, cols = tuple(indices[: comb(d + n - 1, d)]), tuple(indices[1:])
    if p:
        scale = 1
        terms = [(beta, sum(beta), c) for beta, c in f.terms.items()]
    else:
        scale = lcm(*(c.denominator for c in f.terms.values()))
        terms = [(beta, sum(beta), c.numerator * (scale // c.denominator)) for beta, c in f.terms.items()]
    # (column, |gamma|, [(beta, coefficient)]) of each nonzero D^gamma f, in f's term order
    table = []
    top = 0
    for j, gamma in enumerate(cols):
        g = sum(gamma)
        found = []
        for beta, deg, c in terms:
            c *= prod(map(comb, beta, gamma))
            if p:
                c %= p
            if c:
                found.append((beta, c))
                top = max(top, deg - g)
        if found:
            table.append((j, g, found))
    pk = _Packing.sized(ring, len(rows) * top)
    # keys are linear in the exponents (_Packing.weights), so they need no
    # room for f's own degree; the column of beta + gamma is found by key
    weights = pk.weights
    keys = [sum(map(mul, alpha, weights)) for alpha in indices]
    position = {key: j for j, key in enumerate(keys[1:])}
    term_keys = {beta: sum(map(mul, beta, weights)) for beta, _, _ in terms}
    cells = [[()] * len(cols) for _ in rows]
    for j, g, found in table:
        shift = keys[j + 1]
        cell = tuple([(term_keys[beta] - shift, c) for beta, c in found])
        # the rows of degree at most n - |gamma|
        for row, key in zip(cells, keys[: comb(d + n - g, d)]):
            row[position[key + shift]] = cell
    return JacobianMatrix(f, n, rows, cols, pk, scale, tuple(map(tuple, cells)))


# ---------------------------------------------------------------------------
# exact minors via a row-by-row Laplace expansion
#
# The maximal minors of a fixed row set share their row-suffix subproblems:
# taking the rows bottom-up while carrying the map {column bitmask -> minor of
# the rows taken so far on those columns} computes each maximal minor once,
# as the Laplace expansion along its top row.  Bottom-up suits Jacobian
# matrices, whose last rows are the sparsest, so the early states stay few;
# structural zeros are never stored.  The expansion runs on the cells of
# jac_matrix's derivative table: monomial keys of a local polynomials._Packing and
# integer coefficients, so a product of two terms is one int addition and one
# int multiplication.  The packing only has to hold a minor's degree, k * top;
# each kept minor is handed over with its packed terms
# (ideals.Ideal._from_packed) and reaches the capped runs without being
# packed again or unpacked.  Over Q every entry is scaled by the lcm D of f's
# denominators, so a minor comes out D^k times the true one: the packed terms
# are handed over as they are, a positive multiple of the minor, and D^k
# serves only to build the printed Fractions, when the generators are first
# read.  Over F_p coefficients stay in 0..p-1 and sums are reduced once per
# state.


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


def higher_jacobian_ideal(f: Polynomial, n: int) -> Ideal:
    """The order-n Jacobian ideal: maximal minors of the order-n Jacobian matrix.

    Generators are the distinct nonzero minors up to a scalar, in column-lex
    order, taken in one _minor_dets call on the matrix's derivative table:
    a maximal minor takes every row.  The packing holds the minors' degree,
    and over Q they come out ``_scale**k`` times the true ones.  Each is
    handed over with its packed terms (Ideal._from_packed) and unpacked on
    the first read of the generators.  Every call builds a new Ideal;
    nothing is shared between calls.
    """
    matrix = jac_matrix(f, n)
    k, pk = len(matrix.rows), matrix._packing
    minors = _minor_dets(matrix._cells, pk.p, range(k), range(len(matrix.cols)))
    return Ideal._from_packed(pk, matrix._scale**k, minors)


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
