"""Higher Jacobian matrices, minors, Fitting ideals, higher Jacobian ideals.

The order-n Jacobian matrix of f has rows indexed by multi-indices beta
with 0 <= |beta| <= n-1 and columns by alpha with 1 <= |alpha| <= n, both
in reading order (degree ascending, lex descending); the entry at
(beta, alpha) is the Hasse derivative D^(alpha-beta) f when alpha
dominates beta componentwise and alpha != beta, and 0 otherwise.  The
order-n Jacobian ideal is generated by its maximal minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .ideals import Ideal
from .polynomials import (
    MultiIndex,
    Polynomial,
    RingContext,
    mi_strictly_above,
    mi_sub,
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

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i][j]

    def as_presentation(self) -> "PresentationMatrix":
        return PresentationMatrix(self.ring, self.entries)

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


class PresentationMatrix:
    """Rectangular polynomial matrix presenting a module on its columns.

    Columns correspond to module generators, rows to relations.
    """

    def __init__(self, ring: RingContext, entries: Sequence[Sequence[Polynomial]]):
        rows = tuple(tuple(row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
            for r in rows:
                for e in r:
                    if e.ring != ring:
                        raise ValueError("entry lives in a different ring context")
        self.ring = ring
        self.entries = rows

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def generator_count(self) -> int:
        return self.ncols


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
        if not mi_strictly_above(alpha, beta):
            return zero
        gamma = mi_sub(alpha, beta)
        got = derivative_cache.get(gamma)
        if got is None:
            got = f.hasse_derivative(gamma)
            derivative_cache[gamma] = got
        return got

    entries = tuple(tuple(entry(b, a) for a in cols) for b in rows)
    return JacobianMatrix(f, n, rows, cols, entries)


# ---------------------------------------------------------------------------
# exact minors via column-prefix dynamic programming
#
# Determinants over all column subsets of a fixed row set share their
# column-prefix subproblems: walking the subsets in lex order while carrying
# the map {used-row-bitmask -> minor of the chosen column prefix} computes
# each maximal minor once, with structural zeros pruned for free (empty
# states cut whole subtrees).


def _minor_dets(
    entries: Sequence[Sequence[Polynomial]],
    row_ids: Sequence[int],
    col_ids: Sequence[int],
    k: int,
    ring: RingContext,
) -> list[tuple[tuple[int, ...], Polynomial]]:
    zero = ring.zero()
    nrows = len(row_ids)
    # column c contributes entry(row, c) to states missing that row

    def extend(state: dict[int, Polynomial], col: int, pos: int) -> dict[int, Polynomial]:
        out: dict[int, Polynomial] = {}
        for mask, val in state.items():
            for ri in range(nrows):
                bit = 1 << ri
                if mask & bit:
                    continue
                e = entries[row_ids[ri]][col]
                if e.is_zero():
                    continue
                below = bin(mask & (bit - 1)).count("1")
                term = val * e
                if (below + pos) % 2:
                    term = -term
                new_mask = mask | bit
                acc = out.get(new_mask)
                out[new_mask] = term if acc is None else acc + term
        return {m: v for m, v in out.items() if not v.is_zero()}

    chosen: list[int] = []
    results: list[tuple[tuple[int, ...], Polynomial]] = []

    def walk(start: int, state: dict[int, Polynomial]) -> None:
        depth = len(chosen)
        if depth == k:
            det = state.get((1 << nrows) - 1, zero)
            if not det.is_zero():
                results.append((tuple(col_ids[c] for c in chosen), det))
            return
        remaining = k - depth
        for ci in range(start, len(col_ids) - remaining + 1):
            new_state = extend(state, col_ids[ci], depth)
            if not new_state:
                continue
            chosen.append(ci)
            walk(ci + 1, new_state)
            chosen.pop()

    one_state = {0: ring.one()}
    walk(0, one_state)
    return results


def minors(matrix: PresentationMatrix | JacobianMatrix, k: int) -> list[Polynomial]:
    """All nonzero k x k minors, row subsets then column subsets in lex order."""
    if isinstance(matrix, JacobianMatrix):
        matrix = matrix.as_presentation()
    if k < 1 or k > min(matrix.nrows, matrix.ncols):
        raise ValueError(f"minor size {k} exceeds matrix dimensions {matrix.nrows}x{matrix.ncols}")
    out: list[Polynomial] = []
    all_cols = list(range(matrix.ncols))
    for row_subset in combinations(range(matrix.nrows), k):
        for _, det in _minor_dets(matrix.entries, row_subset, all_cols, k, matrix.ring):
            out.append(det)
    return out


def fitting_ideal(matrix: PresentationMatrix | JacobianMatrix, k: int) -> Ideal:
    """k-th Fitting ideal of the module presented on the matrix columns.

    With g generators this is the ideal of (g-k) x (g-k) minors; by
    convention the unit ideal when g - k <= 0 and the zero ideal when the
    matrix has fewer than g - k rows.
    """
    if k < 0:
        raise ValueError("negative Fitting index")
    if isinstance(matrix, JacobianMatrix):
        matrix = matrix.as_presentation()
    size = matrix.generator_count - k
    if size <= 0:
        return Ideal.unit(matrix.ring)
    if size > matrix.nrows:
        return Ideal.zero(matrix.ring)
    return Ideal(matrix.ring, _dedup(minors(matrix, size)))


def _dedup(polys: Sequence[Polynomial]) -> list[Polynomial]:
    """Drop zero and repeated generators (up to a scalar), preserving order."""
    seen = set()
    out = []
    for p in polys:
        if p.is_zero():
            continue
        lm = max(p.terms, key=lambda a: (sum(a), a))
        key = frozenset(p.scalar_mul(p.ring.field.invert(p.terms[lm])).terms.items())
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


@lru_cache(maxsize=512)
def higher_jacobian_ideal(f: Polynomial, n: int) -> Ideal:
    """The order-n Jacobian ideal: maximal minors of the order-n Jacobian matrix.

    Cached per (f, n): the returned Ideal (and its lazily computed standard
    basis) is shared, which the read-only access pattern makes safe.
    """
    matrix = jac_matrix(f, n)
    nrows, ncols = matrix.shape
    dets = [
        det
        for _, det in _minor_dets(
            matrix.entries, range(nrows), range(ncols), nrows, matrix.ring
        )
    ]
    return Ideal(matrix.ring, _dedup(dets))


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
    gens = [fx**3, fx**2 * fy, fx * fy**2, fy**3, hessian_form]
    return Ideal(f.ring, _dedup(gens))
