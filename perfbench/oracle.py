"""Dense linear-algebra oracle for quotient dimensions, independent of the
library's standard-basis machinery (a copy of the test suite's oracle).

``linalg_quotient_dim`` is dim k[x]/(I + m^bound) by Gaussian elimination
on the monomials below ``bound``.  It rises with the bound and, by
Nakayama, stops rising exactly when m^bound lies in I; two equal values in
a row therefore give dim R/I.
"""

from __future__ import annotations


def _monomials_below(nvars: int, bound: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], left: int) -> None:
        if len(prefix) == nvars:
            out.append(prefix)
            return
        for e in range(left + 1):
            rec(prefix + (e,), left - e)

    rec((), bound - 1)
    return out


def linalg_quotient_dim(gens, ring, bound: int) -> int:
    """dim of k[x]/(I + m^bound) by Gaussian elimination on monomials of degree < bound."""
    monos = _monomials_below(ring.nvars, bound)
    index = {m: i for i, m in enumerate(monos)}
    field = ring.field
    pivots: dict[int, dict[int, object]] = {}
    rank = 0
    for g in gens:
        for m in monos:
            row = {}
            for alpha, c in g.terms.items():
                target = tuple(a + b for a, b in zip(alpha, m))
                if sum(target) < bound:
                    row[index[target]] = c
            while row:
                lead = min(row)
                if lead not in pivots:
                    pivots[lead] = row
                    rank += 1
                    break
                pivot = pivots[lead]
                factor = field.div(row[lead], pivot[lead])
                for col, v in pivot.items():
                    new = field.sub(row.get(col, field.zero()), field.mul(factor, v))
                    if new:
                        row[col] = new
                    else:
                        row.pop(col, None)
    return len(monos) - rank


def stable_quotient_dim(gens, ring, max_bound: int) -> int | None:
    """dim R/I once two consecutive bounds agree, None if not by ``max_bound``."""
    previous = None
    for bound in range(1, max_bound + 1):
        value = linalg_quotient_dim(gens, ring, bound)
        if value == previous:
            return value
        previous = value
    return None
