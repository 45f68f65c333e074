#!/usr/bin/env python3
"""Tabulate the numerical invariants of the built-in singularity corpus.

Prints multiplicity, Tjurina number, the dimensions of the order-n algebras
R/((f)+J_n(f)) up to --n-max, and the contact-order bound, for each corpus
germ over each requested characteristic.

Usage:
    python3 scripts/invariant_table.py --chars 0,5 --n-max 2
"""

import argparse

from nashblowup.algebras import dimension_json, invariant_report
from nashblowup.corpus import SINGULARITY_CORPUS
from nashblowup.fields import CoefficientField


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chars", default="0,5", help="comma-separated characteristics")
    parser.add_argument("--n-max", type=int, default=2)
    args = parser.parse_args()
    chars = [int(c) for c in args.chars.split(",")]
    header = ["germ", "char", "f", "mt", "tau"]
    header += [f"dim n={n}" for n in range(1, args.n_max + 1)]
    header += ["bound"]
    rows = [header]
    for p in chars:
        field = CoefficientField(p)
        for entry in SINGULARITY_CORPUS:
            f = entry.polynomial(field)
            rep = invariant_report(f, n_max=args.n_max, k_max=0)
            row = [entry.name, str(p), entry.text, str(rep.mt), str(dimension_json(rep.tau))]
            row += [str(dimension_json(rep.dim_tn[n])) for n in range(1, args.n_max + 1)]
            row += [str(rep.gp) if rep.gp is not None else "-"]
            rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for i, row in enumerate(rows):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            print("  ".join("-" * w for w in widths))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
