#!/usr/bin/env python3
"""Time (f) + J_3(f) for the three-variable germs that fall off the capped route.

For each germ the script prints the number of generators of (f) + J_3(f),
the number that enter the capped runs (a basis of their k-span, or every
scalar class where the intake keeps them all), the route that decided the
standard basis (the certifying cap, or Lazard's route), the dimension, and
the wall time of the minors and of the whole computation.  Each germ runs
in its own subprocess with a fixed timeout, so a germ that takes longer
reads as "> timeout" instead of stalling the table.

Usage (compare two checkouts):
    PYTHONPATH=src python3 scripts/capped_rescues.py
    PYTHONPATH=../other/src python3 scripts/capped_rescues.py
    python3 scripts/capped_rescues.py --timeout 30
"""

import argparse
import json
import subprocess
import sys
import time

# (germ, characteristic): order 3 in x, y, z
GERMS = (
    ("x*y*z+x^3+y^3+z^3", 0),
    ("x^2+y^3+x*z^3", 0),
    ("x*y*z+x^4+y^4+z^4", 0),
    ("x^3+y^3+z^3+x*y*z^2", 0),
    ("x*y*z+x^5+y^5+z^5", 0),
    ("x*y*z+x^5+y^5+z^5", 3),
)
ORDER = 3


def measure(germ: str, char: int) -> dict:
    """One germ in this process: sizes, route and times."""
    from nashblowup import ideals
    from nashblowup.algebras import nash_ideal_t
    from nashblowup.fields import CoefficientField
    from nashblowup.parsing import parse_polynomial
    from nashblowup.polynomials import RingContext

    runs = []  # (cap or None for an uncapped run, generators entering it)
    original = ideals._run_completion

    def recorded(pk, gens, bound, *rest):
        runs.append((bound, len(gens)))
        return original(pk, gens, bound, *rest)

    ideals._run_completion = recorded
    f = parse_polynomial(germ, RingContext(("x", "y", "z"), CoefficientField(char)))
    start = time.perf_counter()
    ideal = nash_ideal_t(f, ORDER)
    minors = time.perf_counter() - start
    basis = ideal.standard_basis()
    total = time.perf_counter() - start
    capped = [(cap, size) for cap, size in runs if cap is not None]
    lazard = any(cap is None for cap, _ in runs)
    return {
        "generators": len(ideal.generators),
        "capped_generators": capped[0][1] if capped else None,
        "route": "Lazard" if lazard else f"cap {capped[-1][0]}",
        "dimension": str(basis.dimension()),
        "minors_s": round(minors, 2),
        "total_s": round(total, 2),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per germ (default 60)")
    parser.add_argument("--one", nargs=2, metavar=("GERM", "CHAR"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(measure(args.one[0], int(args.one[1]))))
        return
    print(f"{'germ':<24} {'char':>4} {'gens':>6} {'capped':>7} {'route':>8} {'dim':>5} {'minors s':>9} {'total s':>8}")
    for germ, char in GERMS:
        cmd = [sys.executable, __file__, "--one", germ, str(char)]
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=args.timeout, check=True)
        except subprocess.TimeoutExpired:
            print(f"{germ:<24} {char:>4} {'':>6} {'':>7} {'':>8} {'':>5} {'':>9} {'> ' + str(int(args.timeout)):>8}")
            continue
        r = json.loads(out.stdout)
        capped = "-" if r["capped_generators"] is None else r["capped_generators"]
        print(f"{germ:<24} {char:>4} {r['generators']:>6} {capped:>7} {r['route']:>8} {r['dimension']:>5} "
              f"{r['minors_s']:>9} {r['total_s']:>8}", flush=True)


if __name__ == "__main__":
    main()
