#!/usr/bin/env python3
"""Time the CLI invocations that take seconds to minutes, one subprocess each.

The inputs are the four plane germs whose `check inclusions -n 3` wedged
the membership escalation (over Q and F_32003), the space germ
`4*y*z+3*x*z^2-3*y^3`, a random contact draw on `2*x*y^2` whose
certificate rounds dominate (over Q, F_5 and F_32003), three Samuel
perturbations whose `ideal mn --dim` sits in Lazard's route, which has no
budget (J_2 over Q, J_3 over F_5 and over F_3; the Q germ starts with a
minus sign, hence the `--` before it), and six three-variable germs whose
(f) + J_3(f) has about 3,000 generators (`ideal tn -n 3 --dim`, five over
Q, one over F_3).  For each invocation the script prints the exit
code ("> 60" when it ran out of a 60 s --timeout), the md5 of its stdout
followed by its stderr, and the wall time, so two checkouts can be
compared line by line: the same exit codes and md5s mean the same
answers.  None of this runs in tier-1, which only parses each invocation
(tests/test_cli.py).

Usage (compare two checkouts):
    PYTHONPATH=src python3 scripts/slow_inputs.py
    PYTHONPATH=../other/src python3 scripts/slow_inputs.py
    python3 scripts/slow_inputs.py --timeout 200
"""

import argparse
import hashlib
import shlex
import subprocess
import sys
import time

WEDGES = (
    "3*y^4+x^5*y^2+2*x^2*y^2",
    "x^4*y^3+3*x*y^5+2*x^2*y^2",
    "x^2*y^3+2*x^4*y^3+x^3*y^4",
    "x^4*y^2+3*x^2*y^5+2*x^5",
)
CONTACT = ("check", "invariance", "2*x*y^2", "--auto=-x+x*y+y^2;2*x+y+y^3", "--unit=-2-2*x^2", "-n", "2")
LAZARD_WEDGES = (
    ("ideal", "mn", "-n", "2", "--dim", "--",
     "-3*x^3-4*x*y^3-216*x^4*y^2-162*x^6*y-96*x^2*y^5-144*x^4*y^4+288*x^3*y^6-32*x^2*y^7"),
    ("ideal", "mn", "3*y^3+3*x^3*y+2*x^2*y^4+4*x^5*y^2+2*x^4*y^4+4*x^7*y^2", "-n", "3", "--dim", "--char", "5"),
    ("ideal", "mn", "x^2+x^3+2*x*y^3+2*x^2*y^4+2*x^6*y+x*y^7+2*x^5*y^4", "-n", "3", "--dim", "--char", "3"),
)
# (germ, characteristic): order 3 in x, y, z
THREE_VARIABLE = (
    ("x*y*z+x^3+y^3+z^3", "0"),
    ("x^2+y^3+x*z^3", "0"),
    ("x*y*z+x^4+y^4+z^4", "0"),
    ("x^3+y^3+z^3+x*y*z^2", "0"),
    ("x*y*z+x^5+y^5+z^5", "0"),
    ("x*y*z+x^5+y^5+z^5", "3"),
)

INVOCATIONS = (
    *[("check", "inclusions", germ, "-n", "3", "--char", char) for char in ("0", "32003") for germ in WEDGES],
    ("check", "inclusions", "4*y*z+3*x*z^2-3*y^3", "-n", "3"),
    *[CONTACT + ("--char", char) for char in ("0", "5", "32003")],
    *LAZARD_WEDGES,
    *[("ideal", "tn", germ, "-n", "3", "--dim", "--char", char) for germ, char in THREE_VARIABLE],
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per invocation (default 60)")
    args = parser.parse_args()
    print(f"{'exit':>9}  {'md5 of stdout+stderr':<32}  {'wall s':>7}  invocation")
    for argv in INVOCATIONS:
        cmd = [sys.executable, "-m", "nashblowup.cli", *argv]
        start = time.perf_counter()
        try:
            out = subprocess.run(cmd, capture_output=True, timeout=args.timeout)
        except subprocess.TimeoutExpired:
            exit_code, digest = f"> {args.timeout:g}", ""
        else:
            exit_code, digest = str(out.returncode), hashlib.md5(out.stdout + out.stderr).hexdigest()
        wall = time.perf_counter() - start
        print(f"{exit_code:>9}  {digest:<32}  {wall:>7.2f}  {shlex.join(argv)}", flush=True)


if __name__ == "__main__":
    main()
