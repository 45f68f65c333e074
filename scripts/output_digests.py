#!/usr/bin/env python3
"""Print one md5 per CLI invocation over a fixed list of invocations.

Each digest covers the invocation's standard output, standard error and
exit code (or the exception that escaped ``main``; the ``SystemExit`` of
``-h`` counts as its exit code), so two checkouts that print the same file
produce byte-identical output for every invocation in the list.  The list
covers ``ideal tn|mn|tjurina --reduced --dim --json``, ``invariants``,
``check inclusions`` and ``check samuel`` over Q, F_2, F_3 and F_5, for
isolated and non-isolated plane and space germs, then ``matrix`` in text and
``--json`` form over the plane germs, then ``corpus --json`` and the seeded
``check invariance`` harness over the default germ pool over Q and F_3,
then three reduced bases of infinite colength that depend on the
generators Lazard's route receives, then help and error text of the top
level and of every verb.  Help text wraps at the terminal width, so compare
runs with the same ``COLUMNS`` (or both with output redirected).

Usage (compare two checkouts):
    PYTHONPATH=src python3 scripts/output_digests.py > new.txt
    PYTHONPATH=../other/src python3 scripts/output_digests.py > old.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import io
import sys
import time

from nashblowup.cli import main as cli_main
from nashblowup.equivalence import DEFAULT_GERM_POOL

CHARS = (0, 2, 3, 5)

# (germ, --vars, largest n for ideal tn/mn)
PLANE_ISOLATED = (
    ("x^2+y^3", 5),
    ("x^3+y^4", 5),
    ("x^2+y^5", 5),
    ("x^3+y^5", 4),
    ("x^4+y^5", 4),
    ("x^3+x*y^4", 5),
    ("x^4+y^4+x^3", 4),
    ("x^3+x*y^3", 4),
    ("x^2*y+y^4", 4),
    ("x^5+y^5+x^2*y^2", 3),
    ("x^2+x*y^3+y^7", 3),
    ("1/2*x^3+3/7*y^4", 3),
)
PLANE_NON_ISOLATED = (
    ("x^2*y", 4),
    ("x^2*y^2", 3),
    ("x^3+x^2*y^2", 3),
    ("x*y^2", 3),
    ("x^2", 3),
)
SPACE_ISOLATED = (
    ("x^2+y^2+z^2", 3),
    ("x^2+y^3+z^3", 3),
    ("x*y+z^3", 3),
    ("x^2+y^2+z^4", 3),
    ("x^3+y^3+z^3", 2),
)
SPACE_NON_ISOLATED = (
    ("x*y*z", 2),
    ("x^2+y^2*z", 2),
    ("x^2*y+z^2", 2),
    ("x*y", 2),
)
# large exponents: only the invariants profile
HIGH_DEGREE = (
    "x^31+y^29+x^2*y^3",
    "x^24+y^30",
    "x^12+y^13+x^4*y^4",
    "x^60+y^71+x^5*y^5",
    "x^84+y^83",
    "x^40+y^45+x^3*y^4",
)
# help and argument errors: the top level and every verb
PARSER_ERRORS = (
    (),
    ("-h",),
    ("frobnicate", "x"),
    ("ide", "tn", "x"),
    ("--", "ideal", "tn", "x"),
    ("matrix", "-h"),
    ("matrix",),
    ("matrix", "x*y", "-n", "two"),
    ("matrix", "x*y", "--bogus"),
    ("ideal", "-h"),
    ("ideal", "xx", "f"),
    ("ideal", "tn"),
    ("ideal", "tn", "x^2+y^3", "-n", "2.5"),
    ("ideal", "tn", "x^2+y^3", "extra"),
    ("invariants", "-h"),
    ("invariants",),
    ("invariants", "x^3+y^2", "--n-max", "x"),
    ("invariants", "x^3+y^2", "--bogus", "1"),
    ("check", "-h"),
    ("check", "xx", "f"),
    ("check", "inclusions"),
    ("check", "inclusions", "x^3+y^3", "-n", "x"),
    ("check", "samuel", "x^3+y^3", "x^3", "y^3"),
    ("check", "samuel", "x^2+y^3"),
    ("check", "invariance", "x^2+y^3", "--trials", "-1"),
    ("check", "invariance", "x^2+y^3", "-n", "0"),
    ("corpus", "-h"),
    ("corpus", "pair"),
    ("corpus", "--filter"),
)
SAMUEL_PAIRS = (
    ("x^3+y^3", "x^3+y^3+x^5"),
    ("x^2+y^3", "x^2+y^3+x*y^2"),
    ("x^3+y^4", "x^3+y^4+y^5"),
    ("x^2+y^2+z^2", "x^2+y^2+z^2+x^3"),
)
# (germ, char): reduced Tjurina bases of infinite colength that depend on
# which generators Lazard's route homogenizes; handing it only the span basis
# of the survivors, not every survivor, prints other bases for these three
LAZARD_GENERATORS = (
    ("2*x*y^2+6*y^3-x^4*y^4", 0),
    ("x*y^3-y^4-x^2*y^4", 0),
    ("x^4*y+2*x^3+2*x^2*y", 5),
)


def invocations() -> list[list[str]]:
    out: list[list[str]] = []
    germs = [(f, n, "x,y") for f, n in PLANE_ISOLATED + PLANE_NON_ISOLATED]
    germs += [(f, n, "x,y,z") for f, n in SPACE_ISOLATED + SPACE_NON_ISOLATED]
    for p in CHARS:
        common = ["--char", str(p)]
        for f, n_max, variables in germs:
            base = common + ["--vars", variables]
            for kind in ("tn", "mn"):
                for n in range(1, n_max + 1):
                    out.append(["ideal", kind, f, "-n", str(n), "--reduced", "--dim", "--json"] + base)
            for k in range(3):
                out.append(["ideal", "tjurina", f, "-k", str(k), "--reduced", "--dim", "--json"] + base)
            out.append(["invariants", f, "--json"] + base)
            out.append(["invariants", f, "--n-max", "1", "--k-max", "2"] + base)
            out.append(["check", "inclusions", f, "-n", str(min(n_max, 3)), "--json"] + base)
        for f in HIGH_DEGREE:
            out.append(["invariants", f, "--json"] + common)
        for f, g in SAMUEL_PAIRS:
            out.append(["check", "samuel", f, g, "--json"] + common)
            out.append(["check", "samuel", f, g] + common)
    for p in CHARS:
        common = ["--char", str(p), "--vars", "x,y"]
        for f, n_max in PLANE_ISOLATED + PLANE_NON_ISOLATED:
            for n in range(1, n_max + 1):
                out.append(["matrix", f, "-n", str(n)] + common)
                out.append(["matrix", f, "-n", str(n), "--json"] + common)
    out.append(["corpus", "--json"])
    for p in (0, 3):
        for f in DEFAULT_GERM_POOL:
            out.append(["check", "invariance", f, "--trials", "6", "--seed", "3", "--json", "--vars", "x,y",
                        "--char", str(p)])
    for f, p in LAZARD_GENERATORS:
        out.append(["ideal", "tjurina", f, "-k", "1", "--reduced", "--dim", "--json", "--char", str(p),
                    "--vars", "x,y"])
    out.extend(list(argv) for argv in PARSER_ERRORS)
    return out


def digest(argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            outcome = f"exit {cli_main(argv)}"
        except SystemExit as exc:
            outcome = f"exit {exc.code}"
        except Exception as exc:  # an escaped error is an outcome to compare too
            outcome = f"raised {type(exc).__name__}: {exc}"
    blob = "\0".join((stdout.getvalue(), stderr.getvalue(), outcome))
    return hashlib.md5(blob.encode()).hexdigest()


def main() -> int:
    start = time.perf_counter()
    count = 0
    for argv in invocations():
        print(f"{digest(argv)}  {' '.join(argv)}", flush=True)
        count += 1
    print(f"{count} invocations in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
