"""Command-line front end.

Verbs: matrix | ideal | invariants | check | corpus.  Exit codes: 0 on
success, 1 when a mathematical check fails, 2 on polynomial parse errors,
3 on configuration errors.  All randomized runs carry an explicit or
defaulted seed, printed in the report, so failures replay exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys

from .algebras import check_inclusions, dimension_json, invariant_report, nash_ideal_m, nash_ideal_t, tjurina_ideal
from .corpus import run_corpus
from .equivalence import (
    ContactTransform,
    HarnessConfig,
    LocalAutomorphism,
    UnitElement,
    check_contact_invariance,
    check_right_covariance,
    check_unit_stability,
    run_invariance_harness,
    samuel_hypothesis,
)
from .fields import CoefficientField
from .ideals import Ideal, MembershipUndecided
from .jacobian import jac_matrix
from .parsing import PolynomialSyntaxError, parse_polynomial
from .polynomials import RingContext

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_CONFIG_ERROR = 3
# documented in the README, not in the module docstring: that docstring is
# the top-level help text, which stays byte for byte
EXIT_UNDECIDED = 4  # a membership test ran out of escalation rounds or of a refutation's budget

DEFAULT_VARIABLE_POOL = ("x", "y", "z", "w")


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route those to the
    # configuration-error code instead
    def error(self, message):
        raise ConfigError(message)


def _infer_variables(texts: list[str]) -> tuple[str, ...]:
    used = [name for name in DEFAULT_VARIABLE_POOL if any(name in t for t in texts)]
    return tuple(used) if used else ("x",)


def _ring(args, poly_texts: list[str]) -> RingContext:
    if args.vars:
        variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
        if not variables:
            raise ConfigError("--vars must name at least one variable")
        if len(set(variables)) != len(variables):
            raise ConfigError("--vars must be distinct")
    else:
        variables = _infer_variables(poly_texts)
    try:
        field = CoefficientField(args.char)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RingContext(variables, field)


def _print_ideal(ideal: Ideal, label: str, args) -> None:
    basis = ideal.standard_basis() if args.reduced else None
    if args.json:
        obj = {
            "kind": label,
            "char": args.char,
            "vars": list(ideal.ring.variables),
            "generators": [str(g) for g in ideal.generators],
        }
        if args.reduced:
            obj["reduced_basis"] = [str(e) for e in basis.elements]
        if args.dim:
            obj["dimension"] = dimension_json(ideal.dimension())
        print(json.dumps(obj, sort_keys=True))
        return
    print(f"{label} generators:")
    if not ideal.generators:
        print("  0")
    for g in ideal.generators:
        print(f"  {g}")
    if args.reduced:
        print("reduced standard basis:")
        if not basis.elements:
            print("  0")
        for e in basis.elements:
            print(f"  {e}")
    if args.dim:
        print(f"dimension: {ideal.dimension()}")


def cmd_matrix(args) -> int:
    ring = _ring(args, [args.f])
    if args.n < 1:
        raise ConfigError("n must be >= 1")
    f = parse_polynomial(args.f, ring)
    matrix = jac_matrix(f, args.n)
    if args.json:
        print(json.dumps(matrix.to_json_obj(), sort_keys=True))
    else:
        print(matrix.pretty())
    return EXIT_OK


def cmd_ideal(args) -> int:
    f = parse_polynomial(args.f, _ring(args, [args.f]))
    if args.kind == "tjurina":
        if args.k < 0:
            raise ConfigError("k must be >= 0")
        ideal = tjurina_ideal(f, args.k)
        label = f"tjurina[k={args.k}]"
    else:
        if args.n < 1:
            raise ConfigError("n must be >= 1")
        if args.kind == "tn":
            ideal = nash_ideal_t(f, args.n)
        else:
            ideal = nash_ideal_m(f, args.n)
        label = f"{args.kind}[n={args.n}]"
    _print_ideal(ideal, label, args)
    return EXIT_OK


def cmd_invariants(args) -> int:
    ring = _ring(args, [args.f])
    if args.n_max < 1 or args.k_max < 0:
        raise ConfigError("invalid range: need n-max >= 1 and k-max >= 0")
    f = parse_polynomial(args.f, ring)
    report = invariant_report(f, args.n_max, args.k_max)
    if args.json:
        print(json.dumps(report.to_json_obj(), sort_keys=True))
        return EXIT_OK
    print(f"f = {report.f}   (char {args.char})")
    print(f"mt  = {report.mt}")
    print(f"tau = {report.tau}")
    for n, v in report.dim_tn.items():
        print(f"dim T_{n} (order-{n} algebra) = {v}")
    for k, v in report.dim_tk.items():
        print(f"dim T[k={k}] = {v}")
    if report.gp is not None:
        print(f"contact-order bound = {report.gp}")
    return EXIT_OK


def _parse_images(text: str, ring: RingContext) -> LocalAutomorphism:
    images = tuple(parse_polynomial(part, ring) for part in text.split(";"))
    return LocalAutomorphism(ring, images)


def cmd_check(args) -> int:
    texts = [t for t in (args.f, args.g) if t]
    if args.auto:
        texts.extend(args.auto.split(";"))
    if args.unit:
        texts.append(args.unit)
    ring = _ring(args, texts)
    f = parse_polynomial(args.f, ring)

    if args.what == "samuel":
        if args.g is None:
            raise ConfigError("samuel needs a second germ g")
        g = parse_polynomial(args.g, ring)
        ok = samuel_hypothesis(f, g)
        verdict = "congruent" if ok else "not congruent"
        print(json.dumps({"f": str(f), "g": str(g), "verdict": verdict}, sort_keys=True) if args.json
              else f"samuel hypothesis for g - f: {verdict}")
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    if args.what == "inclusions":
        if args.n < 2:
            raise ConfigError("inclusions need n >= 2")
        report = check_inclusions(f, args.n)
        all_ok = report.all_asserted_hold()
        if args.json:
            obj = {
                "f": str(f),
                "n": args.n,
                "checks": [
                    {"name": c.name, "holds": c.holds, "asserted": c.asserted}
                    for c in report
                ],
                "pass": all_ok,
            }
            print(json.dumps(obj, sort_keys=True))
        else:
            for c in report:
                mark = "PASS" if c.holds else ("FAIL" if c.asserted else "not-asserted")
                print(f"{mark:13s} {c.name}")
        return EXIT_OK if all_ok else EXIT_CHECK_FAILED

    # invariance checks: explicit transform if given, randomized harness otherwise
    if args.trials < 1:
        raise ConfigError("trials must be >= 1")
    n = args.n
    if n < 1:
        raise ConfigError("n must be >= 1")
    if args.auto or args.unit:
        checks = []
        if args.auto and args.unit:
            transform = ContactTransform(
                _parse_images(args.auto, ring), UnitElement(parse_polynomial(args.unit, ring))
            )
            checks.append(("contact-invariance", check_contact_invariance(f, transform, n)))
        elif args.auto:
            phi = _parse_images(args.auto, ring)
            checks.append(("right-covariance", check_right_covariance(f, phi, n)))
        else:
            unit = UnitElement(parse_polynomial(args.unit, ring))
            checks.append(("unit-stability", check_unit_stability(f, unit, n)))
        report = {
            "char": ring.field.characteristic,
            "checks": [
                {"kind": kind, "seed": None, "f": str(f), "n": n, "pass": ok}
                for kind, ok in checks
            ],
        }
        report["failures"] = [c for c in report["checks"] if not c["pass"]]
    else:
        trials = args.trials
        harness = HarnessConfig(
            seed=args.seed,
            covariance_trials=trials,
            unit_trials=trials,
            contact_trials=max(1, trials // 2),
            orders=tuple(range(1, n + 1)),
        )
        report = run_invariance_harness(ring, harness, germ_pool=(args.f,))
    ok = not report["failures"]
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for c in report["checks"]:
            mark = "PASS" if c["pass"] else "FAIL"
            seed = "-" if c["seed"] is None else c["seed"]
            print(f"{mark} {c['kind']} f={c['f']} n={c['n']} seed={seed}")
        if not ok:
            print("identity check failed: implementation bug suspected")
        print(f"seed: {args.seed}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_corpus(args) -> int:
    results = run_corpus(name_filter=args.filter)
    ok = all(r.passed for r in results)
    if args.json:
        obj = {
            "fixtures": [r.to_json_obj() for r in results],
            "pass": ok,
            "count": len(results),
            "failures": [r.to_json_obj() for r in results if not r.passed],
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.fixture_id}  ({r.detail})")
        print(f"{sum(r.passed for r in results)}/{len(results)} fixtures passed")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--vars", help="comma-separated variable names (default: inferred from x,y,z,w)")
    sub.add_argument("--char", type=int, default=0, help="field characteristic: 0 or a prime")
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--seed", type=int, default=0, help="seed for randomized runs")


def _add_matrix(m: argparse.ArgumentParser) -> None:
    m.add_argument("f")
    m.add_argument("-n", type=int, default=1)
    _add_common(m)
    m.set_defaults(func=cmd_matrix)


def _add_ideal(i: argparse.ArgumentParser) -> None:
    i.add_argument("kind", choices=("mn", "tn", "tjurina"))
    i.add_argument("f")
    i.add_argument("-n", type=int, default=1)
    i.add_argument("-k", type=int, default=0)
    i.add_argument("--reduced", action="store_true", help="also print the reduced standard basis")
    i.add_argument("--dim", action="store_true", help="also print the quotient dimension")
    _add_common(i)
    i.set_defaults(func=cmd_ideal)


def _add_invariants(v: argparse.ArgumentParser) -> None:
    v.add_argument("f")
    v.add_argument("--n-max", type=int, default=2)
    v.add_argument("--k-max", type=int, default=1)
    _add_common(v)
    v.set_defaults(func=cmd_invariants)


def _add_check(c: argparse.ArgumentParser) -> None:
    c.add_argument("what", choices=("invariance", "inclusions", "samuel"))
    c.add_argument("f")
    c.add_argument("g", nargs="?", help="second germ (samuel check)")
    c.add_argument("-n", type=int, default=2)
    c.add_argument("--auto", help="automorphism images, semicolon separated, e.g. 'x+y^2;y'")
    c.add_argument("--unit", help="unit element, e.g. '1+x'")
    c.add_argument("--trials", type=int, default=10)
    _add_common(c)
    c.set_defaults(func=cmd_check)


def _add_corpus(r: argparse.ArgumentParser) -> None:
    r.add_argument("--filter", help="substring filter on fixture ids")
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=cmd_corpus)


# verb name -> (its help line in the top-level help, the helper that declares
# its arguments on a parser), in help order.  build_parser hangs one
# subparser per verb off the top level; _verb_parser builds one verb's
# parser alone, with the prog and formatter that add_parser gives it there
_VERBS = {
    "matrix": ("print a higher Jacobian matrix", _add_matrix),
    "ideal": ("print a derived ideal", _add_ideal),
    "invariants": ("numerical profile of a germ", _add_invariants),
    "check": ("verify an invariance / inclusion / congruence property", _add_check),
    "corpus": ("run the built-in verification corpus", _add_corpus),
}


def _formatter():
    # argparse makes a HelpFormatter for every argument, and each one reads
    # the terminal size; read it once (HelpFormatter's own default width)
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def build_parser() -> _Parser:
    formatter = _formatter()
    parser = _Parser(prog="nashblowup", description=__doc__, formatter_class=formatter)
    subs = parser.add_subparsers(
        dest="command", required=True, parser_class=functools.partial(_Parser, formatter_class=formatter)
    )
    for name, (help_line, add) in _VERBS.items():
        add(subs.add_parser(name, help=help_line))
    return parser


def _verb_parser(verb: str) -> _Parser:
    parser = _Parser(prog=f"nashblowup {verb}", formatter_class=_formatter())
    _VERBS[verb][1](parser)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a known verb parses its own arguments on the one parser the full parser
    # would hand them to, so help and errors print the same bytes: the other
    # verbs show only in top-level help and in the invalid-verb error, so
    # anything but a known verb (none, -h, an unknown name or prefix, --)
    # goes to the full parser
    if argv and argv[0] in _VERBS:
        parser, argv = _verb_parser(argv[0]), argv[1:]
    else:
        parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except PolynomialSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MembershipUndecided as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
