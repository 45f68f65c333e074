import hashlib
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from nashblowup import cli, ideals
from nashblowup.cli import main
from nashblowup.fields import QQ
from nashblowup.ideals import Ideal
from nashblowup.parsing import parse_polynomial
from nashblowup.polynomials import RingContext


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrixCommand:
    def test_node_grid(self, capsys):
        code, out, _ = run(capsys, "matrix", "x*y", "-n", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "3 x 5"
        first_row = lines[2]
        assert first_row.split("|")[1].split() == ["y", "x", "0", "1", "0"]

    def test_gradient(self, capsys):
        code, out, _ = run(capsys, "matrix", "x^3+y^2", "-n", "1")
        assert code == 0
        assert "3*x^2" in out and "2*y" in out

    def test_n_zero_is_config_error(self, capsys):
        code, _, err = run(capsys, "matrix", "x*y", "-n", "0")
        assert code == 3
        assert "n must be >= 1" in err

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "matrix", "x*y", "-n", "2", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["shape"] == [3, 5]
        assert obj["entries"][0] == ["y", "x", "0", "1", "0"]


class TestIdealCommand:
    def test_reduced_quadric(self, capsys):
        code, out, _ = run(capsys, "ideal", "tn", "x^2+y^2", "-n", "2", "--reduced")
        assert code == 0
        section = out.split("reduced standard basis:")[1]
        ring = RingContext(("x", "y"), QQ)
        reparsed = Ideal(ring, [parse_polynomial(t.strip(), ring) for t in section.strip().splitlines()])
        expected = Ideal(ring, [parse_polynomial(t, ring) for t in ("x^2+y^2", "x^3", "y^3")])
        assert reparsed.equals(expected)

    def test_tjurina_dimension_char3(self, capsys):
        code, out, _ = run(
            capsys, "ideal", "tjurina", "x^4+y^4+x^3", "-k", "0", "--char", "3", "--dim"
        )
        assert code == 0
        assert "dimension: 9" in out

    def test_jn_one_variable(self, capsys):
        code, out, _ = run(capsys, "ideal", "mn", "x^2", "--vars", "x", "-n", "2", "--reduced")
        assert code == 0
        assert out.split("reduced standard basis:")[1].strip() == "x^2"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "ideal", "tn", "x^2+(", "-n", "2")
        assert code == 2
        assert "parse error" in err

    def test_text_round_trip(self, capsys):
        code, out, _ = run(capsys, "ideal", "tn", "x^3+x*y^3", "-n", "2")
        assert code == 0
        ring = RingContext(("x", "y"), QQ)
        lines = out.split("generators:")[1].strip().splitlines()
        reparsed = Ideal(ring, [parse_polynomial(t.strip(), ring) for t in lines])
        from nashblowup.algebras import nash_ideal_t

        assert reparsed.equals(nash_ideal_t(parse_polynomial("x^3+x*y^3", ring), 2))

    @pytest.mark.parametrize("argv, basis", [
        (("tn", "x^3+x*y^3+y^5", "-n", "2"), ["x^3 + x*y^3 + y^5", "x^2*y^6 + 1/9*y^9", "x*y^7 + 16/9*y^9", "y^10"]),
        (("tn", "x^3+x*y^3+y^5", "-n", "2", "--char", "5"), ["x^3 + x*y^3 + y^5", "x^2*y^6 + 4*y^9", "x*y^7 + 4*y^9", "y^10"]),
        # infinite colength: Lazard's route, its basis tail-reduced below a cap
        (("tjurina", "x*y^3-y^4-x^2*y^4", "-k", "1"), ["x^2*y^2 - 4/3*x^3*y^3", "x*y^3", "y^4 + x^2*y^4"]),
    ])
    def test_reduced_prints_the_finished_basis(self, capsys, monkeypatch, argv, basis):
        # the basis is finished when --reduced reads it, and --dim alone
        # finishes none: the same elements as when every basis was finished
        # as soon as it was computed
        finished = []
        original = ideals._reduced_elements
        monkeypatch.setattr(ideals, "_reduced_elements", lambda *args: finished.append(args) or original(*args))
        code, out, _ = run(capsys, "ideal", *argv, "--dim", "--json")
        assert code == 0 and finished == []
        code, out, _ = run(capsys, "ideal", *argv, "--reduced", "--json")
        assert code == 0 and len(finished) == 1
        assert json.loads(out)["reduced_basis"] == basis

    @pytest.mark.parametrize("argv, completes", [
        # the z-axis lies in V(T_3): the dimension needs no completion
        (("tn", "x^2+y^2*z", "-n", "3"), False),
        (("tn", "x^3+y^4", "-n", "2"), True),
        (("tjurina", "x^4+y^4+x^3", "-k", "0", "--char", "3"), True),
    ])
    @pytest.mark.parametrize("json_output", [False, True])
    def test_dim_alone_prints_the_reduced_output_less_the_basis(self, capsys, monkeypatch, argv, completes, json_output):
        extra = ("--json",) if json_output else ()
        code, reduced, _ = run(capsys, "ideal", *argv, "--reduced", "--dim", *extra)
        assert code == 0
        runs = []
        original = ideals._run_completion
        monkeypatch.setattr(ideals, "_run_completion", lambda *args: runs.append(args[2]) or original(*args))
        code, alone, _ = run(capsys, "ideal", *argv, "--dim", *extra)
        assert code == 0
        assert bool(runs) == completes
        if json_output:
            obj = json.loads(reduced)
            del obj["reduced_basis"]
            assert alone == json.dumps(obj, sort_keys=True) + "\n"
        else:
            head, rest = reduced.split("reduced standard basis:\n")
            assert alone == head + rest[rest.index("dimension: "):]


class TestInvariantsCommand:
    def test_cusp_text(self, capsys):
        code, out, _ = run(capsys, "invariants", "x^3+y^2")
        assert code == 0
        assert "mt  = 2" in out
        assert "tau = 2" in out

    def test_non_isolated(self, capsys):
        code, out, _ = run(capsys, "invariants", "x^2", "--vars", "x,y")
        assert code == 0
        assert "tau = infinite" in out

    def test_smooth(self, capsys):
        code, out, _ = run(capsys, "invariants", "x")
        assert code == 0
        assert "mt  = 1" in out and "tau = 0" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "invariants", "x^3+y^2", "--json", "--n-max", "2", "--k-max", "1")
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"f", "char", "mt", "tau", "dimTn", "dimTk", "gpBound"}
        assert obj["mt"] == 2 and obj["tau"] == 2
        assert set(obj["dimTn"]) == {"1", "2"}

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "invariants", "x^3+y^4", "--json")
        _, out2, _ = run(capsys, "invariants", "x^3+y^4", "--json")
        assert out1 == out2

    def test_invalid_characteristic(self, capsys):
        code, _, err = run(capsys, "invariants", "x", "--char", "6")
        assert code == 3
        assert "characteristic" in err


class TestVariables:
    @pytest.mark.parametrize("verb", [("matrix",), ("ideal", "mn"), ("invariants",), ("check", "samuel")])
    @pytest.mark.parametrize(
        "names, message",
        [
            (",", "configuration error: --vars must name at least one variable"),
            ("x,x", "configuration error: --vars must be distinct"),
            ("1x", "error: invalid variable name '1x'"),
        ],
    )
    def test_invalid_vars_are_config_errors(self, capsys, verb, names, message):
        code, out, err = run(capsys, *verb, "x", "--vars", names)
        assert code == 3
        assert out == ""
        assert err == message + "\n"

    def test_empty_names_are_skipped(self, capsys):
        code, out, _ = run(capsys, "ideal", "mn", "x*y", "--vars", "x,,y", "--json")
        assert code == 0
        assert json.loads(out)["vars"] == ["x", "y"]


class TestCheckCommand:
    def test_explicit_invariance_passes(self, capsys):
        code, out, _ = run(
            capsys, "check", "invariance", "x*y", "--auto", "x+y^2;y", "--unit", "1", "-n", "2"
        )
        assert code == 0
        assert "PASS" in out

    def test_inclusions_pass(self, capsys):
        code, out, _ = run(capsys, "check", "inclusions", "x^3+y^3", "-n", "2")
        assert code == 0
        assert out.count("PASS") == 4

    def test_samuel_failure_exit_code(self, capsys):
        code, out, _ = run(capsys, "check", "samuel", "x^3+y^3", "x^3+y^3+x^3")
        assert code == 1
        assert "not congruent" in out

    def test_samuel_pass(self, capsys):
        code, out, _ = run(capsys, "check", "samuel", "x^3+y^3", "x^3+y^3+x^5")
        assert code == 0

    @pytest.mark.parametrize("g, code, verdict", [
        ("x^3+y^3+x^5", 0, "congruent"),
        ("x^3+y^3+x^3", 1, "not congruent"),
    ])
    def test_samuel_json(self, capsys, g, code, verdict):
        # one sort-keys object, with the text form's exit codes
        got, out, _ = run(capsys, "check", "samuel", "x^3+y^3", g, "--json")
        assert got == code
        assert out == json.dumps({"f": "x^3 + y^3", "g": str(parse_polynomial(g, RingContext(("x", "y"), QQ))),
                                  "verdict": verdict}, sort_keys=True) + "\n"

    def test_randomized_seed_reported(self, capsys):
        code, out, _ = run(
            capsys, "check", "invariance", "x^2+y^3", "--trials", "2", "--seed", "11"
        )
        assert code == 0
        assert "seed: 11" in out

    def test_randomized_json_replayable(self, capsys):
        args = ("check", "invariance", "x*y", "--trials", "2", "--seed", "4", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["failures"] == []
        assert obj["char"] == 0
        assert all(set(c) == {"kind", "seed", "f", "n", "pass"} for c in obj["checks"])

    @pytest.mark.parametrize("extra", [(), ("--auto", "x+y^2;y"), ("--unit", "1+x")])
    def test_json_names_the_field(self, capsys, extra):
        # over Q and F_3 the checks of x^3+y^3 pass alike; the report tells the runs apart
        args = ("check", "invariance", "x^3+y^3", "--trials", "2", "--seed", "3", "--json", *extra)
        chars = [json.loads(run(capsys, *args, "--char", p)[1])["char"] for p in ("0", "3")]
        assert chars == [0, 3]

    def test_unknown_flag_is_config_error(self, capsys):
        code, _, err = run(capsys, "check", "invariance", "x*y", "--bogus")
        assert code == 3

    def test_samuel_without_g_is_config_error(self, capsys):
        code, out, err = run(capsys, "check", "samuel", "x^2+y^3")
        assert code == 3
        assert out == ""
        assert "samuel needs a second germ g" in err

    @pytest.mark.parametrize("extra", [(), ("--auto", "x+y^2;y"), ("--unit", "1+x")])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_order_below_one_is_config_error(self, capsys, n, extra):
        # the randomized harness and an explicit transform reject it alike
        code, out, err = run(capsys, "check", "invariance", "x^2+y^3", "-n", n, "--json", *extra)
        assert code == 3
        assert out == ""
        assert "configuration error: n must be >= 1" in err

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_randomized_harness_checks_orders_up_to_n(self, capsys, n):
        # each trial draws its order from 1..n; at this seed all of them come up
        args = ("check", "invariance", "x^2+y^3", "-n", str(n), "--trials", "4", "--json")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert {c["n"] for c in json.loads(out)["checks"]} == set(range(1, n + 1))

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_is_config_error(self, capsys, trials):
        code, out, err = run(capsys, "check", "invariance", "x^2+y^3", "--trials", trials)
        assert code == 3
        assert out == ""
        assert "trials must be >= 1" in err


class TestUndecided:
    def test_escalation_out_of_rounds_exits_4(self, capsys, monkeypatch):
        # x^2*y + x^3*y against (x^2*y) reaches the membership escalation
        def out_of_rounds(f, gens):
            raise ideals.MembershipUndecided(12, 454)

        monkeypatch.setattr(ideals, "_escalated_membership", out_of_rounds)
        code, out, err = run(capsys, "check", "samuel", "x^2*y", "x^2*y+x^3*y")
        assert code == cli.EXIT_UNDECIDED == 4
        assert out == ""
        assert err == "undecided: membership not decided after 12 escalation rounds (last cap 454)\n"

    def test_refutation_out_of_budget_exits_4(self, capsys, completion_runs):
        # over Q the coefficients of this germ's refutations grow past the
        # capped runs' budget, which every run inside the escalation receives
        code, out, err = run(capsys, "check", "inclusions", "3*y^4+x^5*y^2+2*x^2*y^2", "-n", "3")
        assert code == cli.EXIT_UNDECIDED == 4
        assert out == ""
        assert err == ("undecided: membership not decided: the refutation at cap 57 ran out of its budget"
                       " of 400000 in escalation round 2\n")
        refutations = [budget for _, budget, escalating in completion_runs if escalating]
        assert refutations and None not in refutations


class TestCorpusCommand:
    def test_filtered_run(self, capsys):
        code, out, _ = run(capsys, "corpus", "--filter", "pair")
        assert code == 0
        assert "pair-char3/order2-separates" in out
        assert "FAIL" not in out

    def test_json_filtered(self, capsys):
        code, out, _ = run(capsys, "corpus", "--filter", "tjurina", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert obj["count"] == len(obj["fixtures"]) > 0

    def test_full_json_bytes_pinned(self, capsys):
        # the whole corpus report, byte for byte: every fixture's ideals,
        # bases and dimensions as the library has printed them all along
        code, out, _ = run(capsys, "corpus", "--json")
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == "ef5a7b7f32f18d058f84fbe5f95c2180"


class TestOneVerbParser:
    # main builds only the parser of a known verb; help, usage and error
    # text must match what the full parser prints
    CASES = [
        (),
        ("-h",),
        ("--help",),
        ("frobnicate", "x"),
        ("ide", "tn", "x"),
        ("--",),
        ("--", "ideal", "tn", "x"),
        ("matrix", "-h"),
        ("matrix",),
        ("matrix", "x*y", "-n", "two"),
        ("matrix", "x*y", "--char", "q"),
        ("matrix", "x*y", "--bogus"),
        ("ideal", "-h"),
        ("ideal", "tn", "x^2+y^3", "--help"),
        ("ideal", "xx", "f"),
        ("ideal", "tn"),
        ("ideal", "tn", "x^2+y^3", "-n", "2.5"),
        ("ideal", "tn", "x^2+y^3", "extra"),
        ("invariants", "-h"),
        ("invariants",),
        ("invariants", "x^3+y^2", "--n-max", "x"),
        ("invariants", "x^3+y^2", "--k-max"),
        ("invariants", "x^3+y^2", "--bogus", "1"),
        ("check", "-h"),
        ("check", "xx", "f"),
        ("check", "inclusions"),
        ("check", "inclusions", "x^3+y^3", "-n", "x"),
        ("check", "samuel", "x^3+y^3", "x^3", "y^3"),
        ("corpus", "-h"),
        ("corpus", "pair"),
        ("corpus", "--filter"),
        ("corpus", "--json", "--bogus"),
        # a germ that starts with a minus sign goes after --, as in
        # scripts/slow_inputs.py
        ("ideal", "mn", "-n", "2", "--dim", "--", "-x^3-y^4"),
        ("invariants", "--", "-x^2-y^3"),
        ("invariants", "x^2", "--", "--json"),
    ]

    class NoVerbKnown(dict):
        """The verb table as main reads it when it takes no verb for known,
        so that every argv goes to the full parser."""

        def __contains__(self, name):
            return False

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # help exits from inside parse_args
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def count_parsers(monkeypatch) -> list[str]:
        """A list that collects the prog of each cli._Parser built."""
        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["prog"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        return built

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a) or "<none>")
    def test_matches_full_parser(self, capsys, monkeypatch, argv):
        got = self.outcome(capsys, argv)
        monkeypatch.setattr(cli, "_VERBS", self.NoVerbKnown(cli._VERBS))
        assert got == self.outcome(capsys, argv)
        assert got[1] or got[2]

    @pytest.mark.parametrize("verb", ["matrix", "ideal", "invariants", "check", "corpus"])
    def test_known_verb_builds_its_subparser_only(self, capsys, monkeypatch, verb):
        built = self.count_parsers(monkeypatch)
        self.outcome(capsys, (verb, "-h"))
        self.outcome(capsys, ("-h",))
        assert built == [f"nashblowup {verb}", "nashblowup", *(f"nashblowup {name}" for name in cli._VERBS)]

    @pytest.mark.parametrize("argv", [("invariants", "-h"), ("-h",)], ids=["verb", "full"])
    def test_terminal_size_read_once_per_build(self, capsys, monkeypatch, argv):
        # argparse's HelpFormatter reads the terminal size whenever it is
        # built without a width, once per add_argument
        calls = []
        get_terminal_size = shutil.get_terminal_size

        def counting(*args, **kwargs):
            calls.append(args)
            return get_terminal_size(*args, **kwargs)

        monkeypatch.setattr(shutil, "get_terminal_size", counting)
        self.outcome(capsys, argv)
        assert len(calls) == 1

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["nashblowup", "invariants", "x^3+y^2", "--json"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["tau"] == 2


def slow_invocations() -> tuple[tuple[str, ...], ...]:
    """The invocations of scripts/slow_inputs.py, read without running them."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "slow_inputs.py"
    spec = importlib.util.spec_from_file_location("slow_inputs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.INVOCATIONS


@pytest.mark.parametrize("argv", slow_invocations(), ids=" ".join)
def test_every_slow_input_parses(argv):
    # parsing only: a mistyped flag raises ConfigError, and nothing is computed
    args = cli._verb_parser(argv[0]).parse_args(argv[1:])
    assert args.func is getattr(cli, f"cmd_{argv[0]}")
