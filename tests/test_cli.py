"""CLI dispatch: exit codes, JSON round-trips, CSV shape, error envelopes."""

import argparse
import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import quadratica
from quadratica import cli, goldbach, intmath
from quadratica.cli import main
from quadratica.fibgroup import Case, residue_power_sum
from quadratica.qfield import QuadElem, parse_quad


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment for a child interpreter that imports this checkout's quadratica."""
    env = dict(os.environ)
    src = str(Path(quadratica.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def refused_at_once(capsys, *argv):
    """Run argv under --json; return the InputTooLarge message after checking it came at once."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--json")
    assert time.perf_counter() - start < 1
    envelope = json.loads(err)["error"]
    assert code == 1 and out == "" and envelope["type"] == "InputTooLarge"
    return envelope["message"]


@pytest.fixture
def digit_limit_640():
    """Lower the interpreter's int-to-str digit limit to its minimum, 640, for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestSolveCommand:
    def test_text(self, capsys):
        code, out, err = run(capsys, "solve", "1", "-1", "-1")
        assert code == 0 and err == ""
        assert "RealDistinct" in out
        assert "1/2 + 1/2√5" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "solve", "1", "-1", "-1", "--json")
        assert code == 0
        payload = json.loads(out)
        r1 = QuadElem.from_dict(payload["roots"]["r1"])
        assert r1 == QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
        disc = payload["discriminant"]
        assert Fraction(disc["num"], disc["den"]) == 5

    def test_rational_coefficients(self, capsys):
        code, out, _ = run(capsys, "solve", "1/2", "-1/2", "-1/2")
        assert code == 0 and "√5" in out

    def test_domain_error_exit_1(self, capsys):
        code, out, err = run(capsys, "solve", "0", "1", "1")
        assert code == 1 and "error" in err

    def test_json_error_envelope(self, capsys):
        code, out, err = run(capsys, "solve", "0", "1", "1", "--json")
        assert code == 1
        envelope = json.loads(err)
        assert envelope["error"]["type"] == "DegenerateLeadingCoefficient"

    def test_radicand_without_small_factor_refused_in_a_child(self):
        # 10^30 + 57 has no prime factor below 10^7, so trial division stops at its limit
        proc = subprocess.run(
            [sys.executable, "-m", "quadratica", "solve", "1", "0", str(-(10**30 + 57)), "--json"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        envelope = json.loads(proc.stderr)["error"]
        assert proc.returncode == 1 and proc.stdout == ""
        assert envelope["type"] == "InputTooLarge" and str(4 * (10**30 + 57)) in envelope["message"]

    def test_solve_loads_only_the_modules_it_runs_in_a_child(self):
        # what the bare child already holds is left out: site may preload modules on some hosts
        script = (
            "import sys\n"
            "bare = set(sys.modules)\n"
            "def package(): return sorted(m for m in sys.modules if m.partition('.')[0] == 'quadratica')\n"
            "import quadratica, quadratica.cli\n"
            "on_import, added = package(), sorted(set(sys.modules) - bare)\n"
            "quadratica.cli.main(['solve', '1', '-1', '-1'])\n"
            "import json\n"
            "print(json.dumps([on_import, package(), added]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        on_import, after_solve, added = json.loads(proc.stdout.splitlines()[-1])
        names = ("_record", "cli", "errors", "intmath", "qfield", "solver")
        modules = ["quadratica"] + [f"quadratica.{name}" for name in names]
        assert on_import == after_solve == modules
        assert not {"dataclasses", "inspect", "json", "csv"} & set(added), added

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "1", "2"])
        assert exc.value.code == 2

    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--json", "goldbach", "witness", "24"),
            ("goldbach", "--json", "witness", "24"),
            ("goldbach", "witness", "24", "--json"),
            ("--format", "json", "goldbach", "witness", "24"),
        ],
    )
    def test_format_flag_at_every_level(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["p"] == 13

    def test_last_format_flag_wins_at_any_level(self, capsys):
        code, out, _ = run(capsys, "--json", "fib", "group", "--case", "III", "--csv")
        assert code == 0 and list(csv.reader(io.StringIO(out)))[0][0] == ""
        code, out, _ = run(capsys, "--format", "csv", "fib", "group", "--case", "III", "--json")
        assert code == 0 and json.loads(out)["order"] == 6

    def test_namespace_has_one_format_and_one_action(self):
        args = cli.build_parser().parse_args(["--csv", "fib", "--json", "group", "--case", "III"])
        assert args.format == "json" and args.action == "group" and args.run is cli._cmd_fib
        assert not {"json", "csv", "fib_action"} & set(vars(args))

    def test_root_flags_reach_the_command(self, capsys, tmp_path):
        target = tmp_path / "roots.json"
        code, out, _ = run(capsys, "--json", "--out", str(target), "solve", "1", "-1", "-1")
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["roots"]["kind"] == "RealDistinct"

    def test_rowless_csv_is_a_handler_error(self, capsys):
        code, out, err = run(capsys, "goldbach", "witness", "24", "--csv")
        assert code == 1 and out == ""
        assert err == "error: this command has no CSV form\n"


class TestNumberArguments:
    """argparse reads every rational and field-element argument; what it cannot read is a usage error."""

    def test_oversized_literals_refused_at_once_in_a_child(self):
        script = (
            "import contextlib, io, json, sys, time\n"
            "from quadratica.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    err = io.StringIO()\n"
            "    start = time.perf_counter()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        try:\n"
            "            code = main(argv + ['--json'])\n"
            "        except SystemExit as exc:\n"
            "            code = exc.code\n"
            "    print(json.dumps([code, time.perf_counter() - start, err.getvalue()]))\n"
        )
        argvs = [
            ["solve", "1e5000", "1", "1"],
            ["solve", "1e-5000", "1", "1"],
            ["solve", "1e20000", "1", "1"],
            ["goldbach", "witness", str(10**300)],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            capture_output=True, text=True, env=child_env(), timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        results = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(results) == len(argvs)
        for argv, (code, elapsed, err) in zip(argvs, results):
            assert elapsed < 1, argv
            assert code == 2 or (code == 1 and json.loads(err)["error"]["type"] == "InputTooLarge"), (argv, err)

    def test_exponent_bounded_by_the_digit_limit(self, capsys):
        # 1e(L-1) has L digits written out and is read; 1e(L) and 1e-(L) have L + 1
        limit = cli._digit_limit()
        code, out, _ = run(capsys, "qfield", "coords", f"1e{limit - 1}")
        assert code == 0 and out == f"({10 ** (limit - 1)}, 0)\n"
        for literal in (f"1e{limit}", f"1e-{limit}"):
            with pytest.raises(SystemExit) as exc:
                main(["qfield", "coords", literal])
            assert exc.value.code == 2
            assert f"argument z: {literal} has {limit + 1} digits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,name,literal",
        [
            (["solve", "LITERAL", "1", "1"], "a", "9" * 641),
            (["solve", "LITERAL", "1", "1"], "a", "1e" + "9" * 641),
            (["qfield", "conj", "LITERAL"], "z", "9" * 641 + " + √5"),
        ],
        ids=["integer", "exponent", "field-element"],
    )
    def test_digit_run_past_the_limit_refused_in_its_own_words(self, capsys, digit_limit_640, argv, name, literal):
        with pytest.raises(SystemExit) as exc:
            main([literal if arg == "LITERAL" else arg for arg in argv])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and len(err) < 1000
        assert f"argument {name}: {literal[:20]}... has 641 digits in a row; at most 640 are allowed" in err

    @pytest.mark.parametrize(
        "argv,name",
        [(["fib", "value", "LITERAL"], "n"), (["cong", "legendre", "2", "LITERAL"], "p")],
    )
    def test_integer_past_the_limit_refused_in_its_own_words(self, capsys, argv, name):
        limit = cli._digit_limit()
        literal = "7" * (limit + 700)
        with pytest.raises(SystemExit) as exc:
            main([literal if arg == "LITERAL" else arg for arg in argv])
        err = capsys.readouterr().err
        # argparse's own int reader echoed the whole literal back
        assert exc.value.code == 2 and len(err.encode()) < 300
        assert f"argument {name}: {literal[:20]}... has {limit + 700} digits in a row" in err

    @pytest.mark.parametrize("digits", ["0", "31", "-1", "x"])
    def test_precision_outside_its_range_is_a_usage_error(self, capsys, digits):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "1", "-1", "-1", "--precision", digits])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "argument --precision: " in err

    @pytest.mark.parametrize(
        "literal,message",
        [("x", "Invalid literal for Fraction: 'x'"), ("1/0", "Fraction(1, 0)")],
    )
    def test_unreadable_literal_names_its_argument(self, capsys, literal, message):
        with pytest.raises(SystemExit) as exc:
            main(["solve", literal, "1", "1", "--json"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument a: {message}" in err and "Traceback" not in err

    def test_undecidable_radicand_is_a_usage_error(self, capsys, monkeypatch):
        # as in test_intmath's TestTrialDivisionLimit: three primes above the limit
        monkeypatch.setattr(intmath, "_TRIAL_DIVISION_LIMIT", 10)
        with pytest.raises(SystemExit) as exc:
            main(["qfield", "conj", f"1 + √{3 * 1009 * 1013 * 1019}"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "argument z: cannot find the square part" in err and "Traceback" not in err

    @pytest.mark.parametrize("literal", ["-1e5", "-2.5E-3", "-.5", "-5.", "-1_000", "-1/2", "-7"])
    def test_every_negative_rational_is_a_value(self, capsys, literal):
        code, out, _ = run(capsys, "qfield", "coords", literal)
        assert code == 0 and out == f"({Fraction(literal)}, 0)\n"

    def test_negative_field_element_is_a_value(self, capsys):
        code, out, _ = run(capsys, "qfield", "conj", "-√5")
        assert code == 0 and out == "conjugate: √5\nnorm: -5\n"


class TestQfieldCommands:
    def test_make_and_parse_back(self, capsys):
        code, out, _ = run(capsys, "qfield", "make", "1/2", "1/2", "5")
        assert code == 0
        assert parse_quad(out.strip()) == QuadElem(Fraction(1, 2), Fraction(1, 2), 5)

    def test_op(self, capsys):
        code, out, _ = run(capsys, "qfield", "op", "mul", "1/2 + 1/2√5", "1/2 - 1/2√5")
        assert code == 0 and out.strip() == "-1"

    def test_mixed_radicands_error(self, capsys):
        code, _, err = run(capsys, "qfield", "op", "add", "√2", "√3")
        assert code == 1 and "error" in err

    def test_conj(self, capsys):
        code, out, _ = run(capsys, "qfield", "conj", "3 + 2√7")
        assert code == 0 and "norm: -19" in out

    def test_sqrt_degenerate(self, capsys):
        code, _, err = run(capsys, "qfield", "sqrt", "9", "--json")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "PerfectSquareRadicand"


class TestFibCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "fib", "reduce", "--case", "I", "--n", "5")
        assert code == 0 and "5*x + 3" in out

    def test_group_json(self, capsys):
        code, out, _ = run(capsys, "fib", "group", "--case", "III", "--json")
        payload = json.loads(out)
        assert payload["order"] == 6
        assert len(payload["table"]) == 6
        for row in payload["table"]:
            assert sorted(row) == list(range(6))

    def test_sum(self, capsys):
        code, out, _ = run(capsys, "fib", "sum", "--case", "IV", "--n", "2")
        assert code == 0 and out.strip().endswith("-1")

    @pytest.mark.parametrize("case", ["III", "IV"])
    def test_root_of_unity_sum_has_no_cap(self, capsys, case):
        # the closed form takes about log2(n) field multiplications
        n = 10**18
        start = time.perf_counter()
        code, out, err = run(capsys, "fib", "sum", "--case", case, "--n", str(n))
        assert time.perf_counter() - start < 1
        assert code == 0 and err == ""
        assert out == f"sum_{{k=1}}^{n} x^k = {residue_power_sum(Case(case), n)}\n"

    # the largest n whose output has no integer of more than 640 digits
    @pytest.mark.parametrize(
        "argv,bound",
        [
            (["fib", "reduce", "--case", "I", "--n"], 3064),
            (["fib", "reduce", "--case", "II", "--n"], 3064),
            (["fib", "sum", "--case", "I", "--n"], 3060),
            (["fib", "sum", "--case", "II", "--n"], 3063),
            (["metallic", "ledger", "--n"], 3062),
        ],
    )
    def test_index_bounded_by_the_digit_limit(self, capsys, digit_limit_640, argv, bound):
        code, out, _ = run(capsys, *argv, str(bound))
        assert code == 0 and out
        code, out, err = run(capsys, *argv, str(bound + 1), "--json")
        envelope = json.loads(err)["error"]
        assert code == 1 and out == ""
        assert envelope["type"] == "InputTooLarge" and f"<= {bound}" in envelope["message"]


class TestGoldbachCommands:
    def test_witness(self, capsys):
        code, out, _ = run(capsys, "goldbach", "witness", "24")
        assert code == 0 and "24 = 13 + 11" in out

    def test_witness_json(self, capsys):
        code, out, _ = run(capsys, "goldbach", "witness", "100", "--json")
        payload = json.loads(out)
        assert (payload["I"], payload["p"], payload["q"]) == (3, 53, 47)

    def test_verify_with_report(self, capsys, tmp_path):
        report = tmp_path / "w.csv"
        code, out, _ = run(capsys, "goldbach", "verify", "--to", "2000", "--report", str(report))
        assert code == 0 and "verified 999" in out
        with report.open() as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["N", "I_min", "p", "q"]
        assert len(rows) == 1000

    def test_verify_json_histogram(self, capsys):
        code, out, _ = run(capsys, "goldbach", "verify", "--to", "2000", "--json")
        payload = json.loads(out)
        want = Counter(goldbach.find_witness(n).I for n in range(4, 2001, 2))
        assert code == 0 and {i: count for i, count in payload["histogram"]} == want
        assert payload["histogram"][-1][0] == payload["max_I"]

    def test_areas_json(self, capsys):
        code, out, _ = run(capsys, "goldbach", "areas", "17", "7", "--json")
        payload = json.loads(out)
        assert Fraction(payload["A_s"]["num"], payload["A_s"]["den"]) == Fraction(500, 3)
        assert payload["I"] == 5

    def test_areas_tests_each_prime_once(self, capsys, monkeypatch):
        tested = []

        def counting_is_prime(n):
            tested.append(n)
            return intmath.is_prime(n)

        monkeypatch.setattr(goldbach, "is_prime", counting_is_prime)
        p, q = 2**61 - 1, 2**31 - 1  # both past any sieve the suite builds
        code, out, _ = run(capsys, "goldbach", "areas", str(p), str(q))
        assert code == 0 and f"I = {(p - q) // 2}" in out
        assert tested == [p, q]

    def test_odd_target_fails(self, capsys):
        code, _, err = run(capsys, "goldbach", "witness", "7")
        assert code == 1

    def test_verify_to_bounded(self, capsys):
        code, out, err = run(capsys, "goldbach", "verify", "--to", str(10**8 + 1), "--json")
        envelope = json.loads(err)["error"]
        assert code == 1 and out == ""
        assert envelope["type"] == "InputTooLarge" and f"<= {10**8}" in envelope["message"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["cong", "legendre", "2", str(2**4096 + 1)], "moduli have at most 4096 bits, got 4097"),
            (["cong", "twosquares", str(2**4096 + 1)], "moduli have at most 4096 bits, got 4097"),
            (["goldbach", "areas", str(2**4096 + 1), "3"], "pair primes have at most 4096 bits, got 4097"),
        ],
    )
    def test_prime_arguments_bounded_by_their_bits(self, capsys, argv, message):
        # is_prime took ~3.8 s on 2^9689 - 1, and the digit limit lets an argument reach ~14,000 bits
        assert refused_at_once(capsys, *argv) == message

    def test_witness_all_bounded_by_the_sieve_cap(self, capsys):
        code, out, err = run(capsys, "goldbach", "witness", str(10**7 + 2), "--all", "--json")
        envelope = json.loads(err)["error"]
        assert code == 1 and out == ""
        assert envelope["type"] == "InputTooLarge" and f"<= {10**7}" in envelope["message"]


class TestPerfectCommands:
    def test_preimage(self, capsys):
        code, out, _ = run(capsys, "perfect", "preimage", "33550336")
        assert code == 0 and "x1 = 4095" in out

    def test_table_max_exp_bounded(self, capsys):
        code, out, err = run(capsys, "perfect", "table", "--max-exp", "2001", "--json")
        envelope = json.loads(err)["error"]
        assert code == 1 and out == ""
        assert envelope["type"] == "InputTooLarge" and "<= 2000" in envelope["message"]

    def test_table_csv(self, capsys):
        code, out, _ = run(capsys, "perfect", "table", "--max-exp", "7", "--csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "p"
        assert ["5", "31", "15", "-33/2", "496", "True"] in rows

    def test_plot_steps_bounded(self, capsys):
        # 10^5 + 1 steps of 1/100; refused before any row is built
        argv = ["perfect", "plot", "--from", "0", "--to", "100001/100", "--step", "1/100", "--json"]
        code, out, err = run(capsys, *argv)
        envelope = json.loads(err)["error"]
        assert code == 1 and out == ""
        assert envelope["type"] == "InputTooLarge" and f"at most {10**5} steps" in envelope["message"]

    def test_plot_past_the_float_range_refused_before_output(self, capsys):
        # f(9e153) fits a float, f(1e154) = 2e308 does not
        argv = ["perfect", "plot", "--from", "9e153", "--to", "1e154", "--step", "1e151"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err == "error: perfect plot values would pass the float range\n"

    def test_plot_strictly_increasing(self, capsys):
        code, out, _ = run(
            capsys, "perfect", "plot", "--from", "-2", "--to", "1", "--step", "1/100", "--csv"
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        xs = [float(r[0]) for r in rows]
        assert len(xs) == 301
        assert all(b > a for a, b in zip(xs, xs[1:]))
        assert xs[0] == -2.0 and xs[-1] == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            # printed "1,6" 101 times
            ["perfect", "plot", "--from", "1", "--to", "1.0000000000001", "--step", "0.000000000000001"],
            # printed x = -2 twice
            ["perfect", "plot", "--step", "1/3", "--precision", "1"],
            # printed 189 distinct x values in 1001 rows
            ["geom", "trajectory", "10", "0.785398", "--samples", "1000", "--precision", "2"],
            # one unit apart: 3/2 and 5/2 both round to 2
            ["perfect", "plot", "--from", "3/2", "--to", "5/2", "--step", "1", "--precision", "1"],
            # 20 digits, but x values closer than a float's spacing share a float
            ["perfect", "plot", "--from", "1", "--to", "1.0000000000000002", "--step", "1e-17", "--precision", "20"],
        ],
    )
    def test_sampler_step_the_precision_cannot_print_apart_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--csv")
        assert code == 1 and out == "" and "is below" in err
        code, out, err = run(capsys, *argv, "--json")
        if argv[0] == "perfect":  # its JSON holds the rows too
            assert code == 1 and out == "" and json.loads(err)["error"]["type"] == "IndistinctSamples"
        else:  # the trajectory prints its samples only as CSV
            assert code == 0 and "range" in json.loads(out)

    def test_accepted_steps_print_strictly_increasing(self, capsys):
        # steps around the least the refusal allows, over random starts and precisions
        rng = random.Random(20)
        accepted = 0
        for _ in range(300):
            precision = rng.randint(1, 20)
            start = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) * Fraction(10) ** rng.randint(-8, 8)
            unit = Fraction(10) ** (len(str(abs(start.numerator) // start.denominator)) - min(precision, 15) + 1)
            step = unit * Fraction(rng.randint(1, 40), 10)
            argv = ["perfect", "plot", "--from", str(start), "--to", str(start + 20 * step), "--step", str(step)]
            code, out, _ = run(capsys, *argv, "--precision", str(precision), "--csv")
            if code == 0:
                accepted += 1
                xs = [float(row[0]) for row in list(csv.reader(io.StringIO(out)))[1:]]
                assert len(xs) == 21 and all(b > a for a, b in zip(xs, xs[1:])), argv
        assert accepted > 100

    def test_areas(self, capsys):
        code, out, _ = run(capsys, "perfect", "areas", "-1", "-1/2")
        assert code == 0 and "axis area: 1/24" in out


class TestOtherCommands:
    def test_fib_value(self, capsys):
        code, out, _ = run(capsys, "fib", "value", "6")
        assert code == 0 and out.strip() == "13"

    def test_fib_value_bounded_by_the_digit_limit(self, capsys, monkeypatch):
        # fib(n) is printed in full, so the index cap follows the interpreter's
        # int-to-str digit limit: fib(15) = 987 has 3 digits, fib(16) = 1597 has 4
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 3, raising=False)
        code, out, _ = run(capsys, "fib", "value", "15")
        assert code == 0 and out.strip() == "987"
        code, out, err = run(capsys, "fib", "value", "16", "--json")
        envelope = json.loads(err)["error"]
        assert code == 1 and out == ""
        assert envelope["type"] == "InputTooLarge" and "<= 15" in envelope["message"]

    def test_digit_cap_holds_without_an_interpreter_limit_in_a_child(self):
        # PYTHONINTMAXSTRDIGITS=0 lifts the interpreter's limit; the CLI still caps at 4300 digits
        script = (
            "import contextlib, io, json, sys\n"
            "from quadratica.cli import main\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        try:\n"
            "            code = main(argv)\n"
            "        except SystemExit as exc:\n"
            "            code = exc.code\n"
            "    results.append([code, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(results))\n"
        )
        argvs = [["fib", "value", "30000"], ["metallic", "ledger", "--n", "30000"], ["qfield", "op", "add", "1e5000", "2"]]

        def refusals(**extra):
            env = child_env()
            env.pop("PYTHONINTMAXSTRDIGITS", None)
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(argvs)],
                capture_output=True, text=True, env={**env, **extra}, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        default = refusals()
        assert [code for code, _, _ in default] == [1, 1, 2] and all(out == "" for _, out, _ in default)
        assert refusals(PYTHONINTMAXSTRDIGITS="0") == default

    def test_qfield_coords(self, capsys):
        code, out, _ = run(capsys, "qfield", "coords", "1/2 + 1/2√5")
        assert code == 0 and out.strip() == "(1/2, 1/2)"

    def test_qfield_sqrt(self, capsys):
        code, out, _ = run(capsys, "qfield", "sqrt", "12")
        assert code == 0 and "2√3" in out

    def test_metallic_classify(self, capsys):
        code, out, _ = run(capsys, "metallic", "classify", "5", "--json")
        payload = json.loads(out)
        assert payload["family"] == "RealFamily" and payload["n"] == 1

    def test_metallic_creation(self, capsys):
        code, out, _ = run(capsys, "metallic", "creation", "13")
        assert code == 0 and out.strip().endswith("7")

    def test_metallic_trig(self, capsys):
        code, out, _ = run(capsys, "metallic", "trig", "--json")
        assert json.loads(out)["ok"] is True

    def test_cong_legendre_and_sqrt(self, capsys):
        code, out, _ = run(capsys, "cong", "legendre", "-1", "5")
        assert code == 0 and out.strip() == "1"
        code, out, _ = run(capsys, "cong", "sqrt", "2", "7", "--json")
        assert json.loads(out)["roots"] == [3, 4]

    def test_goldbach_hypotenuse(self, capsys):
        code, out, _ = run(capsys, "goldbach", "hypotenuse", "6", "5", "--json")
        payload = json.loads(out)
        assert (payload["H"], payload["class"]) == (169, "PrimeSquare")

    def test_goldbach_hypotenuse_refuses_n_below_one(self, capsys):
        code, out, err = run(capsys, "goldbach", "hypotenuse", "0", "1", "--json")
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "NonPositiveParameter"

    def test_goldbach_hypotenuse_bounded_by_bit_length(self, capsys):
        # H = 2^(2l) + 1 is estimated at 2l * 2 bits: 4096 at l = 1024, 4100 at l = 1025
        code, out, _ = run(capsys, "goldbach", "hypotenuse", "1", "1", "1024", "--json")
        assert code == 0 and json.loads(out)["H"] == 2**2048 + 1
        assert "at most 4096" in refused_at_once(capsys, "goldbach", "hypotenuse", "1", "1", "1025")
        # without the bound this would build a billion-bit power before testing it
        assert "at most 4096" in refused_at_once(capsys, "goldbach", "hypotenuse", "1", "1", str(10**9))

    def test_metallic_table_bounded(self, capsys):
        assert f"<= {10**4}" in refused_at_once(capsys, "metallic", "table", "--max-p", str(10**4 + 1))

    @pytest.mark.parametrize(
        "argv",
        [["geom", "platonic", "cube", "--edge", "1e120"], ["geom", "platonic", "icosa", "--edge", "5e102"],
         ["geom", "goldencut", "1e400"]],
    )
    def test_geom_past_the_float_range_refused_before_output(self, capsys, argv):
        # 5e102 fits every exact value's float, but the icosahedron's volume comes out as inf
        code, out, err = run(capsys, *argv, "--json")
        message = f"{argv[0]} {argv[1]} values would pass the float range"
        assert code == 1 and out == "" and json.loads(err)["error"] == {"type": "InputTooLarge", "message": message}

    @pytest.mark.parametrize(
        "argv", [["geom", "platonic", "cube", "--edge", "1e-200"], ["geom", "goldencut", "1e-400"]]
    )
    def test_geom_below_the_float_range_refused_before_output(self, capsys, argv):
        # these printed their volume, or a and b, as "= 0"
        code, out, err = run(capsys, *argv, "--json")
        message = f"{argv[0]} {argv[1]} values would round to 0 as floats"
        assert code == 1 and out == "" and json.loads(err)["error"] == {"type": "InputTooLarge", "message": message}

    def test_geom_goldencut(self, capsys):
        code, out, _ = run(capsys, "geom", "goldencut", "1", "--json")
        payload = json.loads(out)
        assert QuadElem.from_dict(payload["a"]) == QuadElem(Fraction(-1, 2), Fraction(1, 2), 5)

    def test_pnum_associate(self, capsys):
        code, out, _ = run(capsys, "pnum", "associate", "1234")
        assert code == 0 and "4x1" in out

    def test_metallic_table_json(self, capsys):
        code, out, _ = run(capsys, "metallic", "table", "--max-p", "4", "--json")
        payload = json.loads(out)
        sigmas = [QuadElem.from_dict(row["sigma"]) for row in payload["table"]]
        assert sigmas[1] == QuadElem(1, 1, 2)  # silver: 1 + sqrt(2)

    def test_metallic_ledger_flags_row_six(self, capsys):
        code, out, _ = run(capsys, "metallic", "ledger", "--n", "8", "--json")
        payload = json.loads(out)
        row6 = next(r for r in payload["ledger"] if r["n"] == 6)
        assert (row6["coeff"], row6["const"]) == (8, 5)
        assert row6["errata_id"] == "phi-sixth-power"

    def test_cong(self, capsys):
        code, out, _ = run(capsys, "cong", "solve", "1", "1", "1", "7", "--json")
        assert json.loads(out)["roots"] == [2, 4]

    def test_cong_twosquares_error(self, capsys):
        code, _, err = run(capsys, "cong", "twosquares", "7", "--json")
        assert code == 1 and json.loads(err)["error"]["type"] == "NotRepresentable"

    def test_pnum(self, capsys):
        code, out, _ = run(capsys, "pnum", "parabola", "7", "3", "--json")
        payload = json.loads(out)
        assert Fraction(payload["parabola"]["b"]["num"], payload["parabola"]["b"]["den"]) == -10

    def test_geom_trajectory_csv(self, capsys):
        code, out, _ = run(capsys, "geom", "trajectory", "10", "0.7853981633974483", "--csv", "--samples", "5")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        xs = [float(r[0]) for r in rows]
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_geom_trajectory_samples_bounded(self, capsys):
        code, out, err = run(capsys, "geom", "trajectory", "10", "0.5", "--samples", str(10**5 + 1), "--json")
        envelope = json.loads(err)["error"]
        assert code == 1 and out == ""
        assert envelope["type"] == "InputTooLarge" and f"<= {10**5}" in envelope["message"]

    @pytest.mark.parametrize("argv", [["nan", "0.785398"], ["10", "0.785398", "1e-320"], ["1e200", "0.785398"]])
    def test_geom_trajectory_refuses_non_finite(self, capsys, argv):
        code, out, err = run(capsys, "geom", "trajectory", *argv)
        assert code == 1 and out == "" and "error: v0 = " in err and "non-finite" in err
        code, out, err = run(capsys, "geom", "trajectory", *argv, "--json")
        envelope = json.loads(err)["error"]
        assert code == 1 and out == ""
        assert envelope["type"] == "NonFiniteTrajectory" and f"beta = {float(argv[1])}" in envelope["message"]

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_geom_trajectory_needs_a_sample(self, capsys, samples):
        code, out, err = run(capsys, "geom", "trajectory", "10", "0.5", "--samples", samples)
        assert code == 1 and out == "" and "--samples must be >= 1" in err

    def test_geom_platonic_json(self, capsys):
        code, out, _ = run(capsys, "geom", "platonic", "tetra", "--json")
        payload = json.loads(out)
        assert abs(payload["volume"]["float"] - 0.11785113019775793) < 1e-12

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "roots.json"
        code, out, _ = run(capsys, "solve", "1", "-1", "-1", "--json", "--out", str(target))
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["roots"]["kind"] == "RealDistinct"

    def test_precision_flag(self, capsys):
        code, out, _ = run(capsys, "geom", "trajectory", "10", "0.5", "--precision", "3")
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["geom", "trajectory", "10", "0.5", "--precision", "99"])
        assert exc.value.code == 2


class TestErrataCommand:
    def test_text_listing(self, capsys):
        code, out, _ = run(capsys, "errata")
        assert code == 0
        assert "phi-sixth-power" in out
        assert "congruence-residue-sign" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "errata", "--json")
        payload = json.loads(out)
        ids = {entry["id"] for entry in payload["entries"]}
        assert {"shift-companion-plus", "shift-companion-minus", "phi-sixth-power"} <= ids
        assert payload["version"]


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--scale", "quick")
        assert code == 0
        assert "30/30 checks passed" in out

    def test_every_check_reports_elapsed(self, capsys):
        code, out, _ = run(capsys, "verify", "--scale", "quick", "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert len(results) == 30
        assert all(isinstance(r["elapsed"], float) and r["elapsed"] >= 0 for r in results)

    def test_scale_choices_are_verify_scales(self):
        from quadratica import verify

        commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        scale = next(a for a in commands.choices["verify"]._actions if a.dest == "scale")
        assert tuple(scale.choices) == verify.SCALES

    def test_fault_injection_fails(self, monkeypatch):
        """The harness itself must report failure when a check fails."""
        from quadratica import verify

        monkeypatch.setattr(verify, "check_unit_groups", lambda: verify._expect(False))
        results = verify.run_all("quick")
        assert [(r.module, r.name) for r in results if not r.ok] == [("fibgroup", "unit-groups")]

    def test_raising_check_becomes_a_failure(self, monkeypatch):
        from quadratica import verify

        def broken_check():
            raise AssertionError("injected")

        monkeypatch.setattr(verify, "check_geometry", broken_check)
        results = verify.run_all("quick")
        assert len(results) == 30
        assert all(r.ok for r in results[:-1])
        last = results[-1]
        assert not last.ok and (last.module, last.name) == ("geometry", "platonic-goldencut-trajectory")
        assert last.detail.startswith("AssertionError: injected (at test_cli.py:")

    def test_raising_check_reports_without_traceback(self, capsys, monkeypatch):
        from quadratica import verify

        def check_geometry():
            raise AssertionError("injected")

        monkeypatch.setattr(verify, "check_geometry", check_geometry)
        code, out, err = run(capsys, "verify")
        assert code == 1 and "Traceback" not in err
        assert "FAIL  geometry.platonic-goldencut-trajectory  (AssertionError: injected (at test_cli.py:" in out
        assert "total: 29/30 checks passed" in out

    def test_failure_names_check_line_and_operands(self, capsys, monkeypatch):
        """A broken sampled identity is reported under its own check, at its line, with its operands."""
        from quadratica import solver, verify

        drawn = []

        def four_family(p, q):  # member (b) becomes x^2 - px - q
            drawn.append((p, q))
            wrong = solver.Quadratic(1, -p, -q)
            return tuple(
                solver.FamilyEquation("b", wrong, solver.solve(wrong)) if member.label == "b" else member
                for member in solver.four_family(p, q)
            )

        monkeypatch.setattr(verify, "four_family", four_family)
        code, out, _ = run(capsys, "verify", "--json")
        failed = [r for r in json.loads(out)["results"] if not r["ok"]]
        source = Path(verify.__file__).read_text().splitlines()
        line = next(number for number, text in enumerate(source, 1) if "family[neg]" in text)
        p, q = drawn[0]
        assert code == 1 and len(failed) == 1
        assert (failed[0]["module"], failed[0]["name"]) == ("solver", "vieta-substitution-vertex")
        assert failed[0]["detail"] == f"CheckFailed: does not hold for {p}, {q} (at verify.py:{line})"

    def test_wrong_special_case_and_half_map_fail_by_operand(self, monkeypatch):
        """verify reaches metallic.special_case and perfect.half_map: a wrong form is a FAIL naming its case."""
        from quadratica import metallic, perfect, solver, verify

        def special_case(k, m, variant="plus", complex_radicand=False):  # constant k^2, not k^2 + k + (1-m)/4
            return solver.Quadratic(1, -(2 * k + 1), k * k)

        monkeypatch.setattr(metallic, "special_case", special_case)
        monkeypatch.setattr(perfect, "half_map", lambda x: x * x + x)  # not halved
        failed = {r.name: r.detail for r in verify.run_all("quick") if not r.ok}
        assert set(failed) == {"integer-root-family", "x1-closed-forms"}
        assert failed["integer-root-family"].startswith("CheckFailed: does not hold for -10, 2, plus (at ")
        assert failed["x1-closed-forms"].startswith("CheckFailed: does not hold for 0 (at ")

    def test_failure_reported_under_optimize(self):
        """`python -O` strips `assert`; a broken identity must still FAIL."""
        script = (
            "from quadratica import cli, metallic\n"
            "metallic.creation_equation = lambda m: 0\n"
            "raise SystemExit(cli.main(['verify']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=child_env(), timeout=120
        )
        assert proc.returncode == 1, proc.stderr
        assert "FAIL  metallic.creation-trig  (CheckFailed: does not hold for 2 (at verify.py:" in proc.stdout
        assert "total: 29/30 checks passed" in proc.stdout

    def test_witness_range_detail_has_no_wall_time(self):
        from quadratica.verify import check_goldbach_range

        first, second = check_goldbach_range(10_000), check_goldbach_range(10_000)
        assert first == second == "4999 even N <= 10000, max I = 228 at N = 7102"

    def test_fault_injection_exit_code(self, capsys, monkeypatch):
        from quadratica import verify
        from quadratica.verify import CheckResult

        monkeypatch.setattr(
            verify, "run_all", lambda scale: [CheckResult("self", "fault", False, "injected")]
        )
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL" in out and "0/1 checks passed" in out


class TestBrokenPipe:
    """A reader that closes early (`quadratica ... | head -1`) ends the run quietly."""

    # about 340 kB of CSV: more than a pipe holds, so the writer is still
    # writing when the reader goes away, whatever the buffering
    ARGV = ["perfect", "plot", "--from", "-100", "--to", "100", "--step", "1/100", "--csv"]

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_no_traceback(self, unbuffered):
        env = child_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "quadratica", *self.ARGV],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert first.rstrip() == b"x,fx"
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()
        assert code == 1


class TestOSErrors:
    """A file that cannot be written is an error line and exit 1, not a traceback."""

    def test_out_in_a_missing_directory(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "x")
        code, out, err = run(capsys, "solve", "1", "-1", "-1", "--out", target)
        assert code == 1 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: {target!r}\n"
        code, out, err = run(capsys, "--json", "solve", "1", "-1", "-1", "--out", target)
        assert code == 1 and out == "" and json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_report_in_a_missing_directory_fails_before_the_scan(self, capsys, tmp_path, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        # verify_range opens the report itself; with an empty prime table, a scan would sieve first
        monkeypatch.setattr(goldbach, "_sieve", bytearray())
        monkeypatch.setattr(goldbach, "sieve_flags", scan)
        report = str(tmp_path / "missing" / "x.csv")
        code, out, err = run(capsys, "goldbach", "verify", "--report", report, "--json")
        assert code == 1 and out == "" and json.loads(err)["error"]["type"] == "FileNotFoundError"


class TestSingleFormatRendering:
    """A run builds and writes only the format it prints."""

    # The child reads its own peak RSS once main() has returned. It reads VmHWM,
    # not ru_maxrss: Linux carries the spawning process's peak into the child's
    # ru_maxrss at exec, so under pytest that reads ~47 MB before any work.
    CHILD = (
        "import re, sys\n"
        "from quadratica.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "peak = re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()).group(1)\n"
        "print(code, peak, file=sys.stderr)\n"
    )

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_ledger_peak_memory(self, fmt):
        # the 5999 rows hold ~4 MB of integers; building every format in full took 68-91 MB
        argv = ["metallic", "ledger", "--n", "6000", "--format", fmt]
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=child_env(),
            timeout=60,
        )
        code, max_rss_kb = proc.stderr.decode().split()[-2:]
        assert code == "0"
        assert int(max_rss_kb) < 45 * 1024

    @pytest.mark.parametrize("fmt,calls", [([], 5), (["--json"], 5), (["--csv"], 5 + 2 * 11)])
    def test_trajectory_formats_rows_only_for_csv(self, capsys, monkeypatch, fmt, calls):
        seen = []
        fnum = cli.OutputConfig.fnum
        monkeypatch.setattr(cli.OutputConfig, "fnum", lambda self, x: seen.append(x) or fnum(self, x))
        samples = "100000" if fmt != ["--csv"] else "10"
        code, _, _ = run(capsys, "geom", "trajectory", "10", "0.785398", "--samples", samples, *fmt)
        # five numbers in the three text lines, two per CSV row
        assert code == 0 and len(seen) == calls

    @pytest.mark.parametrize("fmt", [[], ["--json"], ["--csv"]])
    def test_out_file_matches_stdout(self, capsys, tmp_path, fmt):
        argv = ["metallic", "ledger", "--n", "12", *fmt]
        code, out, _ = run(capsys, *argv)
        target = tmp_path / "ledger"
        code_to_file, out_to_file, _ = run(capsys, *argv, "--out", str(target))
        assert code == code_to_file == 0 and out and out_to_file == ""
        assert target.read_bytes() == out.encode()
