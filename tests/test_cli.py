"""Command-line surface: verb coverage, formats, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sdlisp.cli import main
from sdlisp.sexpr import parse_implicit, to_bits

FACTORIAL = "define (f n)\nif = n 0  1\n   * n (f - n 1)\n(f 4)\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_factorial_prints_24(self, tmp_path, capsys):
        source = tmp_path / "factorial.l"
        source.write_text(FACTORIAL)
        code, out, _ = run_cli(capsys, "run", str(source))
        assert code == 0
        assert out.splitlines() == ["define f", "24"]

    def test_define_out_of_data_is_an_error_line(self, tmp_path, capsys):
        source = tmp_path / "define.l"
        source.write_text("(define x (read-bit)) 5\n")
        code, out, err = run_cli(capsys, "run", str(source))
        assert code == 0
        assert out.splitlines() == ["5"]
        assert err.splitlines() == ["error out-of-data"]

    def test_size_of_deeply_nested_text(self, tmp_path, capsys):
        source = tmp_path / "deep.l"
        source.write_text("size '" + "(" * 20000 + ")" * 20000 + "\n")
        code, out, _ = run_cli(capsys, "run", str(source))
        assert code == 0 and out.splitlines() == ["40001"]

    def test_size_of_a_wide_product(self, tmp_path, capsys):
        source = tmp_path / "wide.l"
        nines = "9" * 2201
        source.write_text(f"size * {nines} {nines}\n* {nines} {nines}\n")
        code, out, _ = run_cli(capsys, "run", str(source))
        assert code == 0
        assert out.splitlines() == ["4402", "9" * 2200 + "8" + "0" * 2200 + "1"]

    def test_parse_error_exits_2(self, tmp_path, capsys):
        source = tmp_path / "bad.l"
        source.write_text("(a b")
        code, _, err = run_cli(capsys, "run", str(source))
        assert code == 2 and "error" in err


class TestU:
    def test_quote_program(self, tmp_path, capsys):
        from sdlisp.sexpr import parse_full, to_bits
        program = tmp_path / "p.bits"
        program.write_text(to_bits(parse_full("(' (a b c))")))
        code, out, _ = run_cli(capsys, "u", str(program))
        assert code == 0 and out.strip() == "halted (a b c)"

    def test_list_form_bits_accepted(self, tmp_path, capsys):
        from sdlisp.sexpr import parse_full, to_bits
        bits = to_bits(parse_full("(' x)"))
        program = tmp_path / "p.bits"
        program.write_text("(" + " ".join(bits) + ")")
        code, out, _ = run_cli(capsys, "u", str(program))
        assert code == 0 and out.strip() == "halted x"

    def test_budget_prints_still_running(self, tmp_path, capsys):
        from sdlisp.sexpr import parse_full, to_bits
        program = tmp_path / "p.bits"
        program.write_text(to_bits(parse_full("(' x)")))
        code, out, _ = run_cli(capsys, "u", str(program), "--budget", "1")
        assert code == 0 and out.strip() == "still-running"


class TestBits:
    def test_encode_expression(self, capsys):
        code, out, _ = run_cli(capsys, "bits", "' (a b c)")
        assert code == 0
        from sdlisp.sexpr import parse_full, to_bits
        assert out.strip() == to_bits(parse_full("(' (a b c))"))

    def test_stats(self, capsys):
        code, out, _ = run_cli(capsys, "bits",
                               "cons eval read-exp cons eval read-exp nil", "--stats")
        assert code == 0
        assert "chars: 53" in out and "bits: 432" in out

    def test_decode(self, tmp_path, capsys):
        from sdlisp.sexpr import parse_full, to_bits
        blob = tmp_path / "e.bits"
        blob.write_text(to_bits(parse_full("(a 7)")))
        code, out, _ = run_cli(capsys, "bits", str(blob), "--decode")
        assert code == 0 and out.strip() == "(a 7)"


class TestCodecs:
    def test_encode_decode_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "001", "--scheme", "doubling")
        assert code == 0 and out.strip() == "00001101"
        code, out, _ = run_cli(capsys, "decode", "00001101", "--scheme", "doubling")
        assert code == 0
        assert out.splitlines() == ["001", "consumed: 8"]

    def test_elegant_scheme(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "1010", "--scheme", "elegant")
        assert code == 0 and out.strip() == "110000011010"

    def test_bad_bits_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "encode", "012")
        assert code == 2


class TestKraft:
    def test_allocation_report(self, tmp_path, capsys):
        reqs = tmp_path / "reqs"
        reqs.write_text("1 a\n2 (b c)\n")
        code, out, _ = run_cli(capsys, "kraft", str(reqs))
        assert code == 0
        assert out.splitlines() == ["0 -> a", "10 -> (b c)", "measure: 3/4 = 0.11"]

    def test_exhaustion_exits_1(self, tmp_path, capsys):
        reqs = tmp_path / "reqs"
        reqs.write_text("1 a\n1 b\n1 c\n")
        code, out, err = run_cli(capsys, "kraft", str(reqs))
        assert code == 1 and "line 3" in err


class TestOmega:
    def test_toy_bound_format(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--machine", "toy",
                               "--max-len", "8", "--budget", "1000")
        assert code == 0
        assert out.strip() == "0.01111 (dyadic 15/32)"

    def test_certified_bits_for_toy(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--machine", "toy",
                               "--max-len", "12", "--bits", "4")
        assert code == 0 and "first 4 bits: 0.1000" in out

    def test_lispu_marks_lower_bound_only(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--machine", "lispu",
                               "--max-len", "16", "--budget", "16", "--bits", "4")
        assert code == 0 and "lower bound only" in out

    def test_lispu_length_guard(self, capsys):
        code, _, err = run_cli(capsys, "omega", "--machine", "lispu", "--max-len", "32")
        assert code == 2

    def test_lispu_oracle_length_guard(self, capsys):
        # round r of the oracle walks max(--oracle, r) bits, up to --max-rounds
        code, _, err = run_cli(capsys, "omega", "--machine", "lispu", "--oracle", "6",
                               "--omega", "1/2")
        assert code == 2 and "--force" in err

    def test_lispu_count_round_guard(self, tmp_path, capsys):
        # round r of the count solver runs each program for 2^(r-1) steps
        programs = tmp_path / "loop.bits"
        programs.write_text(to_bits(parse_implicit("let f ' lambda (g) (g g) (f f)")) + "\n")
        code, _, err = run_cli(capsys, "omega", "--machine", "lispu",
                               "--count-file", str(programs), "--count", "1")
        assert code == 2 and "--force" in err
        code, _, err = run_cli(capsys, "omega", "--machine", "lispu",
                               "--count-file", str(programs), "--count", "1",
                               "--max-rounds", "14")
        assert code == 1 and "only 0 of the promised 1 halted" in err

    def test_count_verb(self, tmp_path, capsys):
        programs = tmp_path / "programs"
        programs.write_text("01\n00\n1101\n")
        code, out, _ = run_cli(capsys, "omega", "--count-file", str(programs), "--count", "2")
        assert code == 0
        assert out.splitlines() == ["01: halts", "00: never-halts", "1101: halts"]

    def test_oracle_verb(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--oracle", "4")
        assert code == 0
        lines = out.splitlines()
        assert f"01: halts" in lines and "11: never-halts" in lines

    def test_wrong_omega_inconclusive_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "omega", "--oracle", "4", "--omega", "3/4",
                               "--max-rounds", "12")
        assert code == 1 and "failure" in err

    def test_prime_bound(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--machine", "toy-numeral",
                               "--prime", "3", "--max-len", "10")
        assert code == 0 and "lower bound of a lower bound" in out


class TestElegant:
    def test_summary_counts(self, capsys):
        code, out, _ = run_cli(capsys, "elegant", "--char-cap", "3",
                               "--numeral-limit", "99")
        assert code == 0
        assert "budget-elegant:" in out

    def test_listing_is_deterministic(self, capsys):
        args = ["elegant", "--char-cap", "3", "--numeral-limit", "20", "--list"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
    def test_running_out_of_memory_is_a_failure_line(self):
        import resource

        def limit():  # 200,000 KB of address space, as `ulimit -v 200000`
            resource.setrlimit(resource.RLIMIT_AS, (200_000 * 1024,) * 2)

        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "sdlisp.cli", "elegant", "--char-cap", "11",
             "--numeral-limit", "9"], capture_output=True, text=True, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1] == "failure: elegant ran out of memory"
        assert "Traceback" not in done.stderr + done.stdout


class TestComplexity:
    def test_bit_complexity_on_toy(self, capsys):
        code, out, _ = run_cli(capsys, "complexity", "(0 0 1)", "--machine", "toy",
                               "--size-cap", "10")
        assert code == 0
        assert "size: 8 bits" in out and "witness: 00001101" in out and "exact: yes" in out

    def test_char_complexity(self, capsys):
        code, out, _ = run_cli(capsys, "complexity", "24", "--chars", "--char-cap", "3",
                               "--budget", "64")
        assert code == 0 and "size: 2 chars" in out

    def test_not_found_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "complexity", "(a b)", "--machine", "toy",
                               "--size-cap", "6")
        assert code == 1


class TestPair:
    def test_pair_run(self, tmp_path, capsys):
        from sdlisp.sexpr import parse_full, to_bits
        x = tmp_path / "x.bits"
        y = tmp_path / "y.bits"
        x.write_text(to_bits(parse_full("(read-bit)")) + "0")
        y.write_text(to_bits(parse_full("(read-bit)")) + "1")
        code, out, _ = run_cli(capsys, "pair", str(x), str(y))
        assert code == 0
        assert "prefix bits: 432" in out and "halted (0 1)" in out

    def test_info_mode(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--info", "(0)", "(1)",
                               "--machine", "toy+pair", "--size-cap", "16")
        assert code == 0
        assert "H(x): 5" in out and "H(x:y): 0 (exact)" in out


class TestParadox:
    def test_sound_theory_not_found(self, capsys):
        code, out, _ = run_cli(capsys, "paradox", "--theory", "sound",
                               "--schedule", "256,1024")
        assert code == 1 and "not-found" in out
        assert "classic dialect: 410" in out

    def test_unsound_theory_exhibits_the_contradiction(self, capsys):
        code, out, _ = run_cli(capsys, "paradox", "--theory", "unsound",
                               "--schedule", "1048576")
        assert code == 0
        assert "sizes: " in out and " < " in out


class TestRepl:
    def test_scripted_session(self, capsys, monkeypatch):
        lines = iter(["define (f n) * n n", "", "(f 6)", ""])

        def scripted_input(prompt=""):
            try:
                return next(lines)
            except StopIteration:
                raise EOFError from None

        monkeypatch.setattr("builtins.input", scripted_input)
        code = main(["repl"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["define f", "36"]


class TestUsage:
    def test_every_verb_is_wired(self):
        from sdlisp.cli import build_parser
        verbs = build_parser()._subparsers._group_actions[0].choices
        assert sorted(verbs) == sorted([
            "run", "repl", "u", "bits", "encode", "decode", "kraft",
            "omega", "elegant", "complexity", "pair", "paradox",
        ])

    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_unknown_option_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["u", "--frog", "x"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["omega", "--machine", "toy", "--max-len", "-3"],
        ["omega", "--machine", "toy", "--budget", "-5"],
        ["elegant", "--char-cap", "-1"],
        ["elegant", "--numeral-limit", "-1"],
        ["elegant", "--budget", "many"],
        ["complexity", "3", "--chars", "--char-cap", "-2"],
        ["complexity", "3", "--size-cap", "-2"],
        ["encode", "01", "--scheme", "elegant", "--size-cap", "-1"],
        ["pair", "--info", "1", "2", "--size-cap", "-4"],
        ["u", "-", "--budget", "-1"],
        ["omega", "--machine", "toy", "--bits", "-3"],
        ["omega", "--machine", "toy", "--oracle", "-2"],
        ["omega", "--machine", "toy", "--prime", "-2"],
        ["omega", "--machine", "toy", "--count-file", "-", "--count", "-1"],
        ["omega", "--machine", "toy", "--oracle", "4", "--max-rounds", "-1"],
    ])
    def test_negative_sizes_and_budgets_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "expected a whole number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("schedule", ["-5", "abc", "1024,,4", "1024,-4", "", "4096,"])
    def test_paradox_schedule_entries_are_naturals(self, capsys, schedule):
        with pytest.raises(SystemExit) as info:
            main(["paradox", "--schedule", schedule])
        assert info.value.code == 2
        assert "expected a whole number >= 0" in capsys.readouterr().err

    def test_zero_sizes_and_budgets_are_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--machine", "toy", "--max-len", "0",
                               "--budget", "0")
        assert code == 0 and "(dyadic 0)" in out
        code, out, _ = run_cli(capsys, "elegant", "--char-cap", "0", "--budget", "0",
                               "--numeral-limit", "0")
        assert code == 0 and "expressions evaluated: 0" in out

    def test_parse_errors_carry_positions(self, tmp_path, capsys):
        source = tmp_path / "bad.l"
        source.write_text("(a\nb))")
        code = main(["run", str(source)])
        err = capsys.readouterr().err
        assert code == 2 and "line 2" in err
