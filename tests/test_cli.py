import json
import math
import time
from pathlib import Path

import pytest

from burau_lab import cli, moduli
from burau_lab.cyclotomic import INFINITE, MAX_D
from burau_lab.moduli import KernelDescriptor, kernel_descriptor
from burau_lab.words import MAX_WORD_LETTERS

GOLDEN = Path(__file__).parent / "data" / "kernel_table.txt"
CLI_TRANSCRIPTS = Path(__file__).parent / "data" / "cli"


# 21 cone points with 30-digit denominators, each its own label: their sum
# has a denominator of 600 digits.
WIDE_SUM_CURVATURES = ",".join(f"1/{10**29 + 7 + 2 * i}" for i in range(21))
WIDE_SUM_LABELS = ",".join(f"p{i}" for i in range(21))


def _coprime_denominators(count: int) -> list[int]:
    """count pairwise coprime 30-digit numbers, the largest odd ones below
    10^30 that share no factor with a larger one taken."""
    taken, candidate = [], 10**30 - 1
    while len(taken) < count:
        if all(math.gcd(candidate, x) == 1 for x in taken):
            taken.append(candidate)
        candidate -= 2
    return taken


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBurauEval:
    def test_full_twist_text(self, capsys):
        code, out, _ = run(capsys, "burau", "eval", "--n", "4", "--word", "T4")
        assert code == 0
        assert out.splitlines() == [
            "[ t^4    0    0 ]",
            "[   0  t^4    0 ]",
            "[   0    0  t^4 ]",
        ]

    def test_empty_word_is_identity(self, capsys):
        code, out, _ = run(capsys, "burau", "eval", "--n", "4", "--word", "")
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 3 and "1" in rows[0]

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "burau", "eval", "--n", "4", "--word", "s9")
        assert code == cli.EXIT_PARSE_ERROR
        assert "position" in err

    def test_invalid_root_exit_code(self, capsys):
        code, _, err = run(
            capsys, "burau", "eval", "--n", "4", "--word", "s1", "--at-root", "1"
        )
        assert code == cli.EXIT_INVALID_PARAMS

    def test_json_laurent_entries_are_coefficient_lists(self, capsys):
        code, out, _ = run(capsys, "burau", "eval", "--n", "3", "--word", "s1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "burau eval"
        assert doc["fixtures_matched"] is None
        # beta_3(s1) = [[-t, 1], [0, 1]] as exponent/coefficient pairs.
        assert doc["results"][0][0] == [[1, -1]]
        assert doc["results"][0][1] == [[0, 1]]
        assert doc["results"][1][0] == []

    def test_json_specialized_entries(self, capsys):
        code, out, _ = run(
            capsys, "burau", "eval", "--n", "4", "--word", "s1^5", "--at-root", "5", "--json"
        )
        doc = json.loads(out)
        entry = doc["results"][0][0]
        assert set(entry) == {"order", "num", "den"}
        assert entry["order"] == 10


class TestCheckWord:
    def test_kernel_member(self, capsys):
        code, out, _ = run(
            capsys, "burau", "check-word", "--n", "4", "--word", "T3^10", "--d", "5"
        )
        assert code == 0
        assert "d = 5: in kernel" in out

    def test_non_member(self, capsys):
        code, out, _ = run(
            capsys, "burau", "check-word", "--n", "4", "--word", "s1", "--d", "5"
        )
        assert code == 0
        assert "d = 5: not in kernel" in out
        assert "not in the kernel of any requested" in out

    def test_range_spec(self, capsys):
        code, out, _ = run(
            capsys, "burau", "check-word", "--n", "4", "--word", "T4^60", "--d", "5..7", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        # (-q)^{4*60} = 1 iff l | 60; l is 5, 3, 7 for d = 5, 6, 7.
        verdicts = {r["d"]: r["in_kernel"] for r in doc["results"]}
        assert verdicts == {5: True, 6: True, 7: False}

    def test_sampled_normal_closure_word(self, capsys):
        from burau_lab.words import parse_word, sample_normal_closure

        sampled = sample_normal_closure(
            4, [parse_word("s1^5", 4)], num_factors=2, max_conj_len=8, seed=3
        )
        code, out, _ = run(
            capsys, "burau", "check-word", "--n", "4", "--word", str(sampled), "--d", "5"
        )
        assert code == 0
        assert "d = 5: in kernel" in out


class TestKernelTable:
    def test_matches_golden_bytes(self, capsys):
        code, out, _ = run(capsys, "moduli", "kernel-table")
        assert code == 0
        assert out == GOLDEN.read_text()

    def test_json_round_trips_to_descriptors(self, capsys):
        code, out, _ = run(capsys, "moduli", "kernel-table", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["fixtures_matched"] is True
        assert len(doc["results"]) == 19
        from burau_lab.moduli import CurvatureVector

        for row in doc["results"]:
            # j and l are not inputs: the descriptor derives them.
            rebuilt = KernelDescriptor(
                strands_n=row["n"],
                d=row["d"],
                curvatures=CurvatureVector.from_fractions(row["curvatures"]),
            )
            assert (rebuilt.j, rebuilt.l) == (INFINITE if row["j"] is None else row["j"], row["l"])
            assert rebuilt == kernel_descriptor(row["n"], row["d"])

    def test_one_orbifold_check_per_row(self, capsys, monkeypatch):
        # A descriptor carries the report it was read from, and the table
        # prints that report's strata: no row is checked twice.
        calls = []
        real = moduli.orbifold_check
        for module in (moduli, cli):
            monkeypatch.setattr(
                module, "orbifold_check", lambda *args: calls.append(args) or real(*args)
            )
        code, out, _ = run(capsys, "moduli", "kernel-table", "--n", "4,11", "--d", "3,11", "--json")
        assert code == 0
        rows = json.loads(out)["results"]
        statuses = {r["status"] for r in rows}
        assert statuses == {"orbifold", "inconclusive", "invalid"}
        assert len(calls) == sum(r["status"] != "invalid" for r in rows)

    def test_inconclusive_row_flagged(self, capsys):
        code, out, _ = run(capsys, "moduli", "kernel-table", "--n", "11", "--d", "3")
        assert code == 0
        assert "inconclusive" in out
        assert "2/3" in out

    def test_three_strand_grid(self, capsys):
        code, out, _ = run(
            capsys, "moduli", "kernel-table", "--n", "3", "--d", "7..12", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        extras = [r for r in doc["results"] if not r["builtin"]]
        got = {(r["n"], r["d"]): r["l"] for r in extras}
        assert got == {(3, 7): 14, (3, 8): 8, (3, 9): 6, (3, 10): 5, (3, 11): 22, (3, 12): 4}

    def test_fixture_mismatch_exit_code(self, capsys, monkeypatch):
        broken = list(cli.KERNEL_TABLE_FIXTURE)
        broken[0] = (4, 5, None, 99)
        monkeypatch.setattr(cli, "KERNEL_TABLE_FIXTURE", tuple(broken))
        code, out, _ = run(capsys, "moduli", "kernel-table")
        assert code == cli.EXIT_FIXTURE_MISMATCH
        assert "FIXTURE MISMATCH" in out

    def test_extras_need_both_specs(self, capsys):
        code, _, err = run(capsys, "moduli", "kernel-table", "--n", "4")
        assert code == cli.EXIT_INVALID_PARAMS


class TestOrbifoldCheck:
    def test_example(self, capsys):
        code, out, _ = run(
            capsys,
            "moduli",
            "orbifold-check",
            "--curvatures",
            "1/4,1/4,1/4,1/4,1/4,1/4,2/4",
            "--labels",
            "a,a,a,a,a,a,b",
        )
        assert code == 0
        assert "orbifold: yes" in out
        assert out.count("order 4") == 2

    def test_invalid_curvatures(self, capsys):
        code, _, err = run(
            capsys, "moduli", "orbifold-check", "--curvatures", "1/2,1/2", "--labels", "a,b"
        )
        assert code == cli.EXIT_INVALID_PARAMS


class TestMonodromy:
    def test_check_command(self, capsys):
        code, out, _ = run(
            capsys,
            "monodromy", "check", "--n", "4", "--d", "7", "--m", "5",
            "--words", "10", "--seed", "1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"] == {"checked": 10, "failures": 0}
        assert doc["params"]["seed"] == 1

    def test_check_prints_seed(self, capsys):
        code, out, _ = run(
            capsys, "monodromy", "check", "--n", "4", "--d", "5", "--words", "5"
        )
        assert code == 0
        assert "seed: 0" in out

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BURAU_LAB_SEED", "42")
        code, out, _ = run(
            capsys, "monodromy", "check", "--n", "4", "--d", "5", "--words", "3"
        )
        assert code == 0
        assert "seed: 42" in out

    def test_malformed_seed_env_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("BURAU_LAB_SEED", "abc")
        argv = ("monodromy", "check", "--n", "4", "--d", "7", "--words", "3")
        assert run(capsys, *argv) == (
            cli.EXIT_INVALID_PARAMS, "",
            "invalid parameters: BURAU_LAB_SEED='abc' is not an integer\n",
        )
        # An explicit --seed does not read the variable.
        code, out, _ = run(capsys, *argv, "--seed", "5")
        assert code == cli.EXIT_OK and "seed: 5" in out

    def test_signature_command(self, capsys):
        code, out, _ = run(
            capsys, "monodromy", "signature", "--n", "4", "--d", "7", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["signature"] == [1, 2, 0]
        assert doc["results"]["unitarity_residual"] == 0
        assert doc["results"]["certificate"] == {
            "pivot_size": 3,
            "pivot_inertia": [1, 2, 0],
            "schur_complement_inertia": [0, 0, 0],
        }
        assert "tol" not in doc["params"]

    def test_invalid_dims(self, capsys):
        code, _, err = run(
            capsys, "monodromy", "signature", "--n", "4", "--d", "7", "--m", "4"
        )
        assert code == cli.EXIT_INVALID_PARAMS

    def test_check_rejects_nonpositive_word_count(self, capsys):
        for words in ("0", "-5"):
            code, out, err = run(
                capsys, "monodromy", "check", "--n", "4", "--d", "7", "--words", words
            )
            assert code == cli.EXIT_INVALID_PARAMS
            assert "invalid parameters" in err and out == ""

    def test_check_rejects_empty_word_length(self, capsys):
        code, out, err = run(
            capsys, "monodromy", "check", "--n", "4", "--d", "7", "--length", "0"
        )
        assert code == cli.EXIT_INVALID_PARAMS
        assert "invalid parameters" in err and out == ""


class TestExitCodes:
    def test_malformed_user_input_exits_3(self, capsys):
        cases = (
            ("burau", "eval", "--n", "1", "--word", "s1"),
            ("burau", "check-word", "--n", "4", "--word", "s1", "--d", "5..x"),
            ("moduli", "kernel-table", "--n", "4", "--d", "5,,6"),
            ("moduli", "kernel-table", "--n", ""),
            ("moduli", "orbifold-check", "--curvatures", "1/0,abc", "--labels", "a,b"),
            ("monodromy", "check", "--n", "1", "--d", "5"),
            ("monodromy", "check", "--n", "4", "--d", "5", "--m", "4"),
        )
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == cli.EXIT_INVALID_PARAMS, argv
            assert "invalid parameters" in err and out == "", argv

    def test_internal_value_error_is_not_invalid_parameters(self, capsys, monkeypatch):
        def broken(cfg):
            raise ValueError("an internal invariant failed")

        monkeypatch.setattr(cli, "cmd_burau_eval", broken)
        with pytest.raises(ValueError, match="internal invariant"):
            cli.main(["burau", "eval", "--n", "4", "--word", "s1"])
        assert "invalid parameters" not in capsys.readouterr().err

    def test_inputs_over_a_cap_exit_3(self, capsys):
        cases = (
            ("burau", "eval", "--n", "4", "--word", "s1^99999999999999999999999"),
            ("burau", "eval", "--n", "4", "--word", "(s1^1000)^1001"),
            ("monodromy", "check", "--n", "4", "--d", "7", "--words", "1",
             "--length", str(MAX_WORD_LETTERS + 1)),
            ("monodromy", "check", "--n", "4", "--d", "7", "--words", "101",
             "--length", "9901"),
            ("burau", "check-word", "--n", "4", "--word", "s1", "--d", "7..5"),
            ("burau", "check-word", "--n", "4", "--word", "s1", "--d", str(MAX_D + 1)),
            ("moduli", "kernel-table", "--n", "4", "--d", str(MAX_D + 1)),
            _cone_points(cli.MAX_STRANDS + 2),
        )
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == cli.EXIT_INVALID_PARAMS, argv
            assert "invalid parameters" in err and out == "", argv

    def test_cone_points_at_cap_run(self, capsys):
        points = cli.MAX_STRANDS + 1
        code, out, err = run(capsys, *_cone_points(points))
        assert (code, err) == (cli.EXIT_OK, "")
        lines = out.splitlines()
        assert lines[0] == "orbifold: no"
        assert len(lines) == 1 + points * (points - 1) // 2

    def test_strand_and_puncture_counts_over_cap_exit_3(self, capsys):
        over = str(cli.MAX_STRANDS + 1)
        cases = (
            ("burau", "eval", "--n", over, "--word", "s1"),
            ("moduli", "kernel-table", "--n", f"4,{over}", "--d", "3"),
            ("monodromy", "signature", "--n", "4", "--d", "7", "--m", over),
        )
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == cli.EXIT_INVALID_PARAMS, argv
            assert "invalid parameters" in err and out == "", argv

    def test_word_budget_at_cap_runs(self, capsys, monkeypatch):
        # A small cap keeps the run short; the check reads the constant.
        monkeypatch.setattr(cli, "MAX_WORD_LETTERS", 20)
        argv = ("monodromy", "check", "--n", "4", "--d", "7", "--seed", "1")
        code, out, _ = run(capsys, *argv, "--words", "4", "--length", "5")
        assert code == cli.EXIT_OK
        assert "diagram agreement on 4/4 random words" in out
        code, out, err = run(capsys, *argv, "--words", "3", "--length", "7")
        assert (code, out) == (cli.EXIT_INVALID_PARAMS, "")
        assert err == "invalid parameters: --words 3 times --length 7 is 21 letters, more than 20\n"

    def test_kernel_table_d_at_cap_runs(self, capsys):
        code, out, err = run(capsys, "moduli", "kernel-table", "--n", "4", "--d", str(MAX_D))
        assert (code, err) == (cli.EXIT_OK, "")
        assert out.splitlines()[-1].startswith(f"  4  {MAX_D}  ")

    def test_strand_count_at_cap_runs(self, capsys):
        n = cli.MAX_STRANDS
        code, out, _ = run(capsys, "burau", "check-word", "--n", str(n), "--word", f"T{n}^6", "--d", "3")
        assert code == 0
        assert out == "d = 3: in kernel\nkernel member at d = 3\n"

    def test_default_puncture_count_at_cap_runs(self, capsys):
        # --m defaults to n+1, which is the cap at n = MAX_STRANDS - 1.
        n = str(cli.MAX_STRANDS - 1)
        code, out, err = run(capsys, "monodromy", "signature", "--n", n, "--d", "7", "--json")
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out)["params"]["m"] == cli.MAX_STRANDS
        argv = ("monodromy", "check", "--n", n, "--d", "7", "--words", "2", "--length", "5")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (cli.EXIT_OK, "")
        assert f"(n={n}, d=7, m={cli.MAX_STRANDS})" in out

    def test_stderr_lines_pinned(self, capsys):
        over = str(cli.MAX_STRANDS + 1)
        cases = {
            ("burau", "eval", "--n", "1", "--word", "s1"):
                "a braid group needs at least 2 strands, got 1",
            ("burau", "check-word", "--n", "4", "--word", "s1", "--d", "5..x"):
                "malformed integer spec '5..x'",
            ("moduli", "kernel-table", "--n", "4", "--d", "5,,6"):
                "malformed integer spec '5,,6'",
            ("moduli", "orbifold-check", "--curvatures", "1/0,abc", "--labels", "a,b"):
                "malformed fraction list '1/0,abc'",
            ("monodromy", "check", "--n", "1", "--d", "5"):
                "a braid group needs at least 2 strands, got 1",
            ("monodromy", "check", "--n", "4", "--d", "5", "--m", "4"):
                "need 3 <= n <= m-1, got n=4, m=4",
            ("burau", "eval", "--n", "4", "--word", "s1^99999999999999999999999"):
                f"word would expand to 99999999999999999999999 letters, more than {MAX_WORD_LETTERS}",
            ("burau", "eval", "--n", "4", "--word", "(s1^1000)^1001"):
                f"word would expand to 1001000 letters, more than {MAX_WORD_LETTERS}",
            ("monodromy", "check", "--n", "4", "--d", "7", "--words", "1",
             "--length", str(MAX_WORD_LETTERS + 1)):
                f"word would expand to {MAX_WORD_LETTERS + 1} letters, more than {MAX_WORD_LETTERS}",
            ("monodromy", "check", "--n", "4", "--d", "7", "--words", "101",
             "--length", "9901"):
                f"--words 101 times --length 9901 is {MAX_WORD_LETTERS + 1} letters, "
                f"more than {MAX_WORD_LETTERS}",
            ("burau", "check-word", "--n", "4", "--word", "s1", "--d", "7..5"):
                "empty range '7..5' in spec '7..5'",
            ("burau", "check-word", "--n", "4", "--word", "s1", "--d", str(MAX_D + 1)):
                f"d must be at most {MAX_D}, got {MAX_D + 1}",
            ("burau", "eval", "--n", over, "--word", "s1"):
                f"--n {over} is above the cap of {cli.MAX_STRANDS}",
            ("moduli", "kernel-table", "--n", f"4,{over}", "--d", "3"):
                f"--n {over} is above the cap of {cli.MAX_STRANDS}",
            ("monodromy", "signature", "--n", "4", "--d", "7", "--m", over):
                f"--m {over} is above the cap of {cli.MAX_STRANDS}",
            # Without --m, m is n+1, and that is the count capped.
            ("monodromy", "signature", "--n", str(cli.MAX_STRANDS), "--d", "7"):
                f"--m {over} is above the cap of {cli.MAX_STRANDS}",
            ("monodromy", "check", "--n", str(cli.MAX_STRANDS), "--d", "7"):
                f"--m {over} is above the cap of {cli.MAX_STRANDS}",
            ("moduli", "kernel-table", "--n", "4", "--d", f"3,{MAX_D + 1}"):
                f"--d {MAX_D + 1} is above the cap of {MAX_D}",
            ("moduli", "orbifold-check", "--curvatures", "1/4,3/4,1/2,1/2",
             "--labels", "a,a,b,c"):
                "label 'a' mixes curvatures [1/4, 3/4]",
            ("moduli", "orbifold-check", "--curvatures", "1/4,1/2,1/2", "--labels", "a,b,c"):
                "curvature fractions sum to 5/4, not 2",
            ("moduli", "orbifold-check", "--curvatures", WIDE_SUM_CURVATURES,
             "--labels", WIDE_SUM_LABELS):
                "curvature fractions sum to less than 2 (denominator at least 10^599)",
            _cone_points(cli.MAX_STRANDS + 2):
                f"--curvatures lists {cli.MAX_STRANDS + 2} cone points, "
                f"more than {cli.MAX_STRANDS + 1}",
        }
        for argv, message in cases.items():
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (
                cli.EXIT_INVALID_PARAMS, "", f"invalid parameters: {message}\n"
            ), argv
        word_errors = {
            "(" * 600 + "s1" + ")" * 600: "groups nested more than 100 deep (at position 100)",
            "s1^" + "9" * 5000: "unreadable integer literal (length 5000) (at position 3)",
            "s" + "9" * 5000: "unreadable integer literal (length 5000) (at position 1)",
        }
        for word, message in word_errors.items():
            code, out, err = run(capsys, "burau", "eval", "--n", "4", "--word", word)
            assert (code, out, err) == (
                cli.EXIT_PARSE_ERROR, "", f"word error: {message}\n"
            ), word[:8]

    def test_huge_letter_counts_get_a_short_line(self, capsys):
        # A letter count has over 4300 digits, more than CPython converts to
        # text; every other line would repeat a 4300-digit input in full.
        nines = "9" * 4300
        for argv in (
            ("burau", "eval", "--n", "4", "--word", f"T4^{nines}"),
            ("burau", "eval", "--n", "4", "--word", f"(s1 s2)^{nines}"),
            ("burau", "eval", "--n", "4", "--word", f"s1^{nines}"),
            ("monodromy", "check", "--n", "4", "--d", "5", "--words", nines, "--length", "5"),
            ("burau", "eval", "--n", nines, "--word", "s1"),
            ("burau", "eval", "--n", f"-{nines}", "--word", "s1"),
            ("burau", "eval", "--n", "4", "--word", "s1", "--at-root", nines),
            ("burau", "check-word", "--n", "4", "--word", "s1", "--d", nines),
            ("burau", "check-word", "--n", "4", "--word", "s1", "--d", "3", "--numerator", nines),
            ("moduli", "kernel-table", "--n", "4", "--d", f"1..{nines}"),
            ("moduli", "kernel-table", "--n", "4", "--d", nines),
            ("monodromy", "check", "--n", "4", "--d", "5", "--words", f"-{nines}", "--length", "5"),
            ("monodromy", "check", "--n", "4", "--d", "5", "--words", "3", "--length", f"-{nines}"),
            ("monodromy", "check", "--n", "4", "--d", "5", "--m", nines),
            ("monodromy", "signature", "--n", f"-{nines}", "--d", "5"),
            ("monodromy", "signature", "--n", "4", "--d", nines),
            ("monodromy", "signature", "--n", "4", "--d", "5", "--m", f"-{nines}"),
            ("moduli", "orbifold-check", "--curvatures", f"{nines}x", "--labels", "a"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (cli.EXIT_INVALID_PARAMS, ""), argv[:3]
            assert err.count("\n") == 1 and len(err.encode()) <= 200, err[:80]

    @pytest.mark.parametrize(
        "curvatures, labels",
        [
            ("1e-10000000,1/2,1/2,1/2,1/2", "a,b,c,d,e"),
            ("1e-30000000,1/2,1/2,1/2,1/2", "a,b,c,d,e"),
            (f"1/{'9' * 4300},1/3,1/2", "a,b,c"),
            ("1/4,3/4,1/2,1/2", f"{'x' * 5000},{'x' * 5000},b,c"),
            (WIDE_SUM_CURVATURES, WIDE_SUM_LABELS),
        ],
        ids=[
            "exponent-1e7", "exponent-3e7", "denominator-4300-digits", "label-5000-chars",
            "sum-of-21-wide-fractions",
        ],
    )
    def test_hostile_orbifold_input_fails_fast_and_short(self, capsys, curvatures, labels):
        # Exponent notation would have Fraction build an int of millions of
        # digits; a long label would be quoted in full.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "moduli", "orbifold-check", "--curvatures", curvatures, "--labels", labels
        )
        assert time.perf_counter() - start < 2
        assert (code, out) == (cli.EXIT_INVALID_PARAMS, "")
        assert err.count("\n") == 1 and len(err.encode()) <= 200, err[:80]

    def test_pairwise_coprime_denominators_fail_fast(self, capsys):
        # 21 entries of 1/x with pairwise coprime 30-digit x: the common
        # denominator is their product, of 630 digits, and so is the sum's.
        denominators = _coprime_denominators(21)
        assert all(len(str(x)) == 30 for x in denominators)
        assert len(str(math.lcm(*denominators))) == 630
        curvatures = ",".join(f"1/{x}" for x in denominators)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "moduli", "orbifold-check", "--curvatures", curvatures, "--labels", WIDE_SUM_LABELS
        )
        assert time.perf_counter() - start < 2
        assert (code, out, err) == (
            cli.EXIT_INVALID_PARAMS, "",
            "invalid parameters: curvature fractions sum to less than 2 (denominator at least 10^629)\n",
        )

    def test_fraction_entries_up_to_30_digits(self, capsys):
        # 1/4 four times, 1/10, 2/5 and 1/2 sum to 2; the longest runs of
        # digits have 30.
        longest = "9" * 30
        accepted = (
            "1/4", "+1/4", "0.25", "0.250", f"{longest[1:]}/{longest[1:]}0", f"0.4{'0' * 29}", "1/2"
        )
        code, out, err = run(
            capsys, "moduli", "orbifold-check", "--curvatures", ",".join(accepted),
            "--labels", "a,b,c,d,e,f,g",
        )
        assert code == cli.EXIT_OK, err
        for entry in (f"1{longest}/2", f"1/1{longest}", "1e0", ".5", "1.", "1_0/20", "1/2/3"):
            code, _, err = run(
                capsys, "moduli", "orbifold-check", "--curvatures", f"{entry},1/2,1/2,1/2",
                "--labels", "a,b,c,d",
            )
            assert code == cli.EXIT_INVALID_PARAMS
            assert err.startswith("invalid parameters: malformed fraction list"), entry

    def test_long_seed_is_quoted_short(self, capsys, monkeypatch):
        monkeypatch.setenv("BURAU_LAB_SEED", "x" * 5000)
        code, out, err = run(capsys, "monodromy", "check", "--n", "4", "--d", "5")
        assert (code, out) == (cli.EXIT_INVALID_PARAMS, "")
        assert err == f"invalid parameters: BURAU_LAB_SEED={'x' * 40!r}... is not an integer\n"

    def test_spec_longer_than_cap_rejected(self):
        assert len(cli._parse_int_spec(f"1..{cli.MAX_SPEC_VALUES}")) == cli.MAX_SPEC_VALUES
        for spec in (f"1..{cli.MAX_SPEC_VALUES + 1}", f"1..{cli.MAX_SPEC_VALUES},0"):
            with pytest.raises(cli.InvalidSpec):
                cli._parse_int_spec(spec)


def _cone_points(count: int) -> tuple[str, ...]:
    """orbifold-check argv for count points of curvature 2/count, each with
    its own label."""
    return (
        "moduli", "orbifold-check",
        "--curvatures", ",".join([f"2/{count}"] * count),
        "--labels", ",".join(f"p{i}" for i in range(count)),
    )


def _transcripts():
    return json.loads((CLI_TRANSCRIPTS / "cases.json").read_text())


@pytest.mark.parametrize(
    "case", _transcripts(), ids=lambda case: case["stdout"].removesuffix(".stdout")
)
def test_golden_transcript(capsys, case):
    """stdout and exit code byte-identical to the recorded transcript."""
    code = cli.main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit_code"]
    assert out.encode() == (CLI_TRANSCRIPTS / case["stdout"]).read_bytes()
