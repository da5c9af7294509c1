import json
from pathlib import Path

import pytest

from burau_lab import cli
from burau_lab.cyclotomic import INFINITE
from burau_lab.moduli import KernelDescriptor, kernel_descriptor

GOLDEN = Path(__file__).parent / "data" / "kernel_table.txt"


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
        from fractions import Fraction

        from burau_lab.moduli import CurvatureVector

        for row in doc["results"]:
            rebuilt = KernelDescriptor(
                strands_n=row["n"],
                d=row["d"],
                j=INFINITE if row["j"] is None else row["j"],
                l=row["l"],
                curvatures=CurvatureVector(
                    tuple(Fraction(f) for f in row["curvatures"])
                ),
            )
            assert rebuilt == kernel_descriptor(row["n"], row["d"])

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

    def test_signature_command(self, capsys):
        code, out, _ = run(
            capsys, "monodromy", "signature", "--n", "4", "--d", "7", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["signature"] == [1, 2, 0]
        assert doc["results"]["unitarity_residual"] <= 1e-9
        eigs = doc["results"]["eigenvalues"]
        assert len(eigs) == 3 and sum(1 for e in eigs if e > 0) == 1

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

        monkeypatch.setitem(cli._HANDLERS, "burau eval", broken)
        with pytest.raises(ValueError, match="internal invariant"):
            cli.main(["burau", "eval", "--n", "4", "--word", "s1"])
        assert "invalid parameters" not in capsys.readouterr().err
