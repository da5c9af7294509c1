"""Mutation checks: small deliberate faults in the package that named tests
must catch.

Each mutant replaces one exact piece of text in one file. For each mutant
this script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the edit there and runs the mutant's tests with pytest.
The mutant is killed when at least one of them fails, and survives when all
of them pass. The unmutated copy must pass every named test first, so that
a kill means the fault was caught.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

A mutant is also killed when its run is still going after TIMEOUT_S
seconds and is stopped: a fault that hangs a loop is caught. The unmutated
run must finish within that time.

It exits 0 when every mutant is killed, and 1 when a mutant survives, its
text is missing or ambiguous, a pytest run does not finish normally, or
the unmutated run fails or is stopped. It starts one pytest run per
mutant, about 70 s in all for the 42 mutants below, so it is not part of
the tier-1 run; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# A pytest run takes 1-2 s per mutant and about 10 s unmutated. One still
# going after this long is stopped: a mutant that makes a loop run forever
# (a scan that never moves on, say) is caught as surely as one that fails.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


DENSE = "tests/test_burau.py::TestSpecializedBurau::test_agrees_with_the_dense_product"
WIDENING = "tests/test_burau.py::TestPackedRows::test_words_that_outgrow_the_slots"
LETTER_TABLE = "tests/test_burau.py::TestSpecializedBurau::test_letter_table_matches_field_evaluation"
# The dense oracle multiplies generator images that the word loop builds, so
# a changed letter rule changes both sides; these tests pin the images.
LETTER_ROWS = "tests/test_burau.py::TestGenerators::test_each_letter_is_its_letter_action_row"
FIRST_GENERATOR = "tests/test_burau.py::TestGenerators::test_first_generator"
EVAL_POWER_50 = "tests/test_cli.py::test_golden_transcript[eval_power_50_at_root_7.text]"
UNTOUCHED_ROWS = "tests/test_burau.py::TestPackedRows::test_rows_no_letter_touched_are_not_reduced"
INERTIA = "tests/test_monodromy.py::test_integer_inertia_matches_the_fraction_form"
ZERO_EIGENVALUE = "tests/test_monodromy.py::TestInvariantForm::test_zero_eigenvalue_at_minimal_padding"
CONJUGATE = "tests/test_cyclotomic.py::TestConjugate::test_conjugate_of_a_root_is_its_inverse"
MERGE = "tests/test_burau.py::TestLaurentStep::test_merge_matches_the_public_operators"
CROSSED_V = "tests/test_burau.py::TestCrossedHomomorphism::test_generator_values"
ZERO_PATTERN = "tests/test_burau.py::TestProjectiveEquality::test_zero_pattern_mismatch"
OFF_BAND = "tests/test_monodromy.py::TestSignature::test_rejects_a_fault_off_the_band"
BASIS_COLUMN = "tests/test_monodromy.py::TestInvariantForm::test_column_of_a_basis_form_is_checked"
ROOT_LENGTH = "tests/test_burau.py::TestPowerEarlyStop::test_root_length_is_the_shortest_root"
SCALAR_TEST = "tests/test_burau.py::TestPowerEarlyStop::test_scalar_test_is_made_in_the_field"
CACHE_KEY = "tests/test_monodromy.py::TestGeneratorCache::test_key_is_the_field_and_exponent"
SHARED_ROOTS = (
    "tests/test_burau.py::TestSpecializedBurau::test_signed_unit_vectors_are_the_shared_roots"
)
GENERATOR_PRODUCT = (
    "tests/test_burau.py::TestWordImages::test_matches_the_product_of_generator_images"
)
LATER_MISMATCH = (
    "tests/test_burau.py::TestProjectiveEquality::test_equal_first_pair_then_a_later_mismatch"
)
FLOOR_SPLIT = "tests/test_burau.py::TestFloorSplitStep::test_matches_the_rounded_split"
TOP_SLOT = "tests/test_burau.py::TestFloorSplitStep::test_a_top_slot_is_folded_before_a_widening"
PARSER_INDEX = "tests/test_words.py::TestParser::test_generator_out_of_range"
RANDOM_LETTERS = "tests/test_words.py::TestTrustedConstructors::test_random_words"
SIGNED_MONOMIALS = (
    "tests/test_cyclotomic.py::TestSpecialize::test_signed_monomials_are_the_shared_roots"
)
WORD_INDEX = "tests/test_words.py::TestBraidWord::test_validation"
POWERS_OF_ZETA = "tests/test_cyclotomic.py::TestSignedRoot::test_powers_of_zeta"
CORRUPTED_GENERATOR = "tests/test_monodromy.py::TestInvariantForm::test_corrupted_generator_entry_is_caught"
GENERATOR_COUNT = (
    "tests/test_monodromy.py::TestInvariantForm::test_generator_sets_of_the_wrong_count_or_size_are_refused"
)
SIGNATURE_EXAMPLES = "tests/test_monodromy.py::TestInvariantForm::test_signature_examples"
NAIVE_MINORS = "tests/test_monodromy.py::TestPerRootWork::test_leading_minors_match_the_naive_recurrence"
CACHE_FILL = (
    "tests/test_monodromy.py::TestPerRootWork::test_generator_corrupted_before_the_cache_fills_is_caught"
)
MINUS_ONE = "tests/test_monodromy.py::TestPerRootWork::test_no_form_at_minus_one"
SIGNATURE_DIGEST = "tests/test_signature_digest.py::test_signatures_match_the_recorded_digest"
MODULI_ORACLE = (
    "tests/test_moduli.py::TestIntegerPathMatchesTheFractionOracle::test_every_n_and_d_up_to_20_and_60"
)
HERMITIAN_ENTRIES = (
    "tests/test_monodromy.py::TestPerRootWork::test_squier_entries_are_proved_hermitian_per_root"
)
REAL_SCHUR_ENTRY = "tests/test_monodromy.py::TestPerRootWork::test_schur_entry_is_proved_real"
DESCRIPTOR_MEMBERSHIP = (
    "tests/test_moduli.py::TestKernelDescriptor::test_curvatures_must_belong_to_n_and_d"
)
TWIST_WORDS = "tests/test_burau.py::TestTwistBlocks::test_words_with_twist_blocks_equal_the_full_product"
TWIST_SCAN = "tests/test_burau.py::TestTwistBlocks::test_strip_matches_a_naive_scan"
TWIST_PROOF = "tests/test_burau.py::TestTwistBlocks::test_a_corrupted_proof_raises_the_typed_error"

MUTANTS = [
    Mutant(
        "packed rows are never checked, so never widened",
        "src/burau_lab/burau.py",
        "if any((row + safe) & top for row in rows):",
        "if False:",
        (WIDENING, EVAL_POWER_50),
    ),
    Mutant(
        "the sign of x^p (p >= H) is ignored in the row step",
        "src/burau_lab/burau.py",
        "return a - r if negate else a + r",
        "return a + r",
        (LETTER_TABLE, DENSE),
    ),
    Mutant(
        "the word loop applies the letters first to last",
        "src/burau_lab/burau.py",
        "for i, s in reversed(letters):",
        "for i, s in letters:",
        (DENSE,),
    ),
    Mutant(
        "rows i+s and i-s swap places in the letter rule",
        "src/burau_lab/burau.py",
        "rows[i] = step(rows[i + s], rows[i - s], rows[i], s)",
        "rows[i] = step(rows[i - s], rows[i + s], rows[i], s)",
        (LETTER_ROWS, FIRST_GENERATOR),
    ),
    Mutant(
        "a widening keeps the step built for the old slot width",
        "src/burau_lab/burau.py",
        "width *= 2\n                    step = _root_step_at(order, k, dim, width)\n",
        "width *= 2\n",
        (WIDENING,),
    ),
    Mutant(
        "an untouched row is compared with the next row's unit row",
        "src/burau_lab/burau.py",
        "if row == 1 << width * i",
        "if row == 1 << width * (i + 1)",
        (UNTOUCHED_ROWS,),
    ),
    Mutant(
        "Squier's inertia counts a zero eigenvalue as positive",
        "src/burau_lab/monodromy.py",
        "sum(s > 0 for s in sides)",
        "sum(s >= 0 for s in sides)",
        (INERTIA, ZERO_EIGENVALUE),
    ),
    Mutant(
        "conjugation maps zeta to zeta^(N-2) instead of zeta^-1",
        "src/burau_lab/cyclotomic.py",
        "_substitute(self._num, order - 1, order)",
        "_substitute(self._num, order - 2, order)",
        (CONJUGATE,),
    ),
    Mutant(
        "a Laurent merge keeps a cancelled coefficient as 0",
        "src/burau_lab/laurent.py",
        "        if v:\n            acc[e] = v\n        else:\n            del acc[e]\n",
        "        acc[e] = v\n",
        (MERGE,),
    ),
    Mutant(
        "crossed_v multiplies a_ij by t^j instead of t^(j+1)",
        "src/burau_lab/burau.py",
        "_accumulate(acc, a._coeffs, j + 1)",
        "_accumulate(acc, a._coeffs, j)",
        (CROSSED_V,),
    ),
    Mutant(
        "the projective test passes a zero of y without testing x",
        "src/burau_lab/burau.py",
        "x.is_zero if y.is_zero else",
        "True if y.is_zero else",
        (ZERO_PATTERN,),
    ),
    Mutant(
        "the Hermitian test skips the pairs off the tridiagonal band",
        "src/burau_lab/monodromy.py",
        "for j in range(i, dim):",
        "for j in range(i, min(i + 2, dim)):",
        (OFF_BAND,),
    ),
    Mutant(
        "the basis check compares row r of a form but not column r",
        "src/burau_lab/monodromy.py",
        "rows[r] != _band(dim, r, (diag, above, below), zero) or (\n"
        "                columns[r] != _band(dim, r, (diag, below, above), zero)\n"
        "            )",
        "rows[r] != _band(dim, r, (diag, above, below), zero)",
        (BASIS_COLUMN,),
    ),
    Mutant(
        "the basis check compares column r with the row's band untransposed",
        "src/burau_lab/monodromy.py",
        "columns[r] != _band(dim, r, (diag, below, above), zero)",
        "columns[r] != _band(dim, r, (diag, above, below), zero)",
        (SIGNATURE_EXAMPLES,),
    ),
    Mutant(
        "MonodromyGenerators skips its row check",
        "src/burau_lab/monodromy.py",
        "if row != (letter_row if a == r else identity[a]):",
        "if False:",
        (CACHE_FILL, CORRUPTED_GENERATOR),
    ),
    Mutant(
        "MonodromyGenerators drops its count check",
        "src/burau_lab/monodromy.py",
        "if len(mats) != n - 1 or any(g.dim != dim for g in mats):",
        "if False:",
        (GENERATOR_COUNT,),
    ),
    Mutant(
        "the minors recurrence drops the D_{s-2} term",
        "src/burau_lab/monodromy.py",
        "minors[1] * (minors[s - 1] - minors[s - 2])",
        "minors[1] * minors[s - 1]",
        (NAIVE_MINORS,),
    ),
    Mutant(
        "the minors recurrence reads D_{s-1} for D_{s-2}",
        "src/burau_lab/monodromy.py",
        "minors[1] * (minors[s - 1] - minors[s - 2])",
        "minors[1] * (minors[s - 1] - minors[s - 1])",
        (NAIVE_MINORS,),
    ),
    Mutant(
        "the Schur entry reads D_{L-2} for D_{L-1}",
        "src/burau_lab/monodromy.py",
        "_minor(order, k, size - 1) / _minor(order, k, size)",
        "_minor(order, k, size - 2) / _minor(order, k, size)",
        (SIGNATURE_DIGEST,),
    ),
    Mutant(
        "t = -1 is tested against the table's entry 0, which is 1",
        "src/burau_lab/monodromy.py",
        "minus_one = roots[len(roots) // 2]",
        "minus_one = roots[0]",
        (MINUS_ONE,),
    ),
    Mutant(
        "the root length's quick reject accepts p without the period test",
        "src/burau_lab/burau.py",
        "if letters[p:2 * p] == letters[:p] and letters[p:] == letters[:-p]:",
        "if letters[p:2 * p] == letters[:p]:",
        (ROOT_LENGTH,),
    ),
    Mutant(
        "the scalar test never reaches the last row",
        "src/burau_lab/burau.py",
        "for i, packed in enumerate(rows):",
        "for i, packed in enumerate(rows[:-1]):",
        (SCALAR_TEST,),
    ),
    Mutant(
        "the generators are cached under minus_q itself, not (N, k)",
        "src/burau_lab/monodromy.py",
        "def rho_generators(",
        "@lru_cache(maxsize=None)\ndef rho_generators(",
        (CACHE_KEY,),
    ),
    Mutant(
        "a single -x^e is read from the table as +x^e",
        "src/burau_lab/cyclotomic.py",
        "v.index(c) + (0 if c == 1 else len(v))",
        "v.index(c) + (len(v) if c == 1 else 0)",
        (SHARED_ROOTS,),
    ),
    Mutant(
        "the Laurent row step multiplies by t^-s instead of t^s",
        "src/burau_lab/burau.py",
        "shift = s * dim",
        "shift = -s * dim",
        (MERGE, GENERATOR_PRODUCT),
    ),
    Mutant(
        "the projective test passes scalar 1 without comparing the rows",
        "src/burau_lab/burau.py",
        "return a.rows == b.rows",
        "return True",
        (LATER_MISMATCH,),
    ),
    Mutant(
        "a single -t^e is specialized as +t^e",
        "src/burau_lab/cyclotomic.py",
        "(0 if c == 1 else size // 2)",
        "0",
        (SIGNED_MONOMIALS,),
    ),
    Mutant(
        "the row step drops the wrap term of the floor split",
        "src/burau_lab/burau.py",
        "r = ((d & mask) << shift) - (d >> cut)",
        "r = (d & mask) << shift",
        (FLOOR_SPLIT, DENSE),
    ),
    Mutant(
        "the top slot is folded into slot 0 with sign +1",
        "src/burau_lab/burau.py",
        "slots[0] -= slots.pop()",
        "slots[0] += slots.pop()",
        (TOP_SLOT,),
    ),
    Mutant(
        "the parser accepts any generator index",
        "src/burau_lab/words.py",
        "if not 1 <= idx <= strands_n - 1:",
        "if False:",
        (PARSER_INDEX,),
    ),
    Mutant(
        "random_word draws generator indices from 1..n",
        "src/burau_lab/words.py",
        "rng.randint(1, strands_n - 1)",
        "rng.randint(1, strands_n)",
        (RANDOM_LETTERS,),
    ),
    Mutant(
        "the odd-order permutation of the powers drops the sign (-1)^e",
        "src/burau_lab/cyclotomic.py",
        "powers[e * half % order] = -a if e % 2 else a",
        "powers[e * half % order] = a",
        (DENSE,),
    ),
    Mutant(
        "BraidWord accepts the generator index n",
        "src/burau_lab/words.py",
        "if not 1 <= i <= self.strands_n - 1:",
        "if not 1 <= i <= self.strands_n:",
        (WORD_INDEX,),
    ),
    Mutant(
        "a vector in lowest terms keeps twice its common denominator",
        "src/burau_lab/moduli.py",
        "nums, den = tuple(a // common for a in nums), den // common",
        "nums, den = tuple(a // common for a in nums), 2 * den // common",
        (MODULI_ORACLE,),
    ),
    Mutant(
        "distinct labels collide by the same-label formula",
        "src/burau_lab/moduli.py",
        "return (den - 2 * a, 2 * den) if same_label else (den - a - b, den)",
        "return (den - 2 * a, 2 * den)",
        (MODULI_ORACLE,),
    ),
    Mutant(
        "the per-root proof that Squier's entries are Hermitian is dropped",
        "src/burau_lab/monodromy.py",
        "if diag.conjugate() != diag or above.conjugate() != below:",
        "if False:",
        (HERMITIAN_ENTRIES,),
    ),
    Mutant(
        "the Schur entry is not proved real",
        "src/burau_lab/monodromy.py",
        "if alpha.conjugate() != alpha:",
        "if False:",
        (REAL_SCHUR_ENTRY,),
    ),
    Mutant(
        "KernelDescriptor takes curvatures of any (n, d)",
        "src/burau_lab/moduli.py",
        "if self.curvatures != curvatures_from_nd(n, d):",
        "if False:",
        (DESCRIPTOR_MEMBERSHIP,),
    ),
    Mutant(
        "the net count of full twists taken out has its sign flipped",
        "src/burau_lab/burau.py",
        "net += s * blocks",
        "net -= s * blocks",
        (TWIST_WORDS,),
    ),
    Mutant(
        "the full-twist block is one period short",
        "src/burau_lab/burau.py",
        "period, size = n - 1, n * (n - 1)",
        "period, size = n - 1, (n - 1) * (n - 1)",
        (TWIST_SCAN, TWIST_WORDS),
    ),
    Mutant(
        "the per-root proof that T_n is t^n * I is skipped",
        "src/burau_lab/burau.py",
        "if _scalar_value(rows[1:-1], order, (n - 1) * _half_order(order), width) != roots[q]:",
        "if False:",
        (TWIST_PROOF,),
    ),
    Mutant(
        "root_exponent returns the table index itself, 2k for odd N",
        "src/burau_lab/cyclotomic.py",
        "return p // step",
        "return p",
        (POWERS_OF_ZETA,),
    ),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[int | None, str]:
    """pytest's exit code and its last output line, for ``tests`` in ``tree``.
    A run still going after TIMEOUT_S seconds is stopped, and its code is
    None."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"stopped after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else done.stderr.strip()


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="burau-mutants-") as tmp:
        base = Path(tmp) / "unmutated"
        copy_tree(base)
        every = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, summary = run_tests(base, every)
        print(f"unmutated: {summary}")
        if code != 0:
            print("the named tests fail or do not finish without a mutant; nothing is checked")
            return 1
        for number, mutant in enumerate(MUTANTS, 1):
            tree = Path(tmp) / f"mutant-{number}"
            copy_tree(tree)
            target = tree / mutant.path
            text = target.read_text()
            count = text.count(mutant.old)
            if count != 1:
                print(f"ERROR     {mutant.name}: old text found {count} times in {mutant.path}")
                bad += 1
                continue
            target.write_text(text.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            code, summary = run_tests(tree, mutant.tests)
            seconds = time.perf_counter() - start
            if code == 1:
                verdict = "killed"
            elif code is None:
                verdict = "killed (timed out)"
            elif code == 0:
                verdict, bad = "SURVIVED", bad + 1
            else:
                verdict, bad = f"ERROR({code})", bad + 1
            print(f"{verdict:9} {mutant.name}: {summary} [{seconds:.1f} s]")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
