"""Command-line interface.

Subcommands:

    burau eval          exact Burau matrix of a word, optionally specialized
    burau check-word    kernel membership of a word at chosen roots
    moduli kernel-table the built-in kernel table plus optional user grid
    moduli orbifold-check  the orbifold condition for explicit curvatures
    monodromy check     diagram audit: evaluation path vs monodromy product
    monodromy signature invariant Hermitian form and its exact signature certificate

Every command accepts --json for a machine-readable report with top-level
keys {command, params, results, fixtures_matched}. Exit codes: 0 success,
1 audit failure, 2 word parse error, 3 invalid parameters, 4 kernel-table
fixture mismatch. The built-in kernel table doubles as a regression
fixture: the command recomputes every row and compares.

Each subcommand's parser names its handler (the ``handler`` default), which
takes the parsed argparse namespace and reads its own options from it;
every default is declared once, in build_parser, except that of
--seed, which ``monodromy check`` reads from BURAU_LAB_SEED when it runs,
so that a malformed value exits 3 like any other invalid parameter.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction

from .burau import burau_of_word, specialized_burau
from .cyclotomic import INFINITE, MAX_D, CycloMatrix, InvalidD, minus_q_from_d
from .laurent import LaurentMatrix
from .moduli import (
    CurvatureVector,
    Inconclusive,
    InvalidConfiguration,
    InvalidCurvatures,
    KernelDescriptor,
    kernel_descriptor,
    orbifold_check,
)
from .monodromy import (
    InvalidDims,
    diagram_check,
    invariant_hermitian_form,
    rho_generators,
    signature,
)
from .words import (
    MAX_FULL_DIGITS,
    MAX_WORD_LETTERS,
    IndexOutOfRange,
    InvalidStrandCount,
    WordSyntaxError,
    WordTooLong,
    count_text,
    parse_word,
    quoted_text,
    random_word,
)

# The known kernel rows (n, d, j or None for "no tau_{n-1} power", l).
# kernel-table recomputes all of them and treats this tuple as the
# regression fixture.
KERNEL_TABLE_FIXTURE: tuple[tuple[int, int, int | None, int], ...] = (
    (4, 5, None, 5),
    (4, 6, None, 3),
    (4, 7, 14, 7),
    (4, 8, 8, 2),
    (4, 9, 6, 9),
    (4, 10, 5, 5),
    (4, 12, 4, 3),
    (4, 18, 3, 9),
    (5, 4, None, 4),
    (5, 5, 5, 2),
    (5, 6, 3, 3),
    (5, 8, 2, 8),
    (6, 4, 4, 2),
    (6, 5, 2, 5),
    (7, 3, None, 6),
    (7, 4, 2, 4),
    (8, 3, 6, 3),
    (9, 3, 3, 2),
    (10, 3, 2, 3),
)

EXIT_OK = 0
EXIT_AUDIT_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INVALID_PARAMS = 3
EXIT_FIXTURE_MISMATCH = 4


MAX_SPEC_VALUES = 1000
"""The most integers one --n or --d spec may list."""

MAX_STRANDS = 20
"""The largest strand count (--n) or puncture count (--m, n+1 when not
given) accepted: every command builds matrices of that order before doing
any work."""

_DIGITS = f"[0-9]{{1,{MAX_FULL_DIGITS}}}"
_FRACTION_TEXT = re.compile(f"[+-]?{_DIGITS}(?:[/.]{_DIGITS})?")
"""One --curvatures entry: an optional sign and digits, then /digits or
.digits, each run of digits at most MAX_FULL_DIGITS long."""


class InvalidSpec(ValueError):
    """A malformed, empty-range or over-long integer spec (--n, --d), a
    strand or puncture count above MAX_STRANDS, a kernel-table --d above
    MAX_D, a malformed or over-long fraction list (--curvatures), or a
    malformed BURAU_LAB_SEED."""


def default_seed() -> int:
    """$BURAU_LAB_SEED as an int, or 0 when it is unset; InvalidSpec when
    it is not an integer."""
    env = os.environ.get("BURAU_LAB_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InvalidSpec(f"BURAU_LAB_SEED={quoted_text(env)} is not an integer") from None


def _parse_int_spec(spec: str) -> list[int]:
    """Accept '5', '5..8', or comma lists of either, naming at most
    MAX_SPEC_VALUES integers; a range must not be empty."""
    out: list[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        try:
            if ".." in chunk:
                lo, hi = map(int, chunk.split("..", 1))
            else:
                lo = hi = int(chunk)
        except ValueError:
            raise InvalidSpec(f"malformed integer spec {quoted_text(spec)}") from None
        if hi < lo:
            raise InvalidSpec(f"empty range {quoted_text(chunk)} in spec {quoted_text(spec)}")
        if len(out) + hi - lo + 1 > MAX_SPEC_VALUES:
            raise InvalidSpec(f"spec {quoted_text(spec)} lists more than {MAX_SPEC_VALUES} integers")
        out.extend(range(lo, hi + 1))
    return out


def _check_cap(option: str, value: int | None, cap: int = MAX_STRANDS) -> None:
    """Reject an option's value above its cap, by default MAX_STRANDS."""
    if value is not None and value > cap:
        raise InvalidSpec(f"{option} {count_text(value)} is above the cap of {cap}")


def _complex_str(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _laurent_matrix_json(m: LaurentMatrix) -> list[list[list[list[int]]]]:
    return [[[[e, c] for e, c in entry] for entry in row] for row in m.rows]


def _cyclo_matrix_json(m: CycloMatrix) -> list[list[dict]]:
    return [
        [
            {"order": e.order, "num": list(e.numerators), "den": e.denominator}
            for e in row
        ]
        for row in m.rows
    ]


def _strata_json(strata) -> list[dict]:
    return [
        {
            "pair": list(s.pair),
            "angle_fraction": str(s.angle_fraction),
            "orbifold_order": s.orbifold_order,
        }
        for s in strata
    ]


def _emit(args: argparse.Namespace, params: dict, results, fixtures_matched=None,
          text: str = "") -> None:
    if args.json:
        print(
            json.dumps(
                {
                    "command": f"{args.group} {args.command}",
                    "params": params,
                    "results": results,
                    "fixtures_matched": fixtures_matched,
                },
                indent=2,
            )
        )
    else:
        print(text)


# -- burau ------------------------------------------------------------------


def cmd_burau_eval(args: argparse.Namespace) -> int:
    _check_cap("--n", args.n)
    word = parse_word(args.word, args.n)
    params = {"n": args.n, "word": args.word, "at_root": args.at_root,
              "numerator": args.numerator}
    if args.at_root is not None:
        minus_q = minus_q_from_d(args.at_root, args.numerator)
        mat = specialized_burau(word, minus_q)
        lines = [f"specialized at t = -q, q = exp(2*pi*i*{args.numerator}/{args.at_root}):",
                 str(mat)]
        lines.append("approx:")
        for row in mat.to_complex_rows():
            lines.append("[ " + "  ".join(_complex_str(z) for z in row) + " ]")
        _emit(args, params, _cyclo_matrix_json(mat), text="\n".join(lines))
    else:
        image = burau_of_word(word)
        _emit(args, params, _laurent_matrix_json(image.matrix), text=str(image.matrix))
    return EXIT_OK


def cmd_check_word(args: argparse.Namespace) -> int:
    ds = _parse_int_spec(args.d)
    _check_cap("--n", args.n)
    word = parse_word(args.word, args.n)
    params = {"n": args.n, "word": args.word, "d": ds, "numerator": args.numerator}
    results = []
    lines = []
    survivors = []
    for d in ds:
        minus_q = minus_q_from_d(d, args.numerator)
        in_kernel = specialized_burau(word, minus_q).is_identity
        results.append({"d": d, "in_kernel": in_kernel})
        verdict = "in kernel" if in_kernel else "not in kernel"
        lines.append(f"d = {d}: {verdict}")
        if in_kernel:
            survivors.append(d)
    summary = (
        "kernel member at d = " + ", ".join(map(str, survivors))
        if survivors
        else "not in the kernel of any requested specialization"
    )
    lines.append(summary)
    _emit(args, params, results, text="\n".join(lines))
    return EXIT_OK


# -- moduli -----------------------------------------------------------------


def _descriptor_json(desc: KernelDescriptor | Inconclusive) -> dict:
    inconclusive = isinstance(desc, Inconclusive)
    return {
        "n": desc.strands_n,
        "d": desc.d,
        "j": None if inconclusive or desc.j == INFINITE else desc.j,
        "l": None if inconclusive else desc.l,
        "status": "inconclusive" if inconclusive else "orbifold",
        "curvatures": list(map(str, desc.curvatures.fractions)),
        "strata": _strata_json(desc.report.strata),
    }


def render_kernel_table(rows: list[dict]) -> str:
    """Fixed-width text table for kernel descriptors; the built-in block
    of this rendering is pinned byte-for-byte by a golden test."""
    lines = ["  n    d    j    l"]
    for row in rows:
        if row["status"] == "orbifold":
            j = "inf" if row["j"] is None else str(row["j"])
            lines.append(f"{row['n']:>3}  {row['d']:>3}  {j:>3}  {row['l']:>3}")
        elif row["status"] == "inconclusive":
            angles = ", ".join(
                s["angle_fraction"] for s in row["strata"] if s["orbifold_order"] is None
            )
            lines.append(
                f"{row['n']:>3}  {row['d']:>3}  inconclusive (stratum angle {angles} of 2pi)"
            )
        else:
            lines.append(f"{row['n']:>3}  {row['d']:>3}  invalid configuration")
    return "\n".join(lines)


def cmd_kernel_table(args: argparse.Namespace) -> int:
    extra_d = _parse_int_spec(args.d) if args.d is not None else []
    extra_n = _parse_int_spec(args.n) if args.n is not None else []
    if bool(extra_n) != bool(extra_d):
        raise InvalidConfiguration("kernel-table extras need both --n and --d")
    for n in extra_n:
        _check_cap("--n", n)
    for d in extra_d:
        _check_cap("--d", d, MAX_D)
    rows: list[dict] = []
    fixtures_matched = True
    for n, d, j, l in KERNEL_TABLE_FIXTURE:
        desc = kernel_descriptor(n, d)
        row = _descriptor_json(desc)
        row["builtin"] = True
        if (row["j"], row["l"]) != (j, l):
            fixtures_matched = False
            row["fixture_mismatch"] = {"expected_j": j, "expected_l": l}
        rows.append(row)
    requested = [(n, d) for n in extra_n for d in extra_d]
    params = {"extra_n": extra_n, "extra_d": extra_d}
    for n, d in requested:
        if any(r["n"] == n and r["d"] == d and r.get("builtin") for r in rows):
            continue
        try:
            desc = kernel_descriptor(n, d)
        except InvalidConfiguration:
            rows.append({"n": n, "d": d, "j": None, "l": None,
                         "status": "invalid", "curvatures": [], "strata": [],
                         "builtin": False})
            continue
        row = _descriptor_json(desc)
        row["builtin"] = False
        rows.append(row)
    text = render_kernel_table(rows)
    if not fixtures_matched:
        text += "\nFIXTURE MISMATCH: computed table deviates from the built-in fixture"
    _emit(args, params, rows, fixtures_matched, text)
    return EXIT_OK if fixtures_matched else EXIT_FIXTURE_MISMATCH


def cmd_orbifold_check(args: argparse.Namespace) -> int:
    parts = args.curvatures.split(",")
    # The moduli space of B_n has n+1 cone points; every pair of labels is
    # a stratum, so the report grows quadratically in the count.
    if len(parts) > MAX_STRANDS + 1:
        raise InvalidSpec(
            f"--curvatures lists {len(parts)} cone points, more than {MAX_STRANDS + 1}"
        )
    # Each entry is checked before Fraction sees it: Fraction("1e-10000000")
    # builds a ten-million-digit int, and longer runs of digits than a
    # message prints in full would reach every sum and angle below.
    texts = [part.strip() for part in parts]
    malformed = InvalidSpec(f"malformed fraction list {quoted_text(args.curvatures)}")
    if not all(map(_FRACTION_TEXT.fullmatch, texts)):
        raise malformed
    try:
        fractions = tuple(map(Fraction, texts))
    except ZeroDivisionError:
        raise malformed from None
    labels = [part.strip() for part in args.labels.split(",")]
    curvatures = CurvatureVector.from_fractions(fractions)
    report = orbifold_check(curvatures, labels)
    params = {"curvatures": list(map(str, fractions)), "labels": labels}
    results = {"is_orbifold": report.is_orbifold, "strata": _strata_json(report.strata)}
    lines = [f"orbifold: {'yes' if report.is_orbifold else 'no'}"]
    for s in report.strata:
        order = "none" if s.orbifold_order is None else str(s.orbifold_order)
        lines.append(
            f"stratum (points {s.pair[0]}, {s.pair[1]}): angle {s.angle_fraction} of 2pi, order {order}"
        )
    _emit(args, params, results, text="\n".join(lines))
    return EXIT_OK


# -- monodromy ---------------------------------------------------------------


def cmd_monodromy_check(args: argparse.Namespace) -> int:
    _check_cap("--n", args.n)
    n, d = args.n, args.d
    m = args.m if args.m is not None else n + 1
    _check_cap("--m", m)
    if args.words < 1 or args.length < 1:
        raise InvalidConfiguration(
            f"--words and --length must be at least 1, got {count_text(args.words)} "
            f"and {count_text(args.length)}"
        )
    minus_q = minus_q_from_d(d, args.numerator)
    # A single word over the cap is reported by random_word's own check.
    if args.length <= MAX_WORD_LETTERS < args.words * args.length:
        raise InvalidConfiguration(
            f"--words {count_text(args.words)} times --length {args.length} is "
            f"{count_text(args.words * args.length)} letters, more than {MAX_WORD_LETTERS}"
        )
    seed = default_seed() if args.seed is None else args.seed
    rng = random.Random(seed)
    failures = 0
    for _ in range(args.words):
        w = random_word(n, args.length, rng)
        if not diagram_check(w, n, m, minus_q):
            failures += 1
    params = {"n": n, "d": d, "m": m, "words": args.words, "seed": seed,
              "length": args.length, "numerator": args.numerator}
    results = {"checked": args.words, "failures": failures}
    text = (
        f"seed: {seed}\n"
        f"diagram agreement on {args.words - failures}/{args.words} random words "
        f"(n={n}, d={d}, m={m})"
    )
    _emit(args, params, results, text=text)
    return EXIT_OK if failures == 0 else EXIT_AUDIT_FAILED


def cmd_monodromy_signature(args: argparse.Namespace) -> int:
    _check_cap("--n", args.n)
    n, d = args.n, args.d
    m = args.m if args.m is not None else n + 1
    _check_cap("--m", m)
    minus_q = minus_q_from_d(d, args.numerator)
    result = invariant_hermitian_form(rho_generators(n, m, minus_q))
    form = result.chosen
    sig = signature(form)
    pivot, rest = form.pivot_size, form.dim - form.pivot_size
    params = {"n": n, "d": d, "m": m, "numerator": args.numerator}
    results = {
        "certificate": {"pivot_size": pivot, "pivot_inertia": list(form.pivot_inertia),
                        "schur_complement_inertia": list(form.schur_inertia)},
        "signature": list(sig),
        "solution_dimension": len(result.basis),
        "unitarity_residual": result.unitarity_residual,
    }
    lines = [
        f"pivot block: leading {pivot}x{pivot}, inertia {form.pivot_inertia}",
        f"Schur complement: {rest}x{rest}, inertia {form.schur_inertia}",
        f"signature: ({sig[0]}, {sig[1]}) with {sig[2]} zero(s)",
        f"solution space dimension: {len(result.basis)}",
        f"unitarity residual: {result.unitarity_residual} (exact)",
    ]
    _emit(args, params, results, text="\n".join(lines))
    return EXIT_OK


# -- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burau-lab",
        description="Reduced Burau representation, root-of-unity specializations, "
        "and cone-metric orbifold kernel analysis.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    def add_common(p: argparse.ArgumentParser, handler) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(handler=handler)

    burau = top.add_parser("burau", help="Burau matrices of braid words")
    burau_sub = burau.add_subparsers(dest="command", required=True)

    p = burau_sub.add_parser("eval", help="print the exact Burau matrix of a word")
    p.add_argument("--n", type=int, required=True, help="strand count")
    p.add_argument("--word", required=True, help="braid word, e.g. 's1 s2^-1' or 'T4'")
    p.add_argument("--at-root", type=int, default=None, metavar="D",
                   help="specialize t = -q at a primitive D-th root q")
    p.add_argument("--numerator", type=int, default=1, metavar="A",
                   help="use q = exp(2*pi*i*A/D), gcd(A, D) = 1")
    add_common(p, cmd_burau_eval)

    p = burau_sub.add_parser("check-word", help="kernel membership at chosen roots")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--d", required=True, metavar="SPEC",
                   help="root parameter(s): '5', '5..8', or '5,7,9'")
    p.add_argument("--numerator", type=int, default=1)
    add_common(p, cmd_check_word)

    moduli = top.add_parser("moduli", help="cone-metric moduli and kernel table")
    moduli_sub = moduli.add_subparsers(dest="command", required=True)

    p = moduli_sub.add_parser("kernel-table", help="built-in kernel table plus optional grid")
    p.add_argument("--n", default=None, metavar="SPEC", help="extra strand counts")
    p.add_argument("--d", default=None, metavar="SPEC", help="extra root parameters")
    add_common(p, cmd_kernel_table)

    p = moduli_sub.add_parser("orbifold-check", help="orbifold condition for explicit curvatures")
    p.add_argument("--curvatures", required=True,
                   help="comma-separated fractions of 2*pi, e.g. '1/4,1/4,1/4,1/4,1/4,1/4,2/4'")
    p.add_argument("--labels", required=True,
                   help="comma-separated labels marking interchangeable points")
    add_common(p, cmd_orbifold_check)

    monodromy = top.add_parser("monodromy", help="moduli-space monodromy checks")
    monodromy_sub = monodromy.add_subparsers(dest="command", required=True)

    p = monodromy_sub.add_parser("check", help="diagram audit on random words")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="puncture count (default n+1)")
    p.add_argument("--words", type=int, default=100)
    p.add_argument("--length", type=int, default=14, help="random word length")
    p.add_argument("--seed", type=int, default=None,
                   help="random word seed (default $BURAU_LAB_SEED or 0)")
    p.add_argument("--numerator", type=int, default=1)
    add_common(p, cmd_monodromy_check)

    p = monodromy_sub.add_parser("signature", help="invariant Hermitian form signature")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--numerator", type=int, default=1)
    add_common(p, cmd_monodromy_signature)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (WordSyntaxError, IndexOutOfRange) as exc:
        print(f"word error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (
        InvalidD,
        InvalidConfiguration,
        InvalidCurvatures,
        InvalidDims,
        InvalidSpec,
        InvalidStrandCount,
        WordTooLong,
    ) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS


if __name__ == "__main__":
    sys.exit(main())
