"""Command-line interface.

Subcommands:

    burau eval          exact Burau matrix of a word, optionally specialized
    burau check-word    kernel membership of a word at chosen roots
    moduli kernel-table the built-in kernel table plus optional user grid
    moduli orbifold-check  the orbifold condition for explicit curvatures
    monodromy check     diagram audit: evaluation path vs monodromy product
    monodromy signature invariant Hermitian form and its signature

Every command accepts --json for a machine-readable report with top-level
keys {command, params, results, fixtures_matched}. Exit codes: 0 success,
1 audit failure, 2 word parse error, 3 invalid parameters, 4 kernel-table
fixture mismatch. The built-in kernel table doubles as a regression
fixture: the command recomputes every row and compares.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .burau import burau_of_word, specialized_burau
from .cyclotomic import CycloMatrix, InvalidD, minus_q_from_d
from .laurent import LaurentMatrix
from .moduli import (
    CurvatureVector,
    Inconclusive,
    InvalidConfiguration,
    InvalidCurvatures,
    KernelDescriptor,
    distinguished_labels,
    kernel_descriptor,
    orbifold_check,
)
from .monodromy import InvalidDims, invariant_hermitian_form, rho_generators, signature
from .words import (
    IndexOutOfRange,
    InvalidStrandCount,
    WordSyntaxError,
    parse_word,
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


class InvalidSpec(ValueError):
    """A malformed integer spec (--n, --d) or fraction list (--curvatures)."""


@dataclass
class RunConfig:
    """Resolved options for one CLI invocation."""

    command: str
    n: int | None = None
    d: list[int] = field(default_factory=list)
    m: int | None = None
    numerator: int = 1
    word: str | None = None
    seed: int = 0
    fmt: str = "text"
    tol: float = 1e-9
    words: int = 100
    length: int = 14
    curvatures: str | None = None
    labels: str | None = None
    n_list: list[int] = field(default_factory=list)


def default_seed() -> int:
    env = os.environ.get("BURAU_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            pass
    return 0


def _parse_int_spec(spec: str) -> list[int]:
    """Accept '5', '5..8', or comma lists of either."""
    out: list[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        try:
            if ".." in chunk:
                lo, hi = chunk.split("..", 1)
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(chunk))
        except ValueError:
            raise InvalidSpec(f"malformed integer spec {spec!r}") from None
    return out


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


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
            "angle_fraction": _fraction_str(s.angle_fraction),
            "orbifold_order": s.orbifold_order,
        }
        for s in strata
    ]


def _emit(cfg: RunConfig, params: dict, results, fixtures_matched=None, text: str = "") -> None:
    if cfg.fmt == "json":
        print(
            json.dumps(
                {
                    "command": cfg.command,
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


def cmd_burau_eval(cfg: RunConfig) -> int:
    word = parse_word(cfg.word or "", cfg.n)
    params = {"n": cfg.n, "word": cfg.word, "at_root": cfg.d[0] if cfg.d else None,
              "numerator": cfg.numerator}
    if cfg.d:
        minus_q = minus_q_from_d(cfg.d[0], cfg.numerator)
        mat = specialized_burau(word, minus_q)
        lines = [f"specialized at t = -q, q = exp(2*pi*i*{cfg.numerator}/{cfg.d[0]}):", str(mat)]
        lines.append("approx:")
        for row in mat.to_complex_rows():
            lines.append("[ " + "  ".join(_complex_str(z) for z in row) + " ]")
        _emit(cfg, params, _cyclo_matrix_json(mat), text="\n".join(lines))
    else:
        image = burau_of_word(word)
        _emit(cfg, params, _laurent_matrix_json(image.matrix), text=str(image.matrix))
    return EXIT_OK


def cmd_check_word(cfg: RunConfig) -> int:
    word = parse_word(cfg.word or "", cfg.n)
    params = {"n": cfg.n, "word": cfg.word, "d": cfg.d, "numerator": cfg.numerator}
    results = []
    lines = []
    survivors = []
    for d in cfg.d:
        minus_q = minus_q_from_d(d, cfg.numerator)
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
    _emit(cfg, params, results, text="\n".join(lines))
    return EXIT_OK


# -- moduli -----------------------------------------------------------------


def _descriptor_json(desc: KernelDescriptor | Inconclusive) -> dict:
    if isinstance(desc, Inconclusive):
        report = desc.report
        return {
            "n": desc.strands_n,
            "d": desc.d,
            "j": None,
            "l": None,
            "status": "inconclusive",
            "curvatures": [_fraction_str(f) for f in desc.curvatures.fractions],
            "strata": _strata_json(report.strata),
        }
    report = orbifold_check(desc.curvatures, distinguished_labels(desc.strands_n))
    return {
        "n": desc.strands_n,
        "d": desc.d,
        "j": None if desc.j == math.inf else int(desc.j),
        "l": desc.l,
        "status": "orbifold",
        "curvatures": [_fraction_str(f) for f in desc.curvatures.fractions],
        "strata": _strata_json(report.strata),
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


def cmd_kernel_table(cfg: RunConfig) -> int:
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
    requested = [(n, d) for n in cfg.n_list for d in cfg.d]
    params = {"extra_n": cfg.n_list, "extra_d": cfg.d}
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
    _emit(cfg, params, rows, fixtures_matched, text)
    return EXIT_OK if fixtures_matched else EXIT_FIXTURE_MISMATCH


def cmd_orbifold_check(cfg: RunConfig) -> int:
    try:
        fractions = tuple(
            Fraction(part.strip()) for part in (cfg.curvatures or "").split(",")
        )
    except (ValueError, ZeroDivisionError):
        raise InvalidSpec(f"malformed fraction list {cfg.curvatures!r}") from None
    labels = [part.strip() for part in (cfg.labels or "").split(",")]
    curvatures = CurvatureVector(fractions)
    report = orbifold_check(curvatures, labels)
    params = {"curvatures": [_fraction_str(f) for f in fractions], "labels": labels}
    results = {"is_orbifold": report.is_orbifold, "strata": _strata_json(report.strata)}
    lines = [f"orbifold: {'yes' if report.is_orbifold else 'no'}"]
    for s in report.strata:
        order = "none" if s.orbifold_order is None else str(s.orbifold_order)
        lines.append(
            f"stratum (points {s.pair[0]}, {s.pair[1]}): angle {_fraction_str(s.angle_fraction)} of 2pi, order {order}"
        )
    _emit(cfg, params, results, text="\n".join(lines))
    return EXIT_OK


# -- monodromy ---------------------------------------------------------------


def cmd_monodromy_check(cfg: RunConfig) -> int:
    from .monodromy import diagram_check

    if cfg.words < 1 or cfg.length < 1:
        raise InvalidConfiguration(
            f"--words and --length must be at least 1, got {cfg.words} and {cfg.length}"
        )
    n = cfg.n
    d = cfg.d[0]
    m = cfg.m if cfg.m is not None else n + 1
    minus_q = minus_q_from_d(d, cfg.numerator)
    rng = random.Random(cfg.seed)
    failures = 0
    for _ in range(cfg.words):
        w = random_word(n, cfg.length, rng)
        if not diagram_check(w, n, m, minus_q):
            failures += 1
    params = {"n": n, "d": d, "m": m, "words": cfg.words, "seed": cfg.seed,
              "length": cfg.length, "numerator": cfg.numerator}
    results = {"checked": cfg.words, "failures": failures}
    text = (
        f"seed: {cfg.seed}\n"
        f"diagram agreement on {cfg.words - failures}/{cfg.words} random words "
        f"(n={n}, d={d}, m={m})"
    )
    _emit(cfg, params, results, text=text)
    return EXIT_OK if failures == 0 else EXIT_AUDIT_FAILED


def cmd_monodromy_signature(cfg: RunConfig) -> int:
    n = cfg.n
    d = cfg.d[0]
    m = cfg.m if cfg.m is not None else n + 1
    minus_q = minus_q_from_d(d, cfg.numerator)
    gens = rho_generators(n, m, minus_q)
    result = invariant_hermitian_form(gens)
    import numpy as np

    eigs = sorted(np.linalg.eigvalsh(result.chosen.matrix))
    sig = signature(result.chosen, cfg.tol)
    params = {"n": n, "d": d, "m": m, "tol": cfg.tol, "numerator": cfg.numerator}
    results = {
        "eigenvalues": [float(e) for e in eigs],
        "signature": list(sig),
        "solution_dimension": len(result.basis),
        "unitarity_residual": result.unitarity_residual,
    }
    lines = [
        "eigenvalues: " + ", ".join(f"{e:.12g}" for e in eigs),
        f"signature: ({sig[0]}, {sig[1]}) with {sig[2]} zero(s)",
        f"solution space dimension: {len(result.basis)}",
        f"unitarity residual: {result.unitarity_residual:.3e}",
    ]
    _emit(cfg, params, results, text="\n".join(lines))
    return EXIT_OK


# -- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burau-lab",
        description="Reduced Burau representation, root-of-unity specializations, "
        "and cone-metric orbifold kernel analysis.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    burau = top.add_parser("burau", help="Burau matrices of braid words")
    burau_sub = burau.add_subparsers(dest="command", required=True)

    p = burau_sub.add_parser("eval", help="print the exact Burau matrix of a word")
    p.add_argument("--n", type=int, required=True, help="strand count")
    p.add_argument("--word", required=True, help="braid word, e.g. 's1 s2^-1' or 'T4'")
    p.add_argument("--at-root", type=int, default=None, metavar="D",
                   help="specialize t = -q at a primitive D-th root q")
    p.add_argument("--numerator", type=int, default=1, metavar="A",
                   help="use q = exp(2*pi*i*A/D), gcd(A, D) = 1")
    add_common(p)

    p = burau_sub.add_parser("check-word", help="kernel membership at chosen roots")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--d", required=True, metavar="SPEC",
                   help="root parameter(s): '5', '5..8', or '5,7,9'")
    p.add_argument("--numerator", type=int, default=1)
    add_common(p)

    moduli = top.add_parser("moduli", help="cone-metric moduli and kernel table")
    moduli_sub = moduli.add_subparsers(dest="command", required=True)

    p = moduli_sub.add_parser("kernel-table", help="built-in kernel table plus optional grid")
    p.add_argument("--n", default=None, metavar="SPEC", help="extra strand counts")
    p.add_argument("--d", default=None, metavar="SPEC", help="extra root parameters")
    add_common(p)

    p = moduli_sub.add_parser("orbifold-check", help="orbifold condition for explicit curvatures")
    p.add_argument("--curvatures", required=True,
                   help="comma-separated fractions of 2*pi, e.g. '1/4,1/4,1/4,1/4,1/4,1/4,2/4'")
    p.add_argument("--labels", required=True,
                   help="comma-separated labels marking interchangeable points")
    add_common(p)

    monodromy = top.add_parser("monodromy", help="moduli-space monodromy checks")
    monodromy_sub = monodromy.add_subparsers(dest="command", required=True)

    p = monodromy_sub.add_parser("check", help="diagram audit on random words")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="puncture count (default n+1)")
    p.add_argument("--words", type=int, default=100)
    p.add_argument("--length", type=int, default=14, help="random word length")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--numerator", type=int, default=1)
    add_common(p)

    p = monodromy_sub.add_parser("signature", help="invariant Hermitian form signature")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9, help="eigenvalue zero tolerance")
    p.add_argument("--numerator", type=int, default=1)
    add_common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=f"{args.group} {args.command}")
    cfg.fmt = "json" if getattr(args, "json", False) else "text"
    cfg.n = getattr(args, "n", None) if isinstance(getattr(args, "n", None), int) else None
    cfg.m = getattr(args, "m", None)
    cfg.numerator = getattr(args, "numerator", 1)
    cfg.word = getattr(args, "word", None)
    cfg.words = getattr(args, "words", 100)
    cfg.length = getattr(args, "length", 14)
    cfg.tol = getattr(args, "tol", 1e-9)
    cfg.curvatures = getattr(args, "curvatures", None)
    cfg.labels = getattr(args, "labels", None)
    seed = getattr(args, "seed", None)
    cfg.seed = seed if seed is not None else default_seed()

    d = getattr(args, "d", None)
    at_root = getattr(args, "at_root", None)
    if isinstance(d, int):
        cfg.d = [d]
    elif isinstance(d, str):
        cfg.d = _parse_int_spec(d)
    elif at_root is not None:
        cfg.d = [at_root]

    if args.group == "moduli" and args.command == "kernel-table":
        n_spec = getattr(args, "n", None)
        cfg.n_list = _parse_int_spec(n_spec) if n_spec else []
        cfg.d = _parse_int_spec(d) if d else []
        if bool(cfg.n_list) != bool(cfg.d):
            raise InvalidConfiguration("kernel-table extras need both --n and --d")
    return cfg


_HANDLERS = {
    "burau eval": cmd_burau_eval,
    "burau check-word": cmd_check_word,
    "moduli kernel-table": cmd_kernel_table,
    "moduli orbifold-check": cmd_orbifold_check,
    "monodromy check": cmd_monodromy_check,
    "monodromy signature": cmd_monodromy_signature,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[cfg.command](cfg)
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
    ) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS


if __name__ == "__main__":
    sys.exit(main())
