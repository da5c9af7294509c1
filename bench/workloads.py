"""The benchmark's three workloads: seeded streams of ops, the one-letter
warm-up that fills each workload's caches, and the answers every verdict is
checked against.

Every op is one verdict. Its expected answer comes from the golden kernel
table below or from a fact that holds by construction (a product of
normal-closure conjugates is in the kernel; a conjugate of sigma_1 is not),
never from the code under test. Ops call ``burau_lab`` only through the
``call(name, fn, *args)`` hook, so a traced run can put a span around each
call into a layer's public function without changing what the op does.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator

from burau_lab import (
    BraidWord,
    KernelDescriptor,
    burau_generator,
    burau_of_word,
    ev_map,
    invariant_hermitian_form,
    kernel_descriptor,
    minus_q_from_d,
    parse_word,
    projectively_equal,
    random_word,
    rho_generators,
    rho_product,
    sample_normal_closure,
    signature,
    specialized_burau,
)

# The paper's kernel table: (n, d, j or None when no tau_{n-1} power is
# needed, l). Kept here rather than read from the package, so that the
# benchmark's answers do not come from the code it measures.
GOLDEN_ROWS: tuple[tuple[int, int, int | None, int], ...] = (
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

# Criterion 3's sampler shape and criterion 6's word length.
CONJUGATOR_LEN = 20
DIAGRAM_WORD_LEN = 14
# Central-twist words are drawn with this many letters, give or take the
# rounding of the multiplier r.
TWIST_LETTERS = (2400, 2600)
# Rows whose m = n+2 signature op fails at the seed commit:
# invariant_hermitian_form picks a (2, m-4) form although its 2-dimensional
# invariant span holds a (1, m-3) one. Their expected answer stays (1, m-3).
KNOWN_SIGNATURE_DEFECTS = frozenset({(4, 7), (4, 8), (4, 18), (5, 5), (5, 8), (9, 3)})


def signature_points() -> list[tuple[int, int]]:
    """The (n, d) with 3 <= n <= 10 and 3 <= d <= 40 whose equal-curvature
    cone sphere exists: the last curvature 2 - n(d-2)/(2d) lies in (0, 1)."""
    return [
        (n, d)
        for n in range(3, 11)
        for d in range(3, 41)
        if 0 < 2 - n * Fraction(d - 2, 2 * d) < 1
    ]


@dataclass(frozen=True)
class Op:
    """One verdict: ``run(call)`` returns (verdict, outputs), and the op
    fails when the verdict differs from ``expected`` or ``run`` raises.
    ``outputs`` holds the words and matrices the op produced, from which a
    traced run derives its work counts. A ``known_defect`` op runs and its
    verdict is reported, but it is kept out of the gated ops: it is not
    attempted, timed or counted as failed."""

    kind: str
    label: str
    run: Callable
    expected: object
    known_defect: bool = False


@dataclass(frozen=True)
class Row:
    """A golden row with its specialization point and normal generators."""

    n: int
    d: int
    j: int | None
    l: int
    minus_q: object
    gens: tuple[BraidWord, ...]
    near_gens: tuple[BraidWord, ...]


def make_rows() -> tuple[Row, ...]:
    rows = []
    for n, d, j, l in GOLDEN_ROWS:
        gens = [parse_word(f"s1^{d}", n), parse_word(f"T{n}^{l}", n)]
        if j is not None:
            gens.insert(1, parse_word(f"T{n - 1}^{j}", n))
        s1 = BraidWord(n, ((1, 1),))
        rows.append(
            Row(n, d, j, l, minus_q_from_d(d), tuple(gens), tuple(g * s1 for g in gens))
        )
    return tuple(rows)


def is_identity(mat) -> bool:
    return mat.is_identity


# -- op bodies ---------------------------------------------------------------


def _closure(call, row: Row, first: BraidWord, second: BraidWord, seeds: tuple[int, int]):
    # Two conjugates, one of each generator, with conjugators of length at
    # most 20 as in acceptance criterion 3.
    word = call(
        "words.sample_normal_closure",
        sample_normal_closure, row.n, (first,), 1, CONJUGATOR_LEN, seeds[0],
    )
    word = word * call(
        "words.sample_normal_closure",
        sample_normal_closure, row.n, (second,), 1, CONJUGATOR_LEN, seeds[1],
    )
    mat = call("burau.specialized_burau", specialized_burau, word, row.minus_q)
    verdict = call("cyclotomic.is_identity", is_identity, mat)
    return verdict, {"words": [word], "cyclo": [mat], "root": row.minus_q}


def _diagram(call, row: Row, m: int, seed: int, tail: BraidWord | None):
    # With a tail s_i^2 the two sides differ by the image of s_i^2, which
    # is not a scalar because q^2 != 1 for d >= 3.
    word = call("words.random_word", random_word, row.n, DIAGRAM_WORD_LEN, random.Random(seed))
    image = call("burau.burau_of_word", burau_of_word, word)
    evaluated = call("burau.ev_map", ev_map, image, row.minus_q, m)
    rho_word = word if tail is None else word * tail
    product = call("monodromy.rho_product", rho_product, rho_word, m, row.minus_q)
    verdict = call(
        "burau.projectively_equal", projectively_equal, evaluated.matrix, product
    )
    return verdict, {
        "words": [rho_word],
        "laurent": [image.matrix],
        "cyclo": [evaluated.matrix, product],
        "root": row.minus_q,
    }


def _descriptor(call, row: Row):
    kd = call("moduli.kernel_descriptor", kernel_descriptor, row.n, row.d)
    if not isinstance(kd, KernelDescriptor):
        return "inconclusive", {}
    return (None if kd.j == math.inf else kd.j, kd.l), {}


def _twist_power(call, row: Row, text: str):
    word = call("words.parse_word", parse_word, text, row.n)
    mat = call("burau.specialized_burau", specialized_burau, word, row.minus_q)
    verdict = call("cyclotomic.is_identity", is_identity, mat)
    return verdict, {"words": [word], "cyclo": [mat], "root": row.minus_q}


def _signature(call, n: int, m: int, minus_q):
    gens = call("monodromy.rho_generators", rho_generators, n, m, minus_q)
    form = call("monodromy.invariant_hermitian_form", invariant_hermitian_form, gens)
    verdict = call("monodromy.signature", signature, form.chosen)
    return verdict, {"root": minus_q, "form_dim": len(form.basis)}


# -- seeded op streams ---------------------------------------------------------
# Each stream yields groups of ops, one group per golden row, and visits the
# rows in a fresh seeded order on every pass after the first. Any stretch of
# a few passes therefore holds every row and every op kind in the same
# proportions, which keeps a run's figures from depending on where the time
# limit cuts it. The first pass visits the rows in table order: a process's
# peak memory is set by the order in which its largest allocations first
# meet (the m = n+2 signature solves at n = 9 and 10 differ by 15 MiB with
# the order), so a fixed first pass makes peak_rss_mb repeatable.


def _passes(rows, rng) -> Iterator[tuple[int, int, Row]]:
    """(pass number, position in the pass, row), forever."""
    for block in itertools.count():
        order = list(rows)
        if block:
            rng.shuffle(order)
        for position, row in enumerate(order):
            yield block, position, row


def closure_groups(rows, rng) -> Iterator[list[Op]]:
    """Per row: a product of two normal-closure conjugates (in the kernel) and
    a near miss whose second generator is multiplied by s1, so its image is
    a conjugate of beta(s1)^(+-1), never the identity. The ordered pair of
    normal generators cycles through all pairs of the row, because word
    length, and so cost, depends mostly on which generators are drawn."""
    pending: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for _, _, row in _passes(rows, rng):
        key = (row.n, row.d)
        if not pending.get(key):
            pairs = [(a, b) for a in range(len(row.gens)) for b in range(len(row.gens))]
            rng.shuffle(pairs)
            pending[key] = pairs
        a, b = pending[key].pop()
        label = f"n={row.n} d={row.d}"
        group = [
            Op("closure", label, partial(
                _closure, row=row, first=row.gens[a], second=row.gens[b],
                seeds=(rng.getrandbits(32), rng.getrandbits(32)),
            ), True),
            Op("closure_near_miss", label, partial(
                _closure, row=row, first=row.gens[a], second=row.near_gens[b],
                seeds=(rng.getrandbits(32), rng.getrandbits(32)),
            ), False),
        ]
        rng.shuffle(group)
        yield group


def diagram_groups(rows, rng) -> Iterator[list[Op]]:
    for _, _, row in _passes(rows, rng):
        group = []
        for m in (row.n + 1, row.n + 2):
            label = f"n={row.n} d={row.d} m={m}"
            group.append(Op(
                "diagram", label,
                partial(_diagram, row=row, m=m, seed=rng.getrandbits(32), tail=None), True,
            ))
            i = rng.randint(1, row.n - 1)
            tail = BraidWord(row.n, ((i, 1), (i, 1)))
            group.append(Op(
                "diagram_s_i_squared", f"{label} i={i}",
                partial(_diagram, row=row, m=m, seed=rng.getrandbits(32), tail=tail), False,
            ))
        rng.shuffle(group)
        yield group


def certify_groups(context, rng) -> Iterator[list[Op]]:
    """Per row: its descriptor, one minimal-power non-member, one long
    central-twist power (T_n^(l*r), in the kernel, and T_n^(l*r+1), not in
    it, on alternate passes), its m = n+2 signature, and a share of the
    m = n+1 signature points, so that each pass covers every point once.
    The m = n+2 signature ops of KNOWN_SIGNATURE_DEFECTS are marked as known
    defects, so that every gated op passes at the seed commit and a new
    failure shows."""
    rows, roots = context
    points = signature_points()
    for block, position, row in _passes(rows, rng):
        if position == 0:
            shuffled = list(points)
            if block:
                rng.shuffle(shuffled)
        n, d, j, l = row.n, row.d, row.j, row.l
        label = f"n={n} d={d}"
        group = [Op("descriptor", label, partial(_descriptor, row=row), (j, l))]

        powers = [f"T{n}^{k}" for k in range(1, l)]
        if j is not None:
            powers += [f"T{n - 1}^{k}" for k in range(1, j)]
        text = rng.choice(powers)
        group.append(Op(
            "minimal_power", f"{label} {text}", partial(_twist_power, row=row, text=text), False,
        ))

        r = max(1, round(rng.randint(*TWIST_LETTERS) / (n * (n - 1) * l)))
        in_kernel = (block + rows.index(row)) % 2 == 0
        text = f"T{n}^{l * r}" if in_kernel else f"T{n}^{l * r + 1}"
        group.append(Op(
            "central_twist" if in_kernel else "central_twist_plus_one",
            f"{label} {text}", partial(_twist_power, row=row, text=text), in_kernel,
        ))

        m = n + 2
        group.append(Op(
            "signature_m_n_plus_2", f"{label} m={m}",
            partial(_signature, n=n, m=m, minus_q=row.minus_q), (1, m - 3, 0),
            known_defect=(n, d) in KNOWN_SIGNATURE_DEFECTS,
        ))
        lo = position * len(points) // len(rows)
        hi = (position + 1) * len(points) // len(rows)
        for pn, pd in shuffled[lo:hi]:
            group.append(Op(
                "signature_m_n_plus_1", f"n={pn} d={pd} m={pn + 1}",
                partial(_signature, n=pn, m=pn + 1, minus_q=roots[pd]), (1, pn - 2, 0),
            ))
        if block:
            rng.shuffle(group)
        yield group


# -- workloads and their warm-up ----------------------------------------------
# The warm-up evaluates one-letter words only, never an op's own input. It
# fills generator images and their inverses for every strand count, the
# field tables of every root, and the letter tables the workload reads.


def fill_generators(strand_counts) -> None:
    for n in strand_counts:
        for i in range(1, n):
            burau_generator(n, i)
            burau_generator(n, i, True)


def _one_letter_words(n: int) -> list[BraidWord]:
    return [BraidWord(n, ((i, s),)) for i in range(1, n) for s in (1, -1)]


def _fill_letter_tables(rows) -> None:
    for row in rows:
        for word in _one_letter_words(row.n):
            specialized_burau(word, row.minus_q)


def _fill_closure(rows):
    _fill_letter_tables(rows)
    return rows


def _fill_diagram(rows):
    for row in rows:
        for m in (row.n + 1, row.n + 2):
            for word in _one_letter_words(row.n):
                ev_map(burau_of_word(word), row.minus_q, m)
                rho_product(word, m, row.minus_q)
    return rows


def _fill_certify(rows):
    _fill_letter_tables(rows)
    roots = {d: minus_q_from_d(d) for d in sorted({d for _, d in signature_points()})}
    return rows, roots


@dataclass(frozen=True)
class Workload:
    """A named op stream, the strand counts whose generators it needs, and
    the one-letter fill of its roots' tables."""

    name: str
    strand_counts: range
    fill: Callable
    stream: Callable

    def fill_roots(self):
        """Build the golden rows and roots, fill their tables, and return
        the context ``groups`` needs."""
        return self.fill(make_rows())

    def groups(self, context, seed: int) -> Iterator[list[Op]]:
        return self.stream(context, random.Random(f"{self.name}:{seed}"))


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("closure", range(4, 11), _fill_closure, closure_groups),
        Workload("diagram", range(4, 11), _fill_diagram, diagram_groups),
        Workload("certify", range(3, 11), _fill_certify, certify_groups),
    )
}
