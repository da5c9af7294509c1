"""In-memory spans for the traced run, and the per-layer metrics derived
from them.

A span is (name, start, end, parent index, op id). Each op has one root
span, ``op.<kind>``, and one child span for every call the op makes into a
layer's public function. A span's self time is its duration minus the time
its children cover; the root's self time is the benchmark's own
bookkeeping between calls.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter

# Every layer function an op calls through the hook, as ``<module>.<name>``.
LAYER_CALLS = (
    "words.sample_normal_closure",
    "words.random_word",
    "words.parse_word",
    "cyclotomic.is_identity",
    "burau.specialized_burau",
    "burau.burau_of_word",
    "burau.ev_map",
    "burau.projectively_equal",
    "moduli.kernel_descriptor",
    "monodromy.rho_product",
    "monodromy.rho_generators",
    "monodromy.invariant_hermitian_form",
    "monodromy.signature",
)


def untraced(name, fn, *args):
    return fn(*args)


class Tracer:
    """Records spans in memory; ``call`` has the same signature as
    ``untraced`` so ops run unchanged with either."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._root = -1
        self._op = -1

    def begin(self, op_id: int) -> None:
        self._op = op_id
        self._root = len(self.spans)
        self.spans.append(None)

    def end(self, name: str, start: float, end: float) -> None:
        self.spans[self._root] = (name, start, end, -1, self._op)

    def call(self, name, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, perf_counter(), self._root, self._op))

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """``<call>.ms``: median self time per op, over the ops that make the
        call; ``<call>.share``: its self time over all traced op time; and
        ``trace.coverage_frac``: the share of op time inside layer spans."""
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        per_op: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        op_time = 0.0
        bookkeeping = 0.0
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            self_time = end - start - covered.get(index, 0.0)
            if parent < 0:
                op_time += end - start
                bookkeeping += self_time
            else:
                per_op[name][op] += self_time
        metrics = {}
        for name in LAYER_CALLS:
            times = list(per_op[name].values())
            metrics[f"{name}.ms"] = 1000 * statistics.median(times) if times else 0.0
            metrics[f"{name}.share"] = sum(times) / op_time if op_time else 0.0
        metrics["trace.coverage_frac"] = 1 - bookkeeping / op_time if op_time else 0.0
        return metrics


class WorkCounts:
    """Work done per op, computed from the words and matrices the op
    already returned. Only the traced run computes these."""

    def __init__(self, free_reduce):
        self._free_reduce = free_reduce
        self.letters: list[int] = []
        self.cancelled = 0
        self.laurent_terms = 0
        self.laurent_entries = 0
        self.laurent_bits: list[int] = []
        self.cyclo_bits: list[int] = []
        self.degrees: list[int] = []
        self.form_dims: list[int] = []

    def add(self, outputs: dict | None) -> None:
        if not outputs:
            return
        for word in outputs.get("words", ()):
            self.letters.append(len(word))
            self.cancelled += len(word) - len(self._free_reduce(word))
        for matrix in outputs.get("laurent", ()):
            bits = 0
            for row in matrix.rows:
                for poly in row:
                    coeffs = poly.coeffs.values()
                    self.laurent_terms += len(coeffs)
                    self.laurent_entries += 1
                    bits = max([bits] + [abs(c).bit_length() for c in coeffs])
            self.laurent_bits.append(bits)
        if outputs.get("cyclo"):
            self.cyclo_bits.append(max(
                max(abs(a).bit_length() for a in (*x.numerators, x.denominator))
                for matrix in outputs["cyclo"] for row in matrix.rows for x in row
            ))
        if "root" in outputs:
            self.degrees.append(len(outputs["root"].numerators))
        if "form_dim" in outputs:
            self.form_dims.append(outputs["form_dim"])

    def metrics(self) -> dict[str, float]:
        def median(values):
            return float(statistics.median(values)) if values else 0.0

        total_letters = sum(self.letters)
        return {
            "words.letters_per_op": median(self.letters),
            "words.reducible_frac": self.cancelled / total_letters if total_letters else 0.0,
            "laurent.terms_per_entry": (
                self.laurent_terms / self.laurent_entries if self.laurent_entries else 0.0
            ),
            "laurent.max_coeff_bits": median(self.laurent_bits),
            "cyclotomic.field_degree": median(self.degrees),
            "cyclotomic.max_coeff_bits": median(self.cyclo_bits),
            "monodromy.form_solution_dim": (
                statistics.fmean(self.form_dims) if self.form_dims else 0.0
            ),
        }
