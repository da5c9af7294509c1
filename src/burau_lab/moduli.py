"""Cone-metric moduli analysis: curvature vectors, collision cone angles,
the orbifold condition, and the kernel descriptors it certifies.

All angle arithmetic is exact rational, measured in units of 2*pi: a
curvature k is stored as the fraction k/(2*pi) in the open interval
(0, 1), and a curvature vector on the sphere must sum to 2 (Gauss-Bonnet:
the angle defects of a flat cone sphere total 4*pi). No floating point
appears in this module; integral-submultiple tests must be exact.

Two cone points can collide in the completed moduli space only when their
curvatures sum to less than 2*pi; the codimension-2 stratum created there
carries a cone angle given by the collision formulas below. The
completion is an orbifold exactly when every such angle is an integral
submultiple of 2*pi, and orbifold stratum orders translate into powers of
twists normally generating the kernel of the specialized Burau
representation. When the orbifold condition fails, the method is silent:
the outcome is Inconclusive, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cyclotomic import INFINITE, InvalidD, minus_q_from_d, multiplicative_order
from .words import MAX_FULL_DIGITS, BraidWord, count_text, parse_word, quoted_text


class InvalidFraction(ValueError):
    """A curvature fraction lies outside the open interval (0, 1), or a
    same-label pair has unequal curvatures."""


class InvalidCurvatures(ValueError):
    """A curvature vector or labeling violates its invariants."""


class InvalidConfiguration(ValueError):
    """No admissible cone sphere exists for the requested parameters."""


@dataclass(frozen=True)
class CurvatureVector:
    """Cone-point curvatures as fractions of 2*pi: each in (0, 1), summing
    to exactly 2."""

    fractions: tuple[Fraction, ...]

    def __post_init__(self):
        fracs = tuple(Fraction(f) for f in self.fractions)
        object.__setattr__(self, "fractions", fracs)
        if len(fracs) < 3:
            raise InvalidCurvatures("need at least 3 cone points")
        for f in fracs:
            if not 0 < f < 1:
                raise InvalidCurvatures(f"curvature fraction {f} outside (0, 1)")
        total = sum(fracs)
        if total != 2:
            if max(abs(total.numerator), total.denominator) < 10**MAX_FULL_DIGITS:
                text = f"{total}, not 2"
            else:
                side = "less" if total < 2 else "more"
                text = f"{side} than 2 (denominator {count_text(total.denominator)})"
            raise InvalidCurvatures(f"curvature fractions sum to {text}")

    def __len__(self) -> int:
        return len(self.fractions)


@dataclass(frozen=True)
class ConeStratum:
    """A codimension-2 collision stratum: a representative pair of point
    indices (0-based), the cone angle as a fraction of 2*pi, and the
    orbifold order (set iff the angle is 1/integer)."""

    pair: tuple[int, int]
    angle_fraction: Fraction
    orbifold_order: int | None


@dataclass(frozen=True)
class OrbifoldReport:
    """Outcome of the orbifold condition over all collision strata."""

    is_orbifold: bool
    strata: tuple[ConeStratum, ...]


def cone_angle(k_i: Fraction, k_j: Fraction, same_label: bool) -> Fraction | None:
    """Cone angle (as a fraction of 2*pi) around the stratum where two cone
    points collide, or None when no stratum exists (curvatures summing to
    at least 2*pi leave nothing to collide).

    Interchangeable points of common curvature k: angle (pi - k)/2*pi,
    i.e. 1/2 - k/2pi. Distinguishable points: 2*pi - (k_i + k_j), i.e.
    1 - (k_i + k_j)/2pi. Points with distinct labels always use the second
    formula, even when their curvature values coincide.
    """
    k_i, k_j = Fraction(k_i), Fraction(k_j)
    for f in (k_i, k_j):
        if not 0 < f < 1:
            raise InvalidFraction(f"curvature fraction {f} outside (0, 1)")
    if same_label and k_i != k_j:
        raise InvalidFraction("same-label points must have equal curvature")
    if k_i + k_j >= 1:
        return None
    if same_label:
        return Fraction(1, 2) - k_i
    return 1 - (k_i + k_j)


def orbifold_check(curvatures: CurvatureVector, labels: Sequence[str]) -> OrbifoldReport:
    """Test the orbifold condition for the completed moduli space.

    Labels partition the points into interchangeable groups; same-label
    points must carry equal curvature. One stratum is reported per
    unordered label pair whose collision exists (all point pairs in a
    label class give the same stratum), with a representative point pair.
    The completion is an orbifold iff every existing stratum's angle is an
    integral submultiple of 2*pi.
    """
    if len(labels) != len(curvatures):
        raise InvalidCurvatures(
            f"{len(labels)} labels for {len(curvatures)} cone points"
        )
    by_label: dict[str, list[int]] = {}
    for idx, label in enumerate(labels):
        by_label.setdefault(label, []).append(idx)
    for label, members in by_label.items():
        values = {curvatures.fractions[i] for i in members}
        if len(values) > 1:
            mixed = ", ".join(map(str, sorted(values)))
            raise InvalidCurvatures(f"label {quoted_text(label)} mixes curvatures [{mixed}]")

    strata: list[ConeStratum] = []
    names = sorted(by_label)
    for a_pos, label_a in enumerate(names):
        for label_b in names[a_pos:]:
            same = label_a == label_b
            if same and len(by_label[label_a]) < 2:
                continue
            if same:
                i, j = by_label[label_a][:2]
            else:
                i, j = by_label[label_a][0], by_label[label_b][0]
            angle = cone_angle(
                curvatures.fractions[i], curvatures.fractions[j], same_label=same
            )
            if angle is None:
                continue
            order = angle.denominator if angle.numerator == 1 else None
            strata.append(ConeStratum((i, j), angle, order))
    ok = all(s.orbifold_order is not None for s in strata)
    return OrbifoldReport(ok, tuple(strata))


def _twist_order(curvatures: CurvatureVector) -> int | float:
    """j: the orbifold order of the stratum where the first and last points
    collide, or INFINITE when they cannot. Raises ValueError when the
    stratum's angle is not 1/j of 2*pi."""
    fractions = curvatures.fractions
    angle = cone_angle(fractions[0], fractions[-1], same_label=False)
    if angle is None:
        return INFINITE
    if angle.numerator != 1:
        raise ValueError(f"the twist stratum has angle {angle} of 2pi, not 1/j")
    return angle.denominator


def _central_power(n: int, d: int) -> int:
    """l = 2d/gcd(2d, (d+2)n), the power of the central twist tau_n in the
    kernel at a primitive d-th root."""
    return 2 * d // math.gcd(2 * d, (d + 2) * n)


@dataclass(frozen=True)
class KernelDescriptor:
    """The kernel of the Burau specialization at a primitive d-th root,
    described as the normal closure of sigma^d and tau_{n-1}^j (j = INFINITE
    meaning no tau_{n-1} power at all) together with the central tau_n^l. The
    first and last points' collision stratum has angle 1/j of 2*pi, or none."""

    strands_n: int
    d: int
    j: int | float
    l: int
    curvatures: CurvatureVector

    def __post_init__(self):
        if not (self.j == INFINITE or type(self.j) is int and self.j >= 1):
            raise ValueError(f"j = {self.j!r} is neither INFINITE nor an integer >= 1")
        j = _twist_order(self.curvatures)
        if self.j != j:
            raise ValueError(f"j = {self.j} disagrees with the curvatures, which give {j}")
        expected = _central_power(self.strands_n, self.d)
        if self.l != expected:
            raise ValueError(f"l = {self.l} violates 2d/gcd(2d, (d+2)n) = {expected}")

    def normal_generators(self) -> tuple[BraidWord, ...]:
        """The normal generators as words of the grammar: s1^d, T{n-1}^j
        when j is finite, and the central generator T{n}^l."""
        n = self.strands_n
        texts = [f"s1^{self.d}"]
        if self.j != INFINITE:
            texts.append(f"T{n - 1}^{self.j}")
        texts.append(f"T{n}^{self.l}")
        return tuple(parse_word(text, n) for text in texts)


@dataclass(frozen=True)
class Inconclusive:
    """The completed moduli space fails the orbifold condition, so this
    method cannot identify the kernel. Carries the failing strata."""

    strands_n: int
    d: int
    curvatures: CurvatureVector
    report: OrbifoldReport

    @property
    def failing_strata(self) -> tuple[ConeStratum, ...]:
        return tuple(s for s in self.report.strata if s.orbifold_order is None)


def curvatures_from_nd(n: int, d: int) -> CurvatureVector:
    """The curvature vector on n+1 points that realizes the specialization
    at a primitive d-th root: n points of common curvature with fraction
    (d-2)/(2d) (so that q = exp(i(pi - k))) and a last point supplied by
    Gauss-Bonnet."""
    if n < 3:
        raise InvalidConfiguration("need at least 3 strands")
    if d < 3:
        raise InvalidConfiguration("need d at least 3")
    common = Fraction(d - 2, 2 * d)
    last = 2 - n * common
    if not 0 < last < 1:
        raise InvalidConfiguration(
            f"no admissible cone sphere for n={n}, d={d}: last fraction {last}"
        )
    return CurvatureVector((common,) * n + (last,))


def distinguished_labels(n: int) -> tuple[str, ...]:
    """n interchangeable points plus the distinguished last point."""
    return ("a",) * n + ("b",)


def kernel_descriptor(n: int, d: int) -> KernelDescriptor | Inconclusive:
    """Identify ker of the Burau specialization at a primitive d-th root via
    the orbifold structure of the completed moduli space on n+1 points.

    The distinguished (n+1)-st point always carries its own label, so its
    collisions use the full-twist formula even when the curvature values
    coincide. Returns Inconclusive when the completion is not an orbifold.
    """
    curvatures = curvatures_from_nd(n, d)
    labels = distinguished_labels(n)
    report = orbifold_check(curvatures, labels)
    if not report.is_orbifold:
        return Inconclusive(n, d, curvatures, report)
    for stratum in report.strata:
        if n not in stratum.pair and stratum.orbifold_order != d:
            raise ArithmeticError(
                f"sigma stratum {stratum.pair} has order {stratum.orbifold_order}, not d={d}"
            )
    return KernelDescriptor(n, d, _twist_order(curvatures), _central_power(n, d), curvatures)


def b3_kernel(d: int) -> KernelDescriptor:
    """The 3-strand kernel descriptor for d >= 7: ``kernel_descriptor(3, d)``,
    checked to have j = INFINITE (the last two curvatures sum past 2*pi, so
    no twist stratum is added) and l = 2d/gcd(12, d+6).

    The closed form is cross-checked at call time against the
    multiplicative order of (-q)^3 computed in the cyclotomic field.
    """
    if d < 7:
        raise InvalidD(f"the 3-strand analysis requires d >= 7, got {d}")
    desc = kernel_descriptor(3, d)
    if not isinstance(desc, KernelDescriptor) or desc.j != INFINITE:
        raise ArithmeticError(f"the twist stratum must be absent for d >= 7, got d={d}")
    l = 2 * d // math.gcd(12, d + 6)
    order = multiplicative_order(minus_q_from_d(d) ** 3)
    if not desc.l == l == order:
        raise ArithmeticError(f"closed form l={l}, descriptor l={desc.l} and computed "
                              f"order {order} disagree at d={d}")
    return desc
