"""Cone-metric moduli analysis: curvature vectors, collision cone angles,
the orbifold condition, and the kernel descriptors it certifies.

All angle arithmetic is exact, measured in units of 2*pi: a curvature k
is stored as k/(2*pi) in the open interval (0, 1), and a curvature vector
on the sphere must sum to 2 (Gauss-Bonnet: the angle defects of a flat
cone sphere total 4*pi). A vector holds integer numerators over one
common denominator D, in lowest terms, so the collision rule below is
integer arithmetic: a ``Fraction`` is built only for a stratum's reported
angle, a message, or the ``fractions`` property. No floating point
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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .cyclotomic import INFINITE, InvalidD, minus_q_from_d, multiplicative_order
from .words import MAX_FULL_DIGITS, BraidWord, _check_integers, count_text, parse_word, quoted_text


class InvalidFraction(ValueError):
    """A curvature fraction lies outside the open interval (0, 1), or a
    same-label pair has unequal curvatures."""


class InvalidCurvatures(ValueError):
    """A curvature vector or labeling violates its invariants."""


class InvalidConfiguration(ValueError):
    """No admissible cone sphere exists for the requested parameters."""


@dataclass(frozen=True)
class CurvatureVector:
    """Cone-point curvatures as fractions of 2*pi, numerators[i] /
    denominator: each in (0, 1), summing to exactly 2. The vector is kept
    in lowest terms (no common factor of the denominator and every
    numerator), so equal curvatures make equal vectors. Build one from
    fractions with ``from_fractions``."""

    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        nums, den = tuple(self.numerators), self.denominator
        if not all(isinstance(x, int) for x in (den, *nums)):
            raise InvalidCurvatures("numerators and denominator must be integers")
        if len(nums) < 3:
            raise InvalidCurvatures("need at least 3 cone points")
        if den < 1:
            raise InvalidCurvatures(f"the denominator {count_text(den)} is not positive")
        for a in nums:
            if not 0 < a < den:
                raise InvalidCurvatures(f"curvature fraction {Fraction(a, den)} outside (0, 1)")
        total = sum(nums)
        if total != 2 * den:
            total = Fraction(total, den)
            if max(total.numerator, total.denominator) < 10**MAX_FULL_DIGITS:
                text = f"{total}, not 2"
            else:
                side = "less" if total < 2 else "more"
                text = f"{side} than 2 (denominator {count_text(total.denominator)})"
            raise InvalidCurvatures(f"curvature fractions sum to {text}")
        common = math.gcd(den, *nums)
        if common > 1:
            nums, den = tuple(a // common for a in nums), den // common
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def from_fractions(cls, fractions: Sequence) -> CurvatureVector:
        """The vector of these curvatures, each read with ``Fraction``,
        over the lcm of their denominators."""
        fracs = tuple(map(Fraction, fractions))
        den = math.lcm(*(f.denominator for f in fracs))
        return cls(tuple(f.numerator * (den // f.denominator) for f in fracs), den)

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        """The curvatures as ``Fraction`` values, built when read."""
        return tuple(Fraction(a, self.denominator) for a in self.numerators)

    def __len__(self) -> int:
        return len(self.numerators)


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


def _collision(a: int, b: int, den: int, same_label: bool) -> tuple[int, int] | None:
    """The cone angle, (numerator, denominator) of a fraction of 2*pi, not
    reduced, around the stratum where points of curvature a/den and b/den
    collide; None when a + b >= den leaves nothing to collide.

    Interchangeable points of common curvature a/den: angle (pi - k)/2*pi,
    i.e. 1/2 - a/den = (den - 2a)/(2 den). Distinguishable points:
    2*pi - (k_i + k_j), i.e. (den - a - b)/den. Points with distinct labels
    always use the second formula, even when their curvature values
    coincide. The angle is 1/j of 2*pi exactly when its numerator divides
    its denominator, j being the quotient."""
    if a + b >= den:
        return None
    return (den - 2 * a, 2 * den) if same_label else (den - a - b, den)


def cone_angle(k_i: Fraction, k_j: Fraction, same_label: bool) -> Fraction | None:
    """Cone angle (as a fraction of 2*pi) around the stratum where two cone
    points collide, or None when no stratum exists (curvatures summing to
    at least 2*pi leave nothing to collide): ``_collision`` over the lcm of
    the two denominators. Same-label points must carry equal curvature.
    """
    k_i, k_j = Fraction(k_i), Fraction(k_j)
    for f in (k_i, k_j):
        if not 0 < f < 1:
            raise InvalidFraction(f"curvature fraction {f} outside (0, 1)")
    if same_label and k_i != k_j:
        raise InvalidFraction("same-label points must have equal curvature")
    den = math.lcm(k_i.denominator, k_j.denominator)
    a, b = (f.numerator * (den // f.denominator) for f in (k_i, k_j))
    angle = _collision(a, b, den, same_label)
    return None if angle is None else Fraction(*angle)


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
    nums, den = curvatures.numerators, curvatures.denominator
    by_label: dict[str, list[int]] = {}
    for idx, label in enumerate(labels):
        by_label.setdefault(label, []).append(idx)
    for label, members in by_label.items():
        values = {nums[i] for i in members}
        if len(values) > 1:
            mixed = ", ".join(str(Fraction(a, den)) for a in sorted(values))
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
            angle = _collision(nums[i], nums[j], den, same)
            if angle is None:
                continue
            top, bottom = angle
            order = None if bottom % top else bottom // top
            strata.append(ConeStratum((i, j), Fraction(top, bottom), order))
    ok = all(s.orbifold_order is not None for s in strata)
    return OrbifoldReport(ok, tuple(strata))


def _twist_order(curvatures: CurvatureVector) -> int | float:
    """j: the orbifold order of the stratum where the first and last points
    collide, or INFINITE when they cannot. Raises ValueError when the
    stratum's angle is not 1/j of 2*pi."""
    nums, den = curvatures.numerators, curvatures.denominator
    angle = _collision(nums[0], nums[-1], den, same_label=False)
    if angle is None:
        return INFINITE
    top, bottom = angle
    if bottom % top:
        raise ValueError(f"the twist stratum has angle {Fraction(top, bottom)} of 2pi, not 1/j")
    return bottom // top


def _central_power(n: int, d: int) -> int:
    """l = 2d/gcd(2d, (d+2)n), the power of the central twist tau_n in the
    kernel at a primitive d-th root."""
    return 2 * d // math.gcd(2 * d, (d + 2) * n)


@dataclass(frozen=True)
class KernelDescriptor:
    """The kernel of the Burau specialization at a primitive d-th root,
    described as the normal closure of sigma^d and tau_{n-1}^j (j = INFINITE
    meaning no tau_{n-1} power at all) together with the central tau_n^l.

    It is built from (strands_n, d, curvatures) and derives j and l itself:
    j from the first and last points' collision stratum, whose angle is 1/j
    of 2*pi, or which is absent (``_twist_order``, ValueError for any other
    angle), and l = 2d/gcd(2d, (d+2)n) (``_central_power``). Before that it
    checks that n and d are integers and that the curvatures are those of
    (n, d), ``curvatures_from_nd(n, d)``, which refuses d < 3 and any (n, d)
    with no cone sphere: each failure raises InvalidConfiguration.
    ``kernel_descriptor`` builds the curvatures itself, so it skips these
    checks (``_valid_descriptor``) rather than build the vector twice."""

    strands_n: int
    d: int
    j: int | float = field(init=False)
    l: int = field(init=False)
    curvatures: CurvatureVector

    def __post_init__(self):
        n, d = self.strands_n, self.d
        _check_integers(InvalidConfiguration, ("n", n), ("d", d))
        if self.curvatures != curvatures_from_nd(n, d):
            raise InvalidConfiguration(f"the curvatures are not those of n={n}, d={d}")
        self._derive()

    def _derive(self) -> None:
        """Set j and l from the curvatures and (n, d)."""
        object.__setattr__(self, "j", _twist_order(self.curvatures))
        object.__setattr__(self, "l", _central_power(self.strands_n, self.d))

    def normal_generators(self) -> tuple[BraidWord, ...]:
        """The normal generators as words of the grammar: s1^d, T{n-1}^j
        when j is finite, and the central generator T{n}^l."""
        n = self.strands_n
        texts = [f"s1^{self.d}"]
        if self.j != INFINITE:
            texts.append(f"T{n - 1}^{self.j}")
        texts.append(f"T{n}^{self.l}")
        return tuple(parse_word(text, n) for text in texts)


def _valid_descriptor(n: int, d: int, curvatures: CurvatureVector) -> KernelDescriptor:
    """The descriptor of (n, d) holding ``curvatures`` as given, with j and
    l derived as ``KernelDescriptor`` derives them but without its integer
    and membership checks: only for the vector ``curvatures_from_nd(n, d)``
    itself, which ``kernel_descriptor`` has just built."""
    kd = object.__new__(KernelDescriptor)
    object.__setattr__(kd, "strands_n", n)
    object.__setattr__(kd, "d", d)
    object.__setattr__(kd, "curvatures", curvatures)
    kd._derive()
    return kd


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
    Gauss-Bonnet, (4d - n(d-2))/(2d): numerators over the common
    denominator 2d, which the vector keeps in lowest terms. An n or d that is not an integer raises
    InvalidConfiguration."""
    _check_integers(InvalidConfiguration, ("n", n), ("d", d))
    if n < 3:
        raise InvalidConfiguration("need at least 3 strands")
    if d < 3:
        raise InvalidConfiguration("need d at least 3")
    last = 4 * d - n * (d - 2)
    if not 0 < last < 2 * d:
        raise InvalidConfiguration(
            f"no admissible cone sphere for n={n}, d={d}: last fraction {Fraction(last, 2 * d)}"
        )
    return CurvatureVector((d - 2,) * n + (last,), 2 * d)


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
    return _valid_descriptor(n, d, curvatures)


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
