"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a polynomial in the canonical primitive N-th root of unity
zeta_N = exp(2*pi*i/N), reduced modulo the N-th cyclotomic polynomial
Phi_N, so the stored degree is always below phi(N) and equality is
structural. Coefficients are rationals held as an integer vector over a
common positive denominator; products of algebraic integers therefore
stay in pure integer arithmetic, which is what the representation-theory
hot loops need.

The module also provides the root used to specialize Burau matrices:
for q the canonical primitive d-th root of unity, ``minus_q_from_d(d)``
returns -q embedded in the smallest field containing it, namely Q(zeta_N)
with N = 2d (d odd), N = d (d = 0 mod 4) or N = d/2 (d = 2 mod 4), as a
power zeta_N^k. A specialization point always has that form:
``root_exponent`` reads k back, and raises NotARoot for any other point.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .laurent import LaurentMatrix, LaurentPoly, NotDivisible, SquareMatrix, _scalar_rows
from .words import count_text

INFINITE = math.inf

MAX_D = 1000
"""The largest d that ``minus_q_from_d`` accepts. The field of -q has order
N <= 2d, and its reduction table (``_field``) holds about N * phi(N) ints,
which grows quadratically in d: ``burau check-word --d 997`` peaks at 48 MiB
of RSS, against 30 MiB at d = 5 (CPython 3.11)."""


class ZeroInput(ValueError):
    """A nonzero value was required (inversion or specialization at zero)."""


class NotARoot(ValueError):
    """A specialization point is not a power zeta_N^k of its field's zeta_N."""


class InvalidD(ValueError):
    """The requested root-of-unity parameter d (or numerator a) is not valid."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of the n-th cyclotomic polynomial,
    computed by dividing x^n - 1 by Phi_d for every proper divisor d.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    # Ordinary polynomial division, known exact (used only for Phi_n).
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1] // den[-1]
        out[shift] = c
        if c:
            for i, dc in enumerate(den):
                num[shift + i] -= c * dc
    if any(num):
        raise NotDivisible(f"{den} does not divide {num} exactly")
    return out


@lru_cache(maxsize=None)
def _field(order: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Degree phi(order) and reduction rows: row e is x^e mod Phi_order as an
    integer vector of length phi(order), for e in 0..max(order, 2*phi)-1."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    top = [-c for c in phi[:-1]]  # x^deg = top as Phi is monic
    count = max(order, 2 * deg)
    rows: list[tuple[int, ...]] = []
    current = [0] * deg
    for e in range(count):
        if e < deg:
            current = [0] * deg
            current[e] = 1
        else:
            carry = current[deg - 1]
            current = [0] + current[:-1]
            if carry:
                current = [a + carry * b for a, b in zip(current, top)]
        rows.append(tuple(current))
    return deg, tuple(rows)


def _substitute(num: Sequence[int], step: int, order: int) -> list[int]:
    """The integer vector of sum_e num[e] * x^(e*step) reduced into
    Q(zeta_order): the map zeta -> zeta_order^step."""
    deg, rows = _field(order)
    out = [0] * deg
    for e, a in enumerate(num):
        if a:
            row = rows[(e * step) % order]
            for j in range(deg):
                out[j] += a * row[j]
    return out


@lru_cache(maxsize=None)
def _root_exponents(order: int) -> dict[tuple[int, ...], int]:
    """The reduced vector of zeta_order^e, mapped to e, for e in 0..order-1."""
    _, rows = _field(order)
    return {rows[e]: e for e in range(order)}


@lru_cache(maxsize=None)
def _unit_roots(order: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * k / order) for k in range(order))


class CyclotomicNumber:
    """An exact element of Q(zeta_order).

    Stored canonically: integer numerator vector of length phi(order) over a
    positive denominator, with the gcd of all numerators and the denominator
    equal to 1.

    An element belongs to one field: arithmetic with an element of another
    field raises ValueError naming both. ``==`` against another field's
    element is true only when both are rational with equal value, as it is
    against an int or Fraction of that value, so ``==`` stays transitive
    through int and Fraction, and a rational element hashes like its
    Fraction.

    An operand from the same field is recognized before any int or
    Fraction coercion is tried. A result of integral operands (denominator
    1) is built by ``_canonical`` without renormalizing: with denominator 1
    it is canonical as it stands. Every other result goes through
    ``__init__``.
    """

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, num: Iterable[int], den: int = 1):
        if order < 1:
            raise ValueError("field order must be positive")
        deg, _ = _field(order)
        vec = list(num)
        if len(vec) != deg:
            raise ValueError(f"expected {deg} coefficients for Q(zeta_{order})")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            vec = [-a for a in vec]
        g = den
        for a in vec:
            g = math.gcd(g, a)
            if g == 1:
                break
        if g > 1:
            den //= g
            vec = [a // g for a in vec]
        if not any(vec):
            den = 1
        self.order = order
        self._num = tuple(vec)
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int = 1) -> CyclotomicNumber:
        deg, _ = _field(order)
        return cls(order, [0] * deg)

    @classmethod
    def one(cls, order: int = 1) -> CyclotomicNumber:
        deg, _ = _field(order)
        return cls(order, [1] + [0] * (deg - 1))

    @classmethod
    def from_fraction(cls, value: Fraction | int, order: int = 1) -> CyclotomicNumber:
        f = Fraction(value)
        deg, _ = _field(order)
        return cls(order, [f.numerator] + [0] * (deg - 1), f.denominator)

    @classmethod
    def from_powers(cls, order: int, coeffs: Sequence[int]) -> CyclotomicNumber:
        """sum_e coeffs[e] * zeta_order^e for an integer vector of length
        order: the image of an element of Z[x]/(x^order - 1) under x ->
        zeta_order, reduced mod Phi_order."""
        return _canonical(order, tuple(_substitute(coeffs, 1, order)))

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> CyclotomicNumber:
        """zeta_order^power, reduced into the field of the given order."""
        deg, rows = _field(order)
        return cls(order, rows[power % order])

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self._num)

    @property
    def is_one(self) -> bool:
        return self._den == 1 and self._num[0] == 1 and not any(self._num[1:])

    @property
    def numerators(self) -> tuple[int, ...]:
        return self._num

    @property
    def denominator(self) -> int:
        return self._den

    def _pair(self, other: CyclotomicNumber | int | Fraction) -> tuple[CyclotomicNumber, CyclotomicNumber]:
        if type(other) is CyclotomicNumber and other.order == self.order:
            return self, other
        if type(other) is int:
            return self, _canonical(self.order, (other,) + (0,) * (len(self._num) - 1))
        if isinstance(other, (int, Fraction)):
            return self, CyclotomicNumber.from_fraction(other, self.order)
        raise ValueError(
            f"cannot combine elements of Q(zeta_{self.order}) and Q(zeta_{other.order})"
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is CyclotomicNumber and other.order == self.order:
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == CyclotomicNumber.from_fraction(other, self.order)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return (
            not any(self._num[1:]) and not any(other._num[1:])
            and self._num[0] == other._num[0] and self._den == other._den
        )

    def __hash__(self) -> int:
        if any(self._num[1:]):
            return hash((self.order, self._num, self._den))
        return hash(Fraction(self._num[0], self._den))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: CyclotomicNumber | int | Fraction) -> CyclotomicNumber:
        a, b = self._pair(other)
        if a._den == 1 == b._den:
            return _canonical(a.order, tuple(map(operator.add, a._num, b._num)))
        if a._den == b._den:
            return CyclotomicNumber(a.order, [x + y for x, y in zip(a._num, b._num)], a._den)
        return CyclotomicNumber(
            a.order,
            [x * b._den + y * a._den for x, y in zip(a._num, b._num)],
            a._den * b._den,
        )

    __radd__ = __add__

    def __neg__(self) -> CyclotomicNumber:
        return _canonical(self.order, tuple(map(operator.neg, self._num)), self._den)

    def __sub__(self, other: CyclotomicNumber | int | Fraction) -> CyclotomicNumber:
        a, b = self._pair(other)
        if a._den == 1 == b._den:
            return _canonical(a.order, tuple(map(operator.sub, a._num, b._num)))
        return a + (-b)

    def __rsub__(self, other: int | Fraction) -> CyclotomicNumber:
        return (-self) + other

    def __mul__(self, other: CyclotomicNumber | int | Fraction) -> CyclotomicNumber:
        if type(other) is CyclotomicNumber and other.order == self.order:
            a, b = self, other
        elif isinstance(other, int):
            if self._den == 1:
                return _canonical(self.order, tuple(a * other for a in self._num))
            return CyclotomicNumber(self.order, [a * other for a in self._num], self._den)
        else:
            a, b = self._pair(other)
        deg, rows = _field(a.order)
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(a._num):
            if x:
                for j, y in enumerate(b._num):
                    if y:
                        conv[i + j] += x * y
        out = list(conv[:deg])
        for e in range(deg, 2 * deg - 1):
            c = conv[e]
            if c:
                row = rows[e]
                for j in range(deg):
                    out[j] += c * row[j]
        if a._den == 1 == b._den:
            return _canonical(a.order, tuple(out))
        return CyclotomicNumber(a.order, out, a._den * b._den)

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicNumber:
        """Multiplicative inverse through the real subfield, in integer
        arithmetic.

        For self = a/den with a integral, y = a*conj(a) (or y = a when a is
        real) lies in the real subfield Q(zeta + zeta^-1). Its conjugates
        over Q are sigma_k(y), sigma_k: zeta -> zeta^k, for one k of each
        pair +-k coprime to the order, 1 <= k < order/2, so with P their
        product over k >= 2, N+(y) = y*P is a nonzero rational integer, and
        the inverse is den*conj(a)*P/N+(y) (den*P/N+(a) for real a). That
        is at most phi/2 + 1 products, where the norm over Q takes phi. For
        orders 1 and 2 the field is Q and P = 1.
        """
        if self.is_zero:
            raise ZeroInput("zero has no inverse")
        order = self.order
        a = _canonical(order, self._num)
        a_bar = tuple(_substitute(self._num, order - 1, order))
        if a_bar == self._num:
            y, conjugates = a, CyclotomicNumber.one(order)
        else:
            conjugates = _canonical(order, a_bar)
            y = a * conjugates
        for k in range(2, (order + 1) // 2):
            if math.gcd(k, order) == 1:
                conjugates = conjugates * _canonical(
                    order, tuple(_substitute(y._num, k, order))
                )
        norm = a * conjugates
        if any(norm._num[1:]):
            raise ArithmeticError(f"the norm of {self} is not rational")
        return CyclotomicNumber(
            order, [c * self._den for c in conjugates._num], norm._num[0]
        )

    def __truediv__(self, other: CyclotomicNumber | int | Fraction) -> CyclotomicNumber:
        a, b = self._pair(other)
        return a * b.inverse()

    def __pow__(self, n: int) -> CyclotomicNumber:
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        result = CyclotomicNumber.one(self.order)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- output ------------------------------------------------------------

    def to_complex(self) -> complex:
        roots = _unit_roots(self.order)
        total = 0j
        for e, a in enumerate(self._num):
            if a:
                total += a * roots[e]
        return total / self._den

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for e, a in enumerate(self._num):
            if not a:
                continue
            coeff = Fraction(a, self._den)
            mag = abs(coeff)
            if e == 0:
                body = str(mag)
            else:
                z = f"zeta({self.order})" if e == 1 else f"zeta({self.order})^{e}"
                body = z if mag == 1 else f"({mag})*{z}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self.order}, '{self}')"


def _canonical(order: int, num: tuple[int, ...], den: int = 1) -> CyclotomicNumber:
    """The element num/den of Q(zeta_order), stored as given: num and den
    must already be canonical (see CyclotomicNumber), as they are for den 1
    and for the negation of a canonical element."""
    x = object.__new__(CyclotomicNumber)
    x.order, x._num, x._den = order, num, den
    return x


def minus_q_from_d(d: int, numerator: int = 1) -> CyclotomicNumber:
    """The specialization point -q for q = exp(2*pi*i*numerator/d) a primitive
    d-th root of unity, returned as a primitive root in its own field, for
    2 <= d <= MAX_D.

    -q = exp(2*pi*i*(d + 2a)/(2d)); reducing the fraction (d + 2a)/(2d)
    identifies the exact order N of -q and the element zeta_N^k.
    """
    if d < 2:
        raise InvalidD(f"d must be at least 2, got {count_text(d)}")
    if d > MAX_D:
        raise InvalidD(f"d must be at most {MAX_D}, got {count_text(d)}")
    if math.gcd(numerator, d) != 1:
        raise InvalidD(f"numerator {count_text(numerator)} is not coprime to d={d}")
    num = (d + 2 * numerator) % (2 * d)
    g = math.gcd(num, 2 * d)
    order = 2 * d // g
    return CyclotomicNumber.root_of_unity(order, (num // g) % order)


def multiplicative_order(x: CyclotomicNumber) -> int | float:
    """Least k >= 1 with x^k = 1, or INFINITE if x is not a root of unity.

    Roots of unity in Q(zeta_N) form a cyclic group of order N (N even) or
    2N (N odd), so the search is complete once that bound is exceeded.
    """
    if x.is_zero:
        raise ZeroInput("zero is not invertible")
    bound = x.order if x.order % 2 == 0 else 2 * x.order
    acc = x
    for k in range(1, bound + 1):
        if acc.is_one:
            return k
        acc = acc * x
    return INFINITE


def root_exponent(x: CyclotomicNumber) -> int:
    """The k, 0 <= k < N, with x = zeta_N^k, N = x.order.

    Every point -q that ``minus_q_from_d`` returns has this form, and this
    is the one test of whether a point has it: zero raises ZeroInput, and
    any other x NotARoot. For odd N that includes -zeta_N^k, which is the
    point zeta_2N^(2k + N) of Q(zeta_2N).

    >>> root_exponent(minus_q_from_d(5))
    7
    """
    exponents = _root_exponents(x.order)
    if x._den == 1:
        k = exponents.get(x._num)
        if k is not None:
            return k
        k = exponents.get(tuple(-a for a in x._num))
        if k is not None:
            raise NotARoot(
                f"{x} is not a power of zeta({x.order}); as a point it is "
                f"root_of_unity({2 * x.order}, {2 * k + x.order})"
            )
    if x.is_zero:
        raise ZeroInput("cannot specialize at zero")
    raise NotARoot(f"{x} is not a power of zeta({x.order})")


def specialize_poly(p: LaurentPoly, x: CyclotomicNumber) -> CyclotomicNumber:
    """Evaluate a Laurent polynomial at a point x = zeta_N^k, exactly.

    t^e is zeta_N^(k*e mod N), so the coefficients are summed into one
    length-N vector and reduced mod Phi_N once; negative exponents need no
    inverse.
    """
    k = root_exponent(x)
    powers = [0] * x.order
    for e, c in p:
        powers[k * e % x.order] += c
    return CyclotomicNumber.from_powers(x.order, powers)


def specialize_matrix(m: LaurentMatrix, x: CyclotomicNumber) -> "CycloMatrix":
    """Entrywise evaluation t -> x of a Laurent matrix."""
    return CycloMatrix(m.map_entries(lambda p: specialize_poly(p, x)))


class CycloMatrix(SquareMatrix):
    """A square matrix over cyclotomic numbers with exact operations (see
    laurent.SquareMatrix)."""

    __slots__ = ()

    @classmethod
    def identity(cls, dim: int, order: int = 1) -> CycloMatrix:
        return cls(_scalar_rows(dim, CyclotomicNumber.one(order), CyclotomicNumber.zero(order)))

    @property
    def is_identity(self) -> bool:
        return all(
            (e.is_one if i == j else e.is_zero)
            for i, row in enumerate(self._rows)
            for j, e in enumerate(row)
        )

    def to_complex_rows(self) -> list[list[complex]]:
        return [[e.to_complex() for e in row] for row in self._rows]
