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

This is the one module that indexes the roots of unity. Each field has
one table of them, shared instances (``_roots_of_unity``): ``root_exponent``
reads k off it, and ``specialize_poly`` for a single +-t^e and
``_field_value`` for a single +-x^e return its entries. ``_field_value`` is
also the map from Z[x]/(x^H + 1), H = ``_half_order(N)``, the ring the
word loop of ``burau`` multiplies out in at a root, into Q(zeta_N).
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    NotDivisible,
    SquareMatrix,
    _signed_sum,
)
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

    Elements are immutable: assigning or deleting an attribute, or calling
    ``__init__`` again on a built element, raises AttributeError, as zero,
    one and the roots of unity of each field are shared instances that
    every caller holds.
    """

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, num: Iterable[int], den: int = 1):
        if hasattr(self, "_den"):
            raise AttributeError("CyclotomicNumber is immutable: cannot build it again")
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
        _set_order(self, order)
        _set_num(self, tuple(vec))
        _set_den(self, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"CyclotomicNumber is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"CyclotomicNumber is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild the element from its canonical slots, as
        # they cannot assign them.
        return _canonical, (self.order, self._num, self._den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int = 1) -> CyclotomicNumber:
        """The field's zero: one shared instance per order."""
        return _constants(order)[0]

    @classmethod
    def one(cls, order: int = 1) -> CyclotomicNumber:
        """The field's one: one shared instance per order."""
        return _constants(order)[1]

    @classmethod
    def from_fraction(cls, value: Fraction | int, order: int = 1) -> CyclotomicNumber:
        f = Fraction(value)
        deg, _ = _field(order)
        return cls(order, [f.numerator] + [0] * (deg - 1), f.denominator)

    @classmethod
    def from_powers(cls, order: int, coeffs: Sequence[int]) -> CyclotomicNumber:
        """sum_e coeffs[e] * zeta_order^e, reduced mod Phi_order, for an
        integer vector of any length up to order: the image under
        x -> zeta_order of a polynomial of degree below order, such as an
        element of Z[x]/(x^order - 1) or, for even order, of
        Z[x]/(x^(order/2) + 1).

        The first phi(order) coefficients are taken as they are, and each
        nonzero coefficient of a higher power is folded in through its
        reduction row. An element of Z[x]/(x^H + 1) at order 2^j has
        H = phi(order) coefficients, so nothing is folded."""
        deg, rows = _field(order)
        out = list(coeffs[:deg])
        out += [0] * (deg - len(out))
        for e in range(deg, len(coeffs)):
            c = coeffs[e]
            if c:
                out = [a + c * r for a, r in zip(out, rows[e % order])]
        return _canonical(order, tuple(out))

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> CyclotomicNumber:
        """zeta_order^power, reduced into the field of the given order: the
        field's shared instance (``_roots_of_unity``)."""
        roots = _roots_of_unity(order)
        return roots[power * (len(roots) // order) % len(roots)]

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

    def _coerce(self, other: object) -> CyclotomicNumber | None:
        """other as an element of this field, or None when it is not a field
        element, int or Fraction (the operator then returns NotImplemented)."""
        if type(other) is CyclotomicNumber and other.order == self.order:
            return other
        if type(other) is int:
            return _canonical(self.order, (other,) + (0,) * (len(self._num) - 1))
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_fraction(other, self.order)
        if isinstance(other, CyclotomicNumber):
            raise ValueError(
                f"cannot combine elements of Q(zeta_{self.order}) and Q(zeta_{other.order})"
            )
        return None

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
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        if self._den == 1 == b._den:
            return _canonical(self.order, tuple(map(operator.add, self._num, b._num)))
        return CyclotomicNumber(
            self.order,
            [x * b._den + y * self._den for x, y in zip(self._num, b._num)],
            self._den * b._den,
        )

    __radd__ = __add__

    def __neg__(self) -> CyclotomicNumber:
        return _canonical(self.order, tuple(map(operator.neg, self._num)), self._den)

    def __sub__(self, other: CyclotomicNumber | int | Fraction) -> CyclotomicNumber:
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        if self._den == 1 == b._den:
            return _canonical(self.order, tuple(map(operator.sub, self._num, b._num)))
        return self + (-b)

    def __rsub__(self, other: int | Fraction) -> CyclotomicNumber:
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b - self

    def __mul__(self, other: CyclotomicNumber | int | Fraction) -> CyclotomicNumber:
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        deg, rows = _field(self.order)
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(self._num):
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
        if self._den == 1 == b._den:
            return _canonical(self.order, tuple(out))
        return CyclotomicNumber(self.order, out, self._den * b._den)

    __rmul__ = __mul__

    def conjugate(self) -> CyclotomicNumber:
        """Complex conjugation zeta -> zeta^-1. It maps Z[zeta] onto itself,
        so the numerators keep gcd 1 with the unchanged denominator."""
        order = self.order
        return _canonical(order, tuple(_substitute(self._num, order - 1, order)), self._den)

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
        conjugates = a.conjugate()
        if conjugates._num == a._num:
            y, conjugates = a, CyclotomicNumber.one(order)
        else:
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
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self * b.inverse()

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
        terms = []
        for e, a in enumerate(self._num):
            if a:
                mag = Fraction(abs(a), self._den)
                z = f"zeta({self.order})" if e == 1 else f"zeta({self.order})^{e}"
                terms.append((a < 0, str(mag) if e == 0 else z if mag == 1 else f"({mag})*{z}"))
        return _signed_sum(terms)

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self.order}, '{self}')"


def _canonical(order: int, num: tuple[int, ...], den: int = 1) -> CyclotomicNumber:
    """The element num/den of Q(zeta_order), stored as given: num and den
    must already be canonical (see CyclotomicNumber), as they are for den 1
    and for the negation or conjugate of a canonical element."""
    x = object.__new__(CyclotomicNumber)
    _set_order(x, order)
    _set_num(x, num)
    _set_den(x, den)
    return x


# The slots' own setters: the one way to fill a new element's slots, as
# CyclotomicNumber refuses attribute assignment.
_set_order = CyclotomicNumber.order.__set__
_set_num = CyclotomicNumber._num.__set__
_set_den = CyclotomicNumber._den.__set__


@lru_cache(maxsize=None)
def _roots_of_unity(order: int) -> tuple[CyclotomicNumber, ...]:
    """Every root of unity of Q(zeta_order), one shared instance each, read
    off the reduction rows. They form a cyclic group of order R, R = order
    for even order and 2 * order for odd order, and entry p is zeta_R^p:
    zeta_order^k is entry k * R/order, and -zeta_R^p is entry p + R/2
    (mod R). For odd order, zeta_R = -zeta_order^h with h = (order + 1)/2,
    so entry p is (-1)^p * zeta_order^(p*h)."""
    _, rows = _field(order)
    powers = [_canonical(order, rows[e]) for e in range(order)]
    if order % 2 == 0:
        return tuple(powers)
    h = (order + 1) // 2
    return tuple(
        -powers[p * h % order] if p % 2 else powers[p * h % order] for p in range(2 * order)
    )


@lru_cache(maxsize=None)
def _root_positions(order: int) -> dict[tuple[int, ...], int]:
    """The numerators of each entry p of ``_roots_of_unity(order)``, mapped
    to p: the table read backwards, one lookup for any root of unity."""
    return {root._num: p for p, root in enumerate(_roots_of_unity(order))}


def _half_order(order: int) -> int:
    """H, the degree of the ring Z[x]/(x^H + 1) that a word at a root of
    order N is multiplied out in: N/2 for even N, N for odd N."""
    return order // 2 if order % 2 == 0 else order


def _field_value(order: int, v: list) -> CyclotomicNumber:
    """The image in Q(zeta_order) of the element sum_e v[e] * x^e of
    Z[x]/(x^H + 1) under x -> zeta_2H. For even order, zeta_2H is
    zeta_order. For odd order it is -zeta_order^((order+1)/2), so the
    coefficient of x^e goes to zeta_order^(e*(order+1)/2) with sign (-1)^e:
    a signed permutation of the powers, as (order+1)/2 is a unit mod order.

    A single +-x^e, which most entries of a letter's row and of a short
    word's product are, is the root of unity zeta_2H^e or, as x^H = -1,
    zeta_2H^(e+H): the field's shared instance (``_roots_of_unity``), with
    no reduction.
    """
    if v.count(0) == len(v) - 1:
        c = sum(v)
        if c == 1 or c == -1:
            return _roots_of_unity(order)[v.index(c) + (0 if c == 1 else len(v))]
    if order % 2:
        half = (order + 1) // 2
        powers = [0] * order
        for e, a in enumerate(v):
            powers[e * half % order] = -a if e % 2 else a
        v = powers
    return CyclotomicNumber.from_powers(order, v)


@lru_cache(maxsize=None)
def _constants(order: int) -> tuple[CyclotomicNumber, CyclotomicNumber]:
    """(zero, one) of Q(zeta_order). Elements cannot be changed, so one
    instance of each serves every caller; one is the shared zeta_order^0."""
    deg, _ = _field(order)
    return CyclotomicNumber(order, [0] * deg), _roots_of_unity(order)[0]


@lru_cache(maxsize=None)
def _unit_rows(order: int, dim: int) -> tuple[tuple[CyclotomicNumber, ...], ...]:
    """The rows of I_dim over Q(zeta_order), built from the shared one and
    zero: one tuple per row, shared by every matrix that holds it."""
    zero, one = _constants(order)
    return tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim))


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
    order = x.order
    p = _root_positions(order).get(x._num) if x._den == 1 else None
    if p is not None:
        # zeta_N^k is entry k * R/N of the table of R roots, R/N = 1 for even
        # N and 2 for odd N, where -zeta_N^j is entry 2j + N (mod 2N).
        step = 1 + order % 2
        if p % step == 0:
            return p // step
        raise NotARoot(
            f"{x} is not a power of zeta({order}); as a point it is "
            f"root_of_unity({2 * order}, {(p - order) % (2 * order) + order})"
        )
    if x.is_zero:
        raise ZeroInput("cannot specialize at zero")
    raise NotARoot(f"{x} is not a power of zeta({order})")


def _specialize(p: LaurentPoly, order: int, k: int, zero: CyclotomicNumber) -> CyclotomicNumber:
    """p at t = zeta_order^k (see specialize_poly); the zero polynomial
    gives ``zero``."""
    if not p:
        return zero
    coeffs = p._coeffs
    if len(coeffs) == 1:
        [(e, c)] = coeffs.items()
        if c == 1 or c == -1:
            # +-t^e is a root of unity: the field's shared instance.
            roots = _roots_of_unity(order)
            size = len(roots)
            return roots[(k * e * (size // order) + (0 if c == 1 else size // 2)) % size]
    powers = [0] * order
    for e, c in coeffs.items():
        powers[k * e % order] += c
    return CyclotomicNumber.from_powers(order, powers)


def specialize_poly(p: LaurentPoly, x: CyclotomicNumber) -> CyclotomicNumber:
    """Evaluate a Laurent polynomial at a point x = zeta_N^k, exactly.

    t^e is zeta_N^(k*e mod N), so the coefficients are summed into one
    length-N vector and reduced mod Phi_N once; negative exponents need no
    inverse. A single +-t^e is the field's shared root of unity
    (``_roots_of_unity``), with no reduction.
    """
    return _specialize(p, x.order, root_exponent(x), CyclotomicNumber.zero(x.order))


def specialize_matrix(m: LaurentMatrix, x: CyclotomicNumber) -> "CycloMatrix":
    """Entrywise evaluation t -> x of a Laurent matrix, with k read once
    and one shared zero for the zero entries."""
    order, k = x.order, root_exponent(x)
    zero = CyclotomicNumber.zero(order)
    return CycloMatrix([_specialize(p, order, k, zero) for p in row] for row in m.rows)


class CycloMatrix(SquareMatrix):
    """A square matrix over cyclotomic numbers with exact operations (see
    laurent.SquareMatrix)."""

    __slots__ = ()

    @property
    def is_identity(self) -> bool:
        return all(
            (e.is_one if i == j else e.is_zero)
            for i, row in enumerate(self._rows)
            for j, e in enumerate(row)
        )

    def to_complex_rows(self) -> list[list[complex]]:
        return [[e.to_complex() for e in row] for row in self._rows]
