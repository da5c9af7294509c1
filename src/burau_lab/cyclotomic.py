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
with N = 2d (d odd), N = d (d = 0 mod 4) or N = d/2 (d = 2 mod 4).
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .laurent import LaurentMatrix, LaurentPoly, NotDivisible

INFINITE = math.inf


class ZeroInput(ValueError):
    """A nonzero value was required (inversion or specialization at zero)."""


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
def _traces(order: int) -> tuple[int, ...]:
    """Entry e is the trace Tr(zeta_order^e) from Q(zeta_order) to Q, for e
    below phi(order): zeta_order^e is a primitive m-th root, m =
    order/gcd(e, order), whose conjugates over Q sum to mu(m), the negated
    second-highest coefficient of Phi_m, and each is hit phi(order)/phi(m)
    times."""
    deg, _ = _field(order)
    out = []
    for e in range(deg):
        phi_m = cyclotomic_polynomial(order // math.gcd(e, order))
        out.append(-phi_m[-2] * (deg // (len(phi_m) - 1)))
    return tuple(out)


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
        return cls(order, _substitute(coeffs, 1, order))

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

    def as_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self._den) for a in self._num)

    def promote(self, order: int) -> CyclotomicNumber:
        """Re-express in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot embed Q(zeta_{self.order}) into Q(zeta_{order})")
        return CyclotomicNumber(
            order, _substitute(self._num, order // self.order, order), self._den
        )

    def _pair(self, other: CyclotomicNumber | int | Fraction) -> tuple[CyclotomicNumber, CyclotomicNumber]:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_fraction(other, self.order)
        if self.order == other.order:
            return self, other
        common = self.order * other.order // math.gcd(self.order, other.order)
        return self.promote(common), other.promote(common)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_fraction(other, self.order)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._pair(other)
        return a._num == b._num and a._den == b._den

    def __hash__(self) -> int:
        # Equal elements of different fields, and a rational element and the
        # int or Fraction of the same value, must hash alike. The normalized
        # trace Tr(x)/phi(order) is unchanged by ``promote`` and is x itself
        # when x is rational, so hash that Fraction.
        traces = _traces(self.order)
        return hash(
            Fraction(sum(map(operator.mul, self._num, traces)), len(traces) * self._den)
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: CyclotomicNumber | int | Fraction) -> CyclotomicNumber:
        a, b = self._pair(other)
        if a._den == b._den:
            return CyclotomicNumber(a.order, [x + y for x, y in zip(a._num, b._num)], a._den)
        return CyclotomicNumber(
            a.order,
            [x * b._den + y * a._den for x, y in zip(a._num, b._num)],
            a._den * b._den,
        )

    __radd__ = __add__

    def __neg__(self) -> CyclotomicNumber:
        return CyclotomicNumber(self.order, [-a for a in self._num], self._den)

    def __sub__(self, other: CyclotomicNumber | int | Fraction) -> CyclotomicNumber:
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other: int | Fraction) -> CyclotomicNumber:
        return (-self) + other

    def __mul__(self, other: CyclotomicNumber | int | Fraction) -> CyclotomicNumber:
        if isinstance(other, int):
            return CyclotomicNumber(self.order, [a * other for a in self._num], self._den)
        if isinstance(other, Fraction):
            return CyclotomicNumber(
                self.order,
                [a * other.numerator for a in self._num],
                self._den * other.denominator,
            )
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
        return CyclotomicNumber(a.order, out, a._den * b._den)

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicNumber:
        """Multiplicative inverse by the Galois norm, in integer arithmetic.

        For self = a/den with a integral, the product c of the conjugates
        sigma_k(a) (sigma_k: zeta -> zeta^k, gcd(k, order) = 1, k != 1)
        gives a*c = N(a), a nonzero rational integer, so the inverse is
        den*c/N(a).
        """
        if self.is_zero:
            raise ZeroInput("zero has no inverse")
        order = self.order
        conjugates = CyclotomicNumber.one(order)
        for k in range(2, order):
            if math.gcd(k, order) == 1:
                conjugates = conjugates * CyclotomicNumber(
                    order, _substitute(self._num, k, order)
                )
        norm = conjugates * CyclotomicNumber(order, self._num)
        if any(norm._num[1:]):
            raise ArithmeticError(f"the norm of {self} is not rational")
        return CyclotomicNumber(
            order, [c * self._den for c in conjugates._num], norm._num[0]
        )

    def __truediv__(self, other: CyclotomicNumber | int | Fraction) -> CyclotomicNumber:
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                raise ZeroInput("division by zero")
            return self * Fraction(f.denominator, f.numerator)
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


def minus_q_from_d(d: int, numerator: int = 1) -> CyclotomicNumber:
    """The specialization point -q for q = exp(2*pi*i*numerator/d) a primitive
    d-th root of unity, returned as a primitive root in its own field.

    -q = exp(2*pi*i*(d + 2a)/(2d)); reducing the fraction (d + 2a)/(2d)
    identifies the exact order N of -q and the element zeta_N^k.
    """
    if d < 2:
        raise InvalidD(f"d must be at least 2, got {d}")
    if math.gcd(numerator, d) != 1:
        raise InvalidD(f"numerator {numerator} is not coprime to d={d}")
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


def signed_root(x: CyclotomicNumber) -> tuple[int, int] | None:
    """(sign, e) with x = sign * zeta_N^e, N = x.order and sign = +-1, or
    None when x is not a root of unity.

    For even N every root of unity in Q(zeta_N) is a power of zeta_N and the
    sign is +1; for odd N the roots are +-zeta_N^e, and -zeta_N^e is reported
    with sign -1 (as for -q at d = 2 mod 4).
    """
    if x._den != 1:
        return None
    exponents = _root_exponents(x.order)
    e = exponents.get(x._num)
    if e is not None:
        return 1, e
    e = exponents.get(tuple(-a for a in x._num))
    return None if e is None else (-1, e)


def specialize_poly(p: LaurentPoly, x: CyclotomicNumber) -> CyclotomicNumber:
    """Evaluate a Laurent polynomial at a nonzero field element, exactly.

    At a root of unity x = sign * zeta_N^k, t^e is sign^e * zeta_N^(k*e mod N),
    so the coefficients are summed into one length-N vector and reduced mod
    Phi_N once; negative exponents need no inverse. Other points evaluate
    powers of x and of its inverse.
    """
    if x.is_zero:
        raise ZeroInput("cannot specialize a Laurent polynomial at zero")
    root = signed_root(x)
    if root is not None:
        sign, k = root
        powers = [0] * x.order
        for e, c in p:
            powers[k * e % x.order] += -c if sign < 0 and e % 2 else c
        return CyclotomicNumber.from_powers(x.order, powers)
    total = CyclotomicNumber.zero(x.order)
    pos_pow: dict[int, CyclotomicNumber] = {0: CyclotomicNumber.one(x.order)}
    inv = None
    for e, c in p:
        if e >= 0:
            power = _cached_pow(x, e, pos_pow)
        else:
            if inv is None:
                inv = x.inverse()
            power = inv ** (-e)
        total = total + power * c
    return total


def _cached_pow(x: CyclotomicNumber, e: int, cache: dict[int, CyclotomicNumber]) -> CyclotomicNumber:
    if e not in cache:
        best = max(k for k in cache if k <= e)
        acc = cache[best]
        for k in range(best + 1, e + 1):
            acc = acc * x
            cache[k] = acc
    return cache[e]


def specialize_matrix(m: LaurentMatrix, x: CyclotomicNumber) -> "CycloMatrix":
    """Entrywise evaluation t -> x of a Laurent matrix."""
    if x.is_zero:
        raise ZeroInput("cannot specialize a Laurent matrix at zero")
    return CycloMatrix(m.map_entries(lambda p: specialize_poly(p, x)))


class CycloMatrix:
    """A square matrix over cyclotomic numbers with exact operations."""

    __slots__ = ("dim", "_rows")

    def __init__(self, rows: Iterable[Iterable[CyclotomicNumber]]):
        grid = tuple(tuple(row) for row in rows)
        dim = len(grid)
        from .laurent import DimensionMismatch

        if dim == 0 or any(len(row) != dim for row in grid):
            raise DimensionMismatch("matrix must be square and nonempty")
        self.dim = dim
        self._rows = grid

    @classmethod
    def identity(cls, dim: int, order: int = 1) -> CycloMatrix:
        one = CyclotomicNumber.one(order)
        zero = CyclotomicNumber.zero(order)
        return cls([[one if i == j else zero for j in range(dim)] for i in range(dim)])

    @property
    def rows(self) -> tuple[tuple[CyclotomicNumber, ...], ...]:
        return self._rows

    def entry(self, i: int, j: int) -> CyclotomicNumber:
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycloMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return all(
            a == b for r1, r2 in zip(self._rows, other._rows) for a, b in zip(r1, r2)
        )

    def __hash__(self) -> int:
        return hash(self._rows)

    def __mul__(self, other: CycloMatrix) -> CycloMatrix:
        if not isinstance(other, CycloMatrix):
            return NotImplemented
        from .laurent import DimensionMismatch

        if self.dim != other.dim:
            raise DimensionMismatch("matrix dimensions differ")
        cols = list(zip(*other._rows))
        out = []
        for row in self._rows:
            new_row = []
            for col in cols:
                total = None
                for a, b in zip(row, col):
                    if a.is_zero or b.is_zero:
                        continue
                    term = a * b
                    total = term if total is None else total + term
                new_row.append(total if total is not None else CyclotomicNumber.zero(row[0].order))
            out.append(new_row)
        return CycloMatrix(out)

    def scale(self, c: CyclotomicNumber) -> CycloMatrix:
        return CycloMatrix([[e * c for e in row] for row in self._rows])

    @property
    def is_identity(self) -> bool:
        return all(
            (e.is_one if i == j else e.is_zero)
            for i, row in enumerate(self._rows)
            for j, e in enumerate(row)
        )

    def inverse(self) -> CycloMatrix:
        """Gauss-Jordan inverse over the field; raises ZeroInput on a
        singular matrix."""
        n = self.dim
        a = [list(row) for row in self._rows]
        order = a[0][0].order
        inv = [
            [CyclotomicNumber.one(order) if i == j else CyclotomicNumber.zero(order) for j in range(n)]
            for i in range(n)
        ]
        for col in range(n):
            pivot = next((r for r in range(col, n) if not a[r][col].is_zero), None)
            if pivot is None:
                raise ZeroInput("matrix is singular")
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            scale = a[col][col].inverse()
            a[col] = [e * scale for e in a[col]]
            inv[col] = [e * scale for e in inv[col]]
            for r in range(n):
                if r != col and not a[r][col].is_zero:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return CycloMatrix(inv)

    def to_complex_rows(self) -> list[list[complex]]:
        return [[e.to_complex() for e in row] for row in self._rows]

    def __str__(self) -> str:
        cells = [[str(e) for e in row] for row in self._rows]
        widths = [max(len(cells[i][j]) for i in range(self.dim)) for j in range(self.dim)]
        return "\n".join(
            "[ " + "  ".join(s.rjust(w) for s, w in zip(row, widths)) + " ]" for row in cells
        )

    def __repr__(self) -> str:
        return f"CycloMatrix(dim={self.dim})"
