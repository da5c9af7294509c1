"""Exact arithmetic for integer-coefficient Laurent polynomials in one
variable t, and products of square matrices over them or over any other
exact ring (``SquareMatrix``).

A Laurent polynomial is stored as a finitely supported map from integer
exponents to nonzero integer coefficients, so equality is structural and
the zero polynomial has empty support. Coefficients are Python ints and
therefore unbounded; matrix entries in braid-group representations grow
without limit in the word length, so nothing here may round or overflow.

Sums and differences go through one merge loop, ``_accumulate``, which
adds sign * c at key e + shift, for each coefficient c at key e of a map,
into another map in place and drops every coefficient that cancels. Its
callers pass a polynomial's own map ``p._coeffs``. The crossed homomorphism
calls it once per matrix entry, with shift an exponent. The Burau word
step calls it twice per letter on whole rows, each row one map keyed
e * dim + j for the coefficient of t^e in entry j, so that the shift
s * dim multiplies every entry of the row by t^s. Neither builds an
intermediate polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping


class NotDivisible(ArithmeticError):
    """Exact division failed: the numerator is not a multiple of the
    denominator in the Laurent ring over the integers."""


class DimensionMismatch(ValueError):
    """Matrix operands have incompatible dimensions."""


class LaurentPoly:
    """An integer-coefficient Laurent polynomial in one variable t.

    >>> p = LaurentPoly({0: 1, 1: -1})
    >>> print(p * p)
    1 - 2t + t^2
    >>> print(LaurentPoly.t(-1) * LaurentPoly.t(1))
    1
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if type(coeffs) is dict or isinstance(coeffs, Mapping) else coeffs
        data: dict[int, int] = {}
        for exp, c in items:
            if not (isinstance(exp, int) and isinstance(c, int)):
                raise TypeError(f"exponent {exp!r} and coefficient {c!r} must be ints")
            if c:
                data[exp] = data.get(exp, 0) + c
                if not data[exp]:
                    del data[exp]
        self._coeffs = data
        self._hash: int | None = None

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _ZERO

    @classmethod
    def one(cls) -> LaurentPoly:
        return _ONE

    @classmethod
    def t(cls, exp: int = 1) -> LaurentPoly:
        """The monomial t^exp."""
        return cls({exp: 1})

    @property
    def coeffs(self) -> dict[int, int]:
        """A copy of the exponent-to-coefficient map (zero coefficients absent)."""
        return dict(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponents")
        return max(self._coeffs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            # A constant equals the int of the same value, so it must hash
            # like that int.
            if self._coeffs.keys() <= {0}:
                self._hash = hash(self._coeffs.get(0, 0))
            else:
                self._hash = hash(frozenset(self._coeffs.items()))
        return self._hash

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        if type(other) is not LaurentPoly:
            if not isinstance(other, int):
                return NotImplemented
            other = LaurentPoly({0: other})
        return _raw(_accumulate(dict(self._coeffs), other._coeffs))

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _raw({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        if type(other) is not LaurentPoly:
            if not isinstance(other, int):
                return NotImplemented
            other = LaurentPoly({0: other})
        return _raw(_accumulate(dict(self._coeffs), other._coeffs, sign=-1))

    def __rsub__(self, other: int) -> LaurentPoly:
        if not isinstance(other, int):
            return NotImplemented
        return _raw(_accumulate({0: other} if other else {}, self._coeffs, sign=-1))

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if type(other) is not LaurentPoly:
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return _ZERO
            return _raw({e: c * other for e, c in self._coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _raw(out)

    __rmul__ = __mul__

    def exact_div(self, den: LaurentPoly) -> LaurentPoly:
        """Divide exactly by ``den``, raising NotDivisible if no Laurent
        polynomial quotient with integer coefficients exists.

        Runs lowest-exponent-first long division, which is well defined on
        the Laurent ring after shifting by the minimal exponents.

        >>> print((LaurentPoly.one() - LaurentPoly.t(4)).exact_div(1 - LaurentPoly.t()))
        1 + t + t^2 + t^3
        """
        if type(den) is not LaurentPoly:
            raise TypeError(f"cannot divide a LaurentPoly by {type(den).__name__}")
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return _ZERO
        num = dict(self._coeffs)
        den_low = den.min_exp
        den_lc = den._coeffs[den_low]
        # Quotient exponents cannot exceed this if the division is exact.
        max_q_exp = self.max_exp - den.max_exp
        quot: dict[int, int] = {}
        while num:
            low = min(num)
            q_exp = low - den_low
            if q_exp > max_q_exp:
                raise NotDivisible(f"{self} is not divisible by {den}")
            q_c, rem = divmod(num[low], den_lc)
            if rem:
                raise NotDivisible(f"{self} is not divisible by {den}")
            quot[q_exp] = q_c
            for e, c in den._coeffs.items():
                e2 = e + q_exp
                s = num.get(e2, 0) - c * q_c
                if s:
                    num[e2] = s
                else:
                    num.pop(e2, None)
        return _raw(quot)

    def __str__(self) -> str:
        terms = []
        for e, c in sorted(self._coeffs.items()):
            var = "t" if e == 1 else f"t^{e}"
            mag = abs(c)
            terms.append((c < 0, str(mag) if e == 0 else var if mag == 1 else f"{mag}{var}"))
        return _signed_sum(terms)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


def _signed_sum(terms: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, magnitude text) pairs as "a - b + c", the first
    term signed only when negative; no terms give "0"."""
    parts: list[str] = []
    for negative, body in terms:
        if parts:
            parts.append(f"- {body}" if negative else f"+ {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts) or "0"


def _accumulate(
    acc: dict[int, int], coeffs: dict[int, int], shift: int = 0, sign: int = 1
) -> dict[int, int]:
    """Add sign * c at key e + shift into the map ``acc`` in place, for
    each c at key e of ``coeffs``, deleting every coefficient that
    cancels, and return ``acc``. For a polynomial's map p._coeffs that is
    acc + sign * t^shift * p."""
    for e, c in coeffs.items():
        e += shift
        v = acc.get(e, 0) + sign * c
        if v:
            acc[e] = v
        else:
            del acc[e]
    return acc


def _raw(coeffs: dict[int, int]) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p._coeffs = coeffs
    p._hash = None
    return p


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})


def _scalar_rows(dim: int, c, zero) -> list[list]:
    """The rows of c * I_dim."""
    return [[c if i == j else zero for j in range(dim)] for i in range(dim)]


@lru_cache(maxsize=None)
def _identity_rows(dim: int) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The rows of I_dim over Z[t, t^-1], built from the shared one and
    zero: one tuple per row, shared by every matrix that holds it."""
    return tuple(map(tuple, _scalar_rows(dim, _ONE, _ZERO)))


class SquareMatrix:
    """A square matrix over an exact commutative ring, immutable once built:
    assigning or deleting an attribute, or calling ``__init__`` again on a
    built matrix, raises AttributeError, so a matrix that a cache hands to
    every caller, such as a monodromy generator, cannot be changed by one
    of them.

    The operations are the same for every ring. Entries need only
    ``+ - *`` (also with an int operand) and ``is_zero``: the ring's zero
    is ``e * 0`` and its one ``e * 0 + 1``. A subclass names the ring
    (``LaurentMatrix`` over Z[t, t^-1], ``cyclotomic.CycloMatrix`` over
    Q(zeta_N)), and every result is built as the caller's subclass.
    """

    __slots__ = ("dim", "_rows")

    def __init__(self, rows: Iterable[Iterable]):
        if hasattr(self, "_rows"):
            raise AttributeError(f"{type(self).__name__} is immutable: cannot build it again")
        grid = tuple(tuple(row) for row in rows)
        dim = len(grid)
        if dim == 0 or any(len(row) != dim for row in grid):
            raise DimensionMismatch("matrix must be square and nonempty")
        _set_dim(self, dim)
        _set_rows(self, grid)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild the matrix from its rows, as they cannot
        # assign its slots.
        return type(self), (self._rows,)

    @property
    def rows(self) -> tuple[tuple, ...]:
        return self._rows

    def entry(self, i: int, j: int):
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __mul__(self, other: SquareMatrix) -> SquareMatrix:
        if type(other) is not type(self):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatch(f"cannot multiply {self.dim}x{self.dim} by {other.dim}x{other.dim}")
        zero = self._rows[0][0] * 0
        cols = list(zip(*other._rows))
        return type(self)(
            [sum((a * b for a, b in zip(row, col) if not a.is_zero), zero) for col in cols]
            for row in self._rows
        )

    def pad_identity(self, extra: int) -> SquareMatrix:
        """Direct sum with an identity block of the given size."""
        if extra < 0:
            raise DimensionMismatch("padding size must be nonnegative")
        if extra == 0:
            return self
        zero = self._rows[0][0] * 0
        out = _scalar_rows(self.dim + extra, zero + 1, zero)
        for i, row in enumerate(self._rows):
            out[i][: self.dim] = row
        return type(self)(out)

    def __str__(self) -> str:
        cells = [[str(e) for e in row] for row in self._rows]
        widths = [max(len(cells[i][j]) for i in range(self.dim)) for j in range(self.dim)]
        return "\n".join(
            "[ " + "  ".join(s.rjust(w) for s, w in zip(row, widths)) + " ]" for row in cells
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


# The slots' own setters, which ``SquareMatrix.__init__`` fills a new matrix with.
_set_dim = SquareMatrix.dim.__set__
_set_rows = SquareMatrix._rows.__set__


class LaurentMatrix(SquareMatrix):
    """A square matrix over LaurentPoly with exact operations (see
    SquareMatrix)."""

    __slots__ = ()
