"""Reference computations shared by the tests, independent of the code
under test."""

import itertools


def leibniz_det(m):
    """The determinant as the sum over permutations, in the entries' ring."""
    total = m.entry(0, 0) * 0
    for perm in itertools.permutations(range(m.dim)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(m.dim), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = m.entry(i, j) * term
        total = total + term
    return total


def q_point(d, a=1):
    """The point q = -(-q) = exp(2*pi*i*a/d) for -q = minus_q_from_d(d, a).

    It is -(-q) in the field of -q when that field has even order N (d odd,
    or d = 0 mod 4). For d = 2 mod 4, -q = zeta_N^k has odd order N = d/2,
    and q = -zeta_N^k is no power of zeta_N; it is zeta_2N^(2k + N), built
    here as zeta_d^a.
    """
    from burau_lab.cyclotomic import CyclotomicNumber, minus_q_from_d

    mq = minus_q_from_d(d, a)
    return -mq if mq.order % 2 == 0 else CyclotomicNumber.root_of_unity(d, a)


def embed(x, order):
    """x re-expressed in Q(zeta_order), for x.order dividing order: the
    field map zeta_{x.order} -> zeta_order^(order / x.order)."""
    from burau_lab.cyclotomic import CyclotomicNumber, _substitute

    if order % x.order:
        raise ValueError(f"cannot embed Q(zeta_{x.order}) into Q(zeta_{order})")
    step = order // x.order
    return CyclotomicNumber(order, _substitute(x.numerators, step, order), x.denominator)


def scaled(m, c):
    """The matrix c * m, entrywise, of m's type."""
    return type(m)([e * c for e in row] for row in m.rows)


def shift(p, exp):
    """The Laurent polynomial t^exp * p, built from p's coefficients."""
    from burau_lab.laurent import LaurentPoly

    if not isinstance(exp, int):
        raise TypeError(f"exponent {exp!r} must be an int")
    return LaurentPoly({e + exp: c for e, c in p.coeffs.items()})


def writhe(word):
    """The exponent sum of a braid word."""
    return sum(e for _, e in word.letters)


def rounding_root_step(order, k, dim, width):
    """The packed-row step a + t^s * (b - c) at t = zeta_order^k with the
    rounded split: the slots of d = b - c above bit cut form hi, rounded so
    that the rest, d - hi * 2^cut, is the signed value of the slots below
    it; x^p moves that rest up by shift bits and wraps hi around to the
    bottom with its sign changed, as x^H = -1. For balanced rows it gives
    balanced rows, with no top slot."""
    half = order // 2 if order % 2 == 0 else order
    rotations = {}
    for s in (1, -1):
        p = s * (2 * half // order) * k % (2 * half)
        shift = p % half * dim * width
        rotations[s] = p >= half, shift, dim * half * width - shift

    def step(a, b, c, s):
        negate, shift, cut = rotations[s]
        d = b - c
        hi = ((d >> (cut - 1)) + 1) >> 1
        r = ((d - (hi << cut)) << shift) - hi
        return a - r if negate else a + r

    return step


def pack_slots(slots, width):
    """The int sum_e slots[e] * 2^(width * e)."""
    return sum(v << width * e for e, v in enumerate(slots))


def signed_slots(row, count, width):
    """The ``count`` signed ``width``-bit slots of an int that is their sum,
    lowest first, peeled off one at a time."""
    slots = []
    for _ in range(count):
        v = row & ((1 << width) - 1)
        if v >> (width - 1):
            v -= 1 << width
        slots.append(v)
        row = (row - v) >> width
    assert row == 0, "the int has more slots than count"
    return slots


def ring_row(row, size, width):
    """The ``size`` coefficients over Z[x]/(x^H + 1) of a packed row of
    size + 1 slots: the top slot stands for x^H = -1 in entry 0, so it is
    subtracted from slot 0."""
    slots = signed_slots(row, size + 1, width)
    slots[0] -= slots.pop()
    return slots
