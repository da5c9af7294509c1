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


def writhe(word):
    """The exponent sum of a braid word."""
    return sum(e for _, e in word.letters)
