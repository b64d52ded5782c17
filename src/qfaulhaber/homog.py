"""Specialized complete homogeneous symmetric functions and derived families.

``h_spec(n, r, s)`` is the degree-n complete homogeneous function of r
variables set to 1 and s variables set to q, i.e. the coefficient of z**n
in 1 / ((1-z)**r (1-q z)**s).  Negative n, r or s gives 0.  The alphabet
{1, q^2} of c and d is the q-alphabet stretched by q -> q^2.
"""
from __future__ import annotations

from math import comb

from .laurent import LaurentPoly, ZERO


def _ways(total: int, parts: int) -> int:
    # number of ways to write `total` as an ordered sum of `parts` nonneg ints
    if total < 0:
        return 0
    if parts == 0:
        return 1 if total == 0 else 0
    return comb(total + parts - 1, parts - 1)


def h_spec(n: int, r: int, s: int) -> LaurentPoly:
    """h_n of the alphabet {1}^r union {q}^s, as a polynomial in q.

    Computed by the binomial convolution of the two geometric factors; the
    generating-function route is kept in the tests as an independent check.
    """
    if n < 0 or r < 0 or s < 0:
        return ZERO
    return LaurentPoly([_ways(n - j, r) * _ways(j, s) for j in range(n + 1)])


def c_poly(k: int, m: int) -> LaurentPoly:
    """h_{2m-k}({1,q^2}^{k-m+1}) + q * h_{2m-k-1}({1,q^2}^{k-m+1})."""
    r = k - m + 1
    return h_spec(2 * m - k, r, r).stretch(2) + LaurentPoly.term(1, 1) * h_spec(
        2 * m - k - 1, r, r
    ).stretch(2)


def g_poly(k: int, m: int) -> LaurentPoly:
    """h_{2m-k}({1}^{k-m+1},{q}^{k-m}) + h_{2m-k}({1}^{k-m},{q}^{k-m+1})."""
    r = k - m
    return h_spec(2 * m - k, r + 1, r) + h_spec(2 * m - k, r, r + 1)


def d_poly(k: int, m: int) -> LaurentPoly:
    """g_{k,m}(q^2) + q * g_{k-1,m-1}(q^2)."""
    return g_poly(k, m).stretch(2) + LaurentPoly.term(1, 1) * g_poly(
        k - 1, m - 1
    ).stretch(2)
