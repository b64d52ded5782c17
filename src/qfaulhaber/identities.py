"""q-power-sum series and machine verification of the summation identities.

Everything here lives in the variable t = q^(1/2): objects that are
polynomials in q are embedded with stride 2 (q = t^2), while objects already
expressed in half powers use t directly.  Identities with denominators are
checked after multiplying both sides by the explicit factor list read off the
equation, so both sides are compared in the Laurent polynomial ring.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .coeffs import SingularSampleError, _family_det, det_route
from .homog import c_poly, d_poly, g_poly, h_spec
from .laurent import LaurentPoly, ONE, ZERO, q_fact, q_int


def _sign(n: int) -> int:
    return -1 if n % 2 else 1


def s_sum(m: int, n: int) -> LaurentPoly:
    """Power-sum series value: sum over k of ([2k]/[2]) [k]^(m-1) q^((m+1)(n-k)/2),
    as a polynomial in t."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    total = ZERO
    two = q_int(2, 2)
    for k in range(1, n + 1):
        head = q_int(2 * k, 2).divexact(two)
        total = total + head * q_int(k, 2) ** (m - 1) * LaurentPoly.term(
            1, (m + 1) * (n - k)
        )
    return total


def t_sum(m: int, n: int) -> LaurentPoly:
    """Alternating power-sum series value, as a polynomial in t."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    total = ZERO
    for k in range(1, n + 1):
        term = q_int(k, 2) ** m * LaurentPoly.term(_sign(n - k), m * (n - k))
        total = total + term
    return total


@lru_cache(maxsize=None)
def x_poly(n: int, power: int) -> LaurentPoly:
    """([n][n+1]/q^n)^power as a Laurent polynomial in t, memoised: the
    lemma2 cases ask for the same few (n, power) pairs many times."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    if power == 0:
        return ONE
    base = q_int(n, 2) * q_int(n + 1, 2) * LaurentPoly.term(1, -2 * n)
    return base ** power


def _xn(n: int) -> LaurentPoly:
    """[n][n+1] in t (no q^-n factor)."""
    return q_int(n, 2) * q_int(n + 1, 2)


def _binom_factor(exp: int, sign: int) -> LaurentPoly:
    """1 + sign * t^exp."""
    return LaurentPoly.from_terms({0: 1, exp: sign})


def verify_theorem1(which: str, m: int, n: int) -> bool:
    """Check one of the four summation identities after denominator clearing."""
    if which == "p":
        if m < 0 or n < 1:
            raise ValueError("need m >= 0 and n >= 1")
        lhs = s_sum(2 * m + 1, n) * q_fact(m + 1, 2) * q_int(2, 2)
        rhs = ZERO
        for k in range(m + 1):
            p = _family_det("P", m, m - k)
            if p.is_zero:
                continue
            rhs = rhs + (
                _sign(m - k)
                * LaurentPoly.term(1, 2 * n * (m - k))
                * q_fact(k, 2)
                * p.stretch(2)
                * _xn(n) ** (k + 1)
            )
    elif which == "qmn":
        if m < 1 or n < 1:
            raise ValueError("need m >= 1 and n >= 1")
        clearing = ONE
        for i in range(m + 1):
            clearing = clearing * _binom_factor(2 * (m - i) + 1, -1)
        lhs = s_sum(2 * m, n) * q_int(2, 2) * clearing
        one_minus_t = _binom_factor(1, -1)
        rhs = ZERO
        for k in range(m + 1):
            qpoly = _family_det("Q", m, m - k)
            if qpoly.is_zero:
                continue
            partial = ONE
            for i in range(m - k + 1, m + 1):
                partial = partial * _binom_factor(2 * (m - i) + 1, -1)
            rhs = rhs + (
                _sign(m - k)
                * LaurentPoly.term(1, 2 * n * (m - k))
                * one_minus_t ** (m - k)
                * qpoly  # variable substituted by t = q^(1/2)
                * _xn(n) ** k
                * partial
            )
        rhs = rhs * _binom_factor(2 * n + 1, -1)
    elif which == "t2mnq":
        if m < 1 or n < 1:
            raise ValueError("need m >= 1 and n >= 1")
        clearing = ONE
        for i in range(m):
            clearing = clearing * _binom_factor(2 * (m - i), 1)
        lhs = t_sum(2 * m, n) * clearing
        rhs = ZERO
        for k in range(1, m + 1):
            gpoly = det_route("G", m, m - k)
            partial = ONE
            for i in range(m - k + 1, m):
                partial = partial * _binom_factor(2 * (m - i), 1)
            rhs = rhs + (
                _sign(m - k)
                * LaurentPoly.term(1, 2 * n * (m - k))
                * gpoly.stretch(2)
                * _xn(n) ** k
                * partial
            )
    elif which == "t2m1":
        if m < 1 or n < 1:
            raise ValueError("need m >= 1 and n >= 1")
        one_plus_t = _binom_factor(1, 1)
        clearing = one_plus_t ** m
        for i in range(m):
            clearing = clearing * _binom_factor(2 * (m - i) - 1, 1)
        lhs = t_sum(2 * m - 1, n) * clearing
        rhs = _sign(m + n) * det_route("H", m, m - 1) * LaurentPoly.term(
            1, (2 * m - 1) * n
        )
        tail = ZERO
        for k in range(1, m + 1):
            hpoly = det_route("H", m, m - k)
            partial = ONE
            for i in range(m - k + 1, m):
                partial = partial * _binom_factor(2 * (m - i) - 1, 1)
            tail = tail + (
                _sign(m - k)
                * LaurentPoly.term(1, 2 * n * (m - k))
                * hpoly  # variable substituted by t = q^(1/2)
                * _xn(n) ** (k - 1)
                * one_plus_t ** (k - 1)
                * partial
            )
        rhs = rhs + q_int(2 * n + 1, 1) * tail
    else:
        raise ValueError(f"unknown identity {which!r}")
    if not lhs.is_zero and lhs.min_exp < 0:
        raise AssertionError("cleared left side is not polynomial")
    if not rhs.is_zero and rhs.min_exp < 0:
        raise AssertionError("cleared right side is not polynomial")
    return lhs == rhs


def _qint_powers(l: int, m: int, shift: int) -> list:
    """[l]^(2j - shift) in t for j = 0..m, shift 0 or 1, each power from the
    previous by one multiply by [l]^2.  [l]^(-1) is no polynomial; its slot
    holds None, so a term that would need it fails instead of passing."""
    base = q_int(l, 2)
    square = base * base
    powers = [ONE, square] if shift == 0 else [None, base]
    while len(powers) <= m:
        powers.append(powers[-1] * square)
    return powers


def verify_lemma2(which: str, m: int, l: int) -> bool:
    """Check one of the four h/c/g/d difference identities exactly in the
    Laurent ring (negative powers of t are retained, no clearing needed)."""
    if m < 1 or l < 1:
        raise ValueError("need m >= 1 and l >= 1")
    if which == "diff1":
        powers = _qint_powers(l, m, 0)
        lhs = x_poly(l, m + 1) - x_poly(l - 1, m + 1)
        rhs = ZERO
        for k in range(m + 1):
            h = h_spec(m - 2 * k, k + 1, k + 1, 1)
            if h.is_zero:
                continue
            rhs = rhs + (
                h.stretch(2)
                * q_int(2 * l, 2)
                * powers[m - k]
                * LaurentPoly.term(1, -2 * l * (m - k + 1))
            )
    elif which == "inverseq":
        powers = _qint_powers(l, m, 1)
        lhs = (
            q_int(2 * l + 1, 1) * LaurentPoly.term(1, -l) * x_poly(l, m)
            - q_int(2 * l - 1, 1) * LaurentPoly.term(1, -(l - 1)) * x_poly(l - 1, m)
        )
        rhs = ZERO
        for k in range(m + 1):
            c = c_poly(m, m - k)
            if c.is_zero:
                continue
            rhs = rhs + (
                c
                * q_int(2 * l, 2)
                * powers[m - k]
                * LaurentPoly.term(1, -l * (2 * (m - k) + 1))
            )
    elif which == "diff":
        powers = _qint_powers(l, m, 0)
        lhs = x_poly(l, m) + x_poly(l - 1, m)
        rhs = ZERO
        for k in range(m + 1):
            g = g_poly(m, m - k)
            if g.is_zero:
                continue
            rhs = rhs + (
                g.stretch(2)
                * powers[m - k]
                * LaurentPoly.term(1, -2 * l * (m - k))
            )
    elif which == "sumd":
        powers = _qint_powers(l, m, 1)
        lhs = (
            q_int(2 * l + 1, 1) * LaurentPoly.term(1, -l) * x_poly(l, m - 1)
            + q_int(2 * l - 1, 1) * LaurentPoly.term(1, -(l - 1)) * x_poly(l - 1, m - 1)
        )
        rhs = ZERO
        for k in range(m + 1):
            d = d_poly(m, m - k)
            if d.is_zero:
                continue
            rhs = rhs + (
                d
                * powers[m - k]
                * LaurentPoly.term(1, -l * (2 * (m - k) - 1))
            )
    else:
        raise ValueError(f"unknown identity {which!r}")
    return lhs == rhs


def verify_lemma1(a: int, b: int, q0: Fraction, l: int, order: int) -> bool:
    """Compare truncated series coefficients of the double h-sum against its
    partial-fraction form, with exact rational arithmetic at q = q0."""
    if (a, b) not in ((1, 1), (1, 0), (0, 1)):
        raise ValueError("supported cases are (1,1), (1,0) and (0,1)")
    q0 = Fraction(q0)
    if q0 in (0, 1):
        raise SingularSampleError("q0 must avoid 0 and 1")
    lv = q_int(l)(q0)
    l2v = q_int(2 * l)(q0)
    if lv == 0 or l2v == 0:
        raise SingularSampleError(f"q-integer vanishes at q0={q0}")
    x = q0 ** l / lv ** 2
    lhs = []
    for m in range(order + 1):
        coeff = Fraction(0)
        for k in range(m // 2 + 1):
            h = h_spec(m - 2 * k, k + a, k + b, 1)
            if not h.is_zero:
                coeff += h(q0) * x ** k
        lhs.append(coeff)
    lp1 = q_int(l + 1)(q0)
    lm1 = q_int(l - 1)(q0)
    pref = lv ** 2 / l2v
    if (a, b) == (1, 1):
        pieces = ((lp1, lp1), (-q0 * lm1, q0 * lm1))
    elif (a, b) == (1, 0):
        pieces = ((Fraction(1), lp1), (q0 ** l, q0 * lm1))
    else:
        pieces = ((q0 ** l, lp1), (Fraction(1), q0 * lm1))
    rhs = []
    for n in range(order + 1):
        coeff = Fraction(0)
        for amp, ratio in pieces:
            coeff += amp * ratio ** n / lv ** (n + 1)
        rhs.append(pref * coeff)
    return lhs == rhs


def classical_check(max_m: int, max_n: int) -> bool:
    """Specializations at q = 1 reproduce the classical integer coefficients
    for odd power sums and alternating even power sums."""
    one = Fraction(1)
    for m in range(1, max_m + 1):
        f = {
            k: _sign(m - k)
            * Fraction(factorial(k), factorial(m + 1))
            * det_route("P", m, m - k)(one)
            for k in range(1, m + 1)
        }
        s = {
            k: _sign(m - k) * Fraction(2) ** (k - m) * det_route("G", m, m - k)(one)
            for k in range(1, m + 1)
        }
        for n in range(1, max_n + 1):
            nn = n * (n + 1)
            odd_sum = sum(j ** (2 * m + 1) for j in range(1, n + 1))
            alt_sum = sum(_sign(n - j) * j ** (2 * m) for j in range(1, n + 1))
            if odd_sum != sum(f[k] * nn ** (k + 1) for k in f) / 2:
                return False
            if alt_sum != sum(s[k] * nn ** k for k in s) / 2:
                return False
    return True
