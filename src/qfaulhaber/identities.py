"""q-power-sum series and machine verification of the summation identities.

Everything here lives in the variable t = q^(1/2): objects that are
polynomials in q are embedded with stride 2 (q = t^2), while objects already
expressed in half powers use t directly.

Theorem 1 is checked after clearing denominators.  Each identity has one
factor list, read off the theorem, and its right side is one sum over k of
(-1)^(m-k) t^(2n(m-k)) term_k.  The clearing product and the partial product
in term_k are prefixes of the list, so every prefix is built once:

    p      [i]_{t^2}, i = 1..m+1       partial: prefix k    clearing: prefix m+1
    qmn    1 - t^(2j+1), j = 0..m      partial: prefix k    clearing: prefix m+1
    t2mnq  1 + t^(2j), j = 1..m        partial: prefix k-1  clearing: prefix m
    t2m1   (1+t)(1 + t^(2j-1)), j=1..m partial: prefix k-1  clearing: prefix m

(for t2m1 the (1+t)^m of the clearing product and the (1+t)^(k-1) of term k
ride in the list).  Lemma 2 is checked exactly in the Laurent ring: with
y = [l]_{t^2} t^(-l), every right side is a prefactor times one series
sum_j gen_j y^(2j-s), gen_j being h, c, g or d and s being 0 or 1.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .coeffs import _family_det, det_route
from .homog import c_poly, d_poly, g_poly, h_spec
from .laurent import LaurentPoly, ONE, ZERO, q_int


class SingularSampleError(ArithmeticError):
    """Raised when a denominator factor vanishes at a sample point."""


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


def _binom_factor(exp: int, sign: int) -> LaurentPoly:
    """1 + sign * t^exp."""
    return LaurentPoly.from_terms({0: 1, exp: sign})


def _prefix_products(factors: list) -> list:
    """[1, f_0, f_0 f_1, ...]: every prefix product of factors, one multiply each."""
    prefixes = [ONE]
    for factor in factors:
        prefixes.append(prefixes[-1] * factor)
    return prefixes


def _alternating_sum(m: int, n: int, terms) -> LaurentPoly:
    """Sum over (k, term) of (-1)^(m-k) t^(2n(m-k)) term: the shape shared by
    the four right sides of Theorem 1."""
    total = ZERO
    for k, term in terms:
        total = total + LaurentPoly.term(_sign(m - k), 2 * n * (m - k)) * term
    return total


def verify_theorem1(which: str, m: int, n: int) -> bool:
    """Check one of the four summation identities after denominator clearing.

    Each identity has one factor list; its clearing product and the partial
    product of term k are prefixes of that list (see the module docstring)."""
    if which not in ("p", "qmn", "t2mnq", "t2m1"):
        raise ValueError(f"unknown identity {which!r}")
    least_m = 0 if which == "p" else 1
    if m < least_m or n < 1:
        raise ValueError(f"need m >= {least_m} and n >= 1")
    # xn[k] = ([n][n+1])^k in t
    xn = _prefix_products([q_int(n, 2) * q_int(n + 1, 2)] * (m + 1))
    if which == "p":
        prefix = _prefix_products([q_int(i, 2) for i in range(1, m + 2)])
        lhs = s_sum(2 * m + 1, n) * q_int(2, 2) * prefix[m + 1]
        rhs = _alternating_sum(m, n, (
            (k, _family_det("P", m, m - k).stretch(2) * prefix[k] * xn[k + 1])
            for k in range(m + 1)
        ))
    elif which == "qmn":
        prefix = _prefix_products([_binom_factor(2 * j + 1, -1) for j in range(m + 1)])
        lhs = s_sum(2 * m, n) * q_int(2, 2) * prefix[m + 1]
        one_minus_t = _binom_factor(1, -1)
        rhs = _binom_factor(2 * n + 1, -1) * _alternating_sum(m, n, (
            # Q's variable is substituted by t = q^(1/2)
            (k, _family_det("Q", m, m - k) * one_minus_t ** (m - k) * xn[k] * prefix[k])
            for k in range(m + 1)
        ))
    elif which == "t2mnq":
        prefix = _prefix_products([_binom_factor(2 * j, 1) for j in range(1, m + 1)])
        lhs = t_sum(2 * m, n) * prefix[m]
        rhs = _alternating_sum(m, n, (
            (k, det_route("G", m, m - k).stretch(2) * xn[k] * prefix[k - 1])
            for k in range(1, m + 1)
        ))
    else:  # t2m1
        one_plus_t = _binom_factor(1, 1)
        prefix = _prefix_products(
            [one_plus_t * _binom_factor(2 * j - 1, 1) for j in range(1, m + 1)]
        )
        lhs = t_sum(2 * m - 1, n) * prefix[m]
        head = LaurentPoly.term(_sign(m + n), (2 * m - 1) * n) * det_route("H", m, m - 1)
        rhs = head + q_int(2 * n + 1, 1) * _alternating_sum(m, n, (
            # H's variable is substituted by t = q^(1/2)
            (k, det_route("H", m, m - k) * xn[k - 1] * prefix[k - 1])
            for k in range(1, m + 1)
        ))
    if not lhs.is_zero and lhs.min_exp < 0:
        raise AssertionError("cleared left side is not polynomial")
    if not rhs.is_zero and rhs.min_exp < 0:
        raise AssertionError("cleared right side is not polynomial")
    return lhs == rhs


def _odd_x(n: int, power: int) -> LaurentPoly:
    """[2n+1]_t t^(-n) x_poly(n, power), the two terms of the inverseq and
    sumd left sides (n = l and n = l - 1)."""
    return q_int(2 * n + 1, 1) * LaurentPoly.term(1, -n) * x_poly(n, power)


@lru_cache(maxsize=None)
def _y_power(l: int, e: int) -> LaurentPoly:
    """y^e with y = [l]_{t^2} t^(-l), e >= 0, memoised like x_poly: each
    power from the one below by one multiply by y, once per process."""
    if e == 0:
        return ONE
    if e == 1:
        return q_int(l, 2) * LaurentPoly.term(1, -l)
    return _y_power(l, e - 1) * _y_power(l, 1)


def _y_series(l: int, m: int, shift: int, gen) -> LaurentPoly:
    """Sum over j = 0..m of gen(j) y^(2j - shift), y = [l]_{t^2} t^(-l), shift
    0 or 1 (`_y_power`).  y^(-1) is no Laurent polynomial, so a nonzero
    gen(0) with shift 1 raises."""
    total = ZERO
    for j in range(m + 1):
        term = gen(j)
        if not term.is_zero:
            if 2 * j < shift:
                raise AssertionError("a j = 0 term needs y^(-1)")
            total = total + term * _y_power(l, 2 * j - shift)
    return total


def verify_lemma2(which: str, m: int, l: int) -> bool:
    """Check one of the four h/c/g/d difference identities exactly in the
    Laurent ring (negative powers of t are retained, no clearing needed).

    Every right side is a prefactor times one series in y = [l]_{t^2} t^(-l)."""
    if m < 1 or l < 1:
        raise ValueError("need m >= 1 and l >= 1")
    wide = q_int(2 * l, 2) * LaurentPoly.term(1, -2 * l)  # [2l]_{t^2} t^(-2l)
    if which == "diff1":
        lhs = x_poly(l, m + 1) - x_poly(l - 1, m + 1)
        rhs = wide * _y_series(
            l, m, 0, lambda j: h_spec(2 * j - m, m - j + 1, m - j + 1).stretch(2)
        )
    elif which == "inverseq":
        lhs = _odd_x(l, m) - _odd_x(l - 1, m)
        rhs = wide * _y_series(l, m, 1, lambda j: c_poly(m, j))
    elif which == "diff":
        lhs = x_poly(l, m) + x_poly(l - 1, m)
        rhs = _y_series(l, m, 0, lambda j: g_poly(m, j).stretch(2))
    elif which == "sumd":
        lhs = _odd_x(l, m - 1) + _odd_x(l - 1, m - 1)
        rhs = _y_series(l, m, 1, lambda j: d_poly(m, j))
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
            h = h_spec(m - 2 * k, k + a, k + b)
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
    for odd power sums and alternating even power sums.

    Checked on ints with denominators cleared, for every n <= max_n:
    2 (m+1)! sum_j j^(2m+1) = sum_k (-1)^(m-k) k! P(m, m-k)(1) N^(k+1) and
    2^(m+1) sum_j (-1)^(n-j) j^(2m) = sum_k (-1)^(m-k) 2^k G(m, m-k)(1) N^k,
    k = 1..m and N = n(n+1); both power sums run over n, one term per n."""
    for m in range(1, max_m + 1):
        # (power of N, coefficient); a polynomial's value at q = 1 is the sum
        # of its coefficients
        odd = [(k + 1, _sign(m - k) * factorial(k) * sum(det_route("P", m, m - k).coeffs))
               for k in range(1, m + 1)]
        alt = [(k, _sign(m - k) * 2 ** k * sum(det_route("G", m, m - k).coeffs))
               for k in range(1, m + 1)]
        odd_sum = alt_sum = 0
        for n in range(1, max_n + 1):
            odd_sum += n ** (2 * m + 1)
            alt_sum = n ** (2 * m) - alt_sum
            nn = n * (n + 1)
            if 2 * factorial(m + 1) * odd_sum != sum(c * nn ** e for e, c in odd):
                return False
            if 2 ** (m + 1) * alt_sum != sum(c * nn ** e for e, c in alt):
                return False
    return True
