"""q-power-sum series and machine verification of the summation identities.

Theorem 1 and Lemma 2 live in the variable t = q^(1/2): objects that are
polynomials in q are embedded with stride 2 (q = t^2), while objects already
expressed in half powers use t directly.  Lemma 1 has no half powers and is
checked in q itself.

Theorem 1 is checked after clearing denominators.  Each identity has one
factor list, read off the theorem, and its right side is one sum over k of
(-1)^(m-k) t^(2n(m-k)) term_k.  The clearing product and the partial product
in term_k are prefixes of the list, so every prefix is built once:

    p      [i]_{t^2}, i = 1..m+1       partial: prefix k    clearing: prefix m+1
    qmn    1 - t^(2j+1), j = 0..m      partial: prefix k    clearing: prefix m+1
    t2mnq  1 + t^(2j), j = 1..m        partial: prefix k-1  clearing: prefix m
    t2m1   (1+t)(1 + t^(2j-1)), j=1..m partial: prefix k-1  clearing: prefix m

(for t2m1 the (1+t)^m of the clearing product and the (1+t)^(k-1) of term k
ride in the list).  Lemma 2 needs no clearing: with y = [l]_{t^2} t^(-l),
every right side is a prefactor times one series sum_j gen_j y^(2j-s),
gen_j being h, c, g or d and s being 0 or 1, and both sides are Laurent
polynomials.  Lemma 1 compares each series coefficient n of a double h-sum
with its two partial fractions amp * ratio^n; clearing both by
[2l] [l]^(n+1) leaves one polynomial identity per n.

All three are proved at one point, on Python ints, by `kron.prove`: each
check is written once, as a function of its leaves (the power-sum series and
family polynomials of Theorem 1, the generators of Lemma 2, the h values of
Lemma 1) and of a pass, and runs twice.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial

from .coeffs import _family_det, det_route
from .homog import c_poly, d_poly, g_poly, h_spec
from .kron import digit_bits, pack, prefix_products, prove, qint_value, read_back
from .laurent import LaurentPoly, q_int


def _sign(n: int) -> int:
    return -1 if n % 2 else 1


@lru_cache(maxsize=None)
def _half_qint(k: int) -> LaurentPoly:
    """[2k]_{t^2} / [2]_{t^2}, as the exact quotient; memoised, since every
    s_sum call asks for k = 1..n again."""
    return q_int(2 * k, 2).divexact(q_int(2, 2))


def _power_sum_series(m: int, n: int, term) -> LaurentPoly:
    """sum over k = 1..n of term(k, bits), each term a polynomial in t at
    t = 2^bits, summed as one int and read back once.  Every term's 1-norm
    is at most k^m, so sum_k k^m bounds every coefficient."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    bits = digit_bits(sum(k ** m for k in range(1, n + 1)))
    return read_back(sum(term(k, bits) for k in range(1, n + 1)), 0, bits)


def s_sum(m: int, n: int) -> LaurentPoly:
    """Power-sum series value: sum over k of ([2k]/[2]) [k]^(m-1) q^((m+1)(n-k)/2),
    as a polynomial in t (`_power_sum_series`); its coefficients are
    nonnegative and sum to sum_k k^m."""
    return _power_sum_series(m, n, lambda k, bits: (
        pack(_half_qint(k), 0, bits) * qint_value(k, 2 * bits) ** (m - 1)
    ) << bits * (m + 1) * (n - k))


def t_sum(m: int, n: int) -> LaurentPoly:
    """Alternating power-sum series value: sum over k of (-1)^(n-k)
    [k]_{t^2}^m t^(m(n-k)), as a polynomial in t (`_power_sum_series`)."""
    return _power_sum_series(m, n, lambda k, bits: (
        _sign(n - k) * qint_value(k, 2 * bits) ** m) << bits * m * (n - k))


def _theorem1_sides(r, which: str, m: int, n: int, power_sum: LaurentPoly,
                    fam: list) -> tuple:
    """The cleared sides of one Theorem 1 identity in the pass r, from its
    leaves: the power-sum series and fam[k], the family's (m, m - k)."""
    xn = prefix_products(r.one, [r.qint(n, 2) * r.qint(n + 1, 2)] * (m + 1))  # ([n][n+1])^k

    def alternating(terms):
        return sum((r.mono(_sign(m - k), 2 * n * (m - k)) * term for k, term in terms),
                   r.zero)

    if which == "p":
        prefix = prefix_products(r.one, [r.qint(i, 2) for i in range(1, m + 2)])
        lhs = r.poly(power_sum) * r.qint(2, 2) * prefix[m + 1]
        rhs = alternating((k, r.poly(fam[k], 2) * prefix[k] * xn[k + 1])
                          for k in range(m + 1))
    elif which == "qmn":
        prefix = prefix_products(r.one, [r.binom(2 * j + 1, -1) for j in range(m + 1)])
        lhs = r.poly(power_sum) * r.qint(2, 2) * prefix[m + 1]
        # Q's variable is substituted by t = q^(1/2)
        rhs = r.binom(2 * n + 1, -1) * alternating(
            (k, r.poly(fam[k]) * r.binom(1, -1) ** (m - k) * xn[k] * prefix[k])
            for k in range(m + 1))
    elif which == "t2mnq":
        prefix = prefix_products(r.one, [r.binom(2 * j, 1) for j in range(1, m + 1)])
        lhs = r.poly(power_sum) * prefix[m]
        rhs = alternating((k, r.poly(fam[k], 2) * xn[k] * prefix[k - 1])
                          for k in range(1, m + 1))
    else:  # t2m1
        prefix = prefix_products(
            r.one, [r.binom(1, 1) * r.binom(2 * j - 1, 1) for j in range(1, m + 1)])
        lhs = r.poly(power_sum) * prefix[m]
        # H's variable is substituted by t = q^(1/2)
        head = r.mono(_sign(m + n), (2 * m - 1) * n) * r.poly(fam[1])
        rhs = head + r.qint(2 * n + 1) * alternating(
            (k, r.poly(fam[k]) * xn[k - 1] * prefix[k - 1]) for k in range(1, m + 1))
    return lhs, rhs


def verify_theorem1(which: str, m: int, n: int) -> bool:
    """Check one of the four summation identities after denominator clearing,
    proved at one point (`kron.prove`).

    Each identity has one factor list; its clearing product and the partial
    product of term k are prefixes of that list (see the module docstring)."""
    if which not in ("p", "qmn", "t2mnq", "t2m1"):
        raise ValueError(f"unknown identity {which!r}")
    least_m = 0 if which == "p" else 1
    if m < least_m or n < 1:
        raise ValueError(f"need m >= {least_m} and n >= 1")
    if which == "p":
        power_sum = s_sum(2 * m + 1, n)
        fam = [_family_det("P", m, m - k) for k in range(m + 1)]
    elif which == "qmn":
        power_sum = s_sum(2 * m, n)
        fam = [_family_det("Q", m, m - k) for k in range(m + 1)]
    elif which == "t2mnq":  # these right sides start at k = 1
        power_sum = t_sum(2 * m, n)
        fam = [None] + [det_route("G", m, m - k) for k in range(1, m + 1)]
    else:
        power_sum = t_sum(2 * m - 1, n)
        fam = [None] + [det_route("H", m, m - k) for k in range(1, m + 1)]
    lhs, rhs = prove(lambda r: _theorem1_sides(r, which, m, n, power_sum, fam))
    for side, name in ((lhs, "left"), (rhs, "right")):
        if side.value and side.low < 0:
            raise AssertionError(f"cleared {name} side is not polynomial")
    return lhs == rhs


def _lemma2_sides(r, which: str, m: int, l: int, gens: tuple, stride: int,
                  shift: int) -> tuple:
    """Both sides of one Lemma 2 identity in the pass r, from its leaves:
    gens holds (j, gen_j) for each nonzero gen_j, read with stride, and the
    series runs over y^(2j - shift)."""

    def x(n: int, power: int):  # ([n][n+1] / q^n)^power
        return (r.qint(n, 2) * r.qint(n + 1, 2) * r.mono(1, -2 * n)) ** power

    def odd_x(n: int, power: int):  # [2n+1]_t t^(-n) x(n, power)
        return r.qint(2 * n + 1) * r.mono(1, -n) * x(n, power)

    y = r.qint(l, 2) * r.mono(1, -l)
    # powers[i] = y^(2i + shift), so gen_j takes powers[j - shift]
    powers = prefix_products(y if shift else r.one, [y * y] * m)
    series = sum((r.poly(g, stride) * powers[j - shift] for j, g in gens), r.zero)
    wide = r.qint(2 * l, 2) * r.mono(1, -2 * l)  # [2l]_{t^2} t^(-2l)
    minus = r.mono(-1, 0)
    if which == "diff1":
        return x(l, m + 1) + minus * x(l - 1, m + 1), wide * series
    if which == "inverseq":
        return odd_x(l, m) + minus * odd_x(l - 1, m), wide * series
    if which == "diff":
        return x(l, m) + x(l - 1, m), series
    return odd_x(l, m - 1) + odd_x(l - 1, m - 1), series  # sumd


@lru_cache(maxsize=None)
def _lemma2_gens(which: str, m: int) -> tuple:
    """The leaves of Lemma 2's series for (which, m), shared by every l:
    (j, gen_j) for each nonzero gen_j, the stride they are read with, and
    the shift s of the series in y^(2j - s)."""
    if which == "diff1":
        gen, stride, shift = (lambda j: h_spec(2 * j - m, m - j + 1, m - j + 1)), 2, 0
    elif which == "inverseq":
        gen, stride, shift = (lambda j: c_poly(m, j)), 1, 1
    elif which == "diff":
        gen, stride, shift = (lambda j: g_poly(m, j)), 2, 0
    elif which == "sumd":
        gen, stride, shift = (lambda j: d_poly(m, j)), 1, 1
    else:
        raise ValueError(f"unknown identity {which!r}")
    gens = tuple((j, g) for j in range(m + 1) if (g := gen(j)))
    if gens and gens[0][0] < shift:
        raise AssertionError("a j = 0 term needs y^(-1)")
    return gens, stride, shift


def verify_lemma2(which: str, m: int, l: int) -> bool:
    """Check one of the four h/c/g/d difference identities as Laurent
    polynomials in t, proved at one point (`kron.prove`).

    Every right side is a prefactor times one series in y = [l]_{t^2} t^(-l)."""
    if m < 1 or l < 1:
        raise ValueError("need m >= 1 and l >= 1")
    gens, stride, shift = _lemma2_gens(which, m)
    lhs, rhs = prove(lambda r: _lemma2_sides(r, which, m, l, gens, stride, shift))
    return lhs == rhs


def _lemma1_sides(r, a: int, b: int, l: int, gens: list) -> tuple:
    """Series coefficients 0..order of both sides of one Lemma 1 identity in
    the pass r, coefficient n cleared by [2l] [l]^(n+1), as two lists: the
    double h-sum, gens[n] holding (k, h) for each nonzero h(n - 2k, k + a,
    k + b), and the two partial fractions amp * ratio^n.  Both sides are
    polynomials in q, so the passes read q itself as their variable."""
    order = len(gens) - 1
    powers = prefix_products(r.one, [r.qint(l)] * (order + 1))  # [l]^i
    wide = r.qint(2 * l)
    lhs = [wide * sum((r.poly(h) * r.mono(1, l * k) * powers[n + 1 - 2 * k]
                       for k, h in terms), r.zero)
           for n, terms in enumerate(gens)]
    ratios = r.qint(l + 1), r.mono(1, 1) * r.qint(l - 1)  # [l+1], q[l-1]
    amps = {(1, 1): (ratios[0], r.mono(-1, 0) * ratios[1]),
            (1, 0): (r.one, r.mono(1, l)), (0, 1): (r.mono(1, l), r.one)}[a, b]
    first, second = (prefix_products(amp, [ratio] * order) for amp, ratio in zip(amps, ratios))
    return lhs, [powers[1] ** 2 * (x + y) for x, y in zip(first, second)]


def verify_lemma1(a: int, b: int, l: int, order: int) -> bool:
    """Check the series coefficients 0..order of the double h-sum against its
    partial-fraction form, each cleared by [2l] [l]^(n+1), all proved at one
    point, so the identity holds at every q where [l] and [2l] do not
    vanish."""
    if (a, b) not in ((1, 1), (1, 0), (0, 1)):
        raise ValueError("supported cases are (1,1), (1,0) and (0,1)")
    if l < 1 or order < 0:
        raise ValueError("need l >= 1 and order >= 0")
    gens = [[(k, h) for k in range(n // 2 + 1) if (h := h_spec(n - 2 * k, k + a, k + b))]
            for n in range(order + 1)]
    lhs, rhs = prove(lambda r: _lemma1_sides(r, a, b, l, gens))
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
