"""Kronecker substitution (von zur Gathen and Gerhard, Modern Computer Algebra,
8.4): an integer polynomial as one Python int, its value at q = X = 2^B
(`pack`), and back as signed base-X digits (`read_back`), B a multiple of 8
sized by `digit_bits`.  Harvey's two-point variant (KS2: "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.,
2009) packs f at q = +-2^(B/2) instead (`pack_pm`), two ints of half the
bits, and reads f back from both (`read_back_pm`): their sum and difference
are its even and odd parts at q^2 = 2^B, each read as signed base-2^B digits,
so the same digit bound makes both halves exact.

`prove` proves an identity lhs = rhs by the same substitution; the identity
checks, the inverse pairs and the boundary sum run on it.  The check is
written once, as a function of a pass r (leaves: polynomials, q-integers,
binomials 1 +- t^e and monomials), and runs twice.  The norm pass
(`_NormPass`) maps every leaf to its coefficient 1-norm; products multiply
and sums and differences add, so lhs + rhs is a bound N on ||lhs - rhs||_1.
The value pass (`_ValuePass`) evaluates every leaf at t = X = 2^B with
2^(B-1) > N, as an int and its lowest exponent, so t^(-l) needs no clearing
factor.  Every coefficient of lhs - rhs is below X in size, so its lowest
nonzero one would survive modulo X: lhs - rhs vanishes at X only if it is
zero, and one comparison of ints proves the identity.
"""
from __future__ import annotations

from itertools import accumulate
from operator import add, mul

from .laurent import LaurentPoly


def digit_bits(bound: int) -> int:
    """The least B, a multiple of 8, with 2^(B-1) > bound: a signed base-2^B
    digit holds every c with |c| <= bound, and for a proof 2^B > 2 bound."""
    return 8 * ((bound.bit_length() + 8) // 8)


def pack(e: LaurentPoly, shift: int, bits: int) -> int:
    """e / q^shift at q = 2^bits, by Horner's rule on shifts; e has no
    exponent below `shift`."""
    value = 0
    for c in reversed(e.coeffs):
        value = (value << bits) + c
    return value << bits * (e.min_exp - shift) if e else 0


def pack_pm(e: LaurentPoly, shift: int, bits: int) -> tuple[int, int]:
    """e / q^shift at q = X and at q = -X, X = 2^(bits/2) (Harvey's KS2): with
    f = e / q^shift = q^d g and g(q) = E(q^2) + q O(q^2), E and O at q^2 = 2^bits
    take one Horner pass over the even and the odd coefficients, and
    f(+-X) = (+-X)^d (E +- X O).  e has no exponent below `shift`."""
    if not e:
        return 0, 0
    even = odd = 0
    for c in reversed(e.coeffs[0::2]):
        even = (even << bits) + c
    for c in reversed(e.coeffs[1::2]):
        odd = (odd << bits) + c
    half, d = bits // 2, e.min_exp - shift
    odd <<= half
    plus, minus = (even + odd) << half * d, (even - odd) << half * d
    return plus, -minus if d % 2 else minus


_from_bytes = int.from_bytes  # one global lookup per digit, not two


def _digits(value: int, bits: int, count: int) -> list[int]:
    """The `count` signed base-2^bits digits of value, bits a multiple of 8.
    Biased by 2^(bits-1), each digit is an unsigned one of bits / 8 bytes; a
    value of fewer than bits * count - 1 bits keeps the biased value within
    `count` digits."""
    width = bits // 8
    half = 1 << (bits - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * count, "little")
    raw = (value + bias).to_bytes(count * width, "little")
    return [_from_bytes(raw[j:j + width], "little") - half
            for j in range(0, len(raw), width)]


def _digit_count(value: int, bits: int) -> int:
    """Enough signed base-2^bits digits for every int up to |value| (see
    `_digits`)."""
    return (abs(value).bit_length() + 1) // bits + 1


def read_back(value: int, shift: int, bits: int) -> LaurentPoly:
    """The polynomial q^shift * sum c_j q^j with every |c_j| < 2^(bits-1)
    whose sum is `value` at q = X = 2^bits, bits a multiple of 8: its signed
    base-X digits, enough of them that every int reads back."""
    return LaurentPoly(_digits(value, bits, _digit_count(value, bits)), shift)


def read_back_pm(plus: int, minus: int, shift: int, bits: int) -> LaurentPoly:
    """The polynomial q^shift f, every coefficient c of f with |c| <
    2^(bits-1), from plus = f(X) and minus = f(-X), X = 2^(bits/2):
    (plus + minus) / 2 is E and (plus - minus) / 2X is O at q^2 = 2^bits,
    f(q) = E(q^2) + q O(q^2), so each reads back as signed base-2^bits digits
    and the two digit lists interleave.  Both are read as one int, E + O
    X^(2 count): each has a signed digit string of `count` digits, so their
    concatenation is that int's."""
    even, odd = (plus + minus) >> 1, (plus - minus) >> bits // 2 + 1
    count = _digit_count(max(abs(even), abs(odd)), bits)
    digits = _digits(even + (odd << bits * count), bits, 2 * count)
    digits[0::2], digits[1::2] = digits[:count], digits[count:]
    return LaurentPoly(digits, shift)


def qint_value(k: int, bits: int) -> int:
    """[k]_q at q = 2^bits, k >= 0: the geometric sum as one quotient."""
    return ((1 << bits * k) - 1) // ((1 << bits) - 1)


class _NormPass:
    """The leaves of the norm pass, each as its coefficient 1-norm (an int):
    products multiply, and sums add, differences included, since a side
    writes a difference as a sum with the monomial -1."""

    one, zero = 1, 0

    @staticmethod
    def poly(p: LaurentPoly, stride: int = 1) -> int:
        return sum(map(abs, p.coeffs))

    @staticmethod
    def qint(k: int, stride: int = 1) -> int:
        return k

    @staticmethod
    def binom(e: int, sign: int) -> int:
        return 2

    @staticmethod
    def mono(sign: int, e: int) -> int:
        return 1


class _At:
    """A value-pass value: t^low f(t), f an integer polynomial, held as the
    int f(X) at X = 2^bits and low.  A sum aligns the two lows by a shift."""

    __slots__ = ("value", "low", "bits")

    def __init__(self, value: int, low: int, bits: int):
        self.value, self.low, self.bits = value, low, bits

    def __mul__(self, other: "_At") -> "_At":
        return _At(self.value * other.value, self.low + other.low, self.bits)

    def __pow__(self, e: int) -> "_At":
        return _At(self.value ** e, self.low * e, self.bits)

    def _aligned(self, other: "_At") -> tuple[int, int]:
        low = min(self.low, other.low)
        return (self.value << (self.low - low) * self.bits,
                other.value << (other.low - low) * self.bits)

    def __add__(self, other: "_At") -> "_At":
        return _At(sum(self._aligned(other)), min(self.low, other.low), self.bits)

    def __eq__(self, other) -> bool:
        """Equal values at X; equal polynomials when X exceeds every
        coefficient of the difference (see the module docstring)."""
        a, b = self._aligned(other)
        return a == b


class _ValuePass:
    """The leaves of the value pass, each at t = X = 2^bits."""

    def __init__(self, bits: int):
        self.bits = bits
        self.one, self.zero = _At(1, 0, bits), _At(0, 0, bits)

    def poly(self, p: LaurentPoly, stride: int = 1) -> _At:
        """p(t^stride)."""
        return _At(pack(p, p.min_exp, stride * self.bits), stride * p.min_exp, self.bits)

    def qint(self, k: int, stride: int = 1) -> _At:
        """[k]_{t^stride}."""
        return _At(qint_value(k, stride * self.bits), 0, self.bits)

    def binom(self, e: int, sign: int) -> _At:
        """1 + sign * t^e, e >= 1."""
        return _At((1 << e * self.bits) + sign, 0, self.bits)

    def mono(self, sign: int, e: int) -> _At:
        """sign * t^e."""
        return _At(sign, e, self.bits)


def prefix_products(first, factors: list) -> list:
    """[first, first f_0, first f_0 f_1, ...]: every prefix product of
    factors after first, one multiply each, in either pass."""
    return list(accumulate(factors, mul, initial=first))


def prove(sides) -> tuple:
    """Both sides of `sides(r)` in the value pass, at the X = 2^B that the
    norm pass of the same function proves large enough: one (lhs, rhs) pair,
    or two lists of sides, one X, from the largest bound, serving them all."""
    lhs, rhs = sides(_NormPass)
    bound = max(map(add, lhs, rhs)) if isinstance(lhs, list) else lhs + rhs
    return sides(_ValuePass(digit_bits(bound)))
