"""Exact Laurent polynomials in one variable over Python's big integers.

A polynomial is stored densely as a coefficient tuple together with the
exponent of its lowest term, which may be negative.  The zero polynomial is
canonically the empty tuple with offset 0, so ``==`` is structural equality.
A polynomial is evaluated only at integer points, by Horner's rule on ints.
All values are immutable and safe to share between threads.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence


class NotDivisibleError(ArithmeticError):
    """Raised when an exact polynomial quotient does not exist."""


class LaurentPoly:
    __slots__ = ("min_exp", "coeffs")

    def __init__(self, coeffs: Iterable[int] = (), min_exp: int = 0):
        coeffs = list(coeffs)
        lo = 0
        hi = len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "coeffs", ())
            object.__setattr__(self, "min_exp", 0)
        else:
            object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))
            object.__setattr__(self, "min_exp", min_exp + lo)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        return cls((coeff,), exp)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no maximal exponent")
        return self.min_exp + len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs and self.min_exp == other.min_exp

    def __hash__(self) -> int:
        # A constant equals its int (see __eq__), so it must hash like it.
        if self.min_exp == 0 and len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((self.min_exp, self.coeffs))

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.max_exp)
        coeffs = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            coeffs[self.min_exp - lo + i] += c
        for i, c in enumerate(other.coeffs):
            coeffs[other.min_exp - lo + i] += c
        return LaurentPoly(coeffs, lo)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly([-c for c in self.coeffs], self.min_exp)

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return LaurentPoly([other * c for c in self.coeffs], self.min_exp)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        coeffs = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                coeffs[i + j] += a * b
        return LaurentPoly(coeffs, self.min_exp + other.min_exp)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no square after the last bit
                base = base * base
        return result

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient; raises NotDivisibleError when none exists."""
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return ZERO
        rem = self
        quot = ZERO
        b_low = other.coeffs[0]
        steps = len(self.coeffs)
        while not rem.is_zero:
            if steps < 0 or rem.max_exp - other.max_exp < rem.min_exp - other.min_exp:
                raise NotDivisibleError(f"{self!r} is not divisible by {other!r}")
            c, r = divmod(rem.coeffs[0], b_low)
            if r != 0:
                raise NotDivisibleError(f"{self!r} is not divisible by {other!r}")
            t = LaurentPoly.term(c, rem.min_exp - other.min_exp)
            quot = quot + t
            rem = rem - t * other
            steps -= 1
        return quot

    def __call__(self, x: int) -> int:
        """Exact value at an integer point, by Horner's rule on ints.

        Raises ValueError when min_exp < 0: such a value is not an integer.
        """
        if self.min_exp < 0:
            raise ValueError("integer evaluation of a negative exponent")
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value * x**self.min_exp

    def stretch(self, s: int) -> "LaurentPoly":
        """Substitute the variable t by t**s (s >= 1)."""
        if s < 1:
            raise ValueError("stretch factor must be positive")
        if self.is_zero or s == 1:
            return self
        coeffs = [0] * ((len(self.coeffs) - 1) * s + 1)
        for i, c in enumerate(self.coeffs):
            coeffs[i * s] = c
        return LaurentPoly(coeffs, self.min_exp * s)

    def is_palindromic(self) -> bool:
        """True iff the coefficient sequence equals its own reversal."""
        return self.coeffs == self.coeffs[::-1]

    def to_string(self, var: str = "q") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.min_exp + i
            if e == 0:
                mono = ""
            elif e == 1:
                mono = var
            else:
                mono = f"{var}^{e}"
            if mono and abs(c) == 1:
                body = mono
            elif mono:
                body = f"{abs(c)}{mono}"
            else:
                body = str(abs(c))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_string('t')!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly.term(1)
Q = LaurentPoly.term(1, 1)


def q_int(k: int, stride: int = 1) -> LaurentPoly:
    """The polynomial 1 + t^s + ... + t^(s*(k-1)); zero for k <= 0."""
    if k <= 0:
        return ZERO
    coeffs = [0] * (stride * (k - 1) + 1)
    for i in range(k):
        coeffs[stride * i] = 1
    return LaurentPoly(coeffs)


def q_fact(k: int) -> LaurentPoly:
    """Product of q_int(i) for i = 1..k; the empty product is 1."""
    result = ONE
    for i in range(1, k + 1):
        result = result * q_int(i)
    return result


class ShapeReport(NamedTuple):
    unimodal: bool
    log_concave: bool


def shape_report(p: LaurentPoly) -> ShapeReport:
    """Unimodality and log-concavity of a nonnegative coefficient sequence.

    Positions between the lowest and highest exponent count, including
    internal zeros.  Raises ValueError on a negative coefficient.
    """
    if any(c < 0 for c in p.coeffs):
        raise ValueError("shape report requires nonnegative coefficients")
    cs = p.coeffs
    if len(cs) <= 2:
        return ShapeReport(unimodal=True, log_concave=True)
    rises = True
    unimodal = True
    for prev, cur in zip(cs, cs[1:]):
        if rises:
            if cur < prev:
                rises = False
        elif cur > prev:
            unimodal = False
            break
    log_concave = all(
        cs[i] * cs[i] >= cs[i - 1] * cs[i + 1] for i in range(1, len(cs) - 1)
    )
    return ShapeReport(unimodal=unimodal, log_concave=log_concave)


FAMILIES = ("P", "Q", "G", "H")
ROUTES = ("det", "invert", "lgv-brute", "lgv-det")


class CoeffRecord:
    """A computed named polynomial, ready for emission."""

    __slots__ = ("family", "m", "k", "route", "poly")

    def __init__(self, family: str, m: int, k: int, route: str, poly: LaurentPoly):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if route not in ROUTES:
            raise ValueError(f"unknown route {route!r}")
        if not poly.is_zero and poly.min_exp != 0:
            raise ValueError("family polynomials start at exponent 0")
        if any(c < 0 for c in poly.coeffs):
            raise ValueError("family polynomials have nonnegative coefficients")
        self.family, self.m, self.k, self.route, self.poly = family, m, k, route, poly

    def coefficients(self) -> Sequence[int]:
        return self.poly.coeffs if not self.poly.is_zero else (0,)
