"""Kronecker pack, read-back and digit sizing, at one point and at +-X."""
import random

from qfaulhaber.kron import digit_bits, pack, pack_pm, read_back, read_back_pm
from qfaulhaber.laurent import LaurentPoly


class TestReadBack:
    def test_digits_read_back_every_int(self):
        # read_back inverts pack on every int, near each digit boundary too,
        # and is exact on every polynomial whose coefficients fit a signed
        # digit
        rng = random.Random(21)
        for bits in (8, 16, 24):
            half = 1 << (bits - 1)
            values = [(1 << n) - 1 for n in range(5 * bits)]
            values += [-(1 << n) for n in range(5 * bits)]
            values += [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, 6 * bits))
                       for _ in range(200)]
            for value in values:
                for shift in (-2, 0, 3):
                    poly = read_back(value, shift, bits)
                    assert pack(poly, shift, bits) == value
            for _ in range(200):
                poly = LaurentPoly([rng.randint(1 - half, half - 1)
                                    for _ in range(rng.randint(0, 6))], rng.randint(-3, 3))
                shift = poly.min_exp - rng.randint(0, 2)
                value = pack(poly, shift, bits)
                assert read_back(value, shift, bits) == poly


def at(poly, shift, x):
    """poly / q^shift at q = x, term by term."""
    return sum(c * x ** (poly.min_exp - shift + j) for j, c in enumerate(poly.coeffs))


class TestPlusMinusPoints:
    def test_round_trip(self):
        # pack_pm is f at X = 2^(B/2) and at -X, and read_back_pm recovers f
        # from the two: every signed coefficient up to 2^(B-1) - 1 in size,
        # at even and odd positions, odd and even lengths, shifts of either
        # parity below negative and positive lowest exponents, inner zeros
        rng = random.Random(29)
        for bits in (8, 16, 24, 40):
            half = 1 << (bits - 1)
            x = 1 << bits // 2
            for length in range(8):
                for extreme in range(length):  # one coefficient at the bound
                    coeffs = [rng.choice((0, rng.randint(1 - half, half - 1)))
                              for _ in range(length)]
                    coeffs[extreme] = rng.choice((1 - half, half - 1))
                    poly = LaurentPoly(coeffs, rng.randint(-5, 5))
                    for shift in range(poly.min_exp - 3, poly.min_exp + 1):
                        plus, minus = pack_pm(poly, shift, bits)
                        assert (plus, minus) == (at(poly, shift, x), at(poly, shift, -x))
                        assert read_back_pm(plus, minus, shift, bits) == poly

    def test_zero_polynomial(self):
        for shift in (-3, 0, 1):
            assert pack_pm(LaurentPoly(), shift, 16) == (0, 0)
            assert read_back_pm(0, 0, shift, 16) == LaurentPoly()

    def test_one_step_past_the_bound_wraps(self):
        # 2^(B-1) at an even or an odd position reads back as -2^(B-1) there
        # and a carry of 1 two positions up, in the same half
        for bits in (8, 24):
            half = 1 << (bits - 1)
            for low in (-1, 0, 1, 2):
                poly = LaurentPoly([half], low)
                wrapped = LaurentPoly([-half, 0, 1], low)
                for shift in (low - 1, low):
                    assert read_back_pm(*pack_pm(poly, shift, bits), shift, bits) == wrapped


class TestDigitBits:
    def test_least_byte_multiple_above_the_bound(self):
        # B is whole bytes with 2^(B-1) > N, so a signed digit holds every
        # |c| <= N and a proof's X = 2^B exceeds 2N; one byte less would not
        # (or would leave no bits at all)
        for bound in [0] + [2 ** j + d for j in range(80) for d in (-1, 0, 1)]:
            bits = digit_bits(bound)
            assert bits % 8 == 0 and 2 ** (bits - 1) > bound, bound
            assert bits == 8 or 2 ** (bits - 9) <= bound, bound
