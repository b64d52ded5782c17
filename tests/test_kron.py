"""Kronecker pack, read-back and digit sizing."""
import random

from qfaulhaber.kron import digit_bits, pack, read_back
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


class TestDigitBits:
    def test_least_byte_multiple_above_the_bound(self):
        # B is whole bytes with 2^(B-1) > N, so a signed digit holds every
        # |c| <= N and a proof's X = 2^B exceeds 2N; one byte less would not
        # (or would leave no bits at all)
        for bound in [0] + [2 ** j + d for j in range(80) for d in (-1, 0, 1)]:
            bits = digit_bits(bound)
            assert bits % 8 == 0 and 2 ** (bits - 1) > bound, bound
            assert bits == 8 or 2 ** (bits - 9) <= bound, bound
