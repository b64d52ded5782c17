"""Machine-check the summation identities the coefficient families satisfy.

The checks are exact.  The power-sum, difference and series identities are
polynomial identities (after clearing denominators where they have any),
each proved by one comparison of Python ints at a point t = 2^B chosen
large enough that no nonzero difference can vanish there.  The inverse
pairs are rational identities, proved the same way at one point once each
entry's column denominators are cleared, and the q = 1 specializations are
integer sums.
Any check that does not hold prints FAILED.
"""
from qfaulhaber import (
    classical_check,
    verify_inverse_pair,
    verify_lemma1,
    verify_lemma2,
    verify_theorem1,
)

print("power-sum identities (cleared, proved at one point):")
for which in ("p", "qmn", "t2mnq", "t2m1"):
    ok = all(verify_theorem1(which, m, n)
             for m in range(1, 5) for n in range(1, 5))
    print(f"  {which:7} m,n <= 4: {'ok' if ok else 'FAILED'}")

print("difference identities (Laurent, proved at one point):")
for which in ("diff1", "inverseq", "diff", "sumd"):
    ok = all(verify_lemma2(which, m, l)
             for m in range(1, 7) for l in range(1, 7))
    print(f"  {which:9} m,l <= 6: {'ok' if ok else 'FAILED'}")

print("generating series against partial fractions (cleared, proved at one point):")
for ab in ((1, 1), (1, 0), (0, 1)):
    ok = all(verify_lemma1(*ab, l, 12) for l in range(1, 5))
    print(f"  case {ab}: {'ok' if ok else 'FAILED'}")

print("triangular inverse pairs (denominators cleared, proved at one point):")
for family in ("P", "Q", "G", "H"):
    print(f"  family {family}, n = 5: "
          f"{'ok' if verify_inverse_pair(family, 5) else 'FAILED'}")

print(f"classical q=1 specialization, m <= 4, n <= 20: "
      f"{'ok' if classical_check(4, 20) else 'FAILED'}")
