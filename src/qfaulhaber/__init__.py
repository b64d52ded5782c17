"""Exact q-analogues of Faulhaber and Salie coefficient polynomials.

Four triangular families of polynomials with nonnegative integer
coefficients, computable by three independent routes (Hankel-style
determinants, triangular matrix inversion with interpolation, and weighted
non-intersecting lattice path enumeration), plus machine verification of the
summation identities they satisfy.

The package root exports the entry points the demos use; everything else is
imported from its submodule (`coeffs`, `homog`, `identities`, `laurent`,
`lgv`, `cli`).
"""
from .coeffs import det_route, verify_inverse_pair
from .identities import (
    classical_check,
    verify_lemma1,
    verify_lemma2,
    verify_theorem1,
)
from .laurent import shape_report

__version__ = "0.1.0"

__all__ = [
    "classical_check",
    "det_route",
    "shape_report",
    "verify_inverse_pair",
    "verify_lemma1",
    "verify_lemma2",
    "verify_theorem1",
]
