"""Exact-arithmetic invariants of Frobenius eigenvalue structures.

Given the characteristic polynomial of Frobenius of an abelian variety over
a finite field (a q-Weil polynomial), this package computes the enriched
eigenvalue group, the Frobenius rank, the Galois-orbit decomposition of the
cohomology of powers into Lefschetz / exotic-Tate / non-Tate pieces, runs
the positivity-theorem hypothesis checks, and provides a certified engine
for transferring quadratic-form signatures along Tannakian functors.

Every reported value is exact: arbitrary-precision integers and rationals
throughout, with floating point confined to root-finding *iterations* whose
results are always certified a posteriori by exact arithmetic.
"""

__version__ = "0.2.0"

from .config import Settings
from . import errors

__all__ = ["Settings", "errors", "__version__"]
