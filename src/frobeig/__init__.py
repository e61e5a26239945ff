"""Exact-arithmetic invariants of Frobenius eigenvalue structures.

Given the characteristic polynomial of Frobenius of an abelian variety over
a finite field (a q-Weil polynomial), this package computes the enriched
eigenvalue group, the Frobenius rank, the Galois-orbit decomposition of the
cohomology of powers into Lefschetz / exotic-Tate / non-Tate pieces, runs
the positivity-theorem hypothesis checks, and provides a certified engine
for transferring quadratic-form signatures along Tannakian functors.

Every reported value is exact: arbitrary-precision integers and rationals
throughout, with no floating point at all.  Even the root enclosures are
certified integer brackets of the real Weil polynomial's roots.
"""

__version__ = "0.3.1"

from .config import Settings
from . import errors

__all__ = ["Settings", "errors", "__version__"]
