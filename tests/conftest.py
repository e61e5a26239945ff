import itertools
import math
from fractions import Fraction
from functools import lru_cache

from frobeig.analysis import Analysis
from frobeig.corpus import CORPUS
from frobeig.exactmath.balls import ComplexBall
from frobeig.weil import validate


@lru_cache(maxsize=None)
def analysis_cached(q, coeffs):
    """Analysis of validate(q, coeffs), cached across the whole test
    session; coeffs is a tuple."""
    return Analysis(validate(q, list(coeffs)))


def split_cached(q, coeffs):
    """validate + splitting_field, cached across the whole test session."""
    an = analysis_cached(q, tuple(coeffs))
    return an.data, an.field


# the deep-grid store: every non-quadratic corpus record at max_power 6,
# the cap, except the two g=3 triple products, which a record option caps
# at 3
_DEEP_GRID_CAPPED = {(3, (27, 0, 24, 0, 8, 0, 1)), (2, (8, 0, 10, 0, 5, 0, 1))}


def deep_grid_records():
    """(corpus entry, max_power) of the 14 deep-grid records."""
    return [(e, 3 if (e.q, e.coefficients) in _DEEP_GRID_CAPPED else 6)
            for e in CORPUS if len(e.coefficients) > 3]


def enclose(re, im, rad, bits):
    """The ball on the 2^-bits grid that contains the disk with rational
    midpoint (re, im) and rational radius rad >= 0: rational test data
    and the Fraction oracles enter the balls here.

    The midpoint goes to the nearest grid point (ties upward); the
    displacement is added to the radius, which is rounded up."""
    scale = Fraction(2) ** bits
    re, im = Fraction(re) * scale, Fraction(im) * scale
    rad = Fraction(rad) * scale
    if rad < 0:
        raise ValueError("negative radius")
    mre = math.floor(re + Fraction(1, 2))
    mim = math.floor(im + Fraction(1, 2))
    mrad = math.ceil(rad + abs(re - mre) + abs(im - mim))
    return ComplexBall(mre, mim, mrad, -bits)


def int_det(mat):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in mat]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def minors_gcd(rows, k):
    """gcd of the k x k minors of rows, the k-th determinantal divisor;
    it stops at 1, which no further minor can lower."""
    g = 0
    for cols in itertools.combinations(range(len(rows[0])), k):
        for sel in itertools.combinations(rows, k):
            g = math.gcd(g, int_det([[row[c] for c in cols] for row in sel]))
            if g == 1:
                return 1
    return g
