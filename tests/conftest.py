from functools import lru_cache

from frobeig.analysis import Analysis
from frobeig.corpus import CORPUS
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
