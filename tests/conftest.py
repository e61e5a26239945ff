from functools import lru_cache

from frobeig.analysis import Analysis
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
