"""Soundness of the dyadic ball arithmetic against exact rationals.

Every operation must enclose the exact Fraction result for every point of
its inputs.  The points checked are each input's midpoint and six points
on its boundary circle (directions with rational coordinates), where an
enclosure that is too small first shows.  The two decision predicates,
`disjoint` and `unique_integer`, must agree with the same predicates
evaluated exactly on the rational views.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobeig.errors import Ambiguous
from frobeig.exactmath.balls import ComplexBall, poly_from_roots

from conftest import enclose

_DIRECTIONS = ((1, 0), (0, 1), (-1, 0), (0, -1),
               (Fraction(3, 5), Fraction(4, 5)),
               (Fraction(-4, 5), Fraction(-3, 5)))


def points(b):
    """The midpoint and six boundary points of b, exactly."""
    yield b.re, b.im
    for ux, uy in _DIRECTIONS:
        yield b.re + b.rad * ux, b.im + b.rad * uy


balls = st.builds(ComplexBall, st.integers(-2 ** 70, 2 ** 70),
                  st.integers(-2 ** 70, 2 ** 70), st.integers(0, 2 ** 40),
                  st.integers(-90, 10))
rationals = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                      st.integers(1, 10 ** 6))
common = settings(max_examples=60, deadline=None)


@common
@given(balls, balls)
def test_add_encloses(x, y):
    s = x + y
    for xr, xi in points(x):
        for yr, yi in points(y):
            assert s.contains_exact(xr + yr, xi + yi)


@common
@given(balls, balls)
def test_mul_encloses(x, y):
    p = x * y
    for xr, xi in points(x):
        for yr, yi in points(y):
            assert p.contains_exact(xr * yr - xi * yi, xr * yi + xi * yr)


@common
@given(balls, st.integers(-10 ** 6, 10 ** 6))
def test_scale_encloses(x, c):
    s = x.scale(c)
    for xr, xi in points(x):
        assert s.contains_exact(c * xr, c * xi)


@common
@given(balls, st.integers(-8, 120))
def test_round_bits_encloses(x, bits):
    r = x.round_bits(bits)
    assert r.exp >= -bits or r is x
    for xr, xi in points(x):
        assert r.contains_exact(xr, xi)


@common
@given(rationals, rationals, rationals, st.integers(-4, 100))
def test_enclose_contains_the_rational_disk(re, im, rad, bits):
    rad = abs(rad)
    b = enclose(re, im, rad, bits)
    assert b.exp == -bits
    assert all(isinstance(v, int) for v in (b.mre, b.mim, b.mrad))
    disk = [(re, im)] + [(re + rad * ux, im + rad * uy)
                         for ux, uy in _DIRECTIONS]
    for pr, pi in disk:
        assert b.contains_exact(pr, pi)


def test_enclose_of_dyadic_data_is_exact():
    b = enclose(Fraction(5, 4), Fraction(-3, 8), Fraction(1, 16), 8)
    assert (b.re, b.im, b.rad) == (Fraction(5, 4), Fraction(-3, 8),
                                   Fraction(1, 16))


def test_rejects_negative_radius():
    with pytest.raises(ValueError):
        ComplexBall(0, 0, -1, 0)
    with pytest.raises(ValueError):
        enclose(0, 0, Fraction(-1, 3), 8)


# --- decision predicates against their exact rational forms ---

def exact_disjoint(x, y):
    dx, dy = x.re - y.re, x.im - y.im
    rr = x.rad + y.rad
    return dx * dx + dy * dy > rr * rr


@common
@given(balls, balls)
def test_disjoint_matches_exact(x, y):
    assert x.disjoint(y) == exact_disjoint(x, y)
    assert y.disjoint(x) == exact_disjoint(x, y)
    assert x.intersects(y) == (not exact_disjoint(x, y))


@common
@given(balls, st.integers(0, 2 ** 30), st.integers(1, 20))
def test_disjoint_at_tangency(x, t, shift):
    # y sits at distance 5t * 2^exp along (3, 4); at radius 5t - r the
    # disks touch, one unit less and they are disjoint
    assume(5 * t >= x.mrad + 1)
    e = x.exp
    touch = ComplexBall(x.mre + 3 * t, x.mim + 4 * t, 5 * t - x.mrad, e)
    apart = ComplexBall(x.mre + 3 * t, x.mim + 4 * t, 5 * t - x.mrad - 1, e)
    # the same disks with mantissas on a finer grid
    fine = 1 << shift
    apart_fine = ComplexBall(apart.mre * fine, apart.mim * fine,
                             apart.mrad * fine, e - shift)
    assert not x.disjoint(touch) and not exact_disjoint(x, touch)
    assert x.disjoint(apart) and exact_disjoint(x, apart)
    assert x.disjoint(apart_fine) and apart_fine.disjoint(x)


def exact_unique_integer(b):
    if abs(b.im) > b.rad:
        return None
    lo, hi = math.ceil(b.re - b.rad), math.floor(b.re + b.rad)
    if lo > hi:
        return None
    if lo < hi:
        return Ambiguous
    return lo


small_balls = st.builds(ComplexBall, st.integers(-2 ** 12, 2 ** 12),
                        st.integers(-2 ** 6, 2 ** 6), st.integers(0, 2 ** 9),
                        st.integers(-10, 2))


@settings(max_examples=300, deadline=None)
@given(small_balls)
def test_unique_integer_matches_exact(b):
    expected = exact_unique_integer(b)
    if expected is Ambiguous:
        with pytest.raises(Ambiguous):
            b.unique_integer()
        return
    assert b.unique_integer() == expected
    # None means no integer lies in the disk; n means no other one does
    near = range(math.floor(b.re - b.rad) - 1, math.ceil(b.re + b.rad) + 2)
    inside = [n for n in near if b.contains_exact(n, 0)]
    if expected is None:
        assert inside == []
    else:
        assert set(inside) <= {expected}


# --- the integer reader ---

def test_poly_from_roots_reads_integer_coefficients():
    assert poly_from_roots([ComplexBall.exact(2), ComplexBall.exact(-3)],
                           64) == [-6, 1, 1]
    assert poly_from_roots([], 64) == [1]


def test_poly_from_roots_first_deciding_coefficient_wins():
    # (X - a)(X - b) = ab - (a + b) X + X^2, read low to high
    a = enclose(0, Fraction(1, 8), 0, 8)                    # i/8
    b = enclose(4, 0, 1, 8)                                 # 4 +- 1
    assert (a * b).unique_integer() is None
    with pytest.raises(Ambiguous):
        (-(a + b)).unique_integer()
    assert poly_from_roots([a, b], 64) is None
    # the other order: the constant holds several integers, the linear
    # coefficient none
    a = ComplexBall.exact(8, -8)                            # 8 - 8i
    b = enclose(Fraction(1, 2), Fraction(1, 2),
                Fraction(1, 4), 8)                          # (1+i)/2 +- 1/4
    with pytest.raises(Ambiguous):
        (a * b).unique_integer()
    assert (-(a + b)).unique_integer() is None
    with pytest.raises(Ambiguous):
        poly_from_roots([a, b], 64)
