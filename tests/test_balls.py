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
from itertools import combinations, islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobeig.corpus import CORPUS
from frobeig.errors import Ambiguous
from frobeig.exactmath.balls import ComplexBall, integer_power_sums, power_rows
from frobeig.exactmath.intpoly import IntPoly, from_power_sums
from frobeig.exactmath.roots import isolate_roots, real_roots

from conftest import contains_exact, enclose, poly_from_roots

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
            assert contains_exact(s, xr + yr, xi + yi)


@common
@given(balls, balls)
def test_mul_encloses(x, y):
    p = x * y
    for xr, xi in points(x):
        for yr, yi in points(y):
            assert contains_exact(p, xr * yr - xi * yi,
                                  xr * yi + xi * yr)


@common
@given(balls, st.integers(-10 ** 6, 10 ** 6))
def test_scale_encloses(x, c):
    s = x.scale(c)
    for xr, xi in points(x):
        assert contains_exact(s, c * xr, c * xi)


@common
@given(balls, st.integers(-8, 120))
def test_round_bits_encloses(x, bits):
    r = x.round_bits(bits)
    assert r.exp >= -bits or r is x
    for xr, xi in points(x):
        assert contains_exact(r, xr, xi)


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
        assert contains_exact(b, pr, pi)


def test_enclose_of_dyadic_data_is_exact():
    b = enclose(Fraction(5, 4), Fraction(-3, 8), Fraction(1, 16), 8)
    assert (b.re, b.im, b.rad) == (Fraction(5, 4), Fraction(-3, 8),
                                   Fraction(1, 16))


def test_rejects_negative_radius():
    with pytest.raises(ValueError):
        ComplexBall(0, 0, -1, 0)
    with pytest.raises(ValueError):
        enclose(0, 0, Fraction(-1, 3), 8)


def test_equality_is_on_mantissas_and_exponent():
    a = ComplexBall(5, -3, 1, -4)
    assert a == ComplexBall(5, -3, 1, -4)
    assert hash(a) == hash(ComplexBall(5, -3, 1, -4))
    # the same disk on a finer grid is another ball
    assert a != ComplexBall(10, -6, 2, -5)
    assert a != (5, -3, 1, -4)


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
    inside = [n for n in near if contains_exact(b, n, 0)]
    if expected is None:
        assert inside == []
    else:
        assert set(inside) <= {expected}


# --- the integer reader ---

def test_power_sums_of_exact_points_are_exact():
    # Gaussian-integer point balls: every power is exact, so every sum is
    values = [ComplexBall.exact(2), ComplexBall.exact(-3),
              ComplexBall.exact(1, 1), ComplexBall.exact(1, -1)]
    rows = list(islice(power_rows(values, 64), 4))
    assert all(p is v for p, v in zip(rows[1], values))
    for k, row in enumerate(rows):
        for v, p in zip(values, row):
            z = complex(v.mre, v.mim) ** k
            assert (p.re, p.im, p.rad) == (z.real, z.imag, 0)
    assert integer_power_sums(rows, [0, 1]) == [2, -1, 13]
    assert from_power_sums([2, -1, 13]) == [-6, 1, 1]
    # 1 + i and 1 - i: X^2 - 2X + 2
    assert integer_power_sums(rows, [2, 3]) == [2, 2, 0]
    assert from_power_sums([2, 2, 0]) == [2, -2, 1]
    assert integer_power_sums(rows, [0, 2, 3]) == [3, 4, 4, 4]
    assert integer_power_sums(rows, [2]) is None
    assert integer_power_sums(rows, []) == [0]


def test_first_deciding_power_sum_wins():
    # s_1 = a + b holds no integer, s_2 = a^2 + b^2 several
    a = enclose(Fraction(1, 2), 0, 0, 8)                    # 1/2
    b = enclose(3, 0, Fraction(1, 4), 8)                    # 3 +- 1/4
    rows = list(islice(power_rows([a, b], 64), 3))
    assert (rows[1][0] + rows[1][1]).unique_integer() is None
    with pytest.raises(Ambiguous):
        (rows[2][0] + rows[2][1]).unique_integer()
    assert integer_power_sums(rows, [0, 1]) is None
    # the other order: s_1 holds several integers, s_2 none
    a = ComplexBall.exact(4, 4)                             # 4 + 4i
    b = enclose(0, -4, 1, 8)                                # -4i +- 1
    rows = list(islice(power_rows([a, b], 64), 3))
    with pytest.raises(Ambiguous):
        (rows[1][0] + rows[1][1]).unique_integer()
    assert (rows[2][0] + rows[2][1]).unique_integer() is None
    with pytest.raises(Ambiguous):
        integer_power_sums(rows, [0, 1])
    # read from the generator, a decided sum stops the table
    built = []
    lazy = (built.append(k) or row
            for k, row in enumerate(power_rows([a, b], 64)))
    with pytest.raises(Ambiguous):
        integer_power_sums(lazy, [0, 1])
    assert built == [0, 1]


@pytest.mark.parametrize("prec", [192, 384])
def test_power_sums_agree_with_the_product_expansion(prec):
    # every subset the factor search can visit, for every corpus record:
    # where both readers decide, they give the same polynomial or both
    # reject
    bits = prec + 64
    decided = 0
    for entry in CORPUS:
        balls = isolate_roots(
            real_roots(IntPoly(entry.coefficients), entry.q), prec)
        rows = list(islice(power_rows(balls, bits), len(balls) // 2 + 1))
        for size in range(1, len(balls) // 2 + 1):
            for subset in combinations(range(len(balls)), size):
                try:
                    old = poly_from_roots([balls[i] for i in subset], bits)
                    sums = integer_power_sums(rows, subset)
                except Ambiguous:
                    continue
                try:
                    new = None if sums is None else from_power_sums(sums)
                except ValueError:
                    new = None
                assert new == old, (entry.tag, subset)
                decided += 1
    assert decided > 100
