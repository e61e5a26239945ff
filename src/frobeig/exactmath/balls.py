"""Certified midpoint-radius arithmetic on dyadic grids.

A `ComplexBall` is a closed disk {z : |z - mid| <= rad} stored as three
integer mantissas over one power-of-two exponent: the midpoint is
(mre + i*mim) * 2^exp and the radius mrad * 2^exp.  This is the
midpoint-radius design of Arb (Johansson, arXiv:1611.02831) with exact
integer midpoints: sums, products, scaling and negation are exact
integer operations on the mantissas, and the product radius takes its
midpoint moduli from `math.isqrt`, rounded up.

Rounding happens in one place, `round_bits`, and it rounds outward: it
moves the midpoint to the nearest point of the 2^-bits grid, adds the
displacement to the radius and rounds the radius up, so a ball always
contains every value it stands for.  Nothing divides: a certificate
that would compare a quotient z/d compares z with the product d*w
instead.  Code that builds a ball from mantissas directly (root
isolation) rounds its radius up itself.  The read-only views `re`, `im`
and `rad` give the exact rational values of the mantissas, for witness
strings and tests.

`poly_from_roots` expands prod (X - v) over balls on one working grid
and reads its integer coefficients; validation's factor search and the
splitting field's resolvents both use it.

Comparisons that a ball cannot decide raise `Ambiguous` instead of guessing;
callers escalate precision and retry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence

from ..errors import Ambiguous


def isqrt_ub(n: int) -> int:
    """Smallest integer s with s*s >= n, for n >= 0."""
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def _dyadic(mantissa: int, exp: int) -> Fraction:
    if exp >= 0:
        return Fraction(mantissa << exp)
    return Fraction(mantissa, 1 << -exp)


class ComplexBall:
    """Closed disk with midpoint (mre + i*mim) * 2^exp and radius
    mrad * 2^exp; the four fields are ints and never change."""

    __slots__ = ("mre", "mim", "mrad", "exp")

    def __init__(self, mre: int, mim: int, mrad: int, exp: int):
        if mrad < 0:
            raise ValueError("negative radius")
        self.mre = mre
        self.mim = mim
        self.mrad = mrad
        self.exp = exp

    # --- constructors ---

    @staticmethod
    def exact(re: int, im: int = 0) -> "ComplexBall":
        """The point ball at the Gaussian integer re + i*im."""
        return ComplexBall(re, im, 0, 0)

    # --- exact rational views ---

    @property
    def re(self) -> Fraction:
        return _dyadic(self.mre, self.exp)

    @property
    def im(self) -> Fraction:
        return _dyadic(self.mim, self.exp)

    @property
    def rad(self) -> Fraction:
        return _dyadic(self.mrad, self.exp)

    def abs_sq_mid(self) -> Fraction:
        return _dyadic(self.mre * self.mre + self.mim * self.mim,
                       2 * self.exp)

    # --- arithmetic ---

    def __add__(self, other: "ComplexBall") -> "ComplexBall":
        e, f = self.exp, other.exp
        if e == f:
            return ComplexBall(self.mre + other.mre, self.mim + other.mim,
                               self.mrad + other.mrad, e)
        if e > f:
            s = e - f
            return ComplexBall((self.mre << s) + other.mre,
                               (self.mim << s) + other.mim,
                               (self.mrad << s) + other.mrad, f)
        s = f - e
        return ComplexBall(self.mre + (other.mre << s),
                           self.mim + (other.mim << s),
                           self.mrad + (other.mrad << s), e)

    def __neg__(self) -> "ComplexBall":
        return ComplexBall(-self.mre, -self.mim, self.mrad, self.exp)

    def conjugate(self) -> "ComplexBall":
        return ComplexBall(self.mre, -self.mim, self.mrad, self.exp)

    def __mul__(self, other: "ComplexBall") -> "ComplexBall":
        a, b, r = self.mre, self.mim, self.mrad
        c, d, s = other.mre, other.mim, other.mrad
        # |xy - mid(x)mid(y)| <= |mid(x)| s + |mid(y)| r + r s
        rad = r * s
        if s:
            rad += isqrt_ub(a * a + b * b) * s
        if r:
            rad += isqrt_ub(c * c + d * d) * r
        return ComplexBall(a * c - b * d, a * d + b * c, rad,
                           self.exp + other.exp)

    def scale(self, c: int) -> "ComplexBall":
        return ComplexBall(self.mre * c, self.mim * c, self.mrad * abs(c),
                           self.exp)

    def round_bits(self, bits: int) -> "ComplexBall":
        """The ball moved onto the 2^-bits grid, enlarged to keep every
        point it contained; a ball already on that grid is returned."""
        shift = -bits - self.exp
        if shift <= 0:
            return self
        half = 1 << (shift - 1)
        re = (self.mre + half) >> shift
        im = (self.mim + half) >> shift
        err = (self.mrad + abs(self.mre - (re << shift))
               + abs(self.mim - (im << shift)))
        return ComplexBall(re, im, -((-err) >> shift), -bits)

    # --- certified predicates ---

    def _aligned(self, other: "ComplexBall"):
        """Mantissas of both balls over their common (finer) exponent."""
        e, f = self.exp, other.exp
        a, b, r = self.mre, self.mim, self.mrad
        c, d, s = other.mre, other.mim, other.mrad
        if e > f:
            a, b, r = a << (e - f), b << (e - f), r << (e - f)
        elif f > e:
            c, d, s = c << (f - e), d << (f - e), s << (f - e)
        return a, b, r, c, d, s

    def contains_exact(self, re, im=0) -> bool:
        dx = self.re - Fraction(re)
        dy = self.im - Fraction(im)
        return dx * dx + dy * dy <= self.rad * self.rad

    def disjoint(self, other: "ComplexBall") -> bool:
        a, b, r, c, d, s = self._aligned(other)
        dx, dy, rr = a - c, b - d, r + s
        return dx * dx + dy * dy > rr * rr

    def intersects(self, other: "ComplexBall") -> bool:
        return not self.disjoint(other)

    def contains_ball(self, other: "ComplexBall") -> bool:
        a, b, r, c, d, s = self._aligned(other)
        gap = r - s
        if gap < 0:
            return False
        dx, dy = a - c, b - d
        return dx * dx + dy * dy <= gap * gap

    def unique_integer(self):
        """The single integer in the real interval, when imag covers 0.

        Returns the integer, or None when the disk certifiably contains no
        rational integer; raises Ambiguous if more than one integer is
        possible.
        """
        if abs(self.mim) > self.mrad:
            return None
        lo, hi = self.mre - self.mrad, self.mre + self.mrad
        if self.exp >= 0:
            lo, hi = lo << self.exp, hi << self.exp
        else:
            shift = -self.exp
            lo, hi = -((-lo) >> shift), hi >> shift
        if lo > hi:
            return None
        if lo < hi:
            raise Ambiguous("interval holds several integers")
        return lo

    def __repr__(self) -> str:
        return (f"ComplexBall({self.mre}, {self.mim}, {self.mrad}, "
                f"{self.exp})")

    def __str__(self) -> str:
        return f"({float(self.re):.6g} {float(self.im):+.6g}i) +- {float(self.rad):.3g}"


def poly_from_roots(values: Sequence[ComplexBall],
                    bits: int) -> Optional[List[int]]:
    """The integer coefficients of prod (X - v) over the balls values, low
    to high, or None when the product provably is not in Z[X].

    Each expansion step rounds the coefficients below the leading one
    onto the 2^-bits grid, so their mantissas stay bounded and every true
    coefficient stays inside its ball.  The coefficients are read low to
    high, and the first that holds no integer (None) or several
    (Ambiguous, raised) decides."""
    coeffs = [ComplexBall.exact(1)]
    for v in values:
        nxt = [ComplexBall.exact(0)] * (len(coeffs) + 1)
        for t, c in enumerate(coeffs):
            nxt[t + 1] = nxt[t + 1] + c
            nxt[t] = nxt[t] + c * (-v)
        coeffs = [c.round_bits(bits) for c in nxt[:-1]] + [nxt[-1]]
    ints = []
    for c in coeffs:
        n = c.unique_integer()
        if n is None:
            return None
        ints.append(n)
    return ints
