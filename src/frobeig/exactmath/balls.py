"""Certified midpoint-radius arithmetic over exact rationals.

A `ComplexBall` is a closed disk {z : |z - mid| <= rad} with a rational
midpoint and radius, so every operation can propagate enclosures exactly:
there is no hidden rounding anywhere.  Midpoints are kept on a dyadic grid
by `round_bits`, which folds the quantization error into the radius, keeping
coefficient sizes proportional to the working precision.

Comparisons that a ball cannot decide raise `Ambiguous` instead of guessing;
callers escalate precision and retry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from ..errors import Ambiguous

_ZERO = Fraction(0)


def frac_sqrt_lb(x: Fraction) -> Fraction:
    """Largest convenient rational lower bound for sqrt(x), x >= 0."""
    if x < 0:
        raise ValueError("negative operand")
    p, q = x.numerator, x.denominator
    return Fraction(math.isqrt(p * q), q)


def frac_sqrt_ub(x: Fraction) -> Fraction:
    """Rational upper bound for sqrt(x), x >= 0."""
    if x < 0:
        raise ValueError("negative operand")
    p, q = x.numerator, x.denominator
    s = math.isqrt(p * q)
    if s * s < p * q:
        s += 1
    return Fraction(s, q)


def round_frac(x: Fraction, bits: int) -> Tuple[Fraction, Fraction]:
    """Round x to the 2^-bits grid; return (rounded, |error| bound)."""
    scale = 1 << bits
    n = x.numerator * scale
    d = x.denominator
    q, r = divmod(n, d)
    if 2 * r >= d:
        q += 1
    rounded = Fraction(q, scale)
    return rounded, abs(rounded - x)


@dataclass(frozen=True)
class ComplexBall:
    """Closed disk with rational midpoint (re, im) and rational radius."""

    re: Fraction
    im: Fraction
    rad: Fraction

    def __post_init__(self):
        if self.rad < 0:
            raise ValueError("negative radius")

    # --- constructors ---

    @staticmethod
    def exact(re, im=0) -> "ComplexBall":
        return ComplexBall(Fraction(re), Fraction(im), _ZERO)

    # --- bounds ---

    def abs_sq_mid(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # --- arithmetic ---

    def __add__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall(self.re + other.re, self.im + other.im,
                           self.rad + other.rad)

    def __sub__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall(self.re - other.re, self.im - other.im,
                           self.rad + other.rad)

    def __neg__(self) -> "ComplexBall":
        return ComplexBall(-self.re, -self.im, self.rad)

    def conjugate(self) -> "ComplexBall":
        return ComplexBall(self.re, -self.im, self.rad)

    def __mul__(self, other: "ComplexBall") -> "ComplexBall":
        a, b, r = self.re, self.im, self.rad
        c, d, s = other.re, other.im, other.rad
        re = a * c - b * d
        im = a * d + b * c
        rad = (frac_sqrt_ub(a * a + b * b) * s
               + frac_sqrt_ub(c * c + d * d) * r + r * s)
        return ComplexBall(re, im, rad)

    def scale(self, c) -> "ComplexBall":
        c = Fraction(c)
        return ComplexBall(self.re * c, self.im * c, self.rad * abs(c))

    def inverse(self) -> "ComplexBall":
        norm = self.abs_sq_mid()
        lb = frac_sqrt_lb(norm)
        if lb <= self.rad:
            raise Ambiguous("ball may contain zero; cannot invert")
        re = self.re / norm
        im = -self.im / norm
        rad = self.rad / (lb * (lb - self.rad))
        return ComplexBall(re, im, rad)

    def __truediv__(self, other: "ComplexBall") -> "ComplexBall":
        return self * other.inverse()

    def power(self, e: int) -> "ComplexBall":
        if e < 0:
            return self.inverse().power(-e)
        result = ComplexBall.exact(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def round_bits(self, bits: int) -> "ComplexBall":
        re, e1 = round_frac(self.re, bits)
        im, e2 = round_frac(self.im, bits)
        rad, _ = round_frac(self.rad + e1 + e2, bits)
        if rad < self.rad + e1 + e2:
            rad += Fraction(1, 1 << bits)
        return ComplexBall(re, im, rad)

    # --- certified predicates ---

    def contains_exact(self, re, im=0) -> bool:
        dx = self.re - Fraction(re)
        dy = self.im - Fraction(im)
        return dx * dx + dy * dy <= self.rad * self.rad

    def contains_zero(self) -> bool:
        return self.contains_exact(0, 0)

    def disjoint(self, other: "ComplexBall") -> bool:
        dx = self.re - other.re
        dy = self.im - other.im
        rr = self.rad + other.rad
        return dx * dx + dy * dy > rr * rr

    def intersects(self, other: "ComplexBall") -> bool:
        return not self.disjoint(other)

    def contains_ball(self, other: "ComplexBall") -> bool:
        dx = self.re - other.re
        dy = self.im - other.im
        gap = self.rad - other.rad
        if gap < 0:
            return False
        return dx * dx + dy * dy <= gap * gap

    def unique_integer(self):
        """The single integer in the real interval, when imag covers 0.

        Returns the integer, or None when the disk certifiably contains no
        rational integer; raises Ambiguous if more than one integer is
        possible.
        """
        if abs(self.im) > self.rad:
            return None
        lo = math.ceil(self.re - self.rad)
        hi = math.floor(self.re + self.rad)
        if lo > hi:
            return None
        if lo < hi:
            raise Ambiguous("interval holds several integers")
        return lo

    def __str__(self) -> str:
        return f"({float(self.re):.6g} {float(self.im):+.6g}i) +- {float(self.rad):.3g}"
