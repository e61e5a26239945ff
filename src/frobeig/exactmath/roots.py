"""Exact root isolation of q-Weil polynomials from the real Weil polynomial.

A monic P of degree 2g whose coefficients satisfy a_i = q^(g-i) a_(2g-i)
is P(x) = x^g h(x + q/x) for the monic integer polynomial h of degree g
that `real_weil_poly` builds by the Dickson recurrence.  The roots of P
are pi = y/2 -+ i sqrt(q - y^2/4) for the roots y of h, so every root of
P has |pi|^2 = q exactly when every root of s = sqfree(h) is real and lies
in [-2 sqrt(q), 2 sqrt(q)].  `roots_in_interval` counts those roots with
one Sturm chain of s, whose signs at the irrational end points are decided
exactly as a + b sqrt(q) with integers a and b.

`isolate_roots` isolates the real roots of s by Sturm bisection on dyadic
rationals, refines each by fixed-point Newton with doubling precision and
certifies each final bracket by an exact sign change of s.  No evaluation
point is an integer and a monic integer polynomial has no other rational
roots, so no point lands on a root; each bracket is tested once for an
integer root, which then stays exact, as y = +-2r does when q = r^2.  For
a non-square q the real roots +-sqrt(q) of P come from the exact factor
y^2 - 4q of s.  Each y gives its pair of roots as two `ComplexBall`s on
one exponent, from `math.isqrt`, with the radius from the bracket width.
No float takes part, and the order is canonical: by y, with the root of
negative imaginary part first in each pair.  So conjugation swaps
adjacent roots and fixes the real ones.  `isolate_roots` and
`refine_roots` take the one `RealRoots` of a polynomial, which keeps the
brackets of its first isolation, so a refinement re-runs neither the
Sturm chain nor the bisection and keeps the order of every isolation.

`arg_ball` and `two_pi_ball` evaluate arctangents as fixed-point integer
series, with pi from Machin's formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple

from ..errors import Ambiguous, PrecisionExhausted
from .balls import ComplexBall, isqrt_ub
from .intpoly import IntPoly, _chain, _scaled_value, _variations


def real_weil_poly(poly: IntPoly, q: int) -> IntPoly:
    """h with poly(x) = x^g h(x + q/x), for poly of degree 2g whose
    coefficients satisfy a_i = q^(g-i) a_(2g-i).  As x^k + (q/x)^k =
    D_k(x + q/x) with D_0 = 2, D_1 = y and D_k = y D_(k-1) - q D_(k-2),
    h = a_g + sum over k >= 1 of a_(g+k) D_k."""
    a = poly.coefficients
    g = poly.degree // 2
    h = [a[g]] + [0] * g
    prev, cur = [2], [0, 1]
    for k in range(1, g + 1):
        for i, c in enumerate(cur):
            h[i] += a[g + k] * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= q * c
        prev, cur = cur, nxt
    return IntPoly(h)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _edge_sign(p: Sequence[int], q: int, side: int) -> int:
    """The sign of p(side * 2 sqrt(q)), which is a + b sqrt(q) for
    integers a and b, decided exactly."""
    a = b = 0
    for i, c in enumerate(p):
        t = (c << i) * q ** (i // 2)
        if i % 2:
            b += side * t
        else:
            a += t
    sa, sb = _sign(a), _sign(b)
    if sa * sb >= 0:
        return sa or sb
    return sa * _sign(a * a - q * b * b)


def roots_in_interval(s: IntPoly, q: int) -> int:
    """The distinct real roots of the squarefree s in [-2 sqrt(q),
    2 sqrt(q)]: the Sturm count on (-2 sqrt(q), 2 sqrt(q)], plus one when
    -2 sqrt(q) is a root."""
    chain = _chain(list(s.coefficients))
    lo = [_edge_sign(c, q, -1) for c in chain]
    hi = [_edge_sign(c, q, 1) for c in chain]
    return _variations(lo) - _variations(hi) + (lo[0] == 0)


def _value(p: Sequence[int], m: int, b: int) -> int:
    """p(m / 2^b) * 2^(b deg p)."""
    return _scaled_value(p, m, 1 << b)


def _brackets(s: IntPoly, q: int) -> List[Tuple[int, int, int]]:
    """(lo, hi, b) for each root of s, ascending: the open interval
    (lo / 2^b, hi / 2^b) holds that root alone, by Sturm bisection from
    (-L - 1/2, L + 1/4), L = isqrt(4q) + 1 > 2 sqrt(q).  The two ends have
    different powers of 2 in their denominators, so every midpoint has a
    larger one than both and no point is an integer.  Every root of s
    must be real and lie in [-2 sqrt(q), 2 sqrt(q)]."""
    chain = _chain(list(s.coefficients))

    def variations(m: int, b: int) -> int:
        return _variations([_sign(_value(c, m, b)) for c in chain])

    big = 4 * (math.isqrt(4 * q) + 1)
    lo, hi = -big - 2, big + 1
    vl, vh = variations(lo, 2), variations(hi, 2)
    out = []
    stack = [(lo, vl, hi, vh, 2)]
    while stack:
        lo, vl, hi, vh, b = stack.pop()
        if vl - vh == 1:
            out.append((lo, hi, b))
        elif vl - vh > 1:
            mid = lo + hi
            vm = variations(mid, b + 1)
            # the lower half is popped first, so roots come out ascending
            stack.append((mid, vm, 2 * hi, vh, b + 1))
            stack.append((2 * lo, vl, mid, vm, b + 1))
    return out


def _refine(s: Sequence[int], ds: Sequence[int], lo: int, hi: int, b: int,
            bits: int) -> Tuple[int, int]:
    """(m, w) with the one root y of s in (lo / 2^b, hi / 2^b) in
    [m - w, m + w] / 2^(bits + 1), and w = 0 when y is an integer.

    The bracket is halved to width 1/2, so that it holds at most one
    integer, which is tested once.  Then each Newton step aims at the
    2^-nb grid, nb twice the bits of the bracket's width (not of its
    scale 2^-b, which at a large q is already far finer than the width),
    and at least b + 1.  A step is kept when s changes sign between the
    grid points next to it and both lie in the bracket; otherwise the
    bracket is halved.  A kept step holds the one root of the bracket, so
    every bracket is certified exactly.  A bracket already finer than bits
    (a large q, or close roots) is rounded outward."""
    side = _sign(_value(s, lo, b))

    def halve(lo, hi, b):
        mid = lo + hi
        if _sign(_value(s, mid, b + 1)) == side:
            return mid, 2 * hi, b + 1
        return 2 * lo, mid, b + 1

    while (hi - lo) << 1 > 1 << b:
        lo, hi, b = halve(lo, hi, b)
    n = (lo >> b) + 1
    if n << b < hi:
        sn = _sign(_value(s, n, 0))
        if sn == 0:
            return n << (bits + 1), 0
        if sn == side:
            lo = n << b
        else:
            hi = n << b
    while b < bits:
        # the bracket is narrower than 2^(1 - c): aim for twice that
        c = b - (hi - lo).bit_length() + 1
        nb = min(max(2 * c, b + 1), bits)
        k = nb - b
        m = (lo + hi) << (k - 1)
        d = _value(ds, m, nb)
        if d:
            m -= _value(s, m, nb) // d
        if ((lo << k) <= m - 1 and m + 1 <= (hi << k)
                and _sign(_value(s, m - 1, nb)) == side
                and _sign(_value(s, m + 1, nb)) == -side):
            lo, hi, b = m - 1, m + 1, nb
        else:
            lo, hi, b = halve(lo, hi, b)
    d = b - bits
    if d > 0:
        return (lo + hi) >> d, ((hi - lo) >> d) + 2
    return lo + hi, hi - lo


def _balls(ys: Sequence[Tuple[int, int]], edge: bool, q: int,
           scale: int) -> Optional[List[ComplexBall]]:
    """The roots of P from the roots y of s in [m - w, m + w] / 2^scale, in
    canonical order, on the exponent -(scale + 2); with edge, also
    -+sqrt(q) at the two ends.  None when some bracket reaches past
    y^2 = 4q.

    With t = 2^scale y, 2^(scale + 1) sqrt(q - y^2/4) = sqrt(N - t^2) for
    N = 4q 4^scale, which isqrt bounds from below at the largest |t| of
    the bracket and from above at the smallest."""
    n = 4 * q << 2 * scale
    out = []
    for m, w in ys:
        tops = (abs(m - w), abs(m + w))
        low = n - max(tops) ** 2
        if low < 0:
            return None
        high = n if m - w <= 0 <= m + w else n - min(tops) ** 2
        il, ih = math.isqrt(low), isqrt_ub(high)
        rad = 2 * w + ih - il
        out.append(ComplexBall(2 * m, -(il + ih), rad, -(scale + 2)))
        if ih:
            out.append(ComplexBall(2 * m, il + ih, rad, -(scale + 2)))
    if edge:
        # sqrt(q) 2^(scale + 2) lies in [r, r + 1)
        r = math.isqrt(q << 2 * (scale + 2))
        out = ([ComplexBall(-r, 0, 1, -(scale + 2))] + out
               + [ComplexBall(r, 0, 1, -(scale + 2))])
    return out


def _certified(balls: Sequence[ComplexBall], prec: int) -> bool:
    """Pairwise disjoint, each radius at most 2^-prec max(1, |midpoint|)
    (the balls have exponents <= 0)."""
    for b in balls:
        if b.mrad << prec > max(1 << -b.exp,
                                math.isqrt(b.mre * b.mre + b.mim * b.mim)):
            return False
    return all(balls[i].disjoint(balls[j])
               for i in range(len(balls)) for j in range(i))


@dataclass(frozen=True)
class RealRoots:
    """The real Weil polynomial h of a q-Weil polynomial, s = sqfree(h)
    and inside = `roots_in_interval(s, q)`, which is deg s exactly when
    every root of the polynomial has modulus sqrt(q).  `isolation` adds
    the brackets of the roots of s on its first read."""
    q: int
    h: IntPoly
    s: IntPoly
    inside: int

    @cached_property
    def isolation(self) -> Tuple[bool, Tuple[int, ...], Tuple[int, ...],
                                 Tuple[Tuple[int, int, int], ...]]:
        """(edge, core, core', brackets), core and core' as coefficients:
        edge when q is not a square and s has the factor y^2 - 4q of the
        real roots -+sqrt(q), which core then drops; core is s otherwise.
        ValueError when some root of h lies off [-2 sqrt(q), 2 sqrt(q)]."""
        if self.inside != self.s.degree:
            raise ValueError("a root of the real Weil polynomial lies off "
                             "[-2 sqrt(q), 2 sqrt(q)]")
        q, core = self.q, self.s
        edge_factor = IntPoly((-4 * q, 0, 1))
        edge = math.isqrt(q) ** 2 != q and edge_factor.divides(core)
        if edge:
            core = core.exact_div(edge_factor)
        return (edge, core.coefficients, core.derivative().coefficients,
                tuple(_brackets(core, q)))


def real_roots(poly: IntPoly, q: int) -> RealRoots:
    """The `RealRoots` of the q-Weil polynomial poly."""
    h = real_weil_poly(poly, q)
    s = h.squarefree_part()
    return RealRoots(q, h, s, roots_in_interval(s, q))


def isolate_roots(real: RealRoots, prec: int) -> List[ComplexBall]:
    """Certified pairwise-disjoint enclosures of the distinct roots of the
    q-Weil polynomial whose `RealRoots` is real, each of radius at most
    2^-prec relative to max(1, |midpoint|), in the canonical order: by
    real part, and the root of negative imaginary part first in each
    conjugate pair, so the real roots -sqrt(q) and sqrt(q) come first
    and last.

    ValueError when some root of the real Weil polynomial misses
    [-2 sqrt(q), 2 sqrt(q)].  The roots y are refined to twice prec plus
    32 bits; a ball that misses the radius bound or meets another
    doubles that, at most seven times.
    """
    edge, cs, ds, brackets = real.isolation
    for bits in ((2 * prec + 32) << k for k in range(8)):
        ys = [_refine(cs, ds, lo, hi, b, bits) for lo, hi, b in brackets]
        balls = _balls(ys, edge, real.q, bits + 1)
        if balls is not None and _certified(balls, prec):
            return balls
    raise PrecisionExhausted(f"root isolation failed at {bits} bits")


def refine_roots(real: RealRoots, prec: int) -> List[ComplexBall]:
    """`isolate_roots` at a higher prec, in the same canonical order,
    from the brackets real already holds."""
    return isolate_roots(real, prec)


# --- argument enclosures ---

# arctan(t) = 2 arctan(t / (1 + sqrt(1 + t^2))), applied this many times
# before the series; the guard bits absorb the 2^_HALVINGS growth of the
# floor errors
_HALVINGS = 4
_GUARD = 16


def _atan_fixed(num: int, den: int, bits: int) -> int:
    """arctan(num / den) * 2^bits for 0 <= num <= den, den > 0, within
    one unit."""
    w = bits + _GUARD
    one = 1 << w
    t = (num << w) // den
    for _ in range(_HALVINGS):
        t = (t << w) // (one + math.isqrt(one * one + t * t))
    t2 = t * t >> w
    total, term, k = 0, t, 1
    while term:
        total += term // k if k % 4 == 1 else -(term // k)
        term = term * t2 >> w
        k += 2
    return (total << _HALVINGS) >> _GUARD


@lru_cache(maxsize=8)
def _quarter_pi(bits: int) -> int:
    """pi/4 * 2^bits within one unit, by Machin's formula
    pi/4 = 4 arctan(1/5) - arctan(1/239)."""
    w = bits + _GUARD

    def acot(n: int) -> int:
        total, term, k = 0, (1 << w) // n, 1
        while term:
            total += term // k if k % 4 == 1 else -(term // k)
            term //= n * n
            k += 2
        return total

    return (4 * acot(5) - acot(239) + (1 << (_GUARD - 1))) >> _GUARD


def arg_ball(ball: ComplexBall, prec: int) -> Tuple[Fraction, Fraction]:
    """(midpoint, radius) enclosure of arg(z) over the disk, up to a
    multiple of 2 pi.

    The radius uses arcsin(r/|m|) <= 2 r/|m| plus 2^-prec, which bounds
    the few units of 2^-(prec + 16) that the fixed-point arctan of the
    midpoint is off by, so the enclosure is certified.  An angle on an
    axis or a diagonal is a whole multiple of the one pi/4 that
    `two_pi_ball` uses too.  The relation engine's box searches turn the
    enclosure into fixed-point angles with a proven error bound; the
    lattice-reduction candidates use the midpoint alone.  Either way every
    relation is verified exactly downstream.
    """
    # the mantissas share the exponent, which cancels from r / |m|
    a, b = ball.mre, ball.mim
    lb = math.isqrt(a * a + b * b) - ball.mrad
    if lb <= 0:
        raise Ambiguous("disk too close to the origin for an argument bound")
    bits = prec + 16
    quarter = _quarter_pi(bits)
    x, y = abs(a), abs(b)
    if y == x:
        angle = quarter
    elif y < x:
        angle = _atan_fixed(y, x, bits) if y else 0
    else:
        angle = 2 * quarter - (_atan_fixed(x, y, bits) if x else 0)
    if a < 0:
        angle = 4 * quarter - angle
    if b < 0:
        angle = -angle
    return (Fraction(angle, 1 << bits),
            Fraction(2 * ball.mrad, lb) + Fraction(1, 1 << prec))


def two_pi_ball(prec: int) -> Tuple[Fraction, Fraction]:
    """(midpoint, radius) enclosure of 2*pi at roughly prec bits."""
    return (Fraction(8 * _quarter_pi(prec + 16), 1 << (prec + 16)),
            Fraction(1, 1 << prec))
