"""Certified complex root isolation.

Floating point appears only inside the Aberth iteration that produces
approximations; everything after that is exact.  Each approximation is
rounded to a point z_i of the 2^-wp grid, so it is a dyadic rational held
as an integer mantissa.  A Weierstrass-type a posteriori bound turns the
points into certified disks: with W_i = P(z_i) / (lc(P) * prod_{j != i}
(z_i - z_j)) computed exactly in integers, every root of P lies in the
union of the disks D(z_i, n*|W_i|), and when those disks are pairwise
disjoint each contains exactly one root.  The radius n*|W_i| is rounded
up onto a grid _GUARD bits finer than the midpoints, so the returned
`ComplexBall`s share one exponent and enclose at least those disks.
Disjointness and radii are checked with exact squared comparisons of
integers, so a returned isolation is a proof, not a heuristic.

`isolate_roots` is the one precision loop (Aberth, `_certify`, double
the working precision); `refine_roots` runs it warm from earlier
enclosures and keeps their order.  mpmath is imported only inside the
three functions that call it, so importing the package does not load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import Ambiguous, PrecisionExhausted
from .balls import ComplexBall, isqrt_ub
from .intpoly import IntPoly

_OFFSETS = (0.0, 0.25, 0.37, 0.51, 0.63, 0.79)
# the radius grid is this many bits finer than the 2^-wp midpoint grid
_GUARD = 16


def _mantissa_exponent(x) -> Tuple[int, int]:
    """(m, e) with the finite mpf x = m * 2^e exactly."""
    # read the mantissa directly; mpmath.mpf(x) would re-round to the
    # ambient precision and silently discard accuracy.  The int() calls
    # matter: with the gmpy2 backend the mantissa is a gmpy2.mpz, which
    # must not leak into Fraction or ball internals.
    sign, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)
    if man == 0 and exp != 0:
        raise ValueError("non-finite float in root iteration")
    return (-man if sign else man), exp


def _mpf_to_frac(x) -> Fraction:
    man, exp = _mantissa_exponent(x)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _aberth(poly: IntPoly, wp: int, warm: Optional[List[complex]] = None,
            offset: float = 0.0) -> list:
    """Aberth-Ehrlich simultaneous iteration at wp bits of working precision.

    Deterministic: fixed initial circle (plus ladder offset) or warm-start
    points.  Returns mpmath.mpc approximations in iteration order; no
    certification happens here.
    """
    import mpmath
    n = poly.degree

    def ev(cs, z):
        acc = mpmath.mpc(0)
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    with mpmath.workprec(wp):
        # conversion must happen at working precision or big integer
        # coefficients get truncated
        coeffs = [mpmath.mpf(c) for c in poly.coefficients]
        dcoeffs = [mpmath.mpf(c) for c in poly.derivative().coefficients]
        if warm is not None:
            zs = [mpmath.mpc(z) for z in warm]
        else:
            # Fujiwara's bound: every root has modulus at most
            # 2 max_k |c_{n-k} / c_n|^(1/k); the Cauchy bound 1 + max|c_i|
            # starts a circle far outside roots of modulus sqrt(q)
            lead = abs(coeffs[-1])
            radius = 2 * max(abs(coeffs[n - k] / lead) ** (mpmath.mpf(1) / k)
                             for k in range(1, n + 1))
            zs = [radius * mpmath.expjpi(mpmath.mpf(2 * k + 1) / n
                                         + mpmath.mpf(0.401) + offset)
                  for k in range(n)]
        tol = mpmath.mpf(2) ** (-wp + 8)
        for _ in range(60 + 10 * n):
            max_step = mpmath.mpf(0)
            new = list(zs)
            for i in range(n):
                zi = zs[i]
                pv = ev(coeffs, zi)
                dv = ev(dcoeffs, zi)
                if dv == 0:
                    new[i] = zi + mpmath.mpc(tol, tol)
                    max_step = mpmath.mpf(1)
                    continue
                w = pv / dv
                s = mpmath.mpc(0)
                collision = False
                for j in range(n):
                    if j == i:
                        continue
                    diff = zi - zs[j]
                    if diff == 0:
                        collision = True
                        break
                    s += 1 / diff
                if collision:
                    new[i] = zi + mpmath.mpc(tol, -tol)
                    max_step = mpmath.mpf(1)
                    continue
                denom = 1 - w * s
                step = w if denom == 0 else w / denom
                new[i] = zi - step
                scale = max(mpmath.mpf(1), abs(zi))
                rel = abs(step) / scale
                if rel > max_step:
                    max_step = rel
            zs = new
            if max_step < tol:
                break
        return zs


def _grid_point(x, bits: int) -> int:
    """The mpf x rounded to the nearest multiple of 2^-bits (ties upward),
    as the integer multiple."""
    man, exp = _mantissa_exponent(x)
    shift = -exp - bits
    if shift <= 0:
        return man << -shift
    return (man + (1 << (shift - 1))) >> shift


def _certify(poly: IntPoly, approx: List[Tuple[int, int]],
             wp: int) -> Optional[List[ComplexBall]]:
    """Exact Weierstrass bound: disks of radius n*|W_i| around each point
    (re + i*im) * 2^-wp of approx.

    Returns certified pairwise-disjoint balls with exponent -(wp +
    _GUARD), or None when disjointness fails at this precision.
    """
    n = poly.degree
    coeffs = poly.coefficients
    balls = []
    for i, (xr, xi) in enumerate(approx):
        # Horner on the grid integers: pr + i*pi = P(z_i) * 2^(wp*n)
        pr, pi = coeffs[n], 0
        for k in range(n - 1, -1, -1):
            pr, pi = (pr * xr - pi * xi + (coeffs[k] << (wp * (n - k))),
                      pr * xi + pi * xr)
        # dr + i*di = lc(P) * prod_{j != i} (z_i - z_j) * 2^(wp*(n-1))
        dr, di = poly.leading, 0
        for j, (yr, yi) in enumerate(approx):
            if j == i:
                continue
            br, bi = xr - yr, xi - yi
            dr, di = dr * br - di * bi, dr * bi + di * br
        nsq = dr * dr + di * di
        if nsq == 0:
            return None
        # |W_i| = |p| / (|d| * 2^wp); the radius n*|W_i| in units of
        # 2^-(wp + _GUARD) is n * |p| * 2^_GUARD / |d|, rounded up
        num = n * n * (pr * pr + pi * pi) << (2 * _GUARD)
        rad = isqrt_ub(-(-num // nsq))
        balls.append(ComplexBall(xr << _GUARD, xi << _GUARD, rad,
                                 -(wp + _GUARD)))
    for i in range(n):
        for j in range(i + 1, n):
            if not balls[i].disjoint(balls[j]):
                return None
    return balls


def _small_enough(balls: Sequence[ComplexBall], prec: int) -> bool:
    # rad <= 2^-prec * max(1, |re| + |im|), for balls with exponent <= 0
    for b in balls:
        scale = max(1 << -b.exp, abs(b.mre) + abs(b.mim))
        if b.mrad << prec > scale:
            return False
    return True


def _round_points(zs, bits: int) -> List[Tuple[int, int]]:
    return [(_grid_point(z.real, bits), _grid_point(z.imag, bits))
            for z in zs]


def _match_permutation(n: int, meets: Callable[[int, int], bool]
                       ) -> Optional[List[int]]:
    """For each i < n, the unique j < n with meets(i, j); None when some i
    meets zero or several j or the matching is not a bijection
    (insufficient precision)."""
    perm = []
    for i in range(n):
        hits = [j for j in range(n) if meets(i, j)]
        if len(hits) != 1:
            return None
        perm.append(hits[0])
    if sorted(perm) != list(range(n)):
        return None
    return perm


def isolate_roots(poly: IntPoly, prec: int,
                  prev: Optional[Sequence[ComplexBall]] = None
                  ) -> List[ComplexBall]:
    """Certified pairwise-disjoint enclosures of the distinct roots of poly
    (of its squarefree part), each of radius at most 2^-prec relative to
    max(1, |midpoint|).

    Without prev the balls are sorted by exact (real, imaginary) midpoint.
    With prev, earlier enclosures of the same roots, Aberth starts warm
    from their midpoints and each ball takes the place of the unique
    earlier ball it meets; a matching that is no bijection fails the
    attempt.  A failed attempt doubles the working precision and restarts
    warm from its approximations, or cold on the next circle offset when
    a cold start's disks collided.
    """
    if poly.degree < 0:
        raise ValueError("zero polynomial has no isolated roots")
    sf = poly.squarefree_part()
    if sf.degree == 0:
        return []
    if prev is not None and len(prev) != sf.degree:
        raise ValueError("prev must enclose each distinct root once")
    coeff_bits = max(abs(c).bit_length() for c in sf.coefficients)
    wp = max(64, 2 * prec + 32, coeff_bits + 48)
    warm = None if prev is None else [complex(float(b.re), float(b.im))
                                      for b in prev]
    for attempt in range(12):
        offset = _OFFSETS[min(attempt, len(_OFFSETS) - 1)]
        zs = _aberth(sf, wp, warm=warm, offset=offset)
        balls = _certify(sf, _round_points(zs, wp), wp)
        if balls is not None and _small_enough(balls, prec):
            if prev is None:
                # the balls share one exponent, so mantissas order them
                return sorted(balls, key=lambda b: (b.mre, b.mim))
            perm = _match_permutation(
                len(balls), lambda i, j: balls[i].intersects(prev[j]))
            if perm is not None:
                # perm is a bijection, so its values order the balls
                return [b for _, b in sorted(zip(perm, balls))]
        warm = None if balls is None and prev is None else [
            complex(z.real, z.imag) for z in zs]
        wp *= 2
    raise PrecisionExhausted(
        f"root isolation failed for degree {sf.degree} at {wp} bits"
        if prev is None else "root refinement failed to re-match enclosures")


def refine_roots(poly: IntPoly, prev: Sequence[ComplexBall],
                 prec: int) -> List[ComplexBall]:
    """Re-isolate at precision prec, in the order of prev."""
    return isolate_roots(poly, prec, prev)


# --- argument enclosures ---

def arg_ball(ball: ComplexBall, prec: int) -> Tuple[Fraction, Fraction]:
    """(midpoint, radius) enclosure of arg(z) over the disk, up to a
    multiple of 2 pi.

    The radius uses arcsin(r/|m|) <= 2 r/|m| plus the evaluation error of
    atan2 at the midpoint, so the enclosure is certified.  The relation
    engine's box searches turn it into fixed-point angles with a proven
    error bound; the lattice-reduction candidates use the midpoint alone.
    Either way every relation is verified exactly downstream.
    """
    # the mantissas share the exponent, which cancels from r / |m|
    lb = math.isqrt(ball.mre * ball.mre + ball.mim * ball.mim) - ball.mrad
    if lb <= 0:
        raise Ambiguous("disk too close to the origin for an argument bound")
    import mpmath
    with mpmath.workprec(prec + 16):
        a = mpmath.atan2(mpmath.mpf((ball.mim, ball.exp)),
                         mpmath.mpf((ball.mre, ball.exp)))
        mid = _mpf_to_frac(a)
    rad = Fraction(2 * ball.mrad, lb) + Fraction(1, 1 << prec)
    return mid, rad


def two_pi_ball(prec: int) -> Tuple[Fraction, Fraction]:
    """(midpoint, radius) enclosure of 2*pi at roughly prec bits."""
    import mpmath
    with mpmath.workprec(prec + 16):
        mid = _mpf_to_frac(2 * mpmath.pi)
    return mid, Fraction(1, 1 << prec)
