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
enclosures and keeps their order.  The Aberth iterates' last bits order
each conjugate pair, so `_aberth` makes the plain mpmath iteration's
rounded operations, minus those with exact results (0*z + c = c,
1*z = z, 0 + r = r), and decides its stop rule in integers outside a
band of 2^-(wp - 8) around the tolerance.  Its sweep runs on Python
ints: a small kernel of odd mantissas with exponents that copies
mpmath.libmp's rounding bit for bit.  mpmath is left with the start
circle, the stop rule's fallback inside that band, `arg_ball` and
`two_pi_ball`; it is imported only inside the functions that call it,
so importing the package does not load it.
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


# --- the sweep's arithmetic: mpmath's rounding on Python ints ---
#
# A real is (m, e), the value m * 2^e with m odd, or (0, 0) for zero:
# mpmath's canonical (sign, |m|, e, bit length) with the sign carried by
# m.  A complex is the 4-tuple (re m, re e, im m, im e).  Each routine
# below is the mpmath.libmp routine it names, step for step, at the same
# precision and rounding mode, so it returns the same tuples; that
# includes mpf_add's far-offset shortcut, which is not correctly rounded
# when the larger operand has more than prec + 4 bits (as the exact
# products inside mpc_mul have).

_ZERO, _ONE = (0, 0, 0, 0), (1, 0, 0, 0)


def _round(m: int, e: int, prec: int, down: bool = False) -> Tuple[int, int]:
    """normalize: m * 2^e at prec bits, to nearest with ties to even or,
    with down, toward zero.  On the signed m, the floor shift by n after
    adding 2^(n-1) - 1 plus the kept last bit rounds to nearest, ties to
    even, as libmp does on the magnitude."""
    n = m.bit_length() - prec
    if n > 0:
        if down:
            m = m >> n if m > 0 else -(-m >> n)
        else:
            m = (m + (1 << (n - 1)) - 1 + (m >> n & 1)) >> n
        e += n
    if not m & 1:
        if not m:
            return 0, 0
        z = (m & -m).bit_length() - 1
        m >>= z
        e += z
    return m, e


def _add(xm: int, xe: int, ym: int, ye: int, prec: int,
         down: bool = False) -> Tuple[int, int]:
    """mpf_add: x + y at prec bits; x and y need not be rounded."""
    if xm and ym:
        off = xe - ye
        if off > 0:
            # far offset: y's top bit lies more than prec + 4 bits below
            # x's, so y counts only as one unit with its sign, prec + 4
            # bits below x's last bit
            if off > 100 and (xm.bit_length() + off - ym.bit_length()
                              > prec + 4):
                return _round((xm << prec + 4) + (1 if ym > 0 else -1),
                              xe - prec - 4, prec, down)
            m, e = (xm << off) + ym, ye
        elif off < 0:
            if off < -100 and (ym.bit_length() - off - xm.bit_length()
                               > prec + 4):
                return _round((ym << prec + 4) + (1 if xm > 0 else -1),
                              ye - prec - 4, prec, down)
            m, e = xm + (ym << -off), xe
        else:
            m, e = xm + ym, xe
    elif xm:
        m, e = xm, xe
    else:
        m, e = ym, ye
    return _round(m, e, prec, down)


def _div(xm: int, xe: int, ym: int, ye: int, prec: int) -> Tuple[int, int]:
    """mpf_div: x / y to nearest at prec bits, for y != 0.  An inexact
    quotient gets a sticky low bit before the rounding."""
    if not xm:
        return 0, 0
    if ym == 1 or ym == -1:
        return _round(xm * ym, xe - ye, prec)
    extra = prec - xm.bit_length() + ym.bit_length() + 5
    if extra < 5:
        extra = 5
    quot, rem = divmod(abs(xm) << extra, abs(ym))
    if rem:
        quot = (quot << 1) + 1
        extra += 1
    neg = (xm < 0) != (ym < 0)
    return _round(-quot if neg else quot, xe - ye - extra, prec)


def _cadd(z, w, prec: int):
    """mpc_add."""
    return (_add(z[0], z[1], w[0], w[1], prec)
            + _add(z[2], z[3], w[2], w[3], prec))


def _csub(z, w, prec: int):
    """mpc_sub."""
    return (_add(z[0], z[1], -w[0], w[1], prec)
            + _add(z[2], z[3], -w[2], w[3], prec))


def _cadd_real(z, x, prec: int):
    """mpc_add_mpf: z + x for a real x; the imaginary part is kept as
    it is, not rounded."""
    return _add(z[0], z[1], x[0], x[1], prec) + z[2:]


def _cmul(z, w, prec: int):
    """mpc_mul: each part is one rounded sum of two exact products."""
    a, ea, b, eb = z
    c, ec, d, ed = w
    return (_add(a * c, ea + ec, -b * d, eb + ed, prec)
            + _add(a * d, ea + ed, b * c, eb + ec, prec))


def _cdiv(z, w, prec: int):
    """mpc_div: the sums of products are rounded toward zero at prec + 10
    bits, then divided by |w|^2 to nearest."""
    a, ea, b, eb = z
    c, ec, d, ed = w
    mm, me = _add(c * c, 2 * ec, d * d, 2 * ed, prec + 10, True)
    tm, te = _add(a * c, ea + ec, b * d, eb + ed, prec + 10, True)
    um, ue = _add(b * c, eb + ec, -a * d, ea + ed, prec + 10, True)
    return _div(tm, te, mm, me, prec) + _div(um, ue, mm, me, prec)


def _cinv(z, prec: int):
    """mpc_mpf_div(1, z): 1 / z."""
    a, ea, b, eb = z
    mm, me = _add(a * a, 2 * ea, b * b, 2 * eb, prec + 10, True)
    return _div(a, ea, mm, me, prec) + _div(-b, eb, mm, me, prec)


def _horner(acc, cs, z, prec: int):
    """acc * z + c for each (m, e) = c in cs in turn, as mpc_mul and then
    mpc_add_mpf, which rounds only the real part."""
    a, ea, b, eb = acc
    c, ec, d, ed = z
    for m, e in cs:
        ra, rea = _add(a * c, ea + ec, -b * d, eb + ed, prec)
        b, eb = _add(a * d, ea + ed, b * c, eb + ec, prec)
        a, ea = _add(ra, rea, m, e, prec)
    return a, ea, b, eb


def _from_mpc(z):
    """The kernel value of the finite mpmath.mpc z."""
    return _mantissa_exponent(z.real) + _mantissa_exponent(z.imag)


def _to_mpc(z):
    """The mpmath.mpc of the kernel value z, bit for bit."""
    import mpmath

    def raw(m, e):
        return int(m < 0), abs(m), e, abs(m).bit_length()

    return mpmath.mp.make_mpc((raw(*z[:2]), raw(*z[2:])))


def _step_small(step, z, wp: int) -> bool:
    """abs(step) / max(1, abs(z)) < tol as mpmath rounds it at wp bits,
    for tol = 2^(8 - wp) and kernel values step and z.  The rounding
    moves the quotient by a few units of 2^-wp, so exact integers decide
    outside a relative band of 2^-(wp - 8) around tol: with
    X = |step|^2 / tol^2 and T = max(1, |z|^2), yes when
    X <= T (1 - 2^(9 - wp)), no when X >= T (1 + 2^(9 - wp)); inside it
    mpmath decides."""
    (xm, xe), (tm, te) = _norm_sq(step), _norm_sq(z)
    if tm.bit_length() + te <= 0:   # |z| < 1
        tm, te = 1, 0
    xe, k = xe + 2 * wp - 16, wp - 9
    e = min(xe, te)
    x, t = xm << (xe - e + k), tm << (te - e)
    if x <= t * ((1 << k) - 1) or x >= t * ((1 << k) + 1):
        return x < t << k
    import mpmath
    with mpmath.workprec(wp):
        return (abs(_to_mpc(step)) / max(mpmath.mpf(1), abs(_to_mpc(z)))
                < mpmath.mpf(2) ** (8 - wp))


def _norm_sq(v) -> Tuple[int, int]:
    """(m, e) with |v|^2 = m * 2^e exactly, for a kernel value v."""
    a, ea, b, eb = v
    e = min(ea, eb)
    return (a * a << 2 * (ea - e)) + (b * b << 2 * (eb - e)), 2 * e


def _aberth(poly: IntPoly, wp: int, warm: Optional[List[complex]] = None,
            offset: float = 0.0) -> list:
    """Aberth-Ehrlich simultaneous iteration at wp bits of working precision.

    Deterministic: fixed initial circle (plus ladder offset) or warm-start
    points.  Returns mpmath.mpc approximations in iteration order; no
    certification happens here.

    mpmath makes the start points; the sweep runs on the integer kernel
    above, which makes the plain mpmath iteration's rounded operations,
    minus those with exact results: c, z and r below carry at most wp
    bits, so rounding them to wp bits is the identity.  Horner starts at
    c_m (0*z + c_m), or at z + c_(m-1) when c_m = 1 (1*z = z); the
    reciprocal sum starts at its first term r (0 + r), and each pair's
    reciprocal is made once per sweep; a zero test compares with the zero
    tuple, as mpc == 0 does; `_step_small` decides the stop rule.
    """
    import mpmath
    n = poly.degree
    with mpmath.workprec(wp):
        if warm is not None:
            zs = [mpmath.mpc(z) for z in warm]
        else:
            # Fujiwara's bound: every root has modulus at most
            # 2 max_k |c_{n-k} / c_n|^(1/k); the Cauchy bound 1 + max|c_i|
            # starts a circle far outside roots of modulus sqrt(q)
            cs = [mpmath.mpf(c) for c in poly.coefficients]
            lead = abs(cs[-1])
            radius = 2 * max(abs(cs[n - k] / lead) ** (mpmath.mpf(1) / k)
                             for k in range(1, n + 1))
            zs = [radius * mpmath.expjpi(mpmath.mpf(2 * k + 1) / n
                                         + mpmath.mpf(0.401) + offset)
                  for k in range(n)]
    zs = [_from_mpc(z) for z in zs]
    # mpf(c) at wp bits: big integer coefficients are rounded, not cut
    coeffs = [_round(c, 0, wp) for c in poly.coefficients]
    dcoeffs = [_round(c, 0, wp) for c in poly.derivative().coefficients]
    monic = poly.leading == 1
    p0, d0 = coeffs[-1] + (0, 0), dcoeffs[-1] + (0, 0)
    ptail, dtail = coeffs[-3 if monic else -2::-1], dcoeffs[-2::-1]
    tol_exp = 8 - wp   # the stop tolerance is 2^tol_exp
    for _ in range(60 + 10 * n):
        # 1/(z_i - z_j) for every pair, each made once: every rounding
        # is symmetric about 0, so 1/(z_j - z_i) is exactly its negative;
        # None marks coincident points
        recips = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                diff = _csub(zs[i], zs[j], wp)
                if diff != _ZERO:
                    r = _cinv(diff, wp)
                    recips[i][j] = r
                    recips[j][i] = (-r[0], r[1], -r[2], r[3])
        done = True
        new = list(zs)
        for i in range(n):
            zi = zs[i]
            pv = _horner(_cadd_real(zi, coeffs[-2], wp) if monic else p0,
                         ptail, zi, wp)
            dv = _horner(d0, dtail, zi, wp)
            if dv == _ZERO:
                new[i] = _cadd(zi, (1, tol_exp, 1, tol_exp), wp)
                done = False
                continue
            w = _cdiv(pv, dv, wp)
            terms = recips[i][:i] + recips[i][i + 1:]
            if None in terms:
                new[i] = _cadd(zi, (1, tol_exp, -1, tol_exp), wp)
                done = False
                continue
            s = terms[0] if terms else _ZERO
            for r in terms[1:]:
                s = _cadd(s, r, wp)
            denom = _csub(_ONE, _cmul(w, s, wp), wp)
            step = w if denom == _ZERO else _cdiv(w, denom, wp)
            new[i] = _csub(zi, step, wp)
            done = done and _step_small(step, zi, wp)
        zs = new
        if done:
            break
    return [_to_mpc(z) for z in zs]


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

    Without prev the balls are sorted by exact (real, imaginary) midpoint;
    a conjugate pair is thereby ordered by the rounding of its real
    midpoints, which the Aberth iterates fix.
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
