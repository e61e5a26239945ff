"""Seeded input families shared by the tests: validated Weil
polynomials, and polynomials that fail validation with a root off the
circle, drawn from fixed seeds, so every run sees the same inputs."""

import math
import random

from frobeig.errors import FrobeigError, RootModulusFailed
from frobeig.weil import validate

_QS = (2, 3, 4, 5, 7, 8, 9)


def seeded_weil_inputs(seed, quartics, sextics):
    """Validated quartics X^4+aX^3+bX^2+qaX+q^2 and sextics X^6+aX^3+q^3
    drawn from a seeded generator (ascending coefficients)."""
    rng = random.Random(seed)
    wanted = {4: quartics, 6: sextics}
    found = {4: [], 6: []}
    while any(len(found[k]) < wanted[k] for k in found):
        q = rng.choice(_QS)
        if rng.random() < 0.5:
            a = rng.randint(-4 * math.isqrt(q), 4 * math.isqrt(q))
            coeffs = (q * q, q * a, rng.randint(-2 * q, 6 * q), a, 1)
        else:
            amax = 2 * math.isqrt(q ** 3)
            coeffs = (q ** 3, 0, 0, rng.randint(-amax, amax), 0, 0, 1)
        bucket = found[len(coeffs) - 1]
        if len(bucket) == wanted[len(coeffs) - 1] or (q, coeffs) in bucket:
            continue
        try:
            validate(q, coeffs)
        except FrobeigError:
            continue
        bucket.append((q, coeffs))
    return found[4] + found[6]


def seeded_generic_inputs(seed, g, count):
    """count validated irreducible q-Weil polynomials of degree 2g with no
    real root, drawn from a seeded generator (ascending coefficients):
    the family in which the Galois group is most often the full W_g.
    The real Weil polynomial h is rounded from g seeded points of (-2
    sqrt(q), 2 sqrt(q)), and the polynomial is x^g h(x + q/x) =
    sum_k h_k (x^2 + q)^k x^(g-k)."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        q = rng.choice(_QS)
        h = [1.0]
        for _ in range(g):
            y = rng.uniform(-2, 2) * math.sqrt(q)
            h = [a - y * b for a, b in zip([0.0] + h, h + [0.0])]
        coeffs = [0] * (2 * g + 1)
        for k, c in enumerate(round(c) for c in h):
            for j in range(k + 1):          # c (x^2 + q)^k x^(g-k)
                coeffs[g - k + 2 * j] += c * math.comb(k, j) * q ** (k - j)
        coeffs = tuple(coeffs)
        if (q, coeffs) in found:
            continue
        try:
            data = validate(q, coeffs)
        except FrobeigError:
            continue
        if (len(data.factors) == 1 and data.factors[0].multiplicity == 1
                and not data.real_root_indices):
            found.append((q, coeffs))
    return found


def seeded_off_circle_inputs(seed, count):
    """Seeded quartics and sextics that satisfy the functional equation
    and fail validation with a root off the circle |z|^2 = q."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.choice((2, 3, 4, 5, 7))
        a, b, c = (rng.randint(-8 * q, 8 * q) for _ in range(3))
        coeffs = ((q * q, q * a, b, a, 1) if rng.random() < 0.5
                  else (q ** 3, q * q * a, q * b, c, b, a, 1))
        try:
            validate(q, coeffs)
        except RootModulusFailed:
            out.append((q, coeffs))
        except FrobeigError:
            pass
    return out
