"""Validation and structure of characteristic polynomials of Frobenius.

A q-Weil polynomial is monic of even degree 2g over Z, satisfies the
functional equation a_i = q^(g-i) * a_(2g-i), and has all roots of modulus
sqrt(q).  The functional equation is a finite integer check.  It makes
P(x) = x^g h(x + q/x) for the real Weil polynomial h, and the modulus
condition is then exact too: every root of P has modulus sqrt(q) exactly
when every root of sqfree(h) is real and lies in [-2 sqrt(q), 2 sqrt(q)],
which one Sturm count decides (`exactmath.roots.real_roots`).  An
input that fails it gets that count as its witness.

`validate` checks the input in that order, applies FACTOR_DEGREE_CAP,
and only then isolates the roots, in the canonical order of
`exactmath.roots`: conjugation swaps each adjacent pair and fixes the
real roots, by construction.  One precision loop factors the polynomial
into Q-irreducibles by recombining certified root subsets; a
factorization the enclosures cannot decide doubles the precision and
refines the roots.  One `RealRoots` serves the gate, its witness, the
isolation and every refinement, and the splitting field starts from the
enclosures, the precision and that value (`WeilData.real`).  The module
also computes base change along finite field extensions from power sums:
the k-th powers of the roots have every k-th power sum of the input, and
Newton's identities rebuild the polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Iterator, List, Sequence, Tuple

from .config import DEFAULT, FACTOR_DEGREE_CAP, PRECISION_START, Settings
from .errors import (Ambiguous, FunctionalEquationFailed,
                     InternalInconsistency, MalformedInput, NotPrimePower,
                     NotSimple, PrecisionExhausted, RootModulusFailed)
from .exactmath.balls import ComplexBall, integer_power_sums, power_rows
from .exactmath.intpoly import IntPoly, from_power_sums, power_sums
from .exactmath.roots import (RealRoots, isolate_roots, real_roots,
                              refine_roots)


# the primes below 2^10, trial divisors of q
_SMALL_PRIMES = tuple(p for p in range(2, 1 << 10)
                      if all(p % t for t in range(2, math.isqrt(p) + 1)))
# Miller-Rabin with the 13 prime bases up to 41 decides primality of every
# n below this bound (Sorenson-Webster, psi_13)
_MR_BASES = _SMALL_PRIMES[:13]
_MR_BOUND = 3317044064679887385961981


def _iroot(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1, by integer Newton from above."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _strong_probable_prime(n: int) -> bool:
    """Does odd n > 41 pass Miller-Rabin to every base of _MR_BASES?  A
    failure proves n composite; a pass proves n prime below _MR_BOUND."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_decomposition(q: int) -> Tuple[int, int]:
    """(p, e) with q = p^e and p prime; NotPrimePower otherwise.

    Trial division by the primes below 2^10 settles every q with such a
    factor.  Otherwise q = r^e for the largest e with an exact integer
    root r, and q is a prime power exactly when r is prime, which
    Miller-Rabin decides below _MR_BOUND.  A larger r that passes it is
    refused with MalformedInput rather than guessed either way."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    for p in _SMALL_PRIMES:
        if q % p == 0:
            m, e = q, 0
            while m % p == 0:
                m, e = m // p, e + 1
            if m != 1:
                raise NotPrimePower(f"{q} has at least two prime divisors")
            return p, e
    # every prime factor now exceeds 2^10, so q = r^e has q > 2^(10e)
    e = (q.bit_length() - 1) // 10
    while (r := _iroot(q, e)) ** e != q:
        e -= 1
    if not _strong_probable_prime(r):
        raise NotPrimePower(f"{q} is not a prime power")
    if r >= _MR_BOUND:
        raise MalformedInput(
            f"q={q}: primality of {r} is not certified above the "
            f"Miller-Rabin bound {_MR_BOUND}")
    return r, e


@dataclass(frozen=True)
class Factor:
    """A Q-irreducible factor with its multiplicity in the input and the
    indices (into the distinct-root list) of its roots."""
    poly: IntPoly
    multiplicity: int
    root_indices: Tuple[int, ...]


@dataclass(frozen=True)
class WeilData:
    """Validated Weil polynomial with certified root data.

    roots are pairwise-disjoint enclosures of the distinct roots in the
    canonical order: by real part, and the root with negative imaginary
    part first in each conjugate pair.  iota is the involution z -> q/z =
    conj(z) as a permutation of root indices: it swaps each such adjacent
    pair, and its fixed points are exactly the real roots -sqrt(q) and
    sqrt(q), which come first and last.  real, outside equality and
    repr, is the `exactmath.roots.RealRoots` they were isolated from, so
    the splitting field refines them without a second bisection.
    """
    q: int
    p: int
    e: int
    g: int
    poly: IntPoly
    factors: Tuple[Factor, ...]
    roots: Tuple[ComplexBall, ...]
    root_mult: Tuple[int, ...]
    iota: Tuple[int, ...]
    prec: int
    real: RealRoots = field(compare=False, repr=False)

    @property
    def is_simple(self) -> bool:
        return len(self.factors) == 1

    @property
    def multiplicity(self) -> int:
        """Exponent m when poly = f^m with f irreducible; NotSimple else."""
        if not self.is_simple:
            raise NotSimple(
                "polynomial has several irreducible factors; multiplicity "
                "is defined for simple inputs only")
        return self.factors[0].multiplicity

    @property
    def real_root_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.iota) if i == j)


def _factor_search(sf: IntPoly, balls: Sequence[ComplexBall],
                   bits: int) -> List[Tuple[IntPoly, Tuple[int, ...]]]:
    """Irreducible factors of the monic squarefree polynomial sf by
    recombining root subsets, smallest subsets first; one power table of
    the balls on the 2^-bits grid gives each subset's power sums by
    additions, and Newton's identities give its product.

    Raises Ambiguous when some power sum enclosure is too wide to round
    to a unique integer (the caller escalates precision).  A factorization
    is exact and complete: candidate polynomials are accepted only after
    exact division, and minimality of the subsets gives irreducibility.
    """
    rows = list(islice(power_rows(balls, bits), len(balls) // 2 + 1))
    remaining = list(range(len(balls)))
    found: List[Tuple[IntPoly, Tuple[int, ...]]] = []
    quotient = sf
    size = 1
    while remaining and size <= len(remaining) // 2:
        hit = None
        for subset in combinations(remaining, size):
            # Ambiguous propagates up; None and ValueError skip a subset
            # whose product provably is not in Z[X]
            sums = integer_power_sums(rows, subset)
            if sums is None:
                continue
            try:
                cand = IntPoly(from_power_sums(sums))
            except ValueError:
                continue
            if cand.divides(quotient):
                hit = (cand, subset)
                break
        if hit is None:
            size += 1
            continue
        cand, subset = hit
        found.append((cand, tuple(subset)))
        quotient = quotient.exact_div(cand)
        remaining = [i for i in remaining if i not in subset]
        # factors below the current size are exhausted; stay at this size
    if remaining:
        found.append((quotient, tuple(remaining)))
    return found


def validate(q: int, coefficients: Sequence[int],
             settings: Settings = DEFAULT) -> WeilData:
    """Validate a q-Weil polynomial and assemble its certified root data.

    Checks, in order: q is a prime power; the coefficients are integers;
    the polynomial is monic of even degree; the functional equation
    holds; every root has modulus sqrt(q) (an exact Sturm count, which is
    the witness on failure); the degree is within FACTOR_DEGREE_CAP.
    Then isolates the roots and factors the polynomial, in one precision
    loop from PRECISION_START bits up to settings.precision_ceiling;
    PrecisionExhausted says that the factorization was left undecided at
    the ceiling.
    """
    p, e = prime_power_decomposition(q)
    try:
        coeffs = tuple(int(c) for c in coefficients)
        if any(int(c) != c for c in coefficients):
            raise ValueError
    except (TypeError, ValueError):
        raise MalformedInput("coefficients must be integers")
    poly = IntPoly(coeffs)
    if poly.degree < 2 or poly.degree % 2 != 0:
        raise MalformedInput(
            f"degree must be a positive even integer, got {poly.degree}")
    if not poly.is_monic():
        raise MalformedInput("polynomial must be monic")
    g = poly.degree // 2
    a = poly.coefficients
    for i in range(g):
        if a[i] != q ** (g - i) * a[2 * g - i]:
            raise FunctionalEquationFailed(
                f"coefficient {i}: expected q^{g - i} * a_{2 * g - i} "
                f"= {q ** (g - i) * a[2 * g - i]}, found {a[i]}")

    real = real_roots(poly, q)
    h, s, inside = real.h, real.s, real.inside
    if inside != s.degree:
        raise RootModulusFailed(
            f"{inside} of the {s.degree} distinct roots of the real Weil "
            f"polynomial lie in [-2 sqrt({q}), 2 sqrt({q})]: some root has "
            f"modulus^2 != {q}",
            witness={"real_weil_poly": [str(c) for c in h.coefficients],
                     "roots_in_interval": str(inside),
                     "distinct_roots": str(s.degree), "expected": str(q)})
    if poly.degree > FACTOR_DEGREE_CAP:
        raise MalformedInput(
            f"degree {poly.degree} exceeds the factorization cap "
            f"{FACTOR_DEGREE_CAP}")

    sf = poly.squarefree_part()
    prec = PRECISION_START
    balls = isolate_roots(real, prec)
    while True:
        try:
            flat = _factor_search(sf, balls, prec + 64)
            break
        except Ambiguous:
            pass
        prec *= 2
        if prec > settings.precision_ceiling:
            raise PrecisionExhausted(
                "factorization undecided at the precision ceiling")
        balls = refine_roots(real, prec)

    factors = []
    for fpoly, idxs in flat:
        mult, probe = 0, poly
        while fpoly.divides(probe):
            probe = probe.exact_div(fpoly)
            mult += 1
        factors.append(Factor(poly=fpoly, multiplicity=mult,
                              root_indices=idxs))
    recon = IntPoly((1,))
    for f in factors:
        recon = recon * f.poly ** f.multiplicity
    if recon != poly:
        raise InternalInconsistency("factor product does not rebuild input")
    mult_by_root = {i: f.multiplicity for f in factors
                    for i in f.root_indices}
    root_mult = tuple(mult_by_root[i] for i in range(len(balls)))
    # a root with negative imaginary part pairs with the next root, one
    # with positive imaginary part with the root before
    iota = tuple(i + 1 if b.mim < 0 else i - 1 if b.mim > 0 else i
                 for i, b in enumerate(balls))
    return WeilData(q=q, p=p, e=e, g=g, poly=poly, factors=tuple(factors),
                    roots=tuple(balls), root_mult=root_mult, iota=iota,
                    prec=prec, real=real)


def base_change(poly: IntPoly, k: int) -> IntPoly:
    """Weil polynomial after extending the base field by degree k."""
    return next(base_changes(poly, (k,)))


def base_changes(poly: IntPoly, ks: Sequence[int]) -> Iterator[IntPoly]:
    """`base_change(poly, k)` for each k of ks in turn, from one table.

    The roots become k-th powers, whose power sums are every k-th power
    sum of the input; Newton's identities rebuild the polynomial from
    them on the integers, and each of their divisions must be exact.
    """
    if min(ks) < 1:
        raise MalformedInput("extension degree must be positive")
    n = poly.degree
    if n < 1 or not poly.is_monic():
        raise MalformedInput("base change needs a monic nonconstant polynomial")
    sums = power_sums(poly, n * max(ks))
    for k in ks:
        try:
            yield IntPoly(from_power_sums(sums[:n * k + 1:k]))
        except ValueError:
            raise InternalInconsistency(
                "base change is not integral") from None
