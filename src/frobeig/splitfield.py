"""Splitting field of a Weil polynomial with exact root coordinates.

The splitting field K of P is presented as Q[x]/(m) for a monic integer
polynomial m, together with the coordinate vector of every root of P in
the power basis of x.  All subsequent eigenvalue-group computations reduce
to exact linear algebra in this presentation.

Construction.  Write W' for the group of permutations of the root indices
that commute with the conjugation involution and preserve every
Q-irreducible factor's root set; the Galois group G acting on the roots is
a subgroup of W' (the involution is the algebraic map z -> q/z, defined
over Q, so it is centralized by G).  For a candidate subgroup H <= W' and
an integer weight vector c over the conjugation-orbit representatives, set

    gamma_w = sum_j c_j * root_{w(rep_j)}        (w in H),

and let M_H = prod_{w in H} (X - gamma_w).  M_H has integer coefficients
exactly when the value multiset is stable under G, which forces G <= H
once the values are distinct; distinctness is equivalent to M_H being
squarefree, checked by an exact gcd.  Candidates are scanned in order of
increasing |H|, so the first fully verified candidate satisfies H = G and
its M_H is irreducible: smaller subgroups die on a certified non-integer
coefficient or a repeated factor, and both certificates are exact.

Verification of an accepted candidate never trusts the floating point
layer: root coordinates are recovered by Newton interpolation on enclosure
data and rational reconstruction, then checked exactly in Q[x]/(m) -- the
defining polynomial vanishes on every coordinate vector, the coordinate
vectors multiply out to the squarefree part, the weight combination of the
representatives reproduces x, and conjugate coordinates multiply to q.
Enclosures only ever decide which exact checks to attempt; they are never
the evidence.

The Galois group is then certified from those verified coordinates
alone, with no enclosures and no precision: the image of x under each
element is the same weight combination of the permuted roots, and the
map x -> image must be an automorphism that permutes the roots as the
element claims.

Rejection is equally certified.  Eigenvalues are algebraic integers, so
their true coordinates in the power basis of an algebraic-integer
generator have denominators dividing the index of Z[theta] in the ring of
integers, whose square divides disc(m).  Reconstructing against the bound
isqrt(|disc m|)+1 therefore makes a failed reconstruction, a failed ring
identity, or a coordinate vector that evaluates away from its own root
enclosure into an exact proof that the candidate subgroup is not the
Galois group.  Any fully verified candidate presents a ring in which the
polynomial splits and which is generated by a combination of the roots, so
its degree is a multiple of the true splitting degree; scanning subgroups
by increasing order and accepting only when every smaller candidate holds
a rejection certificate pins the degree exactly and forces m irreducible.
The weight ladder (indicator vectors, then geometric vectors over a long
prime list) provably contains a non-degenerate weight for every input in
the supported degree range, so the true group is never starved of a
witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .config import DEFAULT, Settings
from .errors import (Ambiguous, DegreeCapExceeded, InternalInconsistency,
                     PrecisionExhausted)
from .exactmath.balls import ComplexBall
from .exactmath.intpoly import (IntPoly, discriminant_magnitude, power_sums,
                                qpoly_divmod, qpoly_gcd, qpoly_strip)
from .exactmath.roots import rational_reconstruct, refine_roots
from .weil import WeilData

Perm = Tuple[int, ...]


def _primes_below(limit: int) -> Tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = b"\x00" * len(sieve[i * i::i])
    return tuple(i for i in range(limit) if sieve[i])


# long enough that a non-degenerate weight provably exists for every
# supported input: the degenerate geometric ratios for one subgroup
# element number at most (reps - 1), and there are fewer than 168
# candidate elements times that across the supported degree range
_WEIGHT_PRIMES = _primes_below(1000)


# --- arithmetic in Q[x]/(m) ---

class ModRing:
    """Exact arithmetic in Q[x]/(m) for monic integer m.

    Elements are coefficient lists of length deg(m) over Fraction.  The
    ring is a field whenever m is irreducible, which the splitting field
    construction guarantees for its modulus.
    """

    def __init__(self, modulus: IntPoly):
        if modulus.degree < 1 or not modulus.is_monic():
            raise ValueError("modulus must be monic nonconstant")
        self.modulus = modulus
        self.n = modulus.degree
        m = [Fraction(c) for c in modulus.coefficients]
        # reduction table: x^(n+t) mod m for t = 0 .. n-2
        self._table: List[List[Fraction]] = []
        if self.n >= 1:
            cur = [-c for c in m[:-1]]
            self._table.append(cur)
            for _ in range(self.n - 2):
                nxt = [Fraction(0)] + cur[:-1]
                lead = cur[-1]
                if lead:
                    base = self._table[0]
                    nxt = [a + lead * b for a, b in zip(nxt, base)]
                self._table.append(nxt)
                cur = nxt
        self._psums = power_sums(modulus, self.n - 1) if self.n > 1 else [Fraction(1)]

    def const(self, c) -> List[Fraction]:
        out = [Fraction(0)] * self.n
        out[0] = Fraction(c)
        return out

    def xbar(self) -> List[Fraction]:
        if self.n == 1:
            return [Fraction(-self.modulus.coefficients[0])]
        out = [Fraction(0)] * self.n
        out[1] = Fraction(1)
        return out

    def reduce_list(self, coeffs: Sequence[Fraction]) -> List[Fraction]:
        out = list(coeffs[:self.n]) + [Fraction(0)] * max(0, self.n - len(coeffs))
        for t in range(len(coeffs) - 1, self.n - 1, -1):
            c = coeffs[t]
            if c:
                row = self._table[t - self.n]
                for j in range(self.n):
                    out[j] += c * row[j]
        return out[:self.n]

    def mul(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
        conv = [Fraction(0)] * (2 * self.n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return self.reduce_list(conv)

    def pow(self, a: Sequence[Fraction], e: int) -> List[Fraction]:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.const(1)
        base = list(a)
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: Sequence[Fraction]) -> List[Fraction]:
        """Inverse via the extended Euclidean algorithm; requires m
        irreducible (or at least a unit argument)."""
        r0 = [Fraction(c) for c in self.modulus.coefficients]
        r1 = qpoly_strip(list(a))
        if not r1:
            raise ZeroDivisionError("zero element")
        s0: List[Fraction] = []
        s1 = [Fraction(1)]
        while len(r1) > 1:
            quot, rem = qpoly_divmod(r0, r1)
            # s_next = s0 - quot * s1
            prod = [Fraction(0)] * (len(quot) + len(s1) - 1) if s1 else []
            for i, x in enumerate(quot):
                for j, y in enumerate(s1):
                    prod[i + j] += x * y
            ln = max(len(s0), len(prod))
            s_next = [(s0[i] if i < len(s0) else Fraction(0))
                      - (prod[i] if i < len(prod) else Fraction(0))
                      for i in range(ln)]
            r0, r1 = r1, qpoly_strip(rem)
            s0, s1 = s1, qpoly_strip(s_next)
            if not r1:
                raise ZeroDivisionError("element is a zero divisor")
        lead = r1[0]
        out = [c / lead for c in s1]
        return self.reduce_list(out)

    def eval_poly(self, coeffs: Sequence, elem: Sequence[Fraction]) -> List[Fraction]:
        """Value at elem of the polynomial with coefficients coeffs (low to
        high), by Horner's rule."""
        acc = self.const(0)
        for c in reversed(coeffs):
            acc = self.mul(acc, elem)
            acc[0] += c
        return acc

    def eval_intpoly(self, p: IntPoly, elem: Sequence[Fraction]) -> List[Fraction]:
        return self.eval_poly(p.coefficients, elem)

    def trace(self, a: Sequence[Fraction]) -> Fraction:
        return sum(x * p for x, p in zip(a, self._psums))

    def is_rational(self, a: Sequence[Fraction]) -> Optional[Fraction]:
        if any(a[1:]):
            return None
        return a[0]


# --- permutation helpers ---

def _compose(p: Perm, q: Perm) -> Perm:
    # (p o q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(q)))


def _closure(table: Dict[Tuple[int, int], int], seed: FrozenSet[int],
             universe_size: int) -> FrozenSet[int]:
    elems = set(seed)
    frontier = list(seed)
    while frontier:
        a = frontier.pop()
        for b in list(elems):
            for c in (table[(a, b)], table[(b, a)]):
                if c not in elems:
                    elems.add(c)
                    frontier.append(c)
    return frozenset(elems)


def _block_permutations(n: int, blocks: Sequence[Tuple[int, ...]],
                        iota: Perm) -> List[Perm]:
    """Permutations preserving every block and commuting with iota."""
    per_block = []
    for block in blocks:
        per_block.append([dict(zip(block, image))
                          for image in itertools.permutations(block)])
    out = []
    for assignment in itertools.product(*per_block):
        perm = list(range(n))
        for mapping in assignment:
            for k, v in mapping.items():
                perm[k] = v
        p = tuple(perm)
        if all(p[iota[i]] == iota[p[i]] for i in range(n)):
            out.append(p)
    return sorted(out)


def _subgroup_candidates(wprime: List[Perm], iota: Perm, blocks: Sequence[Tuple[int, ...]],
                         cap: int) -> List[List[int]]:
    """Subgroups of W' containing iota, transitive on every block, with
    order at most cap; each is a list of indices into wprime, and the list
    of subgroups is sorted by (order, element tuple) for determinism."""
    index = {p: i for i, p in enumerate(wprime)}
    size = len(wprime)
    table = {(i, j): index[_compose(wprime[i], wprime[j])]
             for i in range(size) for j in range(size)}
    iota_idx = index[iota]
    seed = _closure(table, frozenset({iota_idx}), size)
    subs = {seed}
    frontier = [seed]
    while frontier:
        h = frontier.pop()
        for e in range(size):
            if e not in h:
                bigger = _closure(table, h | {e}, size)
                if bigger not in subs:
                    subs.add(bigger)
                    frontier.append(bigger)

    def transitive(h: FrozenSet[int]) -> bool:
        for block in blocks:
            if len(block) <= 1:
                continue
            start = block[0]
            orbit = {wprime[i][start] for i in h}
            if orbit != set(block):
                return False
        return True

    good = [sorted(h) for h in subs if len(h) <= cap and transitive(h)]
    good.sort(key=lambda h: (len(h), [wprime[i] for i in h]))
    return good


# --- ball-side helpers ---

def _ball_poly_from_roots(values: Sequence[ComplexBall],
                          bits: int) -> List[ComplexBall]:
    """Coefficient enclosures of prod (X - v), monic, low to high; the
    leading coefficient is exactly one by construction.  Midpoints are
    rounded to the working grid after every step, folding the rounding
    error into the radius, so coefficient sizes stay bounded."""
    coeffs = [ComplexBall.exact(1)]
    for v in values:
        nxt = [ComplexBall.exact(0)] * (len(coeffs) + 1)
        for t, c in enumerate(coeffs):
            nxt[t + 1] = nxt[t + 1] + c
            nxt[t] = nxt[t] + c * (-v)
        coeffs = [c.round_bits(bits) for c in nxt[:-1]] + [nxt[-1]]
    return coeffs


def _ball_product(values: Sequence[ComplexBall], bits: int) -> ComplexBall:
    acc = ComplexBall.exact(1)
    for v in values:
        acc = (acc * v).round_bits(bits)
    return acc


def _newton_interpolate(nodes: Sequence[ComplexBall],
                        values: Sequence[ComplexBall],
                        bits: int) -> List[ComplexBall]:
    """Power-basis coefficient enclosures of the interpolating polynomial.

    Raises Ambiguous when a node difference enclosure cannot be inverted,
    which the caller treats as an escalation signal.
    """
    n = len(nodes)
    dd = list(values)
    newton = [dd[0]]
    for j in range(1, n):
        for t in range(n - j):
            diff = nodes[t + j] - nodes[t]
            dd[t] = ((dd[t + 1] - dd[t]) * diff.inverse()).round_bits(bits)
        newton.append(dd[0])
    # expand from Newton form: poly = (...((a_{n-1})(X - x_{n-2}) + a_{n-2})...)
    poly = [newton[n - 1]]
    for j in range(n - 2, -1, -1):
        nxt = [ComplexBall.exact(0)] * (len(poly) + 1)
        for t, c in enumerate(poly):
            nxt[t + 1] = nxt[t + 1] + c
            nxt[t] = nxt[t] + (c * (-nodes[j])).round_bits(bits)
        nxt[0] = nxt[0] + newton[j]
        poly = nxt
    return poly


def _is_squarefree_exact(m: IntPoly) -> bool:
    g = qpoly_gcd([Fraction(c) for c in m.coefficients],
                  [Fraction(c) for c in m.derivative().coefficients])
    return len(g) == 1


# --- results ---

@dataclass(frozen=True)
class SplittingField:
    """Splitting field presentation with verified root coordinates."""
    modulus: IntPoly
    degree: int
    weight: Tuple[int, ...]                 # c_j over the orbit representatives
    orbit_reps: Tuple[int, ...]
    root_coords: Tuple[Tuple[Fraction, ...], ...]
    group_perms: Tuple[Perm, ...]           # Galois action on root indices
    root_balls: Tuple[ComplexBall, ...]

    @cached_property
    def _ring(self) -> ModRing:
        return ModRing(self.modulus)

    def ring(self) -> ModRing:
        """Arithmetic of the field, built once per field."""
        return self._ring


@dataclass(frozen=True)
class GaloisData:
    """Galois group with an exact homomorphism certificate."""
    perms: Tuple[Perm, ...]
    order: int
    generator_indices: Tuple[int, ...]
    images: Tuple[Optional[Tuple[Fraction, ...]], ...]  # x-image per element
    fully_certified: bool


# --- the construction ---

def orbit_representatives(data: WeilData) -> Tuple[int, ...]:
    reps = []
    seen = set()
    for i in range(len(data.roots)):
        if i in seen:
            continue
        j = data.iota[i]
        seen.add(i)
        seen.add(j)
        if i == j:
            reps.append(i)
        else:
            # prefer the representative in the upper half plane
            reps.append(i if data.roots[i].im > 0 else j)
    return tuple(sorted(reps))


def _weight_list(r: int) -> List[Tuple[int, ...]]:
    out = []
    for j in range(r):
        out.append(tuple(1 if t == j else 0 for t in range(r)))
    for k in _WEIGHT_PRIMES:
        w = tuple(k ** t for t in range(r))
        if w not in out:
            out.append(w)
    return out


_DEAD_WEIGHT = "dead-weight"          # this weight refuted, subgroup still open
_DEAD_SUBGROUP = "dead-subgroup"      # certificate refutes the subgroup itself
_UNRESOLVED = "unresolved"


def _coordinate_bound(modulus: IntPoly, cache: Dict[Tuple[int, ...], int]) -> int:
    """Certified denominator bound for algebraic-integer coordinates in the
    power basis of a root of the (squarefree) modulus: the index of the
    power-basis order divides isqrt(|disc|)."""
    key = modulus.coefficients
    if key not in cache:
        cache[key] = isqrt(discriminant_magnitude(modulus)) + 1
    return cache[key]


def _eval_on_ball(vec: Sequence[Fraction], point: ComplexBall) -> ComplexBall:
    acc = ComplexBall.exact(0)
    for c in reversed(vec):
        acc = acc * point + ComplexBall.exact(c)
    return acc


def _try_candidate(h_perms: List[Perm], weight: Tuple[int, ...],
                   reps: Tuple[int, ...], gammas: Dict[Perm, ComplexBall],
                   balls: Sequence[ComplexBall], sf_poly: IntPoly,
                   iota: Perm, q: int, disc_cache: Dict[Tuple[int, ...], int],
                   bits: int):
    """One (subgroup, weight) attempt at the current precision.

    Returns a payload tuple on success, _UNRESOLVED when the precision
    cannot decide, or one of two exact rejection certificates.  Key
    asymmetry: were the subgroup the Galois group, the resolvent would
    have integer coefficients for EVERY integer weight (a degenerate
    weight only repeats roots), and past the squarefree gate the
    coordinates would reconstruct and verify for ANY weight.  So a
    certified non-integer coefficient, a failed reconstruction against the
    index bound, a failed ring identity, or a misplaced root enclosure
    refutes the subgroup outright (_DEAD_SUBGROUP); only a squarefree
    failure is specific to the weight (_DEAD_WEIGHT).
    """
    values = [gammas[w] for w in h_perms]
    # cheap gates first: the trace and norm coefficients must round to
    # integers; each needs only a linear number of enclosure operations
    tr = values[0]
    for v in values[1:]:
        tr = tr + v
    try:
        if tr.unique_integer() is None:
            return _DEAD_SUBGROUP
    except Ambiguous:
        return _UNRESOLVED
    try:
        if _ball_product(values, bits).unique_integer() is None:
            return _DEAD_SUBGROUP
    except Ambiguous:
        return _UNRESOLVED

    coeff_balls = _ball_poly_from_roots(values, bits)
    ints = []
    for c in coeff_balls[:-1]:
        try:
            n = c.unique_integer()
        except Ambiguous:
            return _UNRESOLVED
        if n is None:
            return _DEAD_SUBGROUP
        ints.append(n)
    modulus = IntPoly(tuple(ints + [1]))
    if not _is_squarefree_exact(modulus):
        return _DEAD_WEIGHT

    # recover every root coordinate against the index denominator bound
    den_bound = _coordinate_bound(modulus, disc_cache)
    try:
        coords = []
        for i in range(len(balls)):
            node_vals = [balls[w[i]] for w in h_perms]
            poly_balls = _newton_interpolate(values, node_vals, bits)
            vec = []
            for cb in poly_balls:
                r = rational_reconstruct(cb, den_bound)
                if r is None:
                    return _DEAD_SUBGROUP
                vec.append(r)
            coords.append(vec)
    except Ambiguous:
        return _UNRESOLVED

    ring = ModRing(modulus)
    n = ring.n
    coords = [vec + [Fraction(0)] * (n - len(vec)) for vec in coords]
    for vec in coords:
        if any(ring.eval_intpoly(sf_poly, vec)):
            return _DEAD_SUBGROUP
    # prod (X - r_i) must equal the squarefree part over the ring
    prod = [ring.const(1)]
    for vec in coords:
        nxt = [ring.const(0) for _ in range(len(prod) + 1)]
        for t, c in enumerate(prod):
            nxt[t + 1] = [x + y for x, y in zip(nxt[t + 1], c)]
            term = ring.mul(c, vec)
            nxt[t] = [x - y for x, y in zip(nxt[t], term)]
        prod = nxt
    expected = [ring.const(c) for c in sf_poly.coefficients]
    if prod != expected:
        return _DEAD_SUBGROUP
    combo = ring.const(0)
    for c, rep in zip(weight, reps):
        combo = [x + c * y for x, y in zip(combo, coords[rep])]
    if combo != ring.xbar():
        return _DEAD_SUBGROUP
    qconst = ring.const(q)
    for i in range(len(coords)):
        if ring.mul(coords[iota[i]], coords[i]) != qconst:
            return _DEAD_SUBGROUP

    # assignment certificate: each coordinate vector, evaluated on the
    # generator enclosure, must isolate its own root enclosure
    gamma_id = gammas[tuple(range(len(balls)))]
    for i, vec in enumerate(coords):
        enc = _eval_on_ball(vec, gamma_id)
        if enc.disjoint(balls[i]):
            return _DEAD_SUBGROUP
        for j in range(len(balls)):
            if j != i and not enc.disjoint(balls[j]):
                return _UNRESOLVED
    return modulus, tuple(tuple(v) for v in coords)


def splitting_field(data: WeilData, settings: Settings = DEFAULT) -> SplittingField:
    """Compute the splitting field presentation for validated Weil data.

    Deterministic for fixed input and settings.  Raises PrecisionExhausted
    when the precision ceiling is reached before a candidate resolves and
    DegreeCapExceeded when every subgroup within the degree cap is
    excluded by an exact certificate.
    """
    sf_poly = data.poly.squarefree_part()
    n = len(data.roots)
    iota = data.iota
    reps = orbit_representatives(data)
    blocks = [f.root_indices for f in data.factors]
    wprime = _block_permutations(n, blocks, iota)
    candidates = _subgroup_candidates(wprime, iota, blocks, settings.degree_cap)
    if not candidates:
        raise DegreeCapExceeded(
            "no admissible subgroup within the degree cap",
            partial_degree=settings.degree_cap)
    weights = _weight_list(len(reps))

    prec = max(data.prec, settings.precision_start)
    balls = list(data.roots)
    if prec > data.prec:
        balls = refine_roots(data.poly, balls, prec)
    largest_dead = 0
    disc_cache: Dict[Tuple[int, ...], int] = {}
    while True:
        bits = prec + 64
        gamma_cache: Dict[Tuple[int, ...], Dict[Perm, ComplexBall]] = {}
        unresolved_size: Optional[int] = None
        accepted = None
        for h_idx in candidates:
            h_perms = [wprime[i] for i in h_idx]
            if unresolved_size is not None and len(h_perms) > unresolved_size:
                break
            subgroup_dead = False
            unresolved_here = 0
            for weight in weights:
                if weight not in gamma_cache:
                    gamma_cache[weight] = {
                        w: _gamma_ball(weight, reps, w, balls) for w in wprime}
                out = _try_candidate(h_perms, weight, reps,
                                     gamma_cache[weight], balls, sf_poly,
                                     iota, data.q, disc_cache, bits)
                if out is _DEAD_SUBGROUP:
                    subgroup_dead = True
                    break
                if out is _DEAD_WEIGHT:
                    continue
                if out is _UNRESOLVED:
                    unresolved_here += 1
                    if unresolved_here >= 3:
                        break
                    continue
                accepted = (h_perms, weight, out)
                break
            if accepted:
                break
            if subgroup_dead or unresolved_here == 0:
                # conclusively excluded, either by a subgroup certificate or
                # by exhausting every weight on exact per-weight rejections
                largest_dead = max(largest_dead, len(h_perms))
            elif unresolved_size is None:
                unresolved_size = len(h_perms)
        if accepted:
            h_perms, weight, (modulus, coords) = accepted
            return SplittingField(modulus=modulus, degree=modulus.degree,
                                  weight=weight, orbit_reps=reps,
                                  root_coords=coords,
                                  group_perms=tuple(sorted(h_perms)),
                                  root_balls=tuple(balls))
        if unresolved_size is None:
            # every candidate died on an exact certificate
            raise DegreeCapExceeded(
                "splitting field degree exceeds the cap "
                f"{settings.degree_cap}", partial_degree=largest_dead)
        prec *= 2
        if prec > settings.precision_ceiling:
            raise PrecisionExhausted(
                f"splitting field undecided at {settings.precision_ceiling} bits")
        balls = refine_roots(data.poly, balls, prec)


def _gamma_ball(weight: Tuple[int, ...], reps: Tuple[int, ...], perm: Perm,
                balls: Sequence[ComplexBall]) -> ComplexBall:
    acc = ComplexBall.exact(0)
    for c, rep in zip(weight, reps):
        if c:
            acc = acc + balls[perm[rep]].scale(c)
    return acc


def galois_group(field: SplittingField, data: WeilData) -> GaloisData:
    """Galois group of the splitting field with exact certification.

    The permutations come from the accepted construction, and the field's
    root coordinates are already verified; this operation re-certifies
    the permutations as field automorphisms with exact arithmetic alone.
    The image of x under the element w is the combination sum_j c_j *
    root_coords[w(rep_j)].  For each certified element (every one when
    the order is at most 16, the generators and the identity otherwise)
    the image must be a root of the modulus, and x -> image must send
    every orbit representative's coordinates to those of its w-image.
    The images must be pairwise distinct, and the permutations must form
    a group of the right order centralizing the conjugation involution.
    """
    perms = list(field.group_perms)
    n_roots = len(field.root_coords)
    order = len(perms)
    if order != field.degree:
        raise InternalInconsistency("group order differs from field degree")
    ident = tuple(range(n_roots))
    perm_set = set(perms)
    if ident not in perm_set or data.iota not in perm_set:
        raise InternalInconsistency("group misses identity or conjugation")
    for a in perms:
        for b in perms:
            if _compose(a, b) not in perm_set:
                raise InternalInconsistency("group is not closed")
        if _compose(a, data.iota) != _compose(data.iota, a):
            raise InternalInconsistency("conjugation is not central")

    # greedy generating set in canonical order
    gens: List[Perm] = []
    span = {ident}
    for p in perms:
        if p not in span:
            gens.append(p)
            while True:
                grew = False
                for a in list(span):
                    for g in gens:
                        c = _compose(a, g)
                        if c not in span:
                            span.add(c)
                            grew = True
                if not grew:
                    break
    gen_idx = tuple(perms.index(g) for g in gens)

    members = perms if order <= 16 else [perms[i] for i in gen_idx] + [ident]
    fully = order <= 16

    # the automorphism acting as w sends x = sum_j c_j r_{rep_j} to the
    # same combination of the roots r_{w(rep_j)}; each claim is checked
    # exactly on the verified root coordinates
    ring = field.ring()
    coords = field.root_coords
    images: Dict[Perm, Tuple[Fraction, ...]] = {}
    for w in members:
        image = ring.const(0)
        for c, rep in zip(field.weight, field.orbit_reps):
            image = [a + c * b for a, b in zip(image, coords[w[rep]])]
        if any(ring.eval_intpoly(field.modulus, image)):
            raise InternalInconsistency(
                "claimed automorphism image is not a modulus root")
        # x -> image is then an automorphism; it must move every
        # representative as w does (conjugates follow from r rbar = q)
        for rep in field.orbit_reps:
            if ring.eval_poly(coords[rep], image) != list(coords[w[rep]]):
                raise InternalInconsistency(
                    "automorphism does not act as its permutation")
        images[w] = tuple(image)
    vals = list(images.values())
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] == vals[j]:
                raise InternalInconsistency("automorphism images collide")
    image_list = tuple(images.get(w) for w in perms)
    return GaloisData(perms=tuple(perms), order=order,
                      generator_indices=gen_idx, images=image_list,
                      fully_certified=fully)


# --- multiplicative words and torsion tests ---

def word_value(ring: ModRing, coords: Sequence[Sequence[Fraction]],
               exponents: Sequence[int], q: int = 0,
               q_exponent: int = 0) -> List[Fraction]:
    """Exact value of prod_i coords[i]^exponents[i] * q^q_exponent.

    Negative exponents invert in the quotient ring; the q part is a
    rational scalar.  Raises ZeroDivisionError on non-invertible factors,
    which cannot happen for eigenvalue coordinates (they divide q).
    """
    acc = ring.const(1)
    for vec, e in zip(coords, exponents):
        if e == 0:
            continue
        p = ring.pow(list(vec), abs(e))
        if e < 0:
            p = ring.inv(p)
        acc = ring.mul(acc, p)
    if q_exponent:
        scale = Fraction(q) ** q_exponent
        acc = [c * scale for c in acc]
    return acc


def _minimal_polynomial(ring: ModRing, elem: Sequence[Fraction]) -> List[Fraction]:
    """Monic minimal polynomial of an element over Q (coefficient list,
    low to high), found as the first linear dependency among its powers."""
    n = ring.n
    rows: List[Tuple[List[Fraction], List[Fraction], int]] = []
    power = ring.const(1)
    for d in range(n + 1):
        vec = list(power)
        combo = [Fraction(0)] * (n + 1)
        combo[d] = Fraction(1)
        for pvec, pcombo, pivot in rows:
            c = vec[pivot]
            if c:
                f = c / pvec[pivot]
                vec = [a - f * b for a, b in zip(vec, pvec)]
                combo = [a - f * b for a, b in zip(combo, pcombo)]
        piv = next((i for i, a in enumerate(vec) if a), None)
        if piv is None:
            lead = combo[d]
            return [c / lead for c in combo[:d + 1]]
        rows.append((vec, combo, piv))
        if d < n:
            power = ring.mul(power, list(elem))
    raise InternalInconsistency("element has no minimal polynomial")


def is_root_of_unity(ring: ModRing, elem: Sequence[Fraction]) -> Optional[int]:
    """Exact order of elem if it is a root of unity, else None.

    An element of a degree-N field that is a root of unity is an algebraic
    integer whose minimal polynomial has degree phi(order), so order <=
    2 deg^2.  The trace gate rejects most non-integral elements before the
    minimal polynomial is computed; the order itself comes from exact
    powering, never from numerics.
    """
    elem = ring.reduce_list(list(elem))
    if elem == ring.const(1):
        return 1
    if elem == ring.const(-1):
        return 2
    if ring.is_rational(elem) is not None:
        return None
    tr = ring.trace(elem)
    if tr.denominator != 1 or abs(tr) > ring.n:
        return None
    mu = _minimal_polynomial(ring, elem)
    if any(c.denominator != 1 for c in mu):
        return None
    d = len(mu) - 1
    small = ModRing(IntPoly([int(c) for c in mu]))
    value = small.xbar()
    one = small.const(1)
    x = small.xbar()
    for t in range(1, 2 * d * d + 1):
        if value == one:
            return t
        value = small.mul(value, x)
    return None
