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
squarefree, checked by an integer gcd.  Candidates are scanned in order of
increasing |H|, so the first fully verified candidate satisfies H = G and
its M_H is irreducible: smaller subgroups die on a certified non-integer
power sum, an inexact Newton division or a repeated factor, and all three
certificates are exact.
W', the candidates and the Galois group's closure check are spans of
generator lists under one routine, `_span`, and the candidate search
drops every span past the degree cap.

Verification of an accepted candidate never trusts the enclosures alone.
Were H the Galois group, x would generate K, and the trace
t_{i,k} = sum_{w in H} root_{w(i)} * gamma_w^k = Tr(root_i * x^k) would be
a rational integer, since roots and x are algebraic integers.  Each t_{i,k}
is read off its enclosure as the unique integer it holds, and the
coordinates of root_i solve sum_j coords_{i,j} p_{j+k} = t_{i,k} exactly,
where p_s is the s-th power sum of the roots of m; the Hankel matrix
[p_{j+k}] is integral because m is monic and nonsingular because m is
squarefree, so one fraction-free Bareiss solve gives all coordinates
over the common denominator det [p_{j+k}].  The coordinates are
then checked exactly in Q[x]/(m): they multiply out to the squarefree
part of P (so each is a root of it), the weight combination of the
representatives reproduces x, and conjugate coordinates multiply to q.
Those are exact identities.  The remaining facts are rigorous ball
certificates: each power sum and trace is the one integer its enclosure
holds, and the assignment certificate places every root under every
element of H.  K is a field (m is irreducible, see below), and
m = prod_{w in H} (X - gamma_w) is squarefree, so the embeddings of K
into C are x -> gamma_w, one for each w.  Evaluated on the enclosure of
gamma_w, the coordinate vector of root i must meet the enclosure of root
w(i) and no other; then that embedding sends root i to root w(i), and
when this holds for every w and every i, the Galois action on the roots
is exactly H.  No float decides anything, and no enclosure stands in for
an exact identity.

Field elements are integer numerators over one positive denominator in
lowest terms (`ModRing`), so the ring identities are integer products
and tuple comparisons; the Bareiss solve hands over its integer solution
and determinant unchanged.  The enclosures are dyadic `ComplexBall`s:
integer mantissas over one power-of-two exponent, so ball arithmetic is
integer arithmetic.  The construction starts from the root enclosures
and the precision that `weil.validate` certified, and refines the roots
itself, from the brackets in `WeilData.real`, only when some candidate
stays undecided.  M_H is read by power sums, like validation's factors:
one table of the powers gamma_w^k (`balls.power_rows`) gives each Tr(x^k)
as the integer its enclosure holds, and Newton's identities give the
coefficients.  The traces
t_{i,k} and the evaluation sum_k nums_k * x^k of a coordinate vector
read the same table, whose products are rounded outward onto the 2^-bits
working grid (bits = precision + 64); that keeps every true value inside
its ball and the mantissas proportional to the precision.  The
coordinate evaluation runs on an element's integer numerators and is
compared with the root enclosures scaled by its denominator, so no
enclosure is ever divided.

`galois_group` then only checks exactly that the certified
permutations form a group of the field's degree that centralizes the
conjugation involution; it reads no enclosure and no field element.

Most records never get here.  `generic_group` certifies G = W' for a
simple record with no real root and at least two conjugate pairs, the
commonest Galois group, from three rational square tests and the
Frobenius cycle types of h mod small primes (see its docstring), and
`galois_data` runs the same group checks on those permutations.  Only
when that certificate fails is the field built.  A cycle type also
bounds |G| from below, and so does a Frobenius element that is trivial
on the pairs and flips one or all but one of them, so an input whose
group provably exceeds the degree cap ends there without the subgroup
search.

Rejection is equally certified.  When H is the Galois group, every power
sum Tr(x^k) and, past the squarefree gate, every trace t_{i,k} is an
integer for every weight, and the true coordinates pass every identity
above.  So an enclosure of a power sum or a trace that holds no integer, a
failed ring identity, or a coordinate vector that evaluates on some gamma_w
away from the enclosure of root w(i) is an exact proof that the candidate
subgroup is not the Galois group.  Any fully verified candidate presents a
ring in which the polynomial splits and which is generated by a combination
of the roots, so its degree is a multiple of the true splitting degree;
scanning subgroups by increasing order and accepting only when every
smaller candidate holds a rejection certificate pins the degree exactly and
forces m irreducible.
The weight ladder (indicator vectors, then geometric vectors over a long
prime list) provably contains a non-degenerate weight for every input in
the supported degree range, so the true group is never starved of a
witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import islice, product, tee
from math import factorial, gcd, isqrt, lcm
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .config import DEFAULT, Settings
from .errors import (Ambiguous, DegreeCapExceeded, InternalInconsistency,
                     PrecisionExhausted)
from .exactmath.balls import (ComplexBall, integer_power_sums, lincomb,
                              power_rows)
from .exactmath.intpoly import (IntPoly, factor_degrees_mod, from_power_sums,
                                power_sums)
from .exactmath.roots import real_weil_poly, refine_roots
from .quadforms import _charpoly, bareiss_solve
from .weil import _SMALL_PRIMES, WeilData

Perm = Tuple[int, ...]


# long enough that a non-degenerate weight provably exists for every
# supported input: the degenerate geometric ratios for one subgroup
# element number at most (reps - 1), and there are fewer than 168
# candidate elements times that across the supported degree range
_WEIGHT_PRIMES = tuple(p for p in _SMALL_PRIMES if p < 1000)


# --- arithmetic in Q[x]/(m) ---

Elem = Tuple[Tuple[int, ...], int]      # (numerators, denominator): ModRing


class ModRing:
    """Exact arithmetic in Q[x]/(m) for monic integer m.

    An element is a pair (nums, den): the integer numerators of its n =
    deg(m) coordinates in the power basis 1, x, ..., x^(n-1) over one
    positive denominator, in lowest terms, so equal elements are equal
    tuples.  Every operation runs on Python ints: the reduction table of
    a monic modulus is integral.  The ring is a field whenever m is
    irreducible, which the splitting field construction guarantees for
    its modulus.
    """

    def __init__(self, modulus: IntPoly):
        if modulus.degree < 1 or not modulus.is_monic():
            raise ValueError("modulus must be monic nonconstant")
        self.modulus = modulus
        self.n = modulus.degree
        # reduction table: x^(n+t) mod m for t = 0 .. n-2
        cur = [-c for c in modulus.coefficients[:-1]]
        self._table: List[List[int]] = [cur]
        for _ in range(self.n - 2):
            cur = self._times_x(cur)
            self._table.append(cur)
        self._psums = power_sums(modulus, self.n - 1)

    def _times_x(self, nums: Sequence[int]) -> List[int]:
        lead = nums[-1]
        return [s + lead * t for s, t in zip([0] + nums[:-1], self._table[0])]

    def element(self, nums: Sequence[int], den: int = 1) -> Elem:
        """The element sum_i nums[i] x^i / den for n integers nums and a
        nonzero integer den."""
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g == 1:
            return tuple(nums), den
        return tuple(c // g for c in nums), den // g

    def const(self, c: int) -> Elem:
        return (c,) + (0,) * (self.n - 1), 1

    def xbar(self) -> Elem:
        if self.n == 1:
            return (-self.modulus.coefficients[0],), 1
        return (0, 1) + (0,) * (self.n - 2), 1

    def lincomb(self, coeffs: Sequence[int], elems: Sequence[Elem]) -> Elem:
        """sum_i coeffs[i] * elems[i] for integers coeffs."""
        den = lcm(*(d for _, d in elems))
        out = [0] * self.n
        for c, (nums, d) in zip(coeffs, elems):
            if c:
                f = c * (den // d)
                out = [s + f * t for s, t in zip(out, nums)]
        return self.element(out, den)

    def scale(self, a: Elem, num: int, den: int = 1) -> Elem:
        """a * num / den for integers num and den, den nonzero."""
        return self.element([c * num for c in a[0]], a[1] * den)

    def mul(self, a: Elem, b: Elem) -> Elem:
        (an, ad), (bn, bd) = a, b
        n = self.n
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn, i):
                    conv[j] += x * y
        out = conv[:n]
        for t in range(n, 2 * n - 1):
            c = conv[t]
            if c:
                out = [s + c * r for s, r in zip(out, self._table[t - n])]
        return self.element(out, ad * bd)

    def pow(self, a: Elem, e: int) -> Elem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.const(1)
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def charpoly(self, nums: Sequence[int]) -> List[int]:
        """Characteristic polynomial (low to high) of multiplication by
        sum_i nums[i] x^i: the integer matrix whose row j is x^j times
        it, fraction-free."""
        rows = [list(nums)]
        for _ in range(self.n - 1):
            rows.append(self._times_x(rows[-1]))
        return _charpoly(rows)

    def inv(self, a: Elem) -> Elem:
        """Inverse by Cayley-Hamilton.  b = den * a has integer numerators
        and the integer charpoly X^n + ... + c_1 X + c_0, which vanishes
        at b, so 1/a = den / b = -den (b^(n-1) + ... + c_1) / c_0.  c_0 =
        +-N(b) is zero exactly when a is zero or a zero divisor:
        ZeroDivisionError."""
        nums, den = a
        chi = self.charpoly(nums)
        if not chi[0]:
            raise ZeroDivisionError("element is zero or a zero divisor")
        return self.scale(self.eval_poly(chi[1:], (nums, 1)), -den, chi[0])

    def eval_poly(self, coeffs: Sequence[int], elem: Elem) -> Elem:
        """Value at elem of the integer polynomial with coefficients
        coeffs (low to high), by Horner's rule.  Adding an integer to a
        reduced element keeps it reduced."""
        acc = self.const(0)
        for c in reversed(coeffs):
            nums, den = self.mul(acc, elem)
            acc = (nums[0] + c * den,) + nums[1:], den
        return acc

    def trace(self, a: Elem) -> Tuple[int, int]:
        """Trace over Q as (numerator, positive denominator) in lowest
        terms."""
        nums, den = a
        t = sum(x * p for x, p in zip(nums, self._psums))
        g = gcd(t, den)
        return t // g, den // g


# --- permutation helpers ---

def _compose(p: Perm, q: Perm) -> Perm:
    # (p o q)(i) = p(q(i))
    return tuple(map(p.__getitem__, q))


def _span(gens: Sequence[Perm], n: int,
          limit: Optional[int] = None) -> Optional[FrozenSet[Perm]]:
    """The group generated by gens on n points: the closure of the identity
    under right products by gens, or None once it grows past limit."""
    ident = tuple(range(n))
    span = {ident}
    todo = [ident]
    while todo:
        a = todo.pop()
        for g in gens:
            c = _compose(a, g)
            if c not in span:
                if limit is not None and len(span) >= limit:
                    return None
                span.add(c)
                todo.append(c)
    return frozenset(span)


def _block_permutations(n: int, blocks: Sequence[Tuple[int, ...]],
                        iota: Perm) -> List[Perm]:
    """Permutations preserving every block and commuting with iota: on
    each block, any permutation of the fixed points of iota times the
    signed permutations of the iota-pairs."""

    def moving(src, dst) -> Perm:
        perm = list(range(n))
        for s, d in zip(src, dst):
            for x, y in zip(s, d):
                perm[x] = y
        return tuple(perm)

    gens = []
    for block in blocks:
        fixed = [(i,) for i in block if iota[i] == i]
        pairs = [(i, iota[i]) for i in block if i < iota[i]]
        for orbits in (fixed, pairs):
            # the symmetric group on the orbits: swap two, cycle all
            gens.append(moving(orbits[:2], orbits[1::-1]))
            gens.append(moving(orbits, orbits[1:] + orbits[:1]))
        gens.append(moving(pairs[:1], [p[::-1] for p in pairs[:1]]))
    return sorted(_span(gens, n))


def _subgroup_candidates(wprime: List[Perm], iota: Perm, blocks: Sequence[Tuple[int, ...]],
                         cap: int) -> List[List[Perm]]:
    """Subgroups of W' containing iota, transitive on every block, with
    order at most cap; each is the sorted list of its permutations, and
    the list of subgroups is sorted by (order, elements) for determinism.

    From <iota>, each H is extended by one e per right coset H e, since
    <H, e> = <H, h e>, and spans past the cap are dropped: every subgroup
    within the cap is reached through a chain of its own subgroups."""
    found = set()
    frontier = [[iota]]
    while frontier:
        gens = frontier.pop()
        h = _span(gens, len(iota), cap)
        if h is None or h in found:
            continue
        found.add(h)
        if 2 * len(h) > cap:
            continue        # a proper overgroup has order at least 2|H|
        covered = set(h)
        for e in wprime:
            if e not in covered:
                covered.update(_compose(x, e) for x in h)
                frontier.append(gens + [e])
    good = [sorted(h) for h in found
            if all({p[b[0]] for p in h} == set(b) for b in blocks)]
    good.sort(key=lambda h: (len(h), h))
    return good


# --- results ---

@dataclass(frozen=True)
class SplittingField:
    """Splitting field presentation with verified root coordinates."""
    modulus: IntPoly
    degree: int
    weight: Tuple[int, ...]                 # c_j over the orbit representatives
    orbit_reps: Tuple[int, ...]
    root_coords: Tuple[Elem, ...]
    group_perms: Tuple[Perm, ...]           # Galois action on root indices
    root_balls: Tuple[ComplexBall, ...]
    arithmetic: ModRing = dataclass_field(compare=False, repr=False)

    def ring(self) -> ModRing:
        """Arithmetic of the field: the one ring the construction verified
        the root coordinates in."""
        return self.arithmetic


@dataclass(frozen=True)
class GaloisData:
    """Galois group: the action on the root indices, every element of it
    certified by the splitting field construction."""
    perms: Tuple[Perm, ...]
    order: int
    generator_indices: Tuple[int, ...]


# --- the construction ---

def orbit_representatives(data: WeilData) -> Tuple[int, ...]:
    """One root index per conjugation orbit, ascending: each real root,
    and the second root of each canonical pair, the one with positive
    imaginary part."""
    return tuple(i for i, j in enumerate(data.iota) if j <= i)


@lru_cache(maxsize=None)
def _weight_list(r: int) -> Tuple[Tuple[int, ...], ...]:
    """The indicator weights, then (1, k, k^2, ...) for each k in
    _WEIGHT_PRIMES, each once: for r = 1 every geometric weight is (1,).
    Built once per r."""
    units = [tuple(int(t == j) for t in range(r)) for j in range(r)]
    geometric = [tuple(k ** t for t in range(r)) for k in _WEIGHT_PRIMES]
    return tuple(dict.fromkeys(units + geometric))


_DEAD_WEIGHT = "dead-weight"          # this weight refuted, subgroup still open
_DEAD_SUBGROUP = "dead-subgroup"      # certificate refutes the subgroup itself
_UNRESOLVED = "unresolved"


def _try_candidate(h_perms: List[Perm], weight: Tuple[int, ...],
                   reps: Tuple[int, ...], gammas: Dict[Perm, ComplexBall],
                   balls: Sequence[ComplexBall], sf_poly: IntPoly,
                   iota: Perm, q: int, bits: int):
    """One (subgroup, weight) attempt at the current precision.

    Returns a payload tuple on success, which also certifies that every
    element of the subgroup acts on the roots as a field automorphism,
    _UNRESOLVED when the precision cannot decide, or one of two exact
    rejection certificates.  Key asymmetry: were the subgroup the Galois
    group, every power sum Tr(x^k) = sum_w gamma_w^k would be an integer
    and Newton's identities would divide exactly, for EVERY integer weight
    (a degenerate weight only repeats roots), and past the squarefree gate
    every trace t_{i,k} = Tr(r_i x^k) would be an integer whose exact
    Hankel solve gives coordinates that verify, for ANY weight.  So a
    certified non-integer power sum or trace, an inexact Newton division, a
    failed ring identity, or a misplaced root enclosure refutes the
    subgroup outright (_DEAD_SUBGROUP); only a squarefree failure is
    specific to the weight (_DEAD_WEIGHT).
    """
    values = [gammas[w] for w in h_perms]
    n = len(values)
    # the reader builds row k of the power table only when it reads
    # Tr(x^k), so a wrong subgroup usually dies on Tr(x), with no product
    lazy, table = tee(power_rows(values, bits))
    try:
        sums = integer_power_sums(lazy, range(n))
        if sums is None:
            return _DEAD_SUBGROUP
        modulus = IntPoly(from_power_sums(sums))
    except Ambiguous:
        return _UNRESOLVED
    except ValueError:
        return _DEAD_SUBGROUP           # Newton's identities do not divide
    if modulus.gcd(modulus.derivative()).degree > 0:
        return _DEAD_WEIGHT             # repeated values: not squarefree

    # trace certificate: were H the Galois group, t_{i,k} = sum_w
    # r_{w(i)} gamma_w^k = Tr(r_i x^k) would be a rational integer
    rows = list(islice(table, n))
    traces = []
    try:
        for i in range(len(balls)):
            node_vals = [balls[w[i]] for w in h_perms]
            row = []
            for k in range(n):
                acc = ComplexBall.exact(0)
                for r, pw in zip(node_vals, rows[k]):
                    acc = acc + r * pw
                t = acc.unique_integer()
                if t is None:
                    return _DEAD_SUBGROUP
                row.append(t)
            traces.append(row)
    except Ambiguous:
        return _UNRESOLVED

    # Tr(r_i x^k) = sum_j coords_{i,j} p_{j+k}; the Hankel matrix of power
    # sums is integral (the modulus is monic) and nonsingular (it is
    # squarefree), so one integer solve H X = det T^T gives every coords_i
    psums = power_sums(modulus, 2 * n - 2)
    x, det = bareiss_solve([[psums[j + k] for j in range(n)]
                            for k in range(n)], list(zip(*traces)))
    ring = ModRing(modulus)
    coords = [ring.element(col, det) for col in zip(*x)]

    # prod (X - r_i) must equal the squarefree part over the ring
    prod = [ring.const(1)]
    for vec in coords:
        nxt = [ring.const(0)] + prod
        for t, c in enumerate(prod):
            nxt[t] = ring.lincomb((1, -1), (nxt[t], ring.mul(c, vec)))
        prod = nxt
    if prod != [ring.const(c) for c in sf_poly.coefficients]:
        return _DEAD_SUBGROUP
    if ring.lincomb(weight, [coords[rep] for rep in reps]) != ring.xbar():
        return _DEAD_SUBGROUP
    qconst = ring.const(q)
    for i in range(len(coords)):
        if ring.mul(coords[iota[i]], coords[i]) != qconst:
            return _DEAD_SUBGROUP

    # assignment certificate: the embedding x -> gamma_w sends root i to
    # root w(i), so each coordinate vector, evaluated as sum_k nums_k
    # gamma_w^k on column w of the power table, must isolate the enclosure
    # of root w(i), for every w; the numerators' value is compared with
    # den * root, never divided.  The identity, the least permutation,
    # comes first.
    targets = [[b.scale(den) for b in balls] for _, den in coords]
    for w, column in zip(h_perms, zip(*rows)):
        for i, (nums, _) in enumerate(coords):
            enc = lincomb(nums, column)
            if enc.disjoint(targets[i][w[i]]):
                return _DEAD_SUBGROUP
            if any(j != w[i] and not enc.disjoint(t)
                   for j, t in enumerate(targets[i])):
                return _UNRESOLVED
    return modulus, tuple(coords), ring


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
        raise DegreeCapExceeded("no admissible subgroup within the degree cap")
    weights = _weight_list(len(reps))

    # the roots start as validation certified them
    prec = data.prec
    balls = list(data.roots)
    while True:
        bits = prec + 64
        gamma_cache: Dict[Tuple[int, ...], Dict[Perm, ComplexBall]] = {}
        unresolved_size: Optional[int] = None
        accepted = None
        for h_perms in candidates:
            if unresolved_size is not None and len(h_perms) > unresolved_size:
                break
            subgroup_dead = False
            unresolved_here = 0
            for weight in weights:
                if weight not in gamma_cache:
                    gamma_cache[weight] = {
                        w: lincomb(weight, [balls[w[rep]] for rep in reps])
                        for w in wprime}
                out = _try_candidate(h_perms, weight, reps,
                                     gamma_cache[weight], balls, sf_poly,
                                     iota, data.q, bits)
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
            # a subgroup certificate or exact rejections of every weight
            # exclude the candidate conclusively; otherwise it is open
            if (not subgroup_dead and unresolved_here
                    and unresolved_size is None):
                unresolved_size = len(h_perms)
        if accepted:
            h_perms, weight, (modulus, coords, ring) = accepted
            return SplittingField(modulus=modulus, degree=modulus.degree,
                                  weight=weight, orbit_reps=reps,
                                  root_coords=coords,
                                  group_perms=tuple(sorted(h_perms)),
                                  root_balls=tuple(balls), arithmetic=ring)
        if unresolved_size is None:
            # every candidate died on an exact certificate
            raise DegreeCapExceeded("splitting field degree exceeds the "
                                    f"cap {settings.degree_cap}")
        prec *= 2
        if prec > settings.precision_ceiling:
            raise PrecisionExhausted(
                f"splitting field undecided at {settings.precision_ceiling} bits")
        balls = refine_roots(data.real, prec)


def galois_group(field: SplittingField, data: WeilData) -> GaloisData:
    """Galois group of the splitting field with exact group checks.

    The construction already certified every permutation as the action of
    a field automorphism on the roots (see `_try_candidate`), so this
    operation checks only that the permutations form a group of the
    field's degree (see `galois_data`).
    """
    if len(field.group_perms) != field.degree:
        raise InternalInconsistency("group order differs from field degree")
    return galois_data(field.group_perms, data)


def galois_data(perms: Sequence[Perm], data: WeilData) -> GaloisData:
    """The group of the sorted permutations perms of the root indices,
    after exact checks that it contains the identity and centralizes the
    conjugation involution; closure holds when their greedy generators
    span exactly the set."""
    perms = list(perms)
    n_roots = len(data.iota)
    order = len(perms)
    ident = tuple(range(n_roots))
    perm_set = set(perms)
    if ident not in perm_set or data.iota not in perm_set:
        raise InternalInconsistency("group misses identity or conjugation")
    for a in perms:
        if _compose(a, data.iota) != _compose(data.iota, a):
            raise InternalInconsistency("conjugation is not central")

    # greedy generating set in canonical order; a span past |perms|
    # already refutes closure
    gens: List[Perm] = []
    span: Optional[FrozenSet[Perm]] = frozenset({ident})
    for p in perms:
        if p not in span:
            gens.append(p)
            span = _span(gens, n_roots, order)
            if span is None:
                break
    if span != perm_set:
        raise InternalInconsistency("group is not closed")
    return GaloisData(perms=tuple(perms), order=order,
                      generator_indices=tuple(perms.index(g) for g in gens))


# --- G = W' from Frobenius data alone ---

# generic_group reads the Frobenius cycle types of the first
# _CYCLE_TYPE_BUDGET primes below 2^10 that divide neither q nor the two
# discriminants: on g = 3, where the rarest classes of W' other than 1
# and iota have density 1/16, the budget misses one with probability
# about 2 (15/16)^128 < 10^-3
_CYCLE_TYPE_BUDGET = 128

# a signed cycle type: (k, positive k-cycles, negative k-cycles) for each
# cycle length k of the pairs, ascending
SignedType = Tuple[Tuple[int, int, int], ...]


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _abs_discriminant(poly: IntPoly) -> int:
    """|disc| of the monic poly: the Hankel determinant det [p_(i+j)] of
    its power sums is det(V^T V) = det(V)^2 for the Vandermonde matrix V
    of its roots."""
    n = poly.degree
    sums = power_sums(poly, 2 * n - 2)
    return abs(bareiss_solve([[sums[i + j] for j in range(n)]
                              for i in range(n)], [[0]] * n)[1])


def _partitions(n: int, top: int) -> List[Tuple[int, ...]]:
    """Partitions of n into parts at most top, parts descending."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, top), 0, -1)
            for rest in _partitions(n - k, k)]


def _signed_types(g: int) -> Set[SignedType]:
    """Every signed cycle type of W' = (Z/2)^g x| S_g, one per conjugacy
    class: a cycle type of the pairs, with each length's cycles split
    into positive and negative ones."""
    out = set()
    for part in _partitions(g, g):
        counts = Counter(part)
        lengths = sorted(counts)
        for negs in product(*(range(counts[k] + 1) for k in lengths)):
            out.add(tuple((k, counts[k] - b, b)
                          for k, b in zip(lengths, negs)))
    return out


def _signed_type(root_degrees: Sequence[int],
                 pair_degrees: Sequence[int]) -> SignedType:
    """The signed cycle type of an element of W' whose cycle lengths are
    root_degrees on the roots and pair_degrees on the pairs.  A k-cycle of
    pairs is positive when it lifts to two k-cycles of roots and negative
    when it lifts to one 2k-cycle, so the root k-cycles number twice the
    positive k-cycles plus the negative k/2-cycles; read by increasing
    k."""
    roots, pairs = Counter(root_degrees), Counter(pair_degrees)
    out = []
    neg: Dict[int, int] = {}
    for k in range(1, max(pairs) + 1):
        pos = (roots[k] - (neg.get(k // 2, 0) if k % 2 == 0 else 0)) // 2
        neg[k] = pairs[k] - pos
        if pairs[k]:
            out.append((k, pos, neg[k]))
    return tuple(out)


def _single_flip(root_degrees: Sequence[int], pair_degrees: Sequence[int],
                 g: int) -> bool:
    """Does the Frobenius element with these cycle lengths on the roots
    and on the pairs fix every pair and flip 1 or g - 1 of them, so that
    it, or it times iota, is a single flip?  (See generic_group.)"""
    return max(pair_degrees) == 1 and root_degrees.count(2) in (1, g - 1)


def generic_group(data: WeilData, cap: int) -> Optional[Tuple[Perm, ...]]:
    """W', sorted, when it is certified to be the Galois group G of a
    simple record with no real root, or with the one root +-sqrt(q); None
    when the certificate does not apply or fails, which leaves G to the
    field construction.

    For such a record W' is the signed permutation group (Z/2)^g x| S_g
    of the roots pi_i, pibar_i of the factor h.  For one conjugation
    orbit, {1, iota} or {1}, it is G.  For g >= 2 its abelianization is
    (Z/2)^2: the sign of the permutation of the pairs and the parity of
    the number of flips.  Those two characters and their product are
    trivial on G exactly when, in turn, Delta = disc(h+) (of the real
    Weil polynomial h+ with roots y_i = pi_i + pibar_i), delta^2 or
    Delta delta^2 is a rational square, with delta = prod (pi_i -
    pibar_i) and delta^2 = prod (y_i^2 - 4q) = N = A^2 - q B^2 for h+(2
    sqrt(q)) = A + B sqrt(q).  Any square leaves G inside an index-2
    subgroup; then None.  For g = 2, W' is dihedral of order 8, a 2-group
    whose maximal subgroups all have index 2, so no square proves G = W'.

    For g >= 3, Frobenius elements certify it.  For a prime ell that
    divides neither q nor disc(h) nor disc(h+), Dedekind's theorem makes
    the degrees of the factors of h and of h+ mod ell the cycle lengths,
    on the roots and on the pairs, of an element of G; together they give
    its signed cycle type (_signed_type), which names its conjugacy class
    in W'.  G contains 1 and iota, which is central, so once the first
    _CYCLE_TYPE_BUDGET such primes have shown every other class of W',
    G meets every conjugacy class, and by Jordan's lemma (a proper
    subgroup misses some class: the conjugates of H cover fewer than |W'|
    elements) G = W'.  Otherwise None.  Each element's order, the lcm of
    its cycle lengths, divides |G|, and so does the number 2g of roots, G
    being transitive on them.  So does 2^g g once some element is trivial
    on the pairs (h+ splits into linear factors mod ell) and flips 1 or
    g - 1 of them (h has that many factors of degree 2 mod ell): the
    restriction G -> G+ to the pairs has its kernel N inside the flips
    (Z/2)^g; the element, times iota in the second case, is a single flip
    in N; G+ is transitive on the pairs, h+ being irreducible, so the
    conjugates of that flip give N = (Z/2)^g, and |G| = |G+| 2^g with g
    dividing |G+|.  As soon as the lcm of these divisors exceeds cap,
    DegreeCapExceeded, as the field construction would end.

    A certified W' larger than cap raises DegreeCapExceeded too.
    """
    n = len(data.roots)
    if len(data.factors) != 1 or (data.real_root_indices and n > 1):
        return None
    q, g, h = data.q, n // 2, data.factors[0].poly
    if g > 1:
        hplus = real_weil_poly(h, q)
        disc = _abs_discriminant(hplus)         # positive: g real roots
        # h+(2 sqrt(q)) = A + B sqrt(q), from the even and odd coefficients
        coeffs = hplus.coefficients
        a = sum(c * (4 * q) ** j for j, c in enumerate(coeffs[0::2]))
        b = sum(2 * c * (4 * q) ** j for j, c in enumerate(coeffs[1::2]))
        norm = a * a - q * b * b
        if _is_square(disc) or _is_square(norm) or _is_square(disc * norm):
            return None
        if g > 2:
            unseen = _signed_types(g) - {((1, g, 0),), ((1, 0, g),)}
            bad = q * _abs_discriminant(h) * disc
            order = n               # the lcm of the orders seen, with 2g
            usable = (ell for ell in _SMALL_PRIMES if bad % ell)
            for ell in islice(usable, _CYCLE_TYPE_BUDGET):
                root_degrees = factor_degrees_mod(h, ell)
                pair_degrees = factor_degrees_mod(hplus, ell)
                order = lcm(order, *root_degrees)
                if _single_flip(root_degrees, pair_degrees, g):
                    order = lcm(order, 2 ** g * g)      # N = (Z/2)^g
                if order > cap:
                    raise DegreeCapExceeded(
                        f"splitting field degree exceeds the cap {cap}")
                unseen.discard(_signed_type(root_degrees, pair_degrees))
                if not unseen:
                    break
            else:
                return None
    if 2 ** g * factorial(g) > cap:
        raise DegreeCapExceeded(f"splitting field degree exceeds the cap {cap}")
    return tuple(_block_permutations(n, [data.factors[0].root_indices],
                                     data.iota))


# --- multiplicative words and torsion tests ---

def word_value(ring: ModRing, coords: Sequence[Elem],
               exponents: Sequence[int], q: int = 0,
               q_exponent: int = 0) -> Elem:
    """Exact value of prod_i coords[i]^exponents[i] * q^q_exponent.

    Negative exponents invert in the quotient ring; the q part is a
    rational scalar.  Raises ZeroDivisionError on non-invertible factors,
    which cannot happen for eigenvalue coordinates (they divide q).
    """
    acc = ring.const(1)
    for vec, e in zip(coords, exponents):
        if e:
            acc = ring.mul(acc, ring.pow(vec, e))
    return ring.scale(acc, q ** max(q_exponent, 0), q ** max(-q_exponent, 0))


def is_root_of_unity(ring: ModRing, elem: Elem) -> Optional[int]:
    """Exact order of elem if it is a root of unity, else None.

    An element of a degree-N field that is a root of unity is an algebraic
    integer whose minimal polynomial mu has degree phi(order), so order <=
    2 deg^2.  The trace gate rejects most non-integral elements first.
    The charpoly of elem is then integral exactly when elem is an
    algebraic integer, and, K being a field, it is a power of mu, so mu is
    its squarefree part.  The order itself comes from exact powering,
    never from numerics.
    """
    if elem == ring.const(1):
        return 1
    if elem == ring.const(-1):
        return 2
    tr, tr_den = ring.trace(elem)
    if tr_den != 1 or abs(tr) > ring.n:
        return None
    # the integer charpoly of den * elem; coefficient i of the charpoly of
    # elem is its coefficient i over den^(n-i)
    nums, den = elem
    chi = []
    for i, c in enumerate(ring.charpoly(nums)):
        c, rest = divmod(c, den ** (ring.n - i))
        if rest:
            return None
        chi.append(c)
    small = ModRing(IntPoly(chi).squarefree_part())
    d = small.n
    one = small.const(1)
    x = value = small.xbar()
    for t in range(1, 2 * d * d + 1):
        if value == one:
            return t
        value = small.mul(value, x)
    return None
