"""Enriched eigenvalue group, realization kernel, and Frobenius rank.

The group is presented on one symbol per distinct eigenvalue plus [q],
modulo [pi] + [pibar] = [q] for every conjugate pair and 2[pi] = [q] for a
real eigenvalue +-sqrt(q).  Its invariant factors follow from the
canonical root layout and are stated, not computed.  Each pair's row
e_i + e_ibar - e_q is the only row with an entry in the column of its
representative i.  With at most one real row 2e_i - e_q, those columns
and the [q] column hold a triangular maximal minor with diagonal +-1, so
every factor is 1: the group is free, with one basis symbol per
conjugation orbit, plus [q] unless a real eigenvalue already forces
[q] = 2[pi].  When both +sqrt(q) and -sqrt(q) occur, the difference of
their symbols is a 2-torsion class and the factors are (1, ..., 1, 2);
that is reported as TorsionDetected rather than silently quotiented
away.

The realization map rho sends symbols to the actual field elements;
Realization tabulates it on the canonical basis, and realize_coords
evaluates it exactly.  Its kernel is found by exhaustive box search in
basis coordinates (complete within the bound) merged with the torsion
relations; every vector entering the lattice is verified to realize to
exactly 1 in the splitting field.  Torsion relations -- exponent vectors
over the eigenvalues whose realization is a root of unity -- live in
root coordinates, come from a second box search and lattice-reduction
candidates, are evaluated through the same rho, and feed the kernel.
One accumulator, _Relations, holds each lattice: it skips every vector
already in its HNF lattice and keeps the rest exactly when their
relation test passes.

Both box searches are certified.  A weight-0 word has modulus 1, so it
realizes to 1 exactly when its angle sum is a whole number of turns, and
to a root of unity exactly when _orders_lcm(deg K) times that sum is.
Each root angle is a fixed-point integer with a certified error bound,
and a meet-in-the-middle scan yields every box vector whose integer sum
lies within the summed error of a whole turn, in lexicographic order:
no true relation in the box is ever skipped, and exact verification
rejects the rest.

The torsion scan stops at rank T, the rank of the torsion lattice,
which p-adic slopes certify before it starts.  Each eigenvalue has
modulus sqrt(q) at every complex place and is a unit away from p, so by
Kronecker a sum-zero word is a root of unity exactly when its valuation
vanishes at every prime above p.  With s(i) = v_P(pi_i) at one prime P
above p, those primes being sigma P for sigma in G, T is the integer
kernel of the rows (1, ..., 1) and s o sigma.  The Newton polygon of each
factor leaves few valuations s; the true one is among them, so when all
their kernel ranks agree that rank is rank T, and otherwise it is the
largest rank whose kernel basis realizes to roots of unity under rho.

The Frobenius rank comes from the certificate alone: [q] = [pi] +
[pibar] puts [q] in the span of the eigenvalue symbols, so r =
rank<pi_1, ..., pi_s> - 1 = s - 1 - rank T.  The kernel agrees once the
torsion scan reaches rank T: a torsion relation a of order t feeds t*a
to the kernel, every element of ker rho is a word of T after [q] = [pi]
+ [pibar], and the words of T that vanish in Eig (pi_i pibar_i / pi_j
pibar_j) have rank #orbits - 1, so rank(Eig) - 1 - rank(kernel) = (s +
1 - #orbits) - 1 - (rank T - #orbits + 1) = s - 1 - rank T, and ker rho
= 0 exactly when rank T = #orbits - 1.  A relation both searches miss
costs the kernel only: its index (q=4 [4,2,1] misses (6, -3), which
realizes to 1, and keeps (24, -12), of index 4), or its rank, shown as
a false kernel_rank_identity_ok where that key is defined.

The lattice-reduction candidates come from rounded angle midpoints;
acceptance and rejection everywhere rest on exact arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from .errors import (DegreeCapExceeded, InternalInconsistency,
                     MalformedInput, PrecisionExhausted, TorsionDetected)
from .exactmath.latt import (hnf_rows, in_row_lattice,
                             lattice_saturation_index, relation_candidates)
from .exactmath.roots import arg_ball, two_pi_ball
from .splitfield import (Elem, Perm, SplittingField, galois_group,
                         is_root_of_unity, orbit_representatives)
from .weil import WeilData, base_changes

if TYPE_CHECKING:
    from .analysis import Analysis

Coords = Tuple[int, ...]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


@dataclass(frozen=True)
class EigElement:
    """Element of the eigenvalue group in canonical basis coordinates."""
    coords: Coords
    weight: int


@dataclass(frozen=True)
class EigGroup:
    """Presentation and canonical basis of the eigenvalue group.

    symbol_coords[i] expresses the i-th distinct eigenvalue symbol in the
    canonical basis; q_coords does the same for [q].  basis_roots holds
    the root index realized by each basis position, with None marking the
    [q] slot when it survives elimination.
    """
    n_roots: int
    iota: Tuple[int, ...]
    orbit_reps: Tuple[int, ...]
    symbols: Tuple[str, ...]
    relation_matrix: Tuple[Coords, ...]
    invariant_factors: Tuple[int, ...]
    basis_labels: Tuple[str, ...]
    basis_roots: Tuple[Optional[int], ...]
    rank: int
    weight_vector: Tuple[int, ...]
    symbol_coords: Tuple[Coords, ...]
    q_coords: Coords

    def element(self, coords: Sequence[int]) -> EigElement:
        vec = tuple(int(c) for c in coords)
        if len(vec) != self.rank:
            raise MalformedInput("coordinate length does not match rank")
        return EigElement(vec, _dot(self.weight_vector, vec))


@dataclass(frozen=True)
class RelationLattice:
    """Verified multiplicative relations, HNF rows in basis coordinates.

    Exhaustive within the max-norm search bound, by a certified scan;
    torsion relations may add longer vectors.  The lattice is not
    saturated: realizing to a root of unity other than 1 does not
    qualify, so the saturation index is reported rather than divided out.
    """
    basis: Tuple[Coords, ...]
    rank: int
    saturation_index: int


def build_eig_group(data: WeilData) -> EigGroup:
    """Present the eigenvalue group; its invariant factors are read off
    the root layout (see the module docstring)."""
    s = len(data.roots)
    iota = data.iota
    reps = orbit_representatives(data)
    rows: List[Coords] = []
    for i in reps:
        row = [0] * (s + 1)
        if iota[i] == i:
            row[i] = 2
        else:
            row[i] = 1
            row[iota[i]] = 1
        row[s] = -1
        rows.append(tuple(row))
    real = [i for i in reps if iota[i] == i]
    if len(real) > 1:
        raise TorsionDetected(
            "eigenvalue group presentation has torsion (two real "
            "eigenvalues force a 2-torsion class)",
            invariant_factors=(1,) * (len(rows) - 1) + (2,))
    symbols = tuple("pi_%d" % i for i in range(s)) + ("q",)

    basis_roots: List[Optional[int]]
    if real:
        basis_roots = list(reps)
        q_coords = tuple(2 if reps[j] == real[0] else 0
                         for j in range(len(reps)))
    else:
        basis_roots = list(reps) + [None]
        q_coords = tuple(0 for _ in reps) + (1,)
    # one generator per symbol and one relation per orbit, all factors 1
    rank = (s + 1) - len(rows)

    pos_of = {r: j for j, r in enumerate(reps)}
    unit = lambda j: tuple(1 if t == j else 0 for t in range(rank))
    symbol_coords: List[Coords] = []
    for i in range(s):
        if i in pos_of:
            symbol_coords.append(unit(pos_of[i]))
        else:
            r = iota[i]
            symbol_coords.append(tuple(qc - u for qc, u
                                       in zip(q_coords, unit(pos_of[r]))))
    weight_vector = tuple(1 if br is not None else 2 for br in basis_roots)
    labels = tuple(symbols[br] if br is not None else "q"
                   for br in basis_roots)
    return EigGroup(n_roots=s, iota=iota, orbit_reps=reps, symbols=symbols,
                    relation_matrix=tuple(rows),
                    invariant_factors=(1,) * len(rows),
                    basis_labels=labels, basis_roots=tuple(basis_roots),
                    rank=rank, weight_vector=weight_vector,
                    symbol_coords=tuple(symbol_coords), q_coords=q_coords)


def action_rows(eig: EigGroup, sigma: Sequence[int]) -> Tuple[Coords, ...]:
    """Images of the basis vectors under the root permutation sigma ([q]
    stays fixed), after checking that sigma permutes the roots, commutes
    with conjugation and keeps the weight of every basis vector."""
    s = eig.n_roots
    perm = tuple(sigma)
    if sorted(perm) != list(range(s)):
        raise MalformedInput("not a permutation of the root indices")
    if any(perm[eig.iota[i]] != eig.iota[perm[i]] for i in range(s)):
        raise MalformedInput("permutation does not commute with conjugation")
    rows = tuple(eig.q_coords if br is None else eig.symbol_coords[perm[br]]
                 for br in eig.basis_roots)
    if any(_dot(eig.weight_vector, row) != w
           for row, w in zip(rows, eig.weight_vector)):
        raise InternalInconsistency("conjugation changed the weight")
    return rows


def apply_rows(rows: Sequence[Coords], coords: Sequence[int]) -> Coords:
    """Basis coordinates of the image of coords under action rows, or of
    the word coords in the roots under rows = eig.symbol_coords."""
    out = [0] * len(rows[0])
    for c, row in zip(coords, rows):
        if c:
            for t, x in enumerate(row):
                if x:
                    out[t] += c * x
    return tuple(out)


# --- relation searches ---

# B: angle sums are fixed-point fractions of a full turn, taken mod 2^B
_FIX_BITS = 64


@functools.lru_cache(maxsize=None)
def _orders_lcm(n: int) -> int:
    """lcm of every m with phi(m) | n.

    A root of unity of order m in a degree-n field K puts Q(zeta_m) inside
    K, so phi(m) | n: every such order divides this lcm.  phi(m) >=
    sqrt(m / 2) bounds the candidates by 2 n^2.
    """
    top = 2 * n * n
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:                      # untouched, so p is prime
            for m in range(p, top + 1, p):
                phi[m] -= phi[m] // p
    out = 1
    for m in range(1, top + 1):
        if n % phi[m] == 0:
            out = math.lcm(out, m)
    return out


def _turns(arg_balls: Sequence[Tuple[Fraction, Fraction]],
           two_pi: Tuple[Fraction, Fraction]) -> Tuple[List[int], List[int]]:
    """Fixed-point turns: F_i and E_i with |F_i - theta_i/(2 pi) * 2^B| <=
    E_i for every theta_i in the i-th argument enclosure.

    With mid_i, P the midpoints and rad_i, rho the radii of the enclosures
    of theta_i and 2 pi, theta_i / 2pi and mid_i / P differ by at most
    rad_i / 2pi + |mid_i| rho / (2pi P) < rad_i + rho, as |mid_i| < 4 <
    2pi P; the floor below adds less than one unit.
    """
    pm, pr = two_pi
    slack = -((-pr.numerator << _FIX_BITS) // pr.denominator) + 1
    fix, err = [], []
    for mid, rad in arg_balls:
        fix.append((mid.numerator * pm.denominator << _FIX_BITS)
                   // (mid.denominator * pm.numerator))
        err.append(-((-rad.numerator << _FIX_BITS) // rad.denominator) + slack)
    return fix, err


def _partials(span: range, weights: Sequence[int], fix: Sequence[int]):
    """(weight, fixed-point sum, vector) for every vector of the box over
    these coordinates, in lexicographic order."""
    out = [(0, 0, ())]
    for w, f in zip(weights, fix):
        out = [(pw + c * w, pf + c * f, vec + (c,))
               for pw, pf, vec in out for c in span]
    return out


def _box_hits(bound: int, weights: Sequence[int], fix: Sequence[int],
              err: int):
    """Nonzero vectors a with max-norm <= bound, weights . a = 0 and
    fix . a within err of 0 mod 2^B, in lexicographic order.

    Meet in the middle: the last ceil(dim/2) coordinates go into a table
    keyed by (weight, high bits of the sum mod 2^B), with buckets 2^shift
    > err wide, so each prefix finds its matches in the bucket of the
    wanted sum and its two neighbours (wrapping at 0 and 2^B).
    """
    cut = len(weights) // 2
    span = range(-bound, bound + 1)
    mask = (1 << _FIX_BITS) - 1
    shift = err.bit_length()
    buckets = 1 << max(_FIX_BITS - shift, 0)
    table: Dict[Tuple[int, int], List[Tuple[int, Coords]]] = {}
    for w, t, tail in _partials(span, weights[cut:], fix[cut:]):
        t &= mask
        table.setdefault((w, t >> shift), []).append((t, tail))
    for w, want, head in _partials(span, weights[:cut], fix[:cut]):
        want = -want & mask
        centre = want >> shift
        tails = [tail
                 for b in {(centre - 1) % buckets, centre,
                           (centre + 1) % buckets}
                 for t, tail in table.get((-w, b), ())
                 if (t - want + err) & mask <= 2 * err]
        tails.sort()
        nonzero = any(head)
        for tail in tails:
            if nonzero or any(tail):
                yield head + tail


class Realization:
    """The realization map rho on basis coordinates, exact in the
    splitting field.

    rho(b_j)^e is tabulated for each basis root position j, grown on
    demand.  Negative powers need no field inversion: 1/rho(b_j) =
    rho(bbar_j)/q, exact because the field construction verified
    r * rbar = q for every root.  The [q] slot is the rational scalar q.
    With the tables filled, rho of a vector costs at most rank - 1 ring
    products.
    """

    def __init__(self, eig: EigGroup, field: SplittingField, q: int):
        self.ring = field.ring()
        self.q = q
        self.q_slot = eig.basis_roots.index(None) \
            if None in eig.basis_roots else None
        one = self.ring.const(1)
        coords = field.root_coords
        # position -> [rho(b_j)^0, rho(b_j)^1, ...] and the same for the
        # inverse, grown on demand
        self.up: Dict[int, List[Elem]] = {
            j: [one, coords[br]]
            for j, br in enumerate(eig.basis_roots) if br is not None}
        self.down: Dict[int, List[Elem]] = {
            j: [one, self.ring.scale(coords[eig.iota[br]], 1, q)]
            for j, br in enumerate(eig.basis_roots) if br is not None}

    def power(self, j: int, e: int) -> Elem:
        """rho(b_j)^e for the basis root position j."""
        table = self.up[j] if e >= 0 else self.down[j]
        while len(table) <= abs(e):
            table.append(self.ring.mul(table[-1], table[1]))
        return table[abs(e)]


def realize_coords(rho: Realization, a: Sequence[int]) -> Elem:
    """Field element realizing the basis-coordinate vector a under rho."""
    acc: Optional[Elem] = None
    for j in rho.up:
        if a[j]:
            p = rho.power(j, a[j])
            acc = p if acc is None else rho.ring.mul(acc, p)
    if acc is None:
        acc = rho.ring.const(1)
    if rho.q_slot is not None and a[rho.q_slot]:
        e = a[rho.q_slot]
        return rho.ring.scale(acc, rho.q ** max(e, 0), rho.q ** max(-e, 0))
    return acc


def _newton_valuations(coeffs: Sequence[int], p: int) -> List[Fraction]:
    """v_p of every root of the polynomial with these coefficients (low to
    high, constant term nonzero) over Q_p, with multiplicity: minus the
    slope of each segment of the lower hull of the points (i, v_p(a_i)),
    once per unit of its length."""
    def v(c: int) -> int:
        t = 0
        while c % p == 0:
            c, t = c // p, t + 1
        return t

    hull: List[Tuple[int, int]] = []
    for x, y in ((i, v(c)) for i, c in enumerate(coeffs) if c):
        # drop the last point while it lies on or above the chord
        while len(hull) > 1:
            (x0, y0), (x1, y1) = hull[-2:]
            if (x1 - x0) * (y - y0) > (y1 - y0) * (x - x0):
                break
            hull.pop()
        hull.append((x, y))
    return [Fraction(y0 - y1, x1 - x0)
            for (x0, y0), (x1, y1) in zip(hull, hull[1:])
            for _ in range(x1 - x0)]


def _factor_firsts(vals: Sequence[int], n_pairs: int,
                   ed: int) -> List[Tuple[int, ...]]:
    """Every way to give the factor's n_pairs conjugate pairs their first
    values, the second being ed minus the first: the pair types {v, ed -
    v} of the scaled valuations vals, distributed over the pairs and each
    pair oriented both ways."""
    lows = [v for v in vals if 2 * v < ed]
    types = lows + [ed // 2] * (n_pairs - len(lows))
    return sorted({t for dist in set(permutations(types))
                   for t in product(*[(v, ed - v) for v in dist])})


def _slope_rows(data: WeilData,
                perms: Sequence[Perm]) -> List[Tuple[Coords, ...]]:
    """The row sets {s o sigma : sigma in G}, sorted, of every valuation s
    on the roots that the Newton polygons allow: scaled by the lcm D of
    the slope denominators, s takes each factor's valuations, s(i) +
    s(iota i) = eD and a real root gets eD/2.  The true s = D v_P, for
    one prime P above p, is among them."""
    iota = data.iota
    vals = [_newton_valuations(f.poly.coefficients, data.p)
            for f in data.factors]
    scale = math.lcm(*(v.denominator for vs in vals for v in vs))
    ed = data.e * scale
    pairs = [[i for i in f.root_indices if i < iota[i]] for f in data.factors]
    choices = [_factor_firsts([int(v * scale) for v in vs], len(ps), ed)
               for vs, ps in zip(vals, pairs)]
    row_sets = set()
    for choice in product(*choices):
        s = [ed // 2] * len(iota)
        for ps, firsts in zip(pairs, choice):
            for i, v in zip(ps, firsts):
                s[i], s[iota[i]] = v, ed - v
        row_sets.add(tuple(sorted({tuple(s[j] for j in sigma)
                                   for sigma in perms})))
    return sorted(row_sets)


def _torsion_rank(data: WeilData, perms: Sequence[Perm], eig: EigGroup,
                  rho: Callable[[], Realization]) -> int:
    """rank T of the sum-zero words in the roots that realize to roots of
    unity, from the candidate row sets of _slope_rows.

    T is the integer kernel of (1, ..., 1) and the true row set.  When
    every candidate's kernel has one rank, that is rank T.  Otherwise
    the candidates are tried by decreasing rank: a kernel whose basis
    realizes to roots of unity under rho() lies in T, so no candidate of
    rank above rank T passes, and the true one does.
    """
    ones = (1,) * eig.n_roots
    ranked = sorted(((eig.n_roots - len(hnf_rows((ones,) + rows)), rows)
                     for rows in _slope_rows(data, perms)), reverse=True)
    if ranked[0][0] == ranked[-1][0]:
        return ranked[0][0]
    realization = rho()
    for k, rows in ranked:
        m = len(rows) + 1
        # the zero-prefix rows of the HNF of [M^T | I] span ker M
        lattice = hnf_rows([col + tuple(int(t == i) for t in range(len(ones)))
                            for i, col in enumerate(zip(ones, *rows))])
        if all(is_root_of_unity(realization.ring, realize_coords(
                realization, apply_rows(eig.symbol_coords, row[m:])))
               for row in lattice if not any(row[:m])):
            return k
    raise InternalInconsistency("no slope candidate's kernel is torsion")


class _Relations:
    """Verified relations spanning one lattice, with their HNF rows.

    add(a) skips a when it already lies in the row lattice (the zero
    vector always does), and otherwise keeps it exactly when test(a)
    returns its order; test is never asked about a lattice vector.  A
    vector test rejects can never enter the lattice later, as every
    lattice vector passes test, so asking again changes nothing.
    """

    def __init__(self, test: Callable[[Coords], Optional[int]]):
        self.test = test
        self.found: List[Tuple[Coords, int]] = []      # (vector, order)
        self.rows: Tuple[Coords, ...] = ()

    def add(self, a: Coords) -> None:
        if in_row_lattice(self.rows, a):
            return
        order = self.test(a)
        if order is not None:
            self.found.append((tuple(a), order))
            self.rows = hnf_rows(self.rows + (tuple(a),))


def _relation_engine(field: SplittingField, eig: EigGroup, bound: int,
                     rho: Realization, torsion_rank: int) -> RelationLattice:
    """The kernel lattice: verified relations among the eigenvalues and q.

    Runs the kernel box scan, the torsion box scan until the torsion
    lattice reaches torsion_rank (see _torsion_rank), and the torsion
    lattice-reduction candidates; each verified torsion relation a of
    order t adds t*a to the kernel, its only use.  Each box search visits
    exactly the box vectors whose certified fixed-point angle sum passes
    its relation test, a superset of the relations in the box, in
    lexicographic order; as a _Relations keeps nothing from a
    non-relation, the result depends only on the relations.  Both
    lattices are evaluated through rho, the realization map of eig in
    field.
    """
    ring = field.ring()
    s = eig.n_roots
    one = ring.const(1)
    root_arg_balls = [arg_ball(ball, 128) for ball in field.root_balls]
    two_pi = two_pi_ball(128)

    def kernel_test(a: Coords) -> Optional[int]:
        # a word realizing to 1 has modulus 1, so weight 0
        if _dot(eig.weight_vector, a) == 0 and realize_coords(rho, a) == one:
            return 1
        return None

    def torsion_test(a: Coords) -> Optional[int]:
        # a root of unity has modulus 1, so the exponents sum to 0
        if sum(a) != 0:
            return None
        return is_root_of_unity(
            ring, realize_coords(rho, apply_rows(eig.symbol_coords, a)))

    kernel = _Relations(kernel_test)
    torsion = _Relations(torsion_test)

    # a weight-0 word has modulus 1, so it realizes to 1 exactly when its
    # angle sum is a whole number of turns; the [q] slot has angle 0
    turns, turn_err = _turns(root_arg_balls, two_pi)
    fix = [0 if br is None else turns[br] for br in eig.basis_roots]
    err = bound * sum(0 if br is None else turn_err[br]
                      for br in eig.basis_roots)
    for a in _box_hits(bound, eig.weight_vector, fix, err):
        kernel.add(a)

    # a sum-zero word has modulus 1 and lies in the field, so it is a root
    # of unity exactly when _orders_lcm(deg K) times its angle sum is a
    # whole number of turns.  The slopes certify the torsion lattice's
    # rank (Kronecker: valuation 0 at every prime above p), and verified
    # torsion never exceeds it, so the scan stops there: a further
    # relation could change only the kernel's index.
    lcm = _orders_lcm(ring.n)
    fix = [lcm * f for f in turns]
    hits = _box_hits(bound, (1,) * s, fix, lcm * bound * sum(turn_err))
    while len(torsion.rows) < torsion_rank:
        a = next(hits, None)
        if a is None:
            break
        torsion.add(a)

    # a word is torsion exactly when its primitive vector is, and the
    # primitive vector spans the larger lattice
    for cand in relation_candidates(root_arg_balls, two_pi,
                                    max(16, 4 * bound)):
        g = math.gcd(*cand)
        torsion.add(tuple(c // g for c in cand))

    # a torsion relation of order t yields the kernel vector t * a
    for vec, order in torsion.found:
        kernel.add(apply_rows(eig.symbol_coords, [order * c for c in vec]))

    return RelationLattice(
        basis=kernel.rows, rank=len(kernel.rows),
        saturation_index=lattice_saturation_index(
            [list(row) for row in kernel.rows]))


def frobenius_rank(data: WeilData, field: SplittingField,
                   eig: EigGroup) -> int:
    """Rank of the multiplicative group of the eigenvalues, minus one:
    s - 1 - rank T, from the slope certificate (see _torsion_rank)."""
    perms = galois_group(field, data).perms
    return eig.n_roots - 1 - _torsion_rank(
        data, perms, eig, lambda: Realization(eig, field, data.q))


# Base-change degrees k = 2..12 scanned for multiplicity growth.  The
# batch store pins this range: a larger one changes report bytes and
# needs a __version__ bump.
_GROWTH_RANGE = range(2, 13)


def _multiplicity_growth_at(data: WeilData) -> Optional[int]:
    """First k in _GROWTH_RANGE where the multiplicity of a simple input
    grows under base change, or None."""
    degree = data.factors[0].poly.degree
    for k, changed in zip(_GROWTH_RANGE,
                          base_changes(data.poly, _GROWTH_RANGE)):
        if changed.squarefree_part().degree < degree:
            return k
    return None


def _growth(an: Analysis) -> Optional[int]:
    """multiplicity_growth_at of a simple record.  Growth at k means
    pi_i^k = pi_j^k for some i != j, that is, the word k (e_i - e_j)
    realizes to 1.  e_i - e_j is nonzero in the torsion-free Eig, so an
    injective rho rules growth out with no base change.  A record whose
    injectivity ends in a bound failure keeps the base-change scan."""
    try:
        if an.injective:
            return None
    except (DegreeCapExceeded, PrecisionExhausted):
        pass
    return _multiplicity_growth_at(an.data)


def invariants_report(an: Analysis) -> Dict[str, object]:
    """Bundle of the numerical invariants driving the main positivity
    statement; a splitting-field failure stored in the analysis marks
    the affected fields undetermined."""
    data = an.data
    report: Dict[str, object] = {
        "q": data.q, "p": data.p, "e": data.e, "g": data.g,
        "simple": data.is_simple,
        "real_roots": len(data.real_root_indices),
        "distinct_roots": len(data.roots),
    }
    if data.is_simple:
        report["multiplicity"] = data.multiplicity
        report["center_degree"] = data.factors[0].poly.degree
        # for P = h^m the k-th powers of the roots of h stay Galois
        # conjugate, so base_change(P, k) is a power of the minimal
        # polynomial of pi^k: a simple input stays isotypic for every k
        report["geometrically_isotypic"] = True
        report["multiplicity_growth_at"] = _growth(an)
    else:
        report["multiplicity"] = None
        report["center_degree"] = sum(f.poly.degree for f in data.factors)
        report["geometrically_isotypic"] = None
        report["multiplicity_growth_at"] = None

    report["rank_eig"] = an.eig.rank
    report["torsion_free"] = True
    report["basis_labels"] = list(an.eig.basis_labels)

    reason = an.undetermined()
    if reason:
        missing = ["frobenius_rank", "kernel_rank", "kernel_basis",
                   "saturation_index", "splitting_degree", "rank_bound_ok",
                   "kernel_rank_identity_ok"]
        report.update(dict.fromkeys(missing))
        report["undetermined"] = missing
        report["undetermined_reason"] = reason
        return report

    lattice, r = an.relations, an.r
    report["splitting_degree"] = an.gal.order
    report["frobenius_rank"] = r
    report["kernel_rank"] = lattice.rank
    report["kernel_basis"] = [list(row) for row in lattice.basis]
    # the certified scan is complete within the option's bound
    report["kernel_complete_within_bound"] = True
    report["search_bound"] = an.settings.search_bound
    report["saturation_index"] = lattice.saturation_index

    if data.is_simple:
        gm = data.g // data.multiplicity
        report["rank_bound_ok"] = 0 <= r <= gm
        if not data.real_root_indices:
            report["kernel_rank_identity_ok"] = (lattice.rank == gm - r)
        else:
            report["kernel_rank_identity_ok"] = None
    else:
        report["rank_bound_ok"] = None
        report["kernel_rank_identity_ok"] = None
    report["undetermined"] = []
    return report
