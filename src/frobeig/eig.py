"""Enriched eigenvalue group, realization kernel, and Frobenius rank.

The group is presented on one symbol per distinct eigenvalue plus [q],
modulo [pi] + [pibar] = [q] for every conjugate pair and 2[pi] = [q] for a
real eigenvalue +-sqrt(q).  Smith reduction of the relation matrix
certifies freeness (all invariant factors 1) and fixes the canonical
basis: one symbol per conjugation orbit, plus [q] unless a real eigenvalue
already forces [q] = 2[pi].  Two distinct real eigenvalues force a
2-torsion class, which is reported as TorsionDetected rather than silently
quotiented away.

The realization map rho sends symbols to the actual field elements;
Realization tabulates it on the canonical basis, and realize_coords
evaluates it exactly.  Its kernel is found by exhaustive box search in
basis coordinates (complete within the bound) merged with
lattice-reduction candidates; every vector entering the lattice is
verified to realize to exactly 1 in the splitting field.  Torsion
relations -- exponent vectors over the eigenvalues whose realization is
a root of unity -- live in root coordinates and drive the Frobenius
rank.  Each search feeds its verified vectors to the other, so
the bookkeeping identity rank(ker rho) + r + 1 = rank(Eig) is genuinely
checked rather than assumed: a violation raises InternalInconsistency.

Floating-point angle data only ever selects which exact verifications to
attempt; acceptance and rejection both rest on exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .config import DEFAULT, Settings
from .errors import InternalInconsistency, MalformedInput, TorsionDetected
from .exactmath.latt import (hermite_column_form, invariant_factors,
                             lattice_saturation_index, relation_candidates)
from .exactmath.roots import arg_ball, two_pi_ball
from .splitfield import (SplittingField, is_root_of_unity,
                         orbit_representatives, word_value)
from .weil import WeilData, base_change

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

    def q_element(self, n: int = 1) -> EigElement:
        return self.element(tuple(n * c for c in self.q_coords))

    def root_element(self, i: int) -> EigElement:
        return self.element(self.symbol_coords[i])


@dataclass(frozen=True)
class RelationLattice:
    """Verified multiplicative relations, HNF rows in basis coordinates.

    Exhaustive within the max-norm search bound; lattice-reduction
    candidates may add longer vectors.  The lattice is not saturated:
    realizing to a root of unity other than 1 does not qualify, so the
    saturation index is reported rather than divided out.
    """
    basis: Tuple[Coords, ...]
    rank: int
    search_bound: int
    complete_within_bound: bool
    saturation_index: int


def build_eig_group(data: WeilData) -> EigGroup:
    """Present the eigenvalue group and certify freeness by Smith reduction."""
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
    factors = tuple(invariant_factors([list(r) for r in rows]))
    if any(f != 1 for f in factors):
        raise TorsionDetected(
            "eigenvalue group presentation has torsion (two real "
            "eigenvalues force a 2-torsion class)",
            invariant_factors=factors)

    real = [i for i in reps if iota[i] == i]
    if len(real) > 1:
        raise InternalInconsistency(
            "two real eigenvalues escaped the Smith certificate")
    symbols = tuple("pi_%d" % i for i in range(s)) + ("q",)

    rank = (s + 1) - len(rows)
    basis_roots: List[Optional[int]]
    if real:
        basis_roots = list(reps)
        q_coords = tuple(2 if reps[j] == real[0] else 0
                         for j in range(len(reps)))
    else:
        basis_roots = list(reps) + [None]
        q_coords = tuple(0 for _ in reps) + (1,)
    if rank != len(basis_roots):
        raise InternalInconsistency("basis size disagrees with Smith rank")

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
                    relation_matrix=tuple(rows), invariant_factors=factors,
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
    """Basis coordinates of the image of coords under action rows."""
    out = [0] * len(coords)
    for c, row in zip(coords, rows):
        if c:
            for t, x in enumerate(row):
                if x:
                    out[t] += c * x
    return tuple(out)


def galois_action(eig: EigGroup, sigma: Sequence[int],
                  elem: EigElement) -> EigElement:
    """Image of elem under the root permutation sigma ([q] stays fixed)."""
    return eig.element(apply_rows(action_rows(eig, sigma), elem.coords))


# --- relation searches ---

def _hnf_rows(vectors: Sequence[Coords], dim: int) -> Tuple[Coords, ...]:
    if not vectors:
        return ()
    mat = [[vec[r] for vec in vectors] for r in range(dim)]
    h = hermite_column_form(mat)
    if not h or not h[0]:
        return ()
    return tuple(tuple(h[r][c] for r in range(dim))
                 for c in range(len(h[0])))


def _in_row_lattice(rows: Sequence[Coords], vec: Sequence[int]) -> bool:
    """Exact membership of vec in the row lattice (rows in echelon form)."""
    v = list(vec)
    for row in rows:
        piv = next(i for i, c in enumerate(row) if c)
        if v[piv] % row[piv] == 0:
            f = v[piv] // row[piv]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


def _near_rational(x: float, max_den: int, tol: float) -> bool:
    """Is x within tol of a rational with denominator <= max_den?"""
    a0 = math.floor(x)
    frac = x - a0
    p_prev, q_prev, p_cur, q_cur = 1, 0, a0, 1
    while q_cur <= max_den:
        if abs(x - p_cur / q_cur) <= tol:
            return True
        if frac < 1e-12:
            break
        inv = 1.0 / frac
        a = math.floor(inv)
        frac = inv - a
        p_prev, q_prev, p_cur, q_cur = (
            p_cur, q_cur, a * p_cur + p_prev, a * q_cur + q_prev)
    return False


_TWO_PI = 2.0 * math.pi
# prefilter slack: float angle sums are accurate to ~1e-12 here, true
# relations sit exactly on the lattice, so these margins cannot drop one
_KERNEL_MARGIN = 1e-2
_TORSION_TOL = 1e-7


def _root_args(field: SplittingField) -> List[float]:
    return [float(arg_ball(ball, 96)[0]) for ball in field.root_balls]


def _weight_zero_box(bound: int, weights: Sequence[int]):
    """All nonzero vectors with max-norm <= bound and weights . a = 0."""
    span = range(-bound, bound + 1)
    for a in itertools.product(span, repeat=len(weights)):
        if any(a) and _dot(weights, a) == 0:
            yield a


def _balanced_box(bound: int, dim: int):
    """Nonzero vectors with max-norm <= bound and coordinate sum 0,
    enumerated with partial-sum pruning (all weights equal 1)."""
    if dim == 0:
        return
    vec = [0] * dim

    def rec(pos: int, total: int):
        if pos == dim - 1:
            last = -total
            # the zero vector is excluded at the leaf
            if abs(last) <= bound and (last or any(vec[:dim - 1])):
                vec[dim - 1] = last
                yield tuple(vec)
            return
        remaining = dim - 1 - pos
        for c in range(-bound, bound + 1):
            if abs(total + c) <= bound * remaining:
                vec[pos] = c
                yield from rec(pos + 1, total + c)

    yield from rec(0, 0)


class Realization:
    """The realization map rho on basis coordinates, exact in the
    splitting field.

    rho(b_j)^e is tabulated for each basis root position j on first use;
    negative powers start from one ring.inv per basis root, and the [q]
    slot is the rational scalar q.  With the tables filled, rho of a
    vector costs at most rank - 1 ring products.
    """

    def __init__(self, eig: EigGroup, field: SplittingField, q: int):
        self.ring = field.ring()
        self.q = q
        self.q_slot = eig.basis_roots.index(None) \
            if None in eig.basis_roots else None
        one = self.ring.const(1)
        # position -> [rho(b_j)^0, rho(b_j)^1, ...], grown on demand
        self.up: Dict[int, List[List[Fraction]]] = {
            j: [one, list(field.root_coords[br])]
            for j, br in enumerate(eig.basis_roots) if br is not None}
        self.down: Dict[int, List[List[Fraction]]] = {}

    def power(self, j: int, e: int) -> List[Fraction]:
        """rho(b_j)^e for the basis root position j (not a copy)."""
        if e >= 0:
            table = self.up[j]
        else:
            if j not in self.down:
                self.down[j] = [self.up[j][0], self.ring.inv(self.up[j][1])]
            table = self.down[j]
        while len(table) <= abs(e):
            table.append(self.ring.mul(table[-1], table[1]))
        return table[abs(e)]


def realize_coords(rho: Realization, a: Sequence[int]) -> List[Fraction]:
    """Field element realizing the basis-coordinate vector a under rho."""
    acc: Optional[List[Fraction]] = None
    for j in rho.up:
        if a[j]:
            p = rho.power(j, a[j])
            acc = p if acc is None else rho.ring.mul(acc, p)
    if acc is None:
        acc = rho.ring.const(1)
    if rho.q_slot is not None and a[rho.q_slot]:
        scale = Fraction(rho.q) ** a[rho.q_slot]
        return [c * scale for c in acc]
    return list(acc)


def _to_root_coords(eig: EigGroup, a: Sequence[int]) -> Coords:
    """Substitute [q] = [pi_0][pibar_0] (or the square of the real root)
    to re-express a basis-coordinate vector over the root symbols."""
    exps = [0] * eig.n_roots
    for j, br in enumerate(eig.basis_roots):
        if br is None:
            i0 = eig.orbit_reps[0]
            exps[i0] += a[j]
            exps[eig.iota[i0]] += a[j]
        else:
            exps[br] += a[j]
    return tuple(exps)


def _to_basis_coords(eig: EigGroup, a: Sequence[int]) -> Coords:
    out = [0] * eig.rank
    for i, c in enumerate(a):
        if c:
            for t in range(eig.rank):
                out[t] += c * eig.symbol_coords[i][t]
    return tuple(out)


def _relation_engine(data: WeilData, field: SplittingField, eig: EigGroup,
                     bound: int, rho: Realization
                     ) -> Tuple[RelationLattice, int, int]:
    """Kernel lattice, torsion-relation rank, and Frobenius rank.

    Runs both bounded searches, cross-feeds verified vectors, and checks
    the rank bookkeeping before returning.  Kernel vectors are verified
    through rho, the realization map of eig in field.
    """
    ring = field.ring()
    s = eig.n_roots
    one = ring.const(1)
    args = _root_args(field)

    basis_args = [0.0 if br is None else args[br] for br in eig.basis_roots]

    def verify_kernel(a: Sequence[int]) -> bool:
        return realize_coords(rho, a) == one

    kernel_vecs: List[Coords] = []
    kernel_rows: Tuple[Coords, ...] = ()
    seen_k: set = set()

    def add_kernel(a: Sequence[int]) -> None:
        nonlocal kernel_rows
        vec = tuple(int(c) for c in a)
        if not any(vec) or vec in seen_k:
            return
        seen_k.add(vec)
        # anything in the verified lattice already realizes to 1
        if kernel_rows and _in_row_lattice(kernel_rows, vec):
            return
        if verify_kernel(vec):
            kernel_vecs.append(vec)
            kernel_rows = _hnf_rows(kernel_vecs, eig.rank)

    for a in _weight_zero_box(bound, eig.weight_vector):
        drift = math.remainder(sum(c * t for c, t in zip(a, basis_args)),
                               _TWO_PI)
        if abs(drift) < _KERNEL_MARGIN:
            add_kernel(a)

    prec = 128
    angle_balls = [(Fraction(0), Fraction(0)) if br is None
                   else arg_ball(field.root_balls[br], prec)
                   for br in eig.basis_roots]
    lll_cap = max(16, 4 * bound)
    for cand in relation_candidates(angle_balls, two_pi_ball(prec), lll_cap):
        if _dot(eig.weight_vector, cand) == 0:
            add_kernel(cand)

    torsion_vecs: List[Tuple[Coords, int]] = []
    torsion_rows: Tuple[Coords, ...] = ()
    seen_t: set = set()

    def add_torsion(a: Sequence[int]) -> Optional[int]:
        nonlocal torsion_rows
        vec = tuple(int(c) for c in a)
        if not any(vec) or vec in seen_t:
            return None
        seen_t.add(vec)
        if sum(vec) != 0:
            return None
        # products of verified torsion relations are torsion; skip them
        if torsion_rows and _in_row_lattice(torsion_rows, vec):
            return None
        value = word_value(ring, field.root_coords, vec)
        order = is_root_of_unity(ring, value)
        if order is not None:
            torsion_vecs.append((vec, order))
            torsion_rows = _hnf_rows([v for v, _ in torsion_vecs], s)
        return order

    max_torsion_order = 2 * ring.n * ring.n
    root_arg_balls = [arg_ball(ball, prec) for ball in field.root_balls]

    def torsion_prefilter(a: Sequence[int]) -> bool:
        drift = math.remainder(sum(c * t for c, t in zip(a, args)), _TWO_PI)
        return _near_rational(abs(drift) / _TWO_PI, max_torsion_order,
                              _TORSION_TOL)

    # the weight-0 subspace has dimension s - 1, so the scan can stop as
    # soon as the torsion lattice reaches it: only the rank is consumed
    for a in _balanced_box(bound, s):
        if len(torsion_rows) >= s - 1:
            break
        if torsion_prefilter(a):
            add_torsion(a)

    for cand in relation_candidates(root_arg_balls, two_pi_ball(prec),
                                    lll_cap):
        add_torsion(cand)
        g = math.gcd(*[abs(c) for c in cand])
        if g > 1:
            add_torsion(tuple(c // g for c in cand))

    # conjugation relations realize to q/q = 1; inject them regardless of
    # the bound so the rank bookkeeping never depends on box size
    reps = eig.orbit_reps
    i0 = reps[0]
    base = [0] * s
    base[i0] += 1
    base[eig.iota[i0]] += 1
    for i in reps[1:]:
        rel = [-c for c in base]
        rel[i] += 1
        rel[eig.iota[i]] += 1
        add_torsion(rel)

    # cross-feed: a torsion relation of order t yields the kernel vector
    # t * a; a kernel vector re-expressed over the roots is torsion of
    # order 1.  One round makes the two lattices agree on ranks.
    for vec, order in list(torsion_vecs):
        add_kernel(tuple(order * c for c in _to_basis_coords(eig, vec)))
    for vec in list(kernel_vecs):
        add_torsion(_to_root_coords(eig, vec))

    kernel_rank = len(kernel_rows)
    torsion_rank = len(torsion_rows)
    r = (s - torsion_rank) - 1

    if r + 1 + kernel_rank != eig.rank:
        raise InternalInconsistency(
            "rank bookkeeping failed: r=%d kernel=%d eig=%d "
            "(a relation escaped both searches)" % (r, kernel_rank, eig.rank))

    lattice = RelationLattice(
        basis=kernel_rows, rank=kernel_rank, search_bound=bound,
        complete_within_bound=True,
        saturation_index=lattice_saturation_index(
            [list(row) for row in kernel_rows]))
    return lattice, torsion_rank, r


def frobenius_rank(data: WeilData, field: SplittingField, eig: EigGroup,
                   settings: Settings = DEFAULT) -> int:
    """Rank of the multiplicative group of the eigenvalues, minus one."""
    _, _, r = _relation_engine(data, field, eig, settings.search_bound,
                               Realization(eig, field, data.q))
    return r


# Base-change degrees k = 2..12 scanned for multiplicity growth.  The
# batch store pins this range: a larger one changes report bytes and
# needs a __version__ bump.
_GROWTH_RANGE = range(2, 13)


def _multiplicity_growth_at(data: WeilData) -> Optional[int]:
    """First k in _GROWTH_RANGE where the multiplicity of a simple input
    grows under base change, or None."""
    degree = data.factors[0].poly.degree
    for k in _GROWTH_RANGE:
        if base_change(data.poly, k).squarefree_part().degree < degree:
            return k
    return None


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
        report["multiplicity_growth_at"] = _multiplicity_growth_at(data)
    else:
        report["multiplicity"] = None
        report["center_degree"] = sum(f.poly.degree for f in data.factors)
        report["geometrically_isotypic"] = None
        report["multiplicity_growth_at"] = None

    report["rank_eig"] = an.eig.rank
    report["torsion_free"] = True
    report["basis_labels"] = list(an.eig.basis_labels)

    reason = an.undetermined("field")
    if reason:
        missing = ["frobenius_rank", "kernel_rank", "kernel_basis",
                   "saturation_index", "splitting_degree", "rank_bound_ok",
                   "kernel_rank_identity_ok"]
        report.update(dict.fromkeys(missing))
        report["undetermined"] = missing
        report["undetermined_reason"] = reason
        return report

    lattice, _, r = an.relations
    report["splitting_degree"] = an.field.degree
    report["frobenius_rank"] = r
    report["kernel_rank"] = lattice.rank
    report["kernel_basis"] = [list(row) for row in lattice.basis]
    report["kernel_complete_within_bound"] = lattice.complete_within_bound
    report["search_bound"] = lattice.search_bound
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
