"""Galois orbits of enriched eigenvalues and the L/E/T decomposition.

The weight-k part of the cohomology of the d-th power carries the
eigenvalue multiset obtained by expanding prod_i (1 + x_i t)^d over the
enriched eigenvalue group: the coefficient of t^k is a formal sum of
group elements with integer multiplicities of total mass C(2gd, k).
Primitive parts subtract the image of the Lefschetz operator, which
shifts the enriched label by exactly [q]; the per-label inequality this
subtraction relies on is the hard Lefschetz theorem for the exterior
algebra of a symplectic space, so a negative entry is a genuine internal
error, not a data condition.

power_layers expands this product once per power d, for every weight at
once, on packed keys: pack writes a coordinate vector as one int in
balanced base-2^w digits, first coordinate most significant, with the
one width w of pack_width large enough for every label of every power up
to MAX_POWER_CAP and for its weight-zero class.  The packing is linear
and keeps tuple order, so adding a symbol is one int addition, the shift
by [q] subtracts one int, and sorting keys sorts coordinate vectors.  An
Analysis keeps the layers of the power it read last; eigen_multiset
decodes one of them.

Each Galois orbit of labels is one simple motive class and falls into a
trichotomy: the orbit {n[q]} (Lefschetz classes), orbits realizing
exactly to q^n without being n[q] (exotic Tate classes, possible only
when the realization has a kernel), and everything else (no Tate classes
at all).  One walk over the sorted packed keys (_orbit_walk) finds each
orbit from its smallest member, the only member it decodes: the image
of v under sigma is sum_j v_j * P_sigma[j], the P_sigma the analysis's
validated action rows, packed once.  classify_orbits folds the walk into
dims and orbit counts and decodes EXOTIC orbits for their details;
motive_orbits builds a MotiveOrbit per orbit for `frobeig motives`.
The Tate test rho(lam) = q^n is rho(mu) = 1 on the weight-zero class
mu = lam - n[q], which the walk hands to Analysis.is_tate as the packed
key key - n*pack([q]); the verdict is kept per mu, so each class is
tested once for all (d, n) and both ambients.  The test runs through one
realization map per analysis, eig.Realization: it tabulates the powers
rho(b_j)^e of every basis root with no field inversion (1/r = rbar/q)
and treats [q] as the rational scalar q, so one test costs at most
rank - 1 field products.

When the main positivity hypotheses all pass, exotic orbits must have
size two and the antipodal coordinate shape predicted by the
classification theorem; the shape is enforced in that case and reported
as a warning otherwise.

The predicted signature of the intersection form on middle-dimensional
algebraic classes is an alternating sum over the rho table (Tate or
Lefschetz dimensions per codimension); it is evaluated exactly, and a
negative predicted entry is flagged rather than raised, since it is the
diagnostic the positivity conjecture is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterator, List,
                    Optional, Sequence, Tuple)

from .config import MAX_POWER_CAP
from .eig import Coords, EigElement, EigGroup
from .errors import InternalInconsistency, MalformedInput, NotPrimePower
from .weil import WeilData, prime_power_decomposition

if TYPE_CHECKING:
    from .analysis import Analysis

TATE_TRIVIAL = "TATE_TRIVIAL"
EXOTIC = "EXOTIC"
NON_TATE = "NON_TATE"

ALL_PASS = "ALL_PASS"
FAIL = "FAIL"
PASS_CONDITIONAL_ON_CM = "PASS_CONDITIONAL_ON_CM"


@dataclass(frozen=True)
class MotiveOrbit:
    """One Galois orbit of enriched eigenvalues in a fixed weight."""
    elements: Tuple[EigElement, ...]
    weight: int
    orbit_size: int
    classification: str
    multiplicity_in_ambient: int

    @property
    def dimension_in_ambient(self) -> int:
        return self.orbit_size * self.multiplicity_in_ambient


@dataclass(frozen=True)
class DecompositionReport:
    d: int
    n: int
    ambient: str                       # "full" or "primitive"
    dims: Tuple[int, int, int, int]    # (dim_L, dim_E_total, dim_T, total)
    orbit_counts: Tuple[int, int, int]  # orbits of class (L, E, T)
    exotic_details: Tuple[dict, ...]


@dataclass(frozen=True)
class HypothesisVerdict:
    verdict: str                       # ALL_PASS, FAIL, PASS_CONDITIONAL_ON_CM
    conditions: Tuple[Tuple[str, str], ...]
    failures: Tuple[str, ...]
    warnings: Tuple[str, ...]


@dataclass(frozen=True)
class SignaturePrediction:
    s_plus: int
    s_minus: int
    negative_prediction: bool          # diagnostic, never an exception


def pack_width(g: int, eig: EigGroup) -> int:
    """Digit width w of the packed keys of every power d <= MAX_POWER_CAP.
    A coordinate of a weight-2n label of power d sums at most 2gd symbol
    coordinates, and its weight-zero class lam - n[q] (n <= gd) subtracts
    at most gd copies of [q]; w keeps the bound
    2gd*max|sym| + gd*max|q| at d = MAX_POWER_CAP below 2^(w-1)."""
    gd = g * MAX_POWER_CAP
    bound = 2 * gd * max(abs(c) for sym in eig.symbol_coords for c in sym) \
        + gd * max(abs(c) for c in eig.q_coords)
    return bound.bit_length() + 1


def pack(coords: Sequence[int], w: int) -> int:
    """One int for a coordinate vector: balanced base-2^w digits, the
    first coordinate most significant.  The map is linear, and on vectors
    within the bound of pack_width int order is tuple order."""
    key = 0
    for c in coords:
        key = (key << w) + c
    return key


def unpack(key: int, w: int, rank: int) -> Coords:
    """The coordinate vector of a packed key (the inverse of pack)."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = [0] * rank
    for t in range(rank - 1, -1, -1):
        c = key & mask
        if c >= half:
            c -= mask + 1
        out[t] = c
        key = (key - c) >> w
    return tuple(out)


def power_layers(data: WeilData, eig: EigGroup, d: int,
                 w: int) -> Tuple[Dict[int, int], ...]:
    """Enriched eigenvalue multisets of every weight k = 0 .. 2gd on
    power d, one expansion: layer k is the coefficient of t^k in
    prod_i (1 + x_i t)^(d * mult_i) over the group algebra, keyed by
    basis coordinates packed at width w (see pack_width), of total mass
    C(2gd, k) exactly."""
    top = 2 * data.g * d
    # a monomial's degree equals its weight, so entries of different
    # degrees never share coordinates
    layers: List[Dict[int, int]] = [{} for _ in range(top + 1)]
    layers[0][0] = 1
    reached = 0
    for i, mult in enumerate(data.root_mult):
        e = d * mult
        sym = pack(eig.symbol_coords[i], w)
        binom = [math.comb(e, j) for j in range(1, e + 1)]
        reached += e
        # new terms land in degrees above deg, so walking down reads
        # every source layer before it is written
        for deg in range(reached - e, -1, -1):
            targets = list(zip(layers[deg + 1:deg + e + 1], binom))
            for key, c in list(layers[deg].items()):
                nk = key
                for bucket, b in targets:
                    nk += sym
                    bucket[nk] = bucket.get(nk, 0) + c * b
    for k, layer in enumerate(layers):
        mass = sum(layer.values())
        if mass != math.comb(top, k):
            raise InternalInconsistency(
                f"eigenvalue multiset mass {mass} != C({top},{k})")
    return tuple(layers)


def _full_layer(an: Analysis, d: int, k: int) -> Dict[int, int]:
    layers = an.layers(d)
    if not 0 <= k < len(layers):
        raise MalformedInput(f"degree k={k} outside 0..{len(layers) - 1}")
    return layers[k]


def _primitive_layer(an: Analysis, d: int, n: int) -> Dict[int, int]:
    """prim(lam) = mult_2n(lam) - mult_{2n-2}(lam - [q]), on packed keys."""
    data, eig = an.data, an.eig
    if n < 0:
        raise MalformedInput(f"codimension n={n} must be nonnegative")
    if 2 * n > data.g * d:
        raise MalformedInput(
            f"primitive decomposition needs 2n <= g*d = {data.g * d}")
    full = _full_layer(an, d, 2 * n)
    if n == 0:
        return full
    below = dict(_full_layer(an, d, 2 * n - 2))
    q_key = pack(eig.q_coords, an.width)
    prim: Dict[int, int] = {}
    for key, c in full.items():
        p = c - below.pop(key - q_key, 0)
        if p < 0:
            raise InternalInconsistency(
                "negative primitive multiplicity at "
                f"{unpack(key, an.width, eig.rank)}")
        if p:
            prim[key] = p
    if below:
        raise InternalInconsistency(
            "Lefschetz image leaves the weight-2n support")
    want = math.comb(2 * data.g * d, 2 * n) \
        - math.comb(2 * data.g * d, 2 * n - 2)
    if sum(prim.values()) != want:
        raise InternalInconsistency("primitive total mass mismatch")
    return prim


def eigen_multiset(an: Analysis, d: int, k: int) -> Dict[EigElement, int]:
    """Multiset of enriched eigenvalues on the weight-k part of power d,
    read from the analysis's expansion of power d (see power_layers)."""
    w, eig = an.width, an.eig
    return {eig.element(unpack(key, w, eig.rank)): c
            for key, c in _full_layer(an, d, k).items()}


def _exotic_shape_ok(eig: EigGroup, members: Sequence[Coords]) -> bool:
    # size-2 orbit {x, xbar} with x = i[q] + j*mu, mu the sum of one root
    # of each conjugate pair: pibar = [q] - pi, so every representative
    # coordinate of x is +-j, and xbar negates them and adds their sum to
    # the [q] coordinate, whichever root of each pair mu holds
    if len(members) != 2 or eig.basis_roots[-1] is not None:
        return False
    s = eig.rank - 1
    a, b = members
    j = abs(a[0])
    return j > 0 and all(abs(c) == j for c in a[:s]) \
        and all(y == -x for x, y in zip(a[:s], b[:s])) \
        and b[s] == a[s] + sum(a[:s])


def _orbit_walk(an: Analysis, d: int, n: int, ambient: str
                ) -> Iterator[Tuple[FrozenSet[int], int, str]]:
    """(packed orbit, multiplicity, class) of every Galois orbit of the
    weight-2n multiset, in the order of the orbits' smallest members.

    Only the representative is decoded: the image of v under sigma is
    sum_j v_j * P_sigma[j], P_sigma the packed action rows, summed for
    all sigma at once along the columns P_*[j].  Its Tate verdict comes
    from Analysis.is_tate on the packed class key - n[q], so an analysis
    without a field raises its stored bound failure here."""
    if ambient == "full":
        layer = _full_layer(an, d, 2 * n)
    elif ambient == "primitive":
        layer = _primitive_layer(an, d, n)
    else:
        raise MalformedInput(f"unknown ambient {ambient!r}")
    eig, w = an.eig, an.width
    columns = an.packed_action
    zero = [0] * len(columns[0])
    trivial = n * pack(eig.q_coords, w)
    seen: set = set()
    covered = 0
    for key in sorted(layer):
        if key in seen:
            continue
        coords = unpack(key, w, eig.rank)
        images = zero
        for c, column in zip(coords, columns):
            if c:
                images = [a + c * x for a, x in zip(images, column)]
        orbit = frozenset(images)
        seen |= orbit
        mult = layer[key]
        if any(layer.get(k) != mult for k in orbit):
            raise InternalInconsistency(
                "Galois orbit with non-uniform multiplicity")
        covered += len(orbit) * mult
        if orbit == {trivial}:
            cls = TATE_TRIVIAL
        elif an.is_tate(key - trivial):
            cls = EXOTIC
        else:
            cls = NON_TATE
        yield orbit, mult, cls
    if covered != sum(layer.values()):
        raise InternalInconsistency("orbit dimensions do not sum to mass")


def _decode(an: Analysis, orbit: FrozenSet[int]) -> List[Coords]:
    return [unpack(key, an.width, an.eig.rank) for key in sorted(orbit)]


def classify_orbits(an: Analysis, d: int, n: int,
                    ambient: str = "full") -> DecompositionReport:
    """Group the weight-2n eigenvalue multiset into Galois orbits and
    count the TATE_TRIVIAL, EXOTIC and NON_TATE ones and their dimensions.

    The orbits come from one walk over packed keys; only EXOTIC orbits
    are decoded, for their details.  The Tate test is exact in the
    splitting field (see Analysis.is_tate).
    """
    eig = an.eig
    index = {TATE_TRIVIAL: 0, EXOTIC: 1, NON_TATE: 2}
    dims_ = [0, 0, 0]
    counts = [0, 0, 0]
    exotic_details: List[dict] = []
    for orbit, mult, cls in _orbit_walk(an, d, n, ambient):
        dims_[index[cls]] += len(orbit) * mult
        counts[index[cls]] += 1
        if cls == EXOTIC:
            members = _decode(an, orbit)
            detail = {"elements": members,
                      "orbit_size": len(members),
                      "multiplicity": mult}
            shape = _exotic_shape_ok(eig, members)
            if an.shape_certified:
                if not shape:
                    raise InternalInconsistency(
                        "exotic orbit violates the rank-2 antipodal shape "
                        "although all hypotheses hold")
                detail["shape"] = "certified"
            else:
                detail["shape"] = "as_predicted" if shape else "unexpected"
                if not shape:
                    detail["warning"] = ("exotic orbit outside the rank-2 "
                                         "shape; hypotheses do not all hold")
            exotic_details.append(detail)

    return DecompositionReport(d=d, n=n, ambient=ambient,
                               dims=(*dims_, sum(dims_)),
                               orbit_counts=tuple(counts),
                               exotic_details=tuple(exotic_details))


def motive_orbits(an: Analysis, d: int, n: int,
                  ambient: str = "full") -> Tuple[MotiveOrbit, ...]:
    """The Galois orbits of classify_orbits as MotiveOrbits, members
    decoded and sorted, from the same walk."""
    return tuple(
        MotiveOrbit(elements=tuple(an.eig.element(c)
                                   for c in _decode(an, orbit)),
                    weight=2 * n,
                    orbit_size=len(orbit), classification=cls,
                    multiplicity_in_ambient=mult)
        for orbit, mult, cls in _orbit_walk(an, d, n, ambient))


def dims(an: Analysis, d: int, n: int) -> Tuple[int, int, int]:
    """(lefschetz_dim, tate_dim, exotic_dim) of codimension n on power d.

    tate_dim counts all orbits whose realization is exactly q^n, so
    tate_dim = lefschetz_dim + exotic_dim, and an injective realization
    forces exotic_dim = 0.
    """
    dim_l, dim_e, _, _ = an.full_dims(d, n)
    return dim_l, dim_l + dim_e, dim_e


def hypothesis_check(data: WeilData, r: int,
                     cm_assertion: Optional[bool] = None) -> HypothesisVerdict:
    """Check the hypotheses of the positivity theorem for a simple input
    whose Frobenius rank is r.

    (1) the multiplicity m is odd; (2) the Frobenius rank satisfies
    r >= g/m - 1; (3) the endomorphism algebra is split by a totally real
    field, automatic for m = 1 and otherwise taken from cm_assertion
    since it cannot be derived from the polynomial alone.  For prime g
    the Tankeev bound makes r >= g - 1 and m = 1 the expected outcome;
    deviations are reported as warnings, not failures.
    """
    m = data.multiplicity      # NotSimple on reducible input
    g = data.g
    conditions: List[Tuple[str, str]] = []
    failures: List[str] = []
    warnings: List[str] = []

    if m % 2 == 1:
        conditions.append(("multiplicity_odd", "PASS"))
    else:
        conditions.append(("multiplicity_odd", "FAIL"))
        failures.append(f"multiplicity m={m} is even")

    bound = g // m - 1
    if r >= bound:
        conditions.append(("rank_at_least_g_over_m_minus_1", "PASS"))
    else:
        conditions.append(("rank_at_least_g_over_m_minus_1", "FAIL"))
        failures.append(f"frobenius rank r={r} below g/m - 1 = {bound}")

    conditional = False
    if m == 1:
        conditions.append(("totally_real_splitting", "PASS"))
    elif cm_assertion is True:
        conditions.append(("totally_real_splitting", "PASS"))
    elif cm_assertion is False:
        conditions.append(("totally_real_splitting", "FAIL"))
        failures.append("totally real splitting field asserted absent")
    else:
        conditions.append(("totally_real_splitting", "CONDITIONAL"))
        conditional = True

    try:
        prime_g = prime_power_decomposition(g)[1] == 1
    except NotPrimePower:
        prime_g = False
    if prime_g and (r < g - 1 or m != 1):
        warnings.append(
            f"prime dimension g={g}: expected r >= {g - 1} and m = 1, "
            f"got r={r}, m={m}")

    if failures:
        verdict = FAIL
    elif conditional:
        verdict = PASS_CONDITIONAL_ON_CM
    else:
        verdict = ALL_PASS
    return HypothesisVerdict(verdict=verdict, conditions=tuple(conditions),
                             failures=tuple(failures),
                             warnings=tuple(warnings))


def predicted_signature(rho_table: Sequence[int],
                        half_dim: int) -> SignaturePrediction:
    """Alternating-sum signature prediction from a rho table.

    s_plus = rho_h - rho_{h-1} + rho_{h-2} - ..., s_minus = rho_h -
    s_plus, with h = half_dim.  A negative component is flagged, not
    raised: it is exactly the failure the positivity statement rules out.
    """
    rho = list(rho_table)
    if half_dim < 0 or len(rho) < half_dim + 1:
        raise MalformedInput(
            f"rho table of length {len(rho)} too short for half_dim "
            f"{half_dim}")
    if rho[0] != 1:
        raise MalformedInput("rho_0 must be 1 (the point class)")
    if any(v < 0 for v in rho):
        raise MalformedInput("rho values must be nonnegative")
    s_plus = sum((-1) ** j * rho[half_dim - j] for j in range(half_dim + 1))
    s_minus = rho[half_dim] - s_plus
    return SignaturePrediction(s_plus=s_plus, s_minus=s_minus,
                               negative_prediction=(s_plus < 0
                                                    or s_minus < 0))


def build_rho_table(an: Analysis, d: int,
                    source: str = "tate") -> List[int]:
    """rho_n for n = 0 .. g*d/2 on power d, from Tate dimensions by
    default or Lefschetz dimensions as the unconditional lower bound."""
    if source not in ("tate", "lefschetz"):
        raise MalformedInput(f"unknown rho source {source!r}")
    dim_x = an.data.g * d
    if dim_x % 2:
        raise MalformedInput(
            f"variety dimension g*d = {dim_x} is odd; no middle degree")
    table = []
    for n in range(dim_x // 2 + 1):
        lef, tate, _ = dims(an, d, n)
        table.append(tate if source == "tate" else lef)
    return table
