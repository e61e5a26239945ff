import hashlib
import itertools
import random
import signal
from dataclasses import replace
from fractions import Fraction
from math import isqrt, lcm

import pytest

from frobeig import splitfield
from frobeig.config import DEFAULT
from frobeig.corpus import CORPUS
from frobeig.exactmath.intpoly import IntPoly
from frobeig.errors import (FrobeigError, InternalInconsistency,
                            PrecisionExhausted)
from frobeig.splitfield import (ModRing, _block_permutations, _compose,
                                _subgroup_candidates, galois_group,
                                is_root_of_unity, splitting_field, word_value)
from frobeig.weil import validate

from conftest import analysis_cached, split_cached

# sha256 of the seeded splitting fields in TestBallCertificates
SEEDED_FIELDS_SHA256 = (
    "1443fbb251a70bdde84fa64c76dfbbb7a1f6ed3743de655aa9c46d9b4d373771")
# sha256 of (q, coeffs, W', candidate subgroups) in TestGroupLayer, taken
# from the product-table subgroup enumeration that the span search replaced
GROUP_LAYER_SHA256 = (
    "d2e4a913c590336dec462c8d53c2498afd16977aaecc5e5aafa1e9ce30946866")
GENERIC_SEXTIC = (3, (27, 27, 6, -1, 2, 3, 1))        # G = W_3, order 48
GENERIC_OCTIC = (2, (16, 16, 24, 18, 17, 9, 6, 2, 1))  # |W'| = 384
# the accepted degree-48 modulus of GENERIC_SEXTIC's splitting field,
# ascending coefficients
GENERIC_SEXTIC_MODULUS = (
    30870396654420065811660928166344311825,
    70360170329668214181139695537499657800,
    88447339733401714951808401312661643900,
    83847499376201951287084371552542218200,
    67348849069020226741032270527504900190,
    47969026668127514308354605901398329880,
    30913475203214816624612660598977008264,
    18248788465766656803428868155693594528,
    9950715271738101993843563760081992181,
    5039487536229763068151764487381590152,
    2379125315764994257444939341740876816,
    1049688290190272980991034614214717840,
    433572921898994891446261906032476170, 167821131259739103784814139947830560,
    60895796277800000254764531779463924, 20715757133094714127465137662193992,
    6605876276095600081818809537072650, 1974265623107406857079649839966120,
    552939637556326085151860029357780, 145123252097056214543325669317608,
    35695512341046342553203109747254, 8229404311794928447746665021800,
    1778594654563262933220254117680, 360421949939201020798621275120,
    68488887751540426268454174221, 12204251948390231032990658328,
    2039073577837167930217438272, 319343436812355028442495344,
    46856177645139635737494278, 6436218802963311510005088,
    826787831027948112670124, 99186775572351086257400, 11092679152722215844810,
    1153905328807134422360, 111339730820293149356, 9931062853510930488,
    815446420489892730, 61324778086004440, 4197669670205760, 259525233676752,
    14355368924981, 701957960760, 29881214440, 1085115360, 32693934, 784912,
    14084, 168, 1,)


def to_elem(fracs):
    """A ring element from its rational coordinates: the numerators over
    their least common denominator, which leaves them in lowest terms."""
    den = lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


def to_fracs(elem):
    nums, den = elem
    return [Fraction(c, den) for c in nums]


# --- a Fraction reference for Q[x]/(m), sharing no code with the ring ---

def ref_mul(a, b, m):
    """Schoolbook product of coordinate lists, then long division by the
    monic m (ascending integers)."""
    n = len(m) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for t in range(len(prod) - 1, n - 1, -1):
        c = prod[t]
        for i in range(n + 1):
            prod[t - n + i] -= c * m[i]
    return prod[:n]


def ref_basis(n, j):
    return [Fraction(int(i == j)) for i in range(n)]


def ref_inv(a, m):
    """Solve a * y = 1 by Gauss-Jordan elimination on the matrix whose
    column j holds the coordinates of a * x^j."""
    n = len(m) - 1
    cols = [ref_mul(a, ref_basis(n, j), m) for j in range(n)]
    rows = [[cols[j][i] for j in range(n)] + [Fraction(int(i == 0))]
            for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[n] for row in rows]


def ref_pow(a, e, m):
    base = a if e >= 0 else ref_inv(a, m)
    out = ref_basis(len(m) - 1, 0)
    for _ in range(abs(e)):
        out = ref_mul(out, base, m)
    return out


def ref_trace(a, m):
    """Trace of the multiplication matrix: coordinate j of a * x^j."""
    n = len(m) - 1
    return sum(ref_mul(a, ref_basis(n, j), m)[j] for j in range(n))


class TestModRing:
    def test_quadratic_field(self):
        ring = ModRing(IntPoly((5, -1, 1)))
        x = ring.xbar()
        # x^2 = x - 5
        assert ring.mul(x, x) == ((-5, 1), 1)
        inv = ring.inv(x)
        assert ring.mul(x, inv) == ring.const(1)
        assert ring.trace(x) == (1, 1)
        assert ring.trace(ring.const(1)) == (2, 1)
        assert ring.const(7) == ((7, 0), 1)
        assert any(x[0][1:])
        assert ring.eval_poly((5, -1, 1), x) == ring.const(0)

    def test_linear_modulus(self):
        ring = ModRing(IntPoly((-3, 1)))  # Q[x]/(x-3)
        assert ring.xbar() == ((3,), 1)
        assert ring.mul(((2,), 1), ((5,), 1)) == ((10,), 1)
        assert ring.trace(((4,), 1)) == (4, 1)
        assert ring.inv(((2,), 1)) == ((1,), 2)

    def test_ring_axioms_seeded(self):
        ring = ModRing(IntPoly((8, 0, 0, -1, 0, 0, 1)))
        rng = random.Random(99)

        def rand_elem():
            return to_elem([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(ring.n)])

        for _ in range(25):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
            assert ring.mul(a, b) == ring.mul(b, a)
            if any(a[0]):
                assert ring.mul(a, ring.inv(a)) == ring.const(1)
            assert ring.pow(a, 3) == ring.mul(a, ring.mul(a, a))

    def test_side_by_side_with_fraction_reference(self):
        # every corpus field, on its root coordinates and on seeded
        # random elements with small nonzero rational coordinates; equal
        # tuples also check that every result is in lowest terms
        rng = random.Random(20261018)
        for entry in CORPUS:
            field = analysis_cached(entry.q, tuple(entry.coefficients)).field
            ring, m = field.ring(), field.modulus.coefficients
            elems = list(field.root_coords[:2]) + [
                to_elem([Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                  rng.randint(1, 6))
                         for _ in range(ring.n)]) for _ in range(3)]
            for a, b in zip(elems, elems[1:] + elems[:1]):
                fa, fb = to_fracs(a), to_fracs(b)
                assert ring.mul(a, b) == to_elem(ref_mul(fa, fb, m))
                e = rng.choice((-2, -1, 2, 3))
                assert ring.pow(a, e) == to_elem(ref_pow(fa, e, m))
                assert ring.inv(a) == to_elem(ref_inv(fa, m))
                t = ref_trace(fa, m)
                assert ring.trace(a) == (t.numerator, t.denominator)

    def test_charpoly_by_cayley_hamilton(self):
        # chi(b) = 0 in the ring for the charpoly chi of multiplication by
        # b, on every corpus field: root coordinates' numerators, x and
        # seeded integer elements of up to 64 bits
        rng = random.Random(4848)
        for _, field in corpus_fields():
            ring = field.ring()
            elems = [nums for nums, _ in field.root_coords[:3]]
            elems.append(ring.xbar()[0])
            elems += [[rng.randint(-(1 << bits), 1 << bits)
                       for _ in range(ring.n)] for bits in (2, 64)]
            for nums in elems:
                chi = ring.charpoly(nums)
                assert len(chi) == ring.n + 1 and chi[-1] == 1
                assert ring.eval_poly(chi, (tuple(nums), 1)) == ring.const(0)

    def test_inverse_from_minimal_polynomial(self):
        # Q[x]/(x^2 - 1) is no field: x - 1 is a zero divisor
        ring = ModRing(IntPoly((-1, 0, 1)))
        assert ring.inv(((2, 1), 1)) == ((2, -1), 3)
        for bad in (((-1, 1), 1), ring.const(0)):
            with pytest.raises(ZeroDivisionError):
                ring.inv(bad)


class TestSplittingField:
    @pytest.mark.parametrize("q, coeffs", [
        (5, (5, -1, 1)), (5, (25, -5, 6, -1, 1)),
        (3, (27, 0, 0, 0, 0, 0, 1)), (2, (8, 0, 4, 0, 2, 0, 1))])
    def test_one_ring_per_field(self, monkeypatch, q, coeffs):
        # the ring the construction verified the coordinates in is the
        # field's ring; no second one is built for it
        built = []
        real_init = ModRing.__init__

        def init(ring, modulus):
            built.append(modulus.degree)
            real_init(ring, modulus)

        data = validate(q, list(coeffs))
        monkeypatch.setattr(ModRing, "__init__", init)
        field = splitting_field(data)
        ring = field.ring()
        assert built.count(field.degree) == 1
        assert ring is field.ring() and ring.n == field.degree

    def test_ordinary_quadratic(self):
        d, sf = split_cached(5, (5, -1, 1))
        assert sf.modulus == IntPoly((5, -1, 1))
        assert sf.degree == 2
        assert sf.root_coords[1] == ((0, 1), 1)
        assert sf.root_coords[0] == ((1, -1), 1)
        ring = sf.ring()
        pi, pibar = sf.root_coords[1], sf.root_coords[0]
        val = ring.mul(pi, ring.inv(pibar))
        assert val == ((-5, 1), 5)
        assert ring.trace(val) == (-9, 5)

    def test_totally_real(self):
        d, sf = split_cached(2, (4, 0, -4, 0, 1))
        assert sf.modulus == IntPoly((-2, 0, 1))
        assert sf.root_coords == (((0, 1), 1), ((0, -1), 1))

    def test_sextic_collapse(self):
        # X^6+27 splits already over the imaginary quadratic field
        d, sf = split_cached(3, (27, 0, 0, 0, 0, 0, 1))
        assert sf.degree == 2
        ring = sf.ring()
        sfp = d.poly.squarefree_part()
        for vec in sf.root_coords:
            assert ring.eval_poly(sfp.coefficients, vec) == ring.const(0)
            assert ring.pow(vec, 6) == ring.const(-27)

    def test_klein_four(self):
        d, sf = split_cached(5, (25, -15, 12, -3, 1))
        assert sf.degree == 4
        g = galois_group(sf, d)
        assert g.order == 4 and g.fully_certified
        for p in g.perms:
            assert tuple(p[p[i]] for i in range(4)) == (0, 1, 2, 3)

    def test_verified_identities_quartic(self):
        d, sf = split_cached(5, (25, 0, 9, 0, 1))
        ring = sf.ring()
        qc = ring.const(5)
        for i in range(len(sf.root_coords)):
            pair = ring.mul(sf.root_coords[d.iota[i]], sf.root_coords[i])
            assert pair == qc

    def test_degree_48_squarefree_gate(self):
        # the integer pseudo-remainder gcd decides the gate on the
        # threefold's modulus well within the guard; the Fraction Euclid
        # it replaced took about 6 s
        def too_slow(signum, frame):
            raise TimeoutError("squarefree gate exceeded 1 s")

        m = IntPoly(GENERIC_SEXTIC_MODULUS)
        assert m.degree == 48 and m.is_monic()
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(1)
        try:
            g = m.gcd(m.derivative())
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert g == IntPoly((1,))

    def test_generic_sextic(self):
        d, sf = split_cached(2, (8, 0, 0, -1, 0, 0, 1))
        assert sf.degree == 12
        ring = sf.ring()
        # eigenvalue cubes satisfy Y^2 - Y + 8
        for vec in sf.root_coords:
            cube = ring.pow(vec, 3)
            chk = ring.lincomb((1, -1, 8),
                               (ring.mul(cube, cube), cube, ring.const(1)))
            assert chk == ring.const(0)

    def test_galois_group_quadratic(self):
        d, sf = split_cached(5, (5, -1, 1))
        g = galois_group(sf, d)
        assert g.order == 2 and g.fully_certified
        assert set(g.perms) == {(0, 1), (1, 0)}

    def test_low_precision_builds_degree_eight(self):
        # the integer traces resolve on the 16-bit root enclosures; the
        # Newton interpolation they replaced needed more precision here
        st = replace(DEFAULT, precision_start=16, precision_ceiling=16)
        field = splitting_field(validate(5, [25, -5, 6, -1, 1], st), st)
        _, default_field = split_cached(5, (25, -5, 6, -1, 1))
        assert field.degree == 8
        assert field.group_perms == default_field.group_perms

    def test_env_ceiling_does_not_override_settings(self, monkeypatch):
        # only the CLI reads FROBEIG_MAX_PRECISION; an explicit Settings
        # keeps its ceiling, even when every attempt asks for more bits
        st = replace(DEFAULT, precision_start=16, precision_ceiling=16)
        data = validate(5, [25, -5, 6, -1, 1], st)
        monkeypatch.setattr(splitfield, "_try_candidate",
                            lambda *args: splitfield._UNRESOLVED)
        monkeypatch.setenv("FROBEIG_MAX_PRECISION", "4096")
        with pytest.raises(PrecisionExhausted, match="at 16 bits"):
            splitting_field(data, st)


def corpus_fields():
    """(data, field) of every corpus record whose field builds."""
    out = []
    for e in CORPUS:
        an = analysis_cached(e.q, e.coefficients)
        if an.undetermined("field") is None:
            out.append((an.data, an.field))
    return out


class TestGaloisGroup:
    def test_no_numerics(self, monkeypatch):
        # the group is certified from the field's exact root coordinates:
        # no candidate attempt, enclosure or precision work
        fields = corpus_fields()
        calls = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("_try_candidate", "refine_roots"):
            monkeypatch.setattr(splitfield, name,
                                counted(name, getattr(splitfield, name)))
        for data, field in fields:
            galois_group(field, data)
        assert calls == []

    def test_forged_group_rejected(self):
        # G = {id, iota, (2,3,0,1), (3,2,1,0)}; every other order-4
        # subgroup of W' through iota passes the group checks, so only
        # the exact image and action checks can refuse it
        d, sf = split_cached(2, (4, -6, 5, -3, 1))
        iota = d.iota
        assert iota == (1, 0, 3, 2)
        assert sf.group_perms == ((0, 1, 2, 3), (1, 0, 3, 2),
                                  (2, 3, 0, 1), (3, 2, 1, 0))
        ident = (0, 1, 2, 3)
        wprime = _block_permutations(4, [f.root_indices for f in d.factors],
                                     iota)
        subgroups = set()
        for a in wprime:
            h = frozenset({ident, iota, a, _compose(a, iota)})
            if len(h) == 4 and all(_compose(x, y) in h
                                   for x in h for y in h):
                subgroups.add(tuple(sorted(h)))
        forged = subgroups - {sf.group_perms}
        assert len(forged) == 2
        for perms in sorted(forged):
            with pytest.raises(InternalInconsistency):
                galois_group(replace(sf, group_perms=perms), d)

    def test_non_closed_set_rejected(self):
        # the right size, the identity and iota, every element central:
        # only the closure certificate can refuse it
        d, sf = split_cached(2, (4, -6, 5, -3, 1))
        perms = ((0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2), (2, 3, 0, 1))
        assert all(_compose(a, d.iota) == _compose(d.iota, a) for a in perms)
        with pytest.raises(InternalInconsistency, match="not closed"):
            galois_group(replace(sf, group_perms=perms), d)

    def test_non_central_involution_rejected(self):
        # a genuine group of the right order that contains the claimed
        # involution without centralizing it
        d, sf = split_cached(5, (25, -5, 6, -1, 1))       # dihedral, order 8
        fake_iota = (0, 1, 3, 2)
        assert fake_iota in sf.group_perms
        with pytest.raises(InternalInconsistency, match="not central"):
            galois_group(sf, replace(d, iota=fake_iota))


def _brute_force_wprime(n, blocks, iota):
    """Every block-preserving permutation, filtered by commuting with iota."""
    out = []
    for images in itertools.product(*(itertools.permutations(b)
                                      for b in blocks)):
        perm = list(range(n))
        for block, image in zip(blocks, images):
            for k, v in zip(block, image):
                perm[k] = v
        if all(perm[iota[i]] == iota[perm[i]] for i in range(n)):
            out.append(tuple(perm))
    return sorted(out)


def _group_inputs(q, coeffs):
    data = analysis_cached(q, tuple(coeffs)).data
    return len(data.roots), [f.root_indices for f in data.factors], data.iota


class TestGroupLayer:
    def test_group_layer_pinned(self):
        digest = hashlib.sha256()
        inputs = [(e.q, tuple(e.coefficients)) for e in CORPUS]
        for q, coeffs in inputs + [GENERIC_SEXTIC]:
            n, blocks, iota = _group_inputs(q, coeffs)
            wprime = _block_permutations(n, blocks, iota)
            cands = _subgroup_candidates(wprime, iota, blocks,
                                         DEFAULT.degree_cap)
            digest.update(repr((q, coeffs, wprime, cands)).encode())
        assert digest.hexdigest() == GROUP_LAYER_SHA256

    def test_wprime_matches_brute_force(self):
        # every block structure of the corpus, and three that it lacks
        structures = set()
        for e in CORPUS:
            n, blocks, iota = _group_inputs(e.q, e.coefficients)
            structures.add((n, tuple(blocks), iota))
        structures |= {
            (2, ((0, 1),), (0, 1)),                       # X^2 - q: both real
            (5, ((0, 1, 2, 3, 4),), (0, 1, 2, 4, 3)),     # three real, a pair
            (9, ((0, 1, 2, 3, 4, 5), (6, 7), (8,)),
             (3, 4, 5, 0, 1, 2, 7, 6, 8)),                # several blocks
        }
        for n, blocks, iota in sorted(structures):
            assert _block_permutations(n, blocks, iota) \
                == _brute_force_wprime(n, blocks, iota)

    def test_generic_octic_candidates_bounded(self):
        # the search stops at the degree cap instead of building the
        # subgroup lattice of W', which does not finish within the guard
        def too_slow(signum, frame):
            raise TimeoutError("candidate search exceeded 60 s")

        n, blocks, iota = _group_inputs(*GENERIC_OCTIC)
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(60)
        try:
            wprime = _block_permutations(n, blocks, iota)
            cands = _subgroup_candidates(wprime, iota, blocks,
                                         DEFAULT.degree_cap)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(wprime) == 384
        assert len(cands) == 178
        assert min(map(len, cands)) == 8 and max(map(len, cands)) == 48


class TestWords:
    def test_conjugate_product_is_q(self):
        d, sf = split_cached(3, (3, 0, 1))
        ring = sf.ring()
        assert word_value(ring, sf.root_coords, [1, 1]) == ring.const(3)

    def test_q_exponent_cancels(self):
        # pi^2 = -3 in the supersingular field, so pi^4 / q^2 = 1
        d, sf = split_cached(3, (3, 0, 1))
        ring = sf.ring()
        assert word_value(ring, sf.root_coords, [4, 0], 3, -2) \
            == ring.const(1)

    def test_negative_exponent_inverts(self):
        d, sf = split_cached(5, (5, -1, 1))
        ring = sf.ring()
        got = word_value(ring, sf.root_coords, [2, 0])
        got = ring.mul(got, word_value(ring, sf.root_coords, [-1, 0]))
        assert got == sf.root_coords[0]

    def test_trace_of_word(self):
        # tr(pi^2 / q) = ((pi+pibar)^2 - 2q)/q = (1 - 10)/5
        d, sf = split_cached(5, (5, -1, 1))
        ring = sf.ring()
        val = word_value(ring, sf.root_coords, [2, 0], 5, -1)
        assert ring.trace(val) == (-9, 5)

    def test_unity_orders(self):
        d, sf = split_cached(3, (3, 0, 1))
        ring = sf.ring()
        assert is_root_of_unity(ring, ring.const(1)) == 1
        assert is_root_of_unity(ring, ring.const(-1)) == 2
        assert is_root_of_unity(ring, ring.const(7)) is None
        # pi / pibar = -1 for a supersingular pair
        ratio = word_value(ring, sf.root_coords, [1, -1])
        assert is_root_of_unity(ring, ratio) == 2
        # (1 + pi)/2 is a primitive 6th root of unity when pi^2 = -3
        one = ring.const(1)
        zeta = ring.scale(ring.lincomb((1, 1), (one, sf.root_coords[0])), 1, 2)
        assert is_root_of_unity(ring, zeta) == 6

    def test_ordinary_ratio_has_infinite_order(self):
        d, sf = split_cached(5, (5, -1, 1))
        ring = sf.ring()
        ratio = word_value(ring, sf.root_coords, [1, -1])
        assert is_root_of_unity(ring, ratio) is None


def seeded_weil_inputs(seed, quartics, sextics):
    """Validated quartics X^4+aX^3+bX^2+qaX+q^2 and sextics X^6+aX^3+q^3
    drawn from a seeded generator (ascending coefficients)."""
    rng = random.Random(seed)
    wanted = {4: quartics, 6: sextics}
    found = {4: [], 6: []}
    while any(len(found[k]) < wanted[k] for k in found):
        q = rng.choice((2, 3, 4, 5, 7, 8, 9))
        if rng.random() < 0.5:
            a = rng.randint(-4 * isqrt(q), 4 * isqrt(q))
            coeffs = (q * q, q * a, rng.randint(-2 * q, 6 * q), a, 1)
        else:
            amax = 2 * isqrt(q ** 3)
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


class TestBallCertificates:
    def test_seeded_fields_pinned(self):
        # the splitting fields of 12 seeded inputs, digested; the digest
        # was taken from the exact Fraction ball arithmetic that the dyadic
        # balls replaced, so a rounding that changes a decision shows here
        digest = hashlib.sha256()
        for q, coeffs in seeded_weil_inputs(2026, 8, 4):
            field = splitting_field(validate(q, coeffs))
            digest.update(repr((
                q, coeffs, field.modulus.coefficients, field.weight,
                tuple(tuple(str(Fraction(c, den)) for c in nums)
                      for nums, den in field.root_coords),
                field.group_perms)).encode())
        assert digest.hexdigest() == SEEDED_FIELDS_SHA256

    def test_assignment_enclosure_on_working_grid(self):
        # the assignment certificate evaluates each root's integer
        # numerators on the enclosure of x, on the working grid, and
        # compares the result with the root enclosures scaled by the
        # denominator instead of dividing
        d, sf = split_cached(5, (25, -5, 6, -1, 1))       # degree 8
        assert any(den > 1 for _, den in sf.root_coords)
        bits = DEFAULT.precision_start + 64
        ident = tuple(range(len(sf.root_balls)))
        gamma = splitfield._gamma_ball(sf.weight, sf.orbit_reps, ident,
                                       sf.root_balls)
        for i, (nums, den) in enumerate(sf.root_coords):
            enc = splitfield._eval_on_ball(nums, gamma, bits)
            for value in (enc.re, enc.im, enc.rad):
                assert (value * 2 ** bits).denominator == 1
            targets = [b.scale(den) for b in sf.root_balls]
            assert enc.intersects(targets[i])
            assert all(enc.disjoint(t) for j, t in enumerate(targets)
                       if j != i)
