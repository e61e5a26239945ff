import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

from dataclasses import replace

import pytest

from frobeig import weil
from frobeig.config import DEFAULT
from frobeig.corpus import CORPUS
from frobeig.errors import (Ambiguous, FrobeigError, FunctionalEquationFailed,
                            MalformedInput, NotPrimePower, NotSimple,
                            PrecisionExhausted, RootModulusFailed)
from frobeig.exactmath.intpoly import IntPoly
from frobeig.exactmath.roots import isolate_roots
from frobeig.quadforms import charpoly_exact
from frobeig.splitfield import splitting_field
from frobeig.weil import base_change, prime_power_decomposition, validate

from conftest import enclose


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _companion_base_change(poly, k):
    """Oracle: the characteristic polynomial of the k-th power of the
    companion matrix of poly."""
    n = poly.degree
    comp = [[0] * n for _ in range(n)]
    for i in range(1, n):
        comp[i][i - 1] = 1
    for i in range(n):
        comp[i][n - 1] = -poly.coefficients[i]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        power = mat_mul(power, comp)
    cp = charpoly_exact([[Fraction(x) for x in row] for row in power])
    assert all(c.denominator == 1 for c in cp)
    return IntPoly(cp)


class TestPrimePower:
    def test_table(self):
        assert prime_power_decomposition(2) == (2, 1)
        assert prime_power_decomposition(4) == (2, 2)
        assert prime_power_decomposition(8) == (2, 3)
        assert prime_power_decomposition(9) == (3, 2)
        assert prime_power_decomposition(25) == (5, 2)
        assert prime_power_decomposition(343) == (7, 3)

    @pytest.mark.parametrize("bad", [0, 1, 6, 12, 100, -4])
    def test_rejects(self, bad):
        with pytest.raises(NotPrimePower):
            prime_power_decomposition(bad)

    @staticmethod
    @contextmanager
    def within_2s():
        def too_slow(signum, frame):
            raise TimeoutError("prime-power test exceeded 2 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(2)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_large_primes_and_powers(self):
        # trial division to sqrt(q) gave no result within 10 s on 2^61 - 1
        m31, m61 = 2 ** 31 - 1, 2 ** 61 - 1
        with self.within_2s():
            assert prime_power_decomposition(m61) == (m61, 1)
            assert prime_power_decomposition(m31 ** 2) == (m31, 2)
            for bad in (3 * m61, m31 * m61):
                with pytest.raises(NotPrimePower):
                    prime_power_decomposition(bad)

    def test_refuses_beyond_the_miller_rabin_bound(self):
        # 2^89 - 1 is prime, but above 3.317e24 thirteen bases prove nothing
        with self.within_2s():
            with pytest.raises(MalformedInput,
                               match="Miller-Rabin bound 3317044064679887"):
                prime_power_decomposition(2 ** 89 - 1)

    def test_matches_trial_division_below_1e5(self):
        n = 10 ** 5
        least = list(range(n))          # least prime factor, by sieve
        for p in range(2, isqrt(n) + 1):
            if least[p] == p:
                for m in range(p * p, n, p):
                    least[m] = min(least[m], p)
        with self.within_2s():
            for q in range(2, n):
                p, e, m = least[q], 0, q
                while m % p == 0:
                    m, e = m // p, e + 1
                try:
                    got = prime_power_decomposition(q)
                except NotPrimePower:
                    got = None
                assert got == ((p, e) if m == 1 else None), q


class TestValidate:
    def test_ordinary_quadratic(self):
        d = validate(5, [5, -1, 1])
        assert d.q == 5 and d.p == 5 and d.e == 1 and d.g == 1
        assert d.poly == IntPoly((5, -1, 1))
        assert len(d.roots) == 2
        assert d.iota == (1, 0)
        assert d.root_mult == (1, 1)
        assert d.real_root_indices == ()
        assert d.is_simple and d.multiplicity == 1
        # canonical root order: negative imaginary part first at equal real
        assert d.roots[0].im < 0 < d.roots[1].im
        assert d.roots[0].re == d.roots[1].re == Fraction(1, 2)

    def test_supersingular_quadratic(self):
        d = validate(3, [3, 0, 1])
        assert d.iota == (1, 0)
        assert d.real_root_indices == ()
        assert d.multiplicity == 1

    def test_real_double_root(self):
        # (X+3)^2 over q=9: a single totally real eigenvalue of mult 2
        d = validate(9, [9, 6, 1])
        assert d.p == 3 and d.e == 2
        assert len(d.roots) == 1
        assert d.iota == (0,)
        assert d.real_root_indices == (0,)
        assert d.root_mult == (2,)
        assert d.is_simple and d.multiplicity == 2

    def test_real_pair(self):
        # (X^2-2)^2 over q=2: two real eigenvalues, both conjugation-fixed
        d = validate(2, [4, 0, -4, 0, 1])
        assert len(d.roots) == 2
        assert d.iota == (0, 1)
        assert d.real_root_indices == (0, 1)
        assert d.root_mult == (2, 2)
        assert d.multiplicity == 2

    def test_quartic_product_factorization(self):
        d = validate(5, [25, 0, 9, 0, 1])
        assert not d.is_simple
        got = sorted(f.poly.coefficients for f in d.factors)
        assert got == [(5, -1, 1), (5, 1, 1)]
        assert all(f.multiplicity == 1 for f in d.factors)
        with pytest.raises(NotSimple):
            d.multiplicity

    def test_cube_of_quadratic(self):
        d = validate(3, [27, 0, 27, 0, 9, 0, 1])
        assert d.is_simple and d.multiplicity == 3
        assert d.root_mult == (3, 3)
        assert [f.poly.coefficients for f in d.factors] == [(3, 0, 1)]

    def test_sextic_splitting_into_quadratics(self):
        d = validate(3, [27, 0, 0, 0, 0, 0, 1])
        got = sorted(f.poly.coefficients for f in d.factors)
        assert got == [(3, -3, 1), (3, 0, 1), (3, 3, 1)]

    def test_irreducible_sextic(self):
        d = validate(2, [8, 0, 0, -1, 0, 0, 1])
        assert d.is_simple and d.multiplicity == 1
        assert len(d.factors) == 1 and d.factors[0].poly.degree == 6
        assert d.iota == (1, 0, 3, 2, 5, 4)

    def test_functional_equation_failure(self):
        with pytest.raises(FunctionalEquationFailed):
            validate(5, [1, 0, 1])
        with pytest.raises(FunctionalEquationFailed):
            validate(2, [-2, 0, 1])  # X^2-2 alone is not self-reciprocal

    def test_root_modulus_failure_with_witness(self):
        # passes the functional equation with roots 1 and 4 off the circle
        with pytest.raises(RootModulusFailed) as exc:
            validate(4, [4, -5, 1])
        w = exc.value.witness
        assert w == {"root_re": "1", "root_im": "0",
                     "abs_sq_midpoint": "1", "expected": "4"}

    def test_malformed(self):
        with pytest.raises(MalformedInput):
            validate(5, [5, Fraction(1, 2), 1])
        with pytest.raises(MalformedInput):
            validate(5, [2, 1])          # odd degree
        with pytest.raises(MalformedInput):
            validate(5, [5, -2, 2])      # not monic
        with pytest.raises(NotPrimePower):
            validate(6, [6, -1, 1])


def _modulus_permutation_by_division(q, roots):
    """Oracle: the matching by Fraction division that the product
    certificate replaced.  Over the disk of root_i, q / conj(z) lies
    within q r / (|m| (|m| - r)) of q m / |m|^2, and that enclosure must
    meet the enclosure of root_j alone."""
    images = []
    for b in roots:
        lb = isqrt(b.mre ** 2 + b.mim ** 2) * Fraction(2) ** b.exp
        assert lb > b.rad
        norm = b.abs_sq_mid()
        images.append(enclose(q * b.re / norm, q * b.im / norm,
                              q * b.rad / (lb * (lb - b.rad)), 32 - b.exp))
    hits = [[j for j, t in enumerate(roots) if img.intersects(t)]
            for img in images]
    perm = [h[0] for h in hits if len(h) == 1]
    return perm if sorted(perm) == list(range(len(roots))) else None


def _off_circle_inputs(seed, count):
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


class TestModulusCertificate:
    def test_product_certificate_matches_division_oracle(self):
        on = [(e.q, tuple(e.coefficients)) for e in CORPUS]
        off = _off_circle_inputs(19, 40)
        for q, coeffs in on + off:
            balls = None
            for prec in (192, 384):
                balls = isolate_roots(IntPoly(coeffs), prec, balls)
                perm = weil._modulus_permutation(q, balls)
                assert perm is not None
                assert perm == _modulus_permutation_by_division(q, balls)
                assert (perm == list(range(len(balls)))) \
                    == ((q, coeffs) in on), (q, coeffs, prec)


def _undecided_once(real, fail):
    """real, except that its first call fails as fail() does."""
    calls = []

    def stub(*args):
        calls.append(None)
        return fail() if len(calls) == 1 else real(*args)
    return stub


def _ambiguous():
    raise Ambiguous("forced")


# (stage, the module function made undecided once, how it fails)
_ESCALATIONS = [
    ("root matching", "_conjugation_permutation", lambda: None),
    ("factorization", "_factor_search", _ambiguous),
]


class TestEscalation:
    QUARTIC = (5, (25, -5, 6, -1, 1))

    @pytest.mark.parametrize("stage, name, fail", _ESCALATIONS,
                             ids=[e[0] for e in _ESCALATIONS])
    def test_undecided_stage_doubles_precision(self, monkeypatch, stage,
                                               name, fail):
        q, coeffs = self.QUARTIC
        default = validate(q, coeffs)
        monkeypatch.setattr(weil, name,
                            _undecided_once(getattr(weil, name), fail))
        data = validate(q, coeffs)
        assert default.prec == DEFAULT.precision_start
        assert data.prec == 2 * default.prec
        assert data.factors == default.factors
        assert data.iota == default.iota
        assert all(a.intersects(b) for a, b in zip(data.roots, default.roots))
        assert (splitting_field(data).group_perms
                == splitting_field(default).group_perms)

    @pytest.mark.parametrize("stage, name, fail", _ESCALATIONS,
                             ids=[e[0] for e in _ESCALATIONS])
    def test_undecided_stage_at_the_ceiling(self, monkeypatch, stage, name,
                                            fail):
        q, coeffs = self.QUARTIC
        st = replace(DEFAULT, precision_ceiling=DEFAULT.precision_start)
        monkeypatch.setattr(weil, name,
                            _undecided_once(getattr(weil, name), fail))
        with pytest.raises(PrecisionExhausted) as exc:
            validate(q, coeffs, st)
        assert str(exc.value) == f"{stage} undecided at the precision ceiling"


class TestBaseChange:
    def test_identity(self):
        p = IntPoly((5, -1, 1))
        assert base_change(p, 1) == p

    def test_oracles(self):
        assert base_change(IntPoly((3, 0, 1)), 2) == IntPoly((9, 6, 1))
        assert base_change(IntPoly((5, -1, 1)), 2) == IntPoly((25, 9, 1))
        assert base_change(IntPoly((5, -1, 1)), 6) == IntPoly((15625, 54, 1))

    def test_quartic(self):
        p = IntPoly((25, 0, 9, 0, 1))
        p2 = base_change(p, 2)
        # squares of the eigenvalues of both quadratic factors
        lhs = base_change(IntPoly((5, -1, 1)), 2) * base_change(IntPoly((5, 1, 1)), 2)
        assert p2 == lhs

    def test_corpus_against_companion_oracle(self):
        for e in CORPUS:
            p = IntPoly(e.coefficients)
            for k in range(1, 13):
                assert base_change(p, k) == _companion_base_change(p, k), \
                    (e.q, e.coefficients, k)

    def test_seeded_against_companion_oracle(self):
        rng = random.Random(20261018)
        polys = []
        while len(polys) < 48:
            q = rng.choice([2, 3, 4, 5, 7])
            if len(polys) % 2:
                # a random quartic, kept when it validates
                a1 = rng.randint(-4 * isqrt(q), 4 * isqrt(q))
                a2 = rng.randint(-2 * q, 6 * q)
                try:
                    polys.append(validate(q, [q * q, q * a1, a2, a1, 1]).poly)
                except FrobeigError:
                    pass
                continue
            p = IntPoly((1,))
            for _ in range(rng.randint(1, 3)):
                a = rng.randint(-2 * isqrt(q), 2 * isqrt(q))
                p = p * IntPoly((q, -a, 1))
            polys.append(p)
        for p in polys:
            for k in range(1, 13):
                assert base_change(p, k) == _companion_base_change(p, k), \
                    (p, k)

    def test_stays_weil_seeded(self):
        rng = random.Random(20260819)
        qs = [2, 3, 4, 5, 7]
        for _ in range(60):
            q = rng.choice(qs)
            amax = int((4 * q) ** 0.5)
            a = rng.randint(-amax, amax)
            d = validate(q, [q, -a, 1])
            for k in (2, 3):
                pk = base_change(d.poly, k)
                dk = validate(q ** k, list(pk.coefficients))
                assert dk.g == 1
