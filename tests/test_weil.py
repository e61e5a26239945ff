import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

from dataclasses import replace

import pytest

from frobeig import weil
from frobeig.config import DEFAULT, PRECISION_START
from frobeig.corpus import CORPUS
from frobeig.errors import (Ambiguous, FrobeigError, FunctionalEquationFailed,
                            MalformedInput, NotPrimePower, NotSimple,
                            PrecisionExhausted, RootModulusFailed)
from frobeig.exactmath.intpoly import IntPoly
from frobeig.exactmath.roots import real_weil_poly, roots_in_interval
from frobeig.quadforms import charpoly_exact
from frobeig.splitfield import splitting_field
from frobeig.weil import base_change, prime_power_decomposition, validate

from families import seeded_off_circle_inputs


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

    @pytest.mark.parametrize("q, coeffs", [
        (2, [4, -6, 5, -3, 1]), (3, [27, 0, 0, 0, 0, 0, 1])])
    def test_two_validations_are_equal(self, q, coeffs):
        # the root balls compare by value, so a record validated twice
        # gives equal data with equal hashes
        a, b = validate(q, coeffs), validate(q, coeffs)
        assert a.roots[0] is not b.roots[0]
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

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
        # passes the functional equation with roots 1 and 4 off the circle:
        # h = y - 5 has its one root outside [-4, 4]
        with pytest.raises(RootModulusFailed) as exc:
            validate(4, [4, -5, 1])
        w = exc.value.witness
        assert w == {"real_weil_poly": ["-5", "1"], "roots_in_interval": "0",
                     "distinct_roots": "1", "expected": "4"}
        # a non-real root y of h: x^4 + 5x^2 + 4 over q = 2 has h = y^2 + 1
        with pytest.raises(RootModulusFailed) as exc:
            validate(2, [4, 0, 5, 0, 1])
        assert exc.value.witness == {
            "real_weil_poly": ["1", "0", "1"], "roots_in_interval": "0",
            "distinct_roots": "2", "expected": "2"}

    def test_gate_before_the_degree_cap(self):
        # x^80 + 2^40 and x^160 + 2^80 over q = 2 have h = D_40 and D_80,
        # every root on the circle; the exact gate passes them at once and
        # the degree cap must refuse them before any root is isolated
        for g in (40, 80):
            with TestPrimePower.within_2s():
                with pytest.raises(MalformedInput, match="factorization cap"):
                    validate(2, [2 ** g] + [0] * (2 * g - 1) + [1])

    def test_malformed(self):
        with pytest.raises(MalformedInput):
            validate(5, [5, Fraction(1, 2), 1])
        with pytest.raises(MalformedInput):
            validate(5, [2, 1])          # odd degree
        with pytest.raises(MalformedInput):
            validate(5, [5, -2, 2])      # not monic
        with pytest.raises(NotPrimePower):
            validate(6, [6, -1, 1])


def _built_off_circle():
    """x^2 - a x + q with a^2 > 4q (real roots off the circle), and
    (x - z)(x - conj z)(x - q/z)(x - q/conj z) for Gaussian integers z with
    |z|^2 != q and integer coefficients: with n = |z|^2 and t = 2 re z,
    x^4 - (t + qt/n) x^3 + (n + q^2/n + qt^2/n) x^2 - q (t + qt/n) x + q^2."""
    out = [(q, (q, -a, 1)) for q in (2, 3, 4, 5, 9, 25)
           for a in range(-5 * q, 5 * q + 1) if a * a > 4 * q]
    for q in (2, 3, 4, 5, 8, 9, 16, 25):
        for x in range(-6, 7):
            for y in range(1, 7):
                n, t = x * x + y * y, 2 * x
                if n == q or (q * t) % n or (q * q + q * t * t) % n:
                    continue
                c3 = t + q * t // n
                out.append((q, (q * q, -q * c3, n + (q * q + q * t * t) // n,
                                -c3, 1)))
    return out


class TestModulusCertificate:
    def test_product_certificate_matches_division_oracle(self):
        # the exact gate against inputs built on or off the circle: the
        # corpus and products of x^2 - a x + q with a^2 <= 4q are on it,
        # and _built_off_circle() and seeded_off_circle_inputs() are off it
        rng = random.Random(2510)
        on = [(e.q, tuple(e.coefficients)) for e in CORPUS]
        for _ in range(60):
            q = rng.choice((2, 3, 4, 5, 7, 9, 16, 25))
            p = IntPoly((1,))
            for _ in range(rng.randint(1, 6)):
                a = rng.randint(-isqrt(4 * q), isqrt(4 * q))
                p = p * IntPoly((q, -a, 1))
            on.append((q, p.coefficients))
        off = _built_off_circle()
        assert len(off) > 100
        for q, coeffs in on:
            s = real_weil_poly(IntPoly(coeffs), q).squarefree_part()
            assert roots_in_interval(s, q) == s.degree, (q, coeffs)
        for q, coeffs in off + seeded_off_circle_inputs(19, 40):
            s = real_weil_poly(IntPoly(coeffs), q).squarefree_part()
            assert roots_in_interval(s, q) < s.degree, (q, coeffs)
            with pytest.raises(RootModulusFailed):
                validate(q, coeffs)


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
        assert default.prec == PRECISION_START
        assert data.prec == 2 * default.prec
        assert data.factors == default.factors
        assert data.iota == default.iota
        assert not any(a.disjoint(b)
                       for a, b in zip(data.roots, default.roots))
        assert (splitting_field(data).group_perms
                == splitting_field(default).group_perms)

    @pytest.mark.parametrize("stage, name, fail", _ESCALATIONS,
                             ids=[e[0] for e in _ESCALATIONS])
    def test_undecided_stage_at_the_ceiling(self, monkeypatch, stage, name,
                                            fail):
        q, coeffs = self.QUARTIC
        st = replace(DEFAULT, precision_ceiling=PRECISION_START)
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
