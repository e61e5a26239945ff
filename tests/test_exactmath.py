"""Tests for the exact arithmetic layer: polynomials, balls, lattices, roots.

Oracle values were computed independently (by hand or with a throwaway
script) and are frozen here; property tests check the algebraic contracts
on randomized inputs.
"""

import itertools
import math
import random
import signal
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobeig import eig
from frobeig.analysis import Analysis
from frobeig.corpus import CORPUS
from frobeig.errors import Ambiguous, PrecisionExhausted, TorsionDetected
from frobeig.exactmath import latt
from frobeig.exactmath import roots as exact_roots
from frobeig.exactmath.balls import (ComplexBall, integer_power_sums,
                                     isqrt_ub, power_rows)
from frobeig.exactmath.intpoly import (IntPoly, factor_degrees_mod,
                                      from_power_sums, power_sums)
from frobeig.exactmath.latt import (hnf_rows, in_row_lattice,
                                    lattice_saturation_index, lll_reduce,
                                    relation_candidates)
from frobeig.exactmath.roots import (_certified, arg_ball, isolate_roots,
                                     real_roots, real_weil_poly,
                                     refine_roots, roots_in_interval,
                                     two_pi_ball)
from frobeig.weil import base_change, validate

from conftest import (analysis_cached, contains_ball, contains_exact, enclose,
                      minors_gcd)


def det(mat):
    """Exact determinant by fraction-free elimination."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


# --- a Fraction Euclid oracle for the integer polynomial kernels ---

def _q_divmod(num, den):
    """Quotient and remainder over Q of ascending Fraction lists."""
    r, q = list(num), [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(den) - 1] / den[-1]
        for i, d in enumerate(den):
            r[k + i] -= q[k] * d
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _q_normalize(p):
    """The primitive integer multiple of a Fraction list with a positive
    leading coefficient, as an IntPoly."""
    while p and p[-1] == 0:
        p = p[:-1]
    if not p:
        return IntPoly(())
    d = math.lcm(*(c.denominator for c in p))
    ints = [int(c * d) for c in p]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return IntPoly([c // g for c in ints])


def _q_gcd(a, b):
    a = [Fraction(c) for c in a.coefficients]
    b = [Fraction(c) for c in b.coefficients]
    while b:
        a, b = b, _q_divmod(a, b)[1]
    return _q_normalize(a)


# --- IntPoly ---

def test_intpoly_basic_ops():
    p = IntPoly((5, -1, 1))          # X^2 - X + 5
    q = IntPoly((1, 1))              # X + 1
    assert p.degree == 2 and p.is_monic()
    assert p(2) == 7
    assert (p * q).coefficients == (5, 4, 0, 1)
    assert (p + q).coefficients == (6, 0, 1)
    assert (p - p).degree == -1
    assert p.derivative().coefficients == (-1, 2)
    assert (q ** 3).coefficients == (1, 3, 3, 1)


def test_intpoly_exact_division():
    p = IntPoly((5, -1, 1)) * IntPoly((3, 0, 1))
    assert p.exact_div(IntPoly((3, 0, 1))).coefficients == (5, -1, 1)
    assert IntPoly((3, 0, 1)).divides(p)
    with pytest.raises(ValueError):
        p.exact_div(IntPoly((1, 1)))
    # divisibility is over Q; an exact division also needs an integral
    # quotient, and each failure keeps its own message
    x1 = IntPoly((1, 1))
    assert IntPoly((2, 2)).divides(x1) and not IntPoly((1, 2)).divides(x1)
    with pytest.raises(ValueError, match="quotient is not integral"):
        x1.exact_div(IntPoly((2, 2)))
    with pytest.raises(ValueError, match="division is not exact"):
        x1.exact_div(IntPoly((1, 2)))
    with pytest.raises(ValueError, match="division is not exact"):
        x1.exact_div(IntPoly((1, 0, 1)))
    with pytest.raises(ZeroDivisionError):
        x1.exact_div(IntPoly(()))
    assert IntPoly(()).exact_div(x1) == IntPoly(())


def test_primitive_part_positive_leading():
    # the sign is normalized whatever the content, 1 included
    assert IntPoly((-4, -2)).primitive_part() == IntPoly((2, 1))
    assert IntPoly((-2, -1)).primitive_part() == IntPoly((2, 1))
    assert IntPoly((3, -1)).primitive_part() == IntPoly((-3, 1))
    assert IntPoly(()).primitive_part() == IntPoly(())


def test_squarefree_part():
    # (X+3)^2 * (X^2+1)
    p = IntPoly((9, 6, 1)) * IntPoly((1, 0, 1))
    assert p.squarefree_part() == IntPoly((3, 1)) * IntPoly((1, 0, 1))
    # non-monic: (225 X - 178)^2, and mixed multiplicities with a
    # non-unit leading coefficient and a negative content
    assert IntPoly((31684, -80100, 50625)).squarefree_part() \
        == IntPoly((-178, 225))
    q = IntPoly((-1, 2)) ** 2 * IntPoly((2, 3)) ** 3 * IntPoly((5, 1)) * -6
    assert q.squarefree_part() \
        == IntPoly((-1, 2)) * IntPoly((2, 3)) * IntPoly((5, 1))
    assert IntPoly((-7,)).squarefree_part() == IntPoly((1,))
    assert IntPoly(()).squarefree_part() == IntPoly((1,))


def test_intpoly_gcd():
    a = IntPoly((-1, 2)) ** 2 * IntPoly((1, 0, 1))
    b = IntPoly((-1, 2)) * IntPoly((5, 1)) * -4
    assert a.gcd(b) == IntPoly((-1, 2)) == b.gcd(a)
    assert a.gcd(IntPoly(())) == a
    assert (a * -3).gcd(IntPoly(())) == a
    assert a.gcd(IntPoly((6,))) == IntPoly((1,))
    assert IntPoly(()).gcd(IntPoly(())) == IntPoly(())


_small_polys = st.lists(st.integers(-5, 5), max_size=4).map(
    lambda c: IntPoly(tuple(c)))


@settings(max_examples=200, deadline=None)
@given(_small_polys, _small_polys, _small_polys, st.integers(1, 3))
def test_polynomial_kernels_match_fraction_euclid(a, b, c, k):
    # inputs share the factor c^k, so most gcds are not trivial
    a, b = a * c ** k, b * c
    assert a.gcd(b) == _q_gcd(a, b)
    if a.degree > 0:
        assert a.squarefree_part() == _q_normalize(_q_divmod(
            [Fraction(x) for x in a.coefficients],
            [Fraction(x) for x in _q_gcd(a, a.derivative()).coefficients])[0])
    if b.is_zero():
        return
    q, r = _q_divmod([Fraction(x) for x in a.coefficients],
                     [Fraction(x) for x in b.coefficients])
    assert b.divides(a) == (not r)
    if r:
        with pytest.raises(ValueError, match="division is not exact"):
            a.exact_div(b)
    elif any(x.denominator != 1 for x in q):
        with pytest.raises(ValueError, match="quotient is not integral"):
            a.exact_div(b)
    else:
        assert a.exact_div(b) == IntPoly([int(x) for x in q])


def test_power_sums_oracle():
    # roots of X^2 - X + 5: s1 = 1, s2 = 1 - 10 = -9, s3 = s2 - 5 s1 = -14
    ps = power_sums(IntPoly((5, -1, 1)), 3)
    assert ps == [Fraction(2), Fraction(1), Fraction(-9), Fraction(-14)]


def test_from_power_sums_round_trip():
    # power sums of the roots (with multiplicity) rebuild the monic
    # polynomial; repeated roots included
    rng = random.Random(20261018)
    polys = [IntPoly((-2, 1)) ** 3 * IntPoly((1, 0, 1)) ** 2,
             IntPoly((3, 1)) ** 4, IntPoly((5, -1, 1)) ** 2 * IntPoly((7, 1))]
    for _ in range(40):
        p = IntPoly((1,))
        for _ in range(rng.randint(1, 4)):
            f = IntPoly((rng.randint(-9, 9), rng.randint(-3, 3), 1))
            p = p * f ** rng.randint(1, 2)
        polys.append(p)
    for p in polys:
        assert from_power_sums(power_sums(p, p.degree)) \
            == list(p.coefficients)
    # the sums of no integer polynomial, and a non-monic input, refuse
    with pytest.raises(ValueError):
        from_power_sums([2, 1, 0])
    with pytest.raises(ValueError):
        power_sums(IntPoly((5, 3, 2)), 2)


def _trial_factor_degrees(coeffs, ell):
    """Degrees of the monic irreducible factors of the monic coeffs mod
    ell, by trial division with every monic polynomial of each degree up
    to half the degree, or None when some factor repeats."""
    def divide(f, d):
        f = list(f)
        out = [0] * (len(f) - len(d) + 1)
        for k in range(len(out) - 1, -1, -1):
            c = out[k] = f[k + len(d) - 1] % ell
            for i, x in enumerate(d):
                f[k + i] = (f[k + i] - c * x) % ell
        return out if not any(f) else None

    f = [c % ell for c in coeffs]
    degrees = []
    k = 1
    while 2 * k <= len(f) - 1:
        for tail in itertools.product(range(ell), repeat=k):
            d = list(tail) + [1]
            quotient = divide(f, d)
            if quotient is not None:
                if divide(quotient, d) is not None:
                    return None
                degrees.append(k)
                f = quotient
                break
        else:
            k += 1
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return tuple(sorted(degrees))


def test_factor_degrees_mod_matches_trial_division():
    rng = random.Random(20261021)
    checked = 0
    for _ in range(400):
        ell = rng.choice((2, 3, 5, 7))
        n = rng.randint(1, 7)
        coeffs = [rng.randint(-30, 30) for _ in range(n)] + [1]
        want = _trial_factor_degrees(coeffs, ell)
        if want is None:
            continue                    # not squarefree mod ell
        assert factor_degrees_mod(IntPoly(coeffs), ell) == want, \
            (coeffs, ell)
        checked += 1
    assert checked > 200
    # x^4 + 1 splits into quadratics mod 3 and stays irreducible over Q;
    # x^5 - x splits completely mod 5
    assert factor_degrees_mod(IntPoly([1, 0, 0, 0, 1]), 3) == (2, 2)
    assert factor_degrees_mod(IntPoly([0, -1, 0, 0, 0, 1]), 5) \
        == (1, 1, 1, 1, 1)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_intpoly_ring_axioms(a, b):
    p, q = IntPoly(tuple(a)), IntPoly(tuple(b))
    assert (p * q) == (q * p)
    assert (p + q) == (q + p)
    x = 3
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


# --- balls ---

@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 40),
       st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 40))
def test_ball_arithmetic_encloses_exact_points(ar, ai, an, br, bi, bn):
    za = enclose(Fraction(ar, an), Fraction(ai, an), Fraction(1, 100), 64)
    zb = enclose(Fraction(br, bn), Fraction(bi, bn), Fraction(1, 100), 64)
    # the exact midpoints must land inside every operation's output ball
    sr, si = za.re + zb.re, za.im + zb.im
    assert contains_exact(za + zb, sr, si)
    mr = za.re * zb.re - za.im * zb.im
    mi = za.re * zb.im + za.im * zb.re
    assert contains_exact(za * zb, mr, mi)
    # the modulus certificate multiplies by a conjugate
    assert contains_exact(za * zb.conjugate(), za.re * zb.re + za.im * zb.im,
                          za.im * zb.re - za.re * zb.im)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4), st.integers(4, 64))
def test_round_bits_keeps_enclosure(num, den, bits):
    b = enclose(Fraction(num, den), Fraction(-num, 3 * den),
                Fraction(1, den), 128)
    r = b.round_bits(bits)
    assert contains_ball(r, b) or r.rad >= b.rad
    assert contains_exact(r, b.re, b.im)
    assert r.re.denominator <= (1 << bits)


@given(st.integers(0, 10**8), st.integers(1, 10**4))
def test_sqrt_bounds(p, q):
    x = p * q
    lb, ub = math.isqrt(x), isqrt_ub(x)
    assert lb * lb <= x <= ub * ub
    assert lb <= ub


def test_ball_power_and_inverse():
    z = enclose(Fraction(1, 2), Fraction(3, 2), 0, 1)
    w = z * z * z
    # (1/2 + 3i/2)^3 = 1/8 + 3*(1/4)*(3i/2) + 3*(1/2)*(9 i^2/4) + 27 i^3 / 8
    ex_re = Fraction(1, 8) - Fraction(27, 8)
    ex_im = Fraction(9, 8) * 1 - Fraction(27, 8)
    assert contains_exact(w, ex_re, ex_im)
    # 1/z = conj(z) / |z|^2: the product with the conjugate is exact
    prod = z * z.conjugate()
    assert (prod.re, prod.im, prod.rad) == (Fraction(5, 2), 0, 0)


def test_disjoint():
    a = enclose(0, 1, Fraction(1, 4), 2)
    b = enclose(0, -1, Fraction(1, 4), 2)
    assert a.disjoint(b)


def test_unique_integer():
    def ball(re, im, rad):
        return enclose(re, im, rad, 8)

    assert ball(3, 0, Fraction(1, 4)).unique_integer() == 3
    assert ball(Fraction(5, 2), 0, Fraction(1, 8)).unique_integer() is None
    assert ball(3, 1, Fraction(1, 4)).unique_integer() is None
    with pytest.raises(Ambiguous):
        ball(Fraction(5, 2), 0, 1).unique_integer()


# --- lattices ---

def _determinantal_factors(mat):
    """Oracle: the invariant factors s_k = d_k / d_(k-1), where d_k is the
    gcd of the k x k minors, up to the rank (the first d_k = 0)."""
    out, prev = [], 1
    for k in range(1, min(len(mat), len(mat[0]) if mat else 0) + 1):
        d = minors_gcd(mat, k)
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def _check_saturation_index(mat):
    """The index is d_rank, the gcd of the maximal nonzero minors: the
    product of the determinantal oracle's factors."""
    assert lattice_saturation_index(mat) == math.prod(
        _determinantal_factors(mat)), mat


def test_snf_oracle():
    assert lattice_saturation_index([[2, 4], [6, 8]]) == 8
    assert lattice_saturation_index([[0, 0], [0, 0]]) == 1
    assert lattice_saturation_index([[]]) == 1
    assert lattice_saturation_index([]) == 1
    # dependent rows: the index of Z in Z, not of the columns (2, 1)
    assert lattice_saturation_index([[2], [1]]) == 1
    assert lattice_saturation_index([[2, 6], [4, 8], [2, 6]]) == 8


@given(st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=4),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_properties(rows):
    _check_saturation_index(rows)


def test_snf_seeded_bulk():
    rng = random.Random(20260819)
    for _ in range(600):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        # scaled columns and repeated rows force nontrivial factors and
        # rank defects
        mat = [[rng.randint(-30, 30) * rng.choice((1, 1, 2, 6))
                for _ in range(m)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            mat[-1] = [3 * x for x in mat[0]]
        _check_saturation_index(mat)
    # 6 x 6, where unchecked entry growth in an elimination shows
    for _ in range(100):
        mat = [[rng.randint(-30, 30) for _ in range(6)] for _ in range(6)]
        _check_saturation_index(mat)


def test_invariant_factors_of_corpus_relation_matrices():
    """The factors build_eig_group states equal the determinantal ones
    of its relation matrix, on the corpus and its k = 2, 3 base
    changes."""
    checked = 0
    for e in CORPUS:
        for k in (1, 2, 3):
            poly = base_change(IntPoly(e.coefficients), k)
            try:
                eig = analysis_cached(e.q ** k, poly.coefficients).eig
            except TorsionDetected:
                continue
            mat = [list(r) for r in eig.relation_matrix]
            assert list(eig.invariant_factors) == \
                _determinantal_factors(mat), (e.q, e.coefficients, k)
            checked += 1
    assert checked > 120


def _hermite_column_form(mat):
    """The column Hermite normal form that the row form replaced: the
    nonzero columns of the canonical basis of the column span, lower
    triangular, positive pivots, entries left of a pivot in [0, pivot)."""
    a = [list(row) for row in mat]
    n, m = len(a), len(a[0])

    def swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    col = 0
    for r in range(n):
        if col >= m:
            break
        nz = [j for j in range(col, m) if a[r][j]]
        if not nz:
            continue
        swap(col, min(nz, key=lambda j: abs(a[r][j])))
        done = False
        while not done:
            done = True
            for j in range(col + 1, m):
                if a[r][j]:
                    f = a[r][j] // a[r][col]
                    for row in a:
                        row[j] -= f * row[col]
                    if a[r][j]:
                        swap(col, j)
                        done = False
        if a[r][col] < 0:
            for row in a:
                row[col] = -row[col]
        for j in range(col):
            f = a[r][j] // a[r][col]
            for row in a:
                row[j] -= f * row[col]
        col += 1
    return [c for c in zip(*a) if any(c)]


def test_hnf_rows_match_the_column_form_transposed():
    rng = random.Random(20261019)
    for _ in range(1500):
        dim = rng.randint(1, 6)
        vecs = [tuple(rng.randint(-5, 5) * rng.choice((0, 1, 1, 2, 4))
                      for _ in range(dim))
                for _ in range(rng.randint(1, 7))]
        rows = hnf_rows(vecs)
        assert rows == tuple(_hermite_column_form(list(zip(*vecs)))), vecs
        assert hnf_rows(rows) == rows
        assert all(in_row_lattice(rows, v) for v in vecs)


def test_hnf_canonical():
    h = hnf_rows([[2, 6], [4, 8]])
    assert h == ((2, 2), (0, 4))
    assert hnf_rows(h) == h
    assert hnf_rows([[2, 6], [4, 8], [2, 6], [0, 0]]) == h
    assert hnf_rows([]) == hnf_rows([[0, 0]]) == ()


def test_saturation_index():
    assert lattice_saturation_index([[2], [4]]) == 2
    assert lattice_saturation_index([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert lattice_saturation_index([[2, 0], [0, 3]]) == 6


def test_lll_finds_short_vector():
    red = lll_reduce([[1, 0], [10 ** 8 + 1, 1]])
    assert all(type(x) is int for row in red for x in row)
    norms = sorted(sum(x * x for x in row) for row in red)
    assert norms[0] <= 2


# --- LLL against a textbook Fraction oracle ---

def _fraction_lll(basis):
    """Textbook LLL with delta = 3/4 on Fractions: the whole Gram-Schmidt
    basis is recomputed after every size reduction and every swap, and mu
    is rounded by round(Fraction), half to even."""
    b = [[Fraction(x) for x in row] for row in basis]
    n = len(b)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = [Fraction(0)] * n

    def gram_schmidt():
        star = []
        for i in range(n):
            v = list(b[i])
            for j in range(i):
                mu[i][j] = sum(x * y for x, y in zip(b[i], star[j])) / norms[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
            norms[i] = sum(x * x for x in v)

    gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = round(mu[k][j])
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                gram_schmidt()
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            gram_schmidt()
            k = max(k - 1, 1)
    return [[int(x) for x in row] for row in b]


def test_lll_matches_fraction_oracle_on_corpus(monkeypatch):
    inputs = []
    reduce = latt.lll_reduce

    def capture(basis):
        inputs.append([list(row) for row in basis])
        return reduce(basis)

    monkeypatch.setattr(latt, "lll_reduce", capture)
    # the engine, forced on every record, reduces one torsion lattice
    # each, the records whose rho is injective included
    for e in CORPUS:
        an = Analysis(validate(e.q, list(e.coefficients)))
        eig._relation_engine(an.field, an.eig, an.settings.search_bound,
                             an.rho, an.torsion_rank)
    assert len(CORPUS) == len(inputs) == 57
    for basis in inputs:
        assert reduce(basis) == _fraction_lll(basis)


def _relation_lattice(rng, k):
    """Rows of the relation-finding lattice: an identity block beside a
    column of angles scaled by 2^64, and a closure row for 2*pi.  Some
    angles are small combinations of earlier ones, off by at most one
    unit, so the lattice holds short vectors to find."""
    tau = round(Fraction(math.tau) * 2 ** 64)
    col = []
    for i in range(k):
        if i >= 2 and rng.random() < 0.5:
            col.append(sum(rng.randint(-3, 3) * c for c in col)
                       + rng.randint(-2, 2) * tau + rng.randint(-1, 1))
        else:
            col.append(rng.randint(-tau // 2, tau // 2))
    rows = [[int(j == i) for j in range(k)] + [col[i]] for i in range(k)]
    return rows + [[0] * k + [tau]]


def test_lll_matches_fraction_oracle_on_relation_lattices():
    # the corpus covers k up to 6; the Fraction oracle's cost grows fast
    # with k, so the seeded lattices stay at k <= 4
    rng = random.Random(20261018)
    for _ in range(30):
        basis = _relation_lattice(rng, rng.randint(1, 4))
        assert lll_reduce(basis) == _fraction_lll(basis)


def test_lll_matches_fraction_oracle_on_full_rank_bases():
    # small entries make ties (|mu| exactly 1/2) and swaps common
    rng = random.Random(20261019)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 5)
        m = rng.randint(n, 6)
        basis = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        if det(mat_mul(basis, list(map(list, zip(*basis))))) == 0:
            continue
        checked += 1
        assert lll_reduce(basis) == _fraction_lll(basis)


def test_lll_rounds_ties_half_to_even():
    # mu = 5/2 rounds to 2; floor(mu + 1/2) = 3 would give [[-1, 1], [1, 1]]
    assert lll_reduce([[2, 0], [5, 1]]) == [[1, 1], [1, -1]]
    assert _fraction_lll([[2, 0], [5, 1]]) == [[1, 1], [1, -1]]


@pytest.mark.parametrize("basis", [
    [[0, 0]],
    [[1, 2], [2, 4]],
    [[1, 0, 0], [0, 1, 0], [3, -2, 0]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0], [0, 0, 0, 1]],
])
def test_lll_rejects_dependent_rows(basis):
    with pytest.raises(ValueError):
        lll_reduce(basis)


# --- root isolation ---

def test_isolate_quadratic_oracle():
    roots = isolate_roots(real_roots(IntPoly((1, 0, 1)), 1), 64)
    assert len(roots) == 2
    assert contains_exact(roots[0], 0, -1)
    assert contains_exact(roots[1], 0, 1)


def test_isolate_weil_quadratic():
    roots = isolate_roots(real_roots(IntPoly((5, -1, 1)), 5), 64)
    assert len(roots) == 2
    assert roots[0].re == roots[1].re == Fraction(1, 2)
    prod = roots[0] * roots[1]
    assert contains_exact(prod, 5)
    # canonical order: negative imaginary part first
    assert roots[0].im < 0 < roots[1].im


def test_isolate_handles_multiplicities():
    roots = isolate_roots(real_roots(IntPoly((9, 6, 1)), 9), 64)  # (X+3)^2
    assert len(roots) == 1
    assert contains_exact(roots[0], -3)


def test_isolate_sextic_modulus():
    roots = isolate_roots(
        real_roots(IntPoly((27, 0, 0, 0, 0, 0, 1)), 3), 96)  # X^6 + 27
    assert len(roots) == 6
    for b in roots:
        sq = (b * b) * (b * b).conjugate()
        # |z|^2 must be 3 for every root, so |z|^4 = 9
        assert contains_exact(sq, 9)


def test_isolate_large_q_sextic():
    # roots 4096 * zeta_7^j for j = 1..6, q = 4^12: the real Weil
    # polynomial's roots 8192 cos(2 pi j / 7) are about 2^13 and must be
    # found to 2^-13 of a unit relative to them
    coeffs = tuple(4096 ** k for k in range(6, -1, -1))
    signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(5)
    try:
        roots = isolate_roots(real_roots(IntPoly(coeffs), 4 ** 12), 64)
    finally:
        signal.alarm(0)
    assert len(roots) == 6
    for b in roots:
        # |z|^2 = 4096^2 and z^7 = 4096^7 for every root
        assert contains_exact(b * b.conjugate(), 4096 ** 2)
        power = b
        for _ in range(6):
            power = power * b
        assert contains_exact(power, 4096 ** 7)
    assert [b.mre for b in roots] == sorted(b.mre for b in roots)
    assert [b.mim < 0 for b in roots] == [True, False] * 3


def test_isolate_large_q_degree_24_at_3072_bits():
    # six quartics x^4 + (2q - c) x^2 + q^2 over q = 2^60, each with the
    # real Weil roots y = +-sqrt(c): Newton aimed from the bracket's scale
    # instead of its width fell back to bisection here and took minutes
    q = 2 ** 60
    cs = [k * (q // 32) + 1 for k in (3, 5, 7, 11, 13, 17)]
    p = IntPoly((1,))
    for c in cs:
        p = p * IntPoly((q * q, 0, 2 * q - c, 0, 1))
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(10)
    try:
        roots = isolate_roots(real_roots(p, q), 3072)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(roots) == 24
    # ascending y: -sqrt(c) for c descending, then +sqrt(c) ascending
    for pair, c in zip(range(0, 24, 2), cs[::-1] + cs):
        b, bbar = roots[pair], roots[pair + 1]
        assert b.mim < 0 and (bbar.mre, bbar.mim) == (b.mre, -b.mim)
        y = b + b.conjugate()
        assert contains_exact(y * y, c)
        assert contains_exact(b * b.conjugate(), q)
    assert [b.mre < 0 for b in roots[::2]] == [True] * 6 + [False] * 6


def _too_slow(signum, frame):
    raise AssertionError("root isolation did not return within the limit")


def test_real_weil_poly_oracles():
    # x^2 - a x + q has h = y - a; a product of such factors has the
    # product of the h; x^6 + 27 over q = 3 has h = D_3 = y^3 - 9 y
    assert real_weil_poly(IntPoly((5, -1, 1)), 5) == IntPoly((-1, 1))
    quartic = IntPoly((5, -1, 1)) * IntPoly((5, 3, 1))
    assert real_weil_poly(quartic, 5) == IntPoly((-1, 1)) * IntPoly((3, 1))
    assert real_weil_poly(IntPoly((27, 0, 0, 0, 0, 0, 1)), 3) == IntPoly(
        (0, -9, 0, 1))


def test_roots_in_interval_at_irrational_ends():
    # s = y^2 - 8 has its roots at the ends +-2 sqrt(2) for q = 2; moving
    # q or the polynomial by one moves them out or in
    assert roots_in_interval(IntPoly((-8, 0, 1)), 2) == 2
    assert roots_in_interval(IntPoly((-9, 0, 1)), 2) == 0
    assert roots_in_interval(IntPoly((-8, 0, 1)), 3) == 2
    assert roots_in_interval(IntPoly((-8, 1)), 16) == 1       # 8 = 2 sqrt(16)
    assert roots_in_interval(IntPoly((-8, 1)), 15) == 0
    assert roots_in_interval(IntPoly((8, 1)), 16) == 1
    assert roots_in_interval(IntPoly((1, 0, 1)), 5) == 0      # y = +-i


def _weil_product(rng, q, count):
    """A product of count factors x^2 - a x + q with a^2 <= 4q, and
    (x^2 - q)^2 for a non-square q, with the real Weil roots y of its
    distinct roots: ('a', a) for x^2 - a x + q and ('edge', +-1) for
    +-2 sqrt(q)."""
    r = math.isqrt(4 * q)
    p, ys = IntPoly((1,)), set()
    for _ in range(count):
        if r * r != 4 * q and rng.random() < 0.15:
            p = p * IntPoly((-q, 0, 1)) ** 2
            ys |= {("edge", -1), ("edge", 1)}
            continue
        a = rng.choice((r, -r)) if rng.random() < 0.2 else rng.randint(-r, r)
        p = p * IntPoly((q, -a, 1))
        ys.add(("a", a))
    return p, ys


def _base_change_ys(q, ys, k):
    """The roots y of the base change by k: pi^k + conj(pi)^k by the
    Dickson recurrence, and +-sqrt(q)^k for the real roots."""
    out = set()
    for kind, v in ys:
        if kind == "a":
            prev, cur = 2, v
            for _ in range(k - 1):
                prev, cur = cur, v * cur - q * prev
            out.add(("a", cur))
        elif k % 2:
            out.add(("edge", v))
        else:
            out.add(("a", 2 * q ** (k // 2)))
    return out


def _seeded_weil_products():
    rng = random.Random(25)
    cases = []
    for q in (2, 3, 4, 5, 9, 16, 25, 27, 49, 65537):
        for _ in range(4):
            p, ys = _weil_product(rng, q, rng.randint(1, 5))
            cases.append((q, p, ys))
    # a pair with y^2 just below 4q: 16 +- i over q = 257, and
    # 256 +- i over q = 65537
    for q, a in ((257, 32), (65537, 512)):
        cases.append((q, IntPoly((q, -a, 1)), {("a", a)}))
        cases.append((q, IntPoly((q, a, 1)) * IntPoly((q, 1 - a, 1)),
                      {("a", -a), ("a", a - 1)}))
    for q, p, ys in list(cases):
        for k in (2, 3):
            if p.degree <= 12 and q ** k < 2 ** 40:
                cases.append((q ** k, base_change(p, k), _base_change_ys(q, ys, k)))
    return cases


def test_isolation_property_seeded():
    # canonical order, the conjugation layout, the real parts of the
    # known factors, and the power sums of the balls rebuild sqfree(P)
    checked = 0
    for q, p, ys in _seeded_weil_products():
        # -2 sqrt(q) first, then the integer roots ascending, 2 sqrt(q) last
        expected = []
        for kind, v in sorted(ys, key=lambda t: (t[1], 0) if t[0] == "edge"
                              else (0, t[1])):
            expected += [(kind, v)] * (1 if kind == "edge" or v * v == 4 * q
                                       else 2)
        balls = isolate_roots(real_roots(p, q), 128)
        assert len(balls) == len(expected), (q, p)
        for i, (b, (kind, v)) in enumerate(zip(balls, expected)):
            if kind == "edge":
                assert b.mim == 0 and (b.mre > 0) == (v > 0)
                assert contains_exact(b * b, q)
            else:
                assert abs(b.re - Fraction(v, 2)) <= b.rad, (q, p, i)
                if v * v == 4 * q:
                    assert b.mim == 0
        for i, b in enumerate(balls):
            if b.mim < 0:
                assert balls[i + 1].mim == -b.mim
                assert balls[i + 1].mre == b.mre
            elif b.mim > 0:
                assert balls[i - 1].mim == -b.mim
        sf = p.squarefree_part()
        sums = integer_power_sums(power_rows(balls, 192), range(len(balls)))
        assert IntPoly(from_power_sums(sums)) == sf, (q, p)
        if p.degree <= 12:
            iota = validate(q, p.coefficients).iota
            assert iota == tuple(i + 1 if b.mim < 0 else i - 1 if b.mim > 0
                                 else i for i, b in enumerate(balls))
        checked += 1
    assert checked > 60


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((2, 3, 4, 9)), st.lists(st.integers(-6, 6),
                                                min_size=1, max_size=3))
def test_isolated_roots_reexpand(q, tail):
    # products of x^2 - a x + q with a^2 <= 4q: the balls multiply back
    # to the squarefree part
    p = IntPoly((1,))
    for a in tail:
        if a * a <= 4 * q:
            p = p * IntPoly((q, -a, 1))
    if p.degree < 1:
        return
    sf = p.squarefree_part()
    balls = isolate_roots(real_roots(p, q), 80)
    assert len(balls) == sf.degree
    coeffs = [ComplexBall.exact(1)]
    for b in balls:
        nxt = [ComplexBall.exact(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] + c * b.scale(-1)
        coeffs = nxt
    for ball, exact in zip(coeffs, sf.coefficients):
        assert contains_exact(ball, exact), (p, sf, exact)


def test_certified_balls_are_disjoint_and_small():
    b = ComplexBall(3 << 20, 1 << 20, 1, -20)
    assert _certified([b, b.conjugate()], 16)
    assert not _certified([b, b], 16)
    # radius 2^-12 is more than 2^-16 |midpoint| = 3 * 2^-16
    assert not _certified([ComplexBall(3 << 20, 0, 1 << 8, -20)], 16)


def test_refine_preserves_matching():
    p = IntPoly((7, -3, 1))
    real = real_roots(p, 7)
    coarse = isolate_roots(real, 48)
    fine = refine_roots(real, 200)
    assert len(fine) == len(coarse)
    for f, c in zip(fine, coarse):
        assert not f.disjoint(c)
        assert f.rad < c.rad
    # the order is canonical, so it needs no earlier enclosures
    assert [b.mim < 0 for b in fine] == [True, False]
    # roots 1 and 4 of x^2 - 5x + 4 are off |x|^2 = 4
    with pytest.raises(ValueError):
        isolate_roots(real_roots(IntPoly((4, -5, 1)), 4), 64)


def test_isolation_failure_names_the_last_bits_tried(monkeypatch):
    # eight attempts from 2 * 64 + 32 = 160 bits, the last at 160 * 2^7
    monkeypatch.setattr(exact_roots, "_certified", lambda balls, prec: False)
    with pytest.raises(PrecisionExhausted, match=r"at 20480 bits$"):
        isolate_roots(real_roots(IntPoly((5, -1, 1)), 5), 64)


def test_refinement_reuses_the_records_brackets(monkeypatch):
    # each validation bisects once, and a refinement of its record long
    # after, with other records validated in between, bisects no more
    counted = []
    real_brackets = exact_roots._brackets

    def brackets(s, q):
        counted.append(q)
        return real_brackets(s, q)

    monkeypatch.setattr(exact_roots, "_brackets", brackets)
    quartics = list({(e.q, tuple(e.coefficients)) for e in CORPUS
                     if len(e.coefficients) == 5})
    assert len(quartics) >= 5
    records = [validate(q, c) for q, c in sorted(quartics)[:5]]
    first = records[0]
    fine = refine_roots(first.real, 2 * first.prec)
    assert len(counted) == 5
    assert len(fine) == len(first.roots)
    assert not any(f.disjoint(b) for f, b in zip(fine, first.roots))
    # the carried value stays out of equality and repr
    assert "real=" not in repr(first)
    assert replace(first, real=None) == first


def _from_real_weil(h, q):
    """x^g h(x + q/x) for h of degree g: sum of c_k x^(g-k) (x^2 + q)^k."""
    g = h.degree
    out = IntPoly((0,))
    for k, c in enumerate(h.coefficients):
        out = out + IntPoly((0,) * (g - k) + (c,)) * IntPoly((q, 0, 1)) ** k
    return out


def _holds_a_root(ball, h, q):
    """h changes sign over twice the real part of ball, and |z|^2 = q
    meets the disk."""
    y_lo, y_hi = 2 * (ball.re - ball.rad), 2 * (ball.re + ball.rad)
    return h(y_lo) * h(y_hi) <= 0 and contains_exact(ball * ball.conjugate(), q)


def test_isolate_brackets_past_the_working_bits():
    # q = 2^831: halving a bracket to width 1/2 takes about 420 bits of
    # scale, more than 2 * 192 + 32; h = y^2 - 2, real parts +-sqrt(2)/2
    q = 2 ** 831
    p = IntPoly((q * q, 0, 2 * q - 2, 0, 1))
    h = IntPoly((-2, 0, 1))
    assert real_weil_poly(p, q) == h
    balls = isolate_roots(real_roots(p, q), 192)
    assert len(balls) == 4
    assert all(_holds_a_root(b, h, q) for b in balls)
    assert [b.re < 0 for b in balls] == [True, True, False, False]
    # roots k and about k - 2^-395 of a degree-12 input over q = 2^200:
    # the bracket that separates them is finer than 2^-416
    q, k = 2 ** 200, 12345
    inner = IntPoly((-k, 1))
    for r in (-3 << 98, -1 << 98, 1 << 98, 3 << 98):
        inner = inner * IntPoly((-r, 1))
    h = IntPoly((-k, 1)) * (inner + IntPoly((1,)))
    p = _from_real_weil(h, q)
    assert real_weil_poly(p, q) == h
    balls = isolate_roots(real_roots(p, q), 192)
    assert len(balls) == 12
    assert all(_holds_a_root(b, h, q) for b in balls)
    close, exact = balls[4], balls[6]
    assert exact.re == Fraction(k, 2)
    assert close.re + close.rad < Fraction(k, 2)
    data = validate(q, p.coefficients)
    assert all(_holds_a_root(b, h, q) for b in data.roots)


# --- argument enclosures ---

# 60 significant digits of pi, and of arctangents, frozen from a throwaway
# multiprecision script
PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494")
ATAN2 = {
    (3, 4): "0.927295218001612232428512462922428804057074108572240527621866",
    (5, -12): "-1.17600520709513510249122216125017085520341449211184870745209",
    (-7, 2): "2.86329299458468188713441311304683312668389878379955475053594",
    (-1, -1000): "-1.5717963264615634858978455012746719861102056342418209235789",
    (1000, 1): "0.000999999666666866666523809634920544011620934554268013091431048",
    (2 ** 70 + 1, 3 ** 44):
        "0.695210260730808578066145337064662768601475506675772191495073",
}


def test_two_pi_ball_matches_digits():
    for prec in (64, 128, 300):
        mid, rad = two_pi_ball(prec)
        assert rad == Fraction(1, 2 ** prec)
        assert abs(mid - 2 * PI) < Fraction(1, 2 ** min(prec + 12, 190))


def test_arg_ball_matches_digits():
    for prec in (48, 64, 128):
        tol = Fraction(1, 2 ** (prec + 12))
        for (a, b), digits in ATAN2.items():
            mid, rad = arg_ball(ComplexBall.exact(a, b), prec)
            assert abs(mid - Fraction(digits)) < tol, (a, b, prec)
            assert rad == Fraction(1, 2 ** prec)
        # axes and diagonals are exact multiples of two_pi_ball's pi/4
        eighth = two_pi_ball(prec)[0] / 8
        for (a, b), k in (((1, 0), 0), ((1, 1), 1), ((0, 7), 2), ((-2, 2), 3),
                          ((-5, 0), 4), ((-3, -3), -3), ((0, -1), -2),
                          ((9, -9), -1)):
            assert arg_ball(ComplexBall.exact(a, b), prec)[0] == k * eighth


def test_arg_ball_radius_covers_the_disk():
    # a disk of radius r at distance |m| spans arcsin(r / |m|) <= 2 r / |m|
    # either side; 3 + 4i with radius 1/2 on the exponent -1
    mid, rad = arg_ball(ComplexBall(6, 8, 1, -1), 64)
    assert abs(mid - Fraction(ATAN2[3, 4])) < Fraction(1, 2 ** 70)
    assert rad == Fraction(2, 10 - 1) + Fraction(1, 2 ** 64)
    with pytest.raises(Ambiguous):
        arg_ball(ComplexBall(3, 4, 5, 0), 64)


# --- relation candidates ---

LOG2 = Fraction("0.69314718055994530941723212145817656807550013436025525412068")
LOG3 = Fraction("1.09861228866810969139524523692252570464749055782274945173469")


def test_relation_candidates_orthogonal_pair():
    hp = PI / 2
    eps = Fraction(1, 2 ** 150)
    tp = two_pi_ball(160)
    cands = relation_candidates([(hp, eps), (-hp, eps)], tp, 4)
    assert (1, 1) in cands
    assert (2, -2) in cands


def test_relation_candidates_generic_angles_empty():
    eps = Fraction(1, 2 ** 150)
    assert relation_candidates([(LOG2, eps), (LOG3, eps)], two_pi_ball(160),
                               1) == []
