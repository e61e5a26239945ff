"""Tests for the exact arithmetic layer: polynomials, balls, lattices, roots.

Oracle values were computed independently (by hand or with a throwaway
script) and are frozen here; property tests check the algebraic contracts
on randomized inputs.
"""

import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobeig.analysis import Analysis
from frobeig.corpus import CORPUS
from frobeig.errors import Ambiguous, TorsionDetected
from frobeig.exactmath import (ComplexBall, IntPoly, hnf_rows,
                               in_row_lattice, invariant_factors,
                               isolate_roots, latt, lattice_saturation_index,
                               lll_reduce, relation_candidates)
from frobeig.exactmath.balls import isqrt_ub
from frobeig.exactmath.intpoly import from_power_sums, power_sums
from frobeig.exactmath.roots import (_OFFSETS, _ONE, _ZERO, _aberth, _add,
                                     _cadd, _cadd_real, _cdiv, _cinv, _cmul,
                                     _csub, _div, _from_mpc, _horner,
                                     _match_permutation, _mpf_to_frac,
                                     _round, _step_small, refine_roots,
                                     two_pi_ball)
from frobeig.weil import validate

from conftest import (aberth_reference, contains_ball, contains_exact, enclose,
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
    for k in range(1, min(len(mat), len(mat[0])) + 1):
        d = minors_gcd(mat, k)
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def _check_invariant_factors(mat):
    got = invariant_factors(mat)
    assert got == _determinantal_factors(mat), mat
    assert all(b % a == 0 for a, b in zip(got, got[1:]))


def test_snf_oracle():
    assert invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert invariant_factors([[0, 0], [0, 0]]) == []
    assert invariant_factors([[]]) == invariant_factors([]) == []


@given(st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=4),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_properties(rows):
    _check_invariant_factors(rows)


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
        _check_invariant_factors(mat)
    # 6 x 6, where unchecked entry growth can keep the pivot loop from
    # ending
    for _ in range(100):
        mat = [[rng.randint(-30, 30) for _ in range(6)] for _ in range(6)]
        _check_invariant_factors(mat)


def test_invariant_factors_of_corpus_relation_matrices():
    checked = 0
    for e in CORPUS:
        try:
            eig = Analysis(validate(e.q, e.coefficients)).eig
        except TorsionDetected:
            continue
        _check_invariant_factors([list(r) for r in eig.relation_matrix])
        checked += 1
    assert checked > 40


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
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]


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
    for e in CORPUS:
        Analysis(validate(e.q, list(e.coefficients))).relations
    # one kernel and one torsion lattice per record
    assert len(inputs) == 2 * len(CORPUS) == 114
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
    roots = isolate_roots(IntPoly((1, 0, 1)), 64)
    assert len(roots) == 2
    assert contains_exact(roots[0], 0, -1)
    assert contains_exact(roots[1], 0, 1)


def test_isolate_weil_quadratic():
    roots = isolate_roots(IntPoly((5, -1, 1)), 64)
    assert len(roots) == 2
    assert roots[0].re == roots[1].re == Fraction(1, 2)
    prod = roots[0] * roots[1]
    assert contains_exact(prod, 5)
    # canonical order: negative imaginary part first
    assert roots[0].im < 0 < roots[1].im


def test_isolate_handles_multiplicities():
    roots = isolate_roots(IntPoly((9, 6, 1)), 64)   # (X+3)^2
    assert len(roots) == 1
    assert contains_exact(roots[0], -3)


def test_isolate_sextic_modulus():
    roots = isolate_roots(IntPoly((27, 0, 0, 0, 0, 0, 1)), 96)  # X^6 + 27
    assert len(roots) == 6
    for b in roots:
        sq = (b * b) * (b * b).conjugate()
        # |z|^2 must be 3 for every root, so |z|^4 = 9
        assert contains_exact(sq, 9)


def test_isolate_large_q_sextic():
    # roots 4096 * zeta_7^j, q = 4^12: the starting circle must scale with
    # the roots (the Cauchy radius here is about 2^72)
    coeffs = tuple(4096 ** k for k in range(6, -1, -1))
    signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(30)
    try:
        roots = isolate_roots(IntPoly(coeffs), 64)
    finally:
        signal.alarm(0)
    assert len(roots) == 6
    for b in roots:
        # |z|^2 = 4096^2 for every root
        assert contains_exact(b * b.conjugate(), 4096 ** 2)


def _too_slow(signum, frame):
    raise AssertionError("root isolation did not return within 30 s")


def _aberth_cases():
    """(poly, wp, offset) cold starts: the distinct corpus squarefree parts
    at their isolation precision and under every ladder offset, seeded
    squarefree polynomials of degree 1-9 with leading coefficient 1, 2 or
    3 across wp in {64, 128, 416, 832}, and the 4096 * zeta_7 sextic."""
    parts = {IntPoly(e.coefficients).squarefree_part() for e in CORPUS}
    for k, sf in enumerate(sorted(parts, key=lambda p: p.coefficients)):
        bits = max(abs(c).bit_length() for c in sf.coefficients)
        yield sf, max(416, bits + 48), _OFFSETS[k % len(_OFFSETS)]
    rng = random.Random(22)
    for k in range(72):
        h = rng.choice((3, 30, 3000))
        tail = [rng.randint(-h, h) for _ in range(k % 9 + 1)]
        sf = IntPoly(tuple(tail + [k % 3 + 1])).squarefree_part()
        if sf.degree >= 1:
            yield sf, (64, 128, 416, 832)[k % 4], _OFFSETS[k % len(_OFFSETS)]
    sextic = IntPoly(tuple(4096 ** k for k in range(6, -1, -1)))
    for i, offset in enumerate(_OFFSETS):
        yield sextic, (64, 160)[i % 2], offset


def test_aberth_matches_the_reference_loop():
    # _aberth skips only operations with exactly known results, so every
    # iterate, and with it each ball and the root order, is unchanged
    signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(30)
    try:
        calls = 0
        for poly, wp, offset in _aberth_cases():
            cold = _aberth(poly, wp, offset=offset)
            assert [z._mpc_ for z in cold] == [
                z._mpc_ for z in aberth_reference(poly, wp, offset=offset)
            ], (poly, wp, offset)
            # the ladder's warm restart at twice the precision
            warm = [complex(z.real, z.imag) for z in cold]
            assert [z._mpc_ for z in _aberth(poly, 2 * wp, warm=warm)] == [
                z._mpc_ for z in aberth_reference(poly, 2 * wp, warm=warm)
            ], (poly, wp, "warm")
            calls += 2
    finally:
        signal.alarm(0)
    assert calls > 200


def test_aberth_special_branches_match_the_reference_loop(monkeypatch):
    # warm starts for P = x^2 + 2 that reach the two special branches:
    # P'(0) = 0 at the point 0, and two coincident points, which get the
    # same (tol, -tol) shift in every sweep and so never separate
    from frobeig.exactmath import roots
    hits = {roots._horner: 0, roots._csub: 0}

    def counting(f):
        def g(*args):
            value = f(*args)
            hits[f] += value == _ZERO
            return value
        return g

    for f in list(hits):
        monkeypatch.setattr(roots, f.__name__, counting(f))
    p = IntPoly((2, 0, 1))
    for warm in ([0j, 1 + 1j], [1 + 1j, 1 + 1j]):
        before = dict(hits)
        for wp in (64, 128):
            got = [z._mpc_ for z in _aberth(p, wp, warm=warm)]
            assert got == [z._mpc_ for z in aberth_reference(p, wp, warm=warm)]
            assert (got[0] == got[1]) == (warm[0] == warm[1])
        assert [hits[f] > before[f] for f in hits] == [
            warm[0] == 0, warm[0] == warm[1]]


def test_step_small_matches_the_rounded_stop_rule(monkeypatch):
    # steps at tol * max(1, |z|) * (1 + k 2^-wp), for |z| below, near and
    # above 1, reach both the exact decision and the rounded fallback,
    # which alone calls abs
    import mpmath
    rng = random.Random(22)
    abs_calls = [0]
    rounded_abs = mpmath.mpc.__abs__

    def counting_abs(z):
        abs_calls[0] += 1
        return rounded_abs(z)

    monkeypatch.setattr(mpmath.mpc, "__abs__", counting_abs)
    runs = {}
    for trial in range(600):
        wp = (64, 128, 416, 832)[trial % 4]
        with mpmath.workprec(wp):
            tol = mpmath.mpf(2) ** (8 - wp)
            ulp = mpmath.mpf(2) ** -wp
            if trial % 3 == 0:   # |z| within a few ulps of 1
                z = mpmath.expjpi(mpmath.mpf(rng.random())) * (
                    1 + rng.randint(-4, 4) * ulp)
            else:
                z = mpmath.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            k = rng.choice((rng.randint(-600, 600), rng.randint(-4, 4),
                            rng.randint(-10 ** 6, 10 ** 6)))
            with mpmath.workprec(3 * wp):
                size = tol * max(1, abs(z)) * (1 + k * ulp) * mpmath.mpf(
                    2) ** rng.choice((0, 0, 0, -30, 30))
            step = size * mpmath.expjpi(mpmath.mpf(rng.random()))
            expected = abs(step) / max(mpmath.mpf(1), abs(z)) < tol
            before = abs_calls[0]
            got = _step_small(_from_mpc(step), _from_mpc(z), wp)
            assert got == expected, (wp, step, z)
            branch = "exact" if abs_calls[0] == before else "rounded"
            runs[branch, got] = runs.get((branch, got), 0) + 1
    assert {("exact", True), ("exact", False)} <= set(runs)
    assert any(branch == "rounded" for branch, _ in runs)


def _raw(x):
    """mpmath's canonical tuple of the kernel real x = (m, e)."""
    m, e = x
    return int(m < 0), abs(m), e, abs(m).bit_length()


def _raw_c(z):
    return _raw(z[:2]), _raw(z[2:])


def _kernel_real(rng, prec):
    """A seeded kernel real: zero, or a signed odd mantissa of 1 to
    3 * prec bits with an exponent near 0 or up to 400 bits away, so that
    sums meet both the near and the far-offset paths of mpf_add."""
    if rng.random() < 0.05:
        return 0, 0
    bits = rng.randint(1, 3 * prec)
    m = rng.getrandbits(bits) | 1 | 1 << (bits - 1)
    spread = rng.choice((8, 8, 400))
    return (-m if rng.random() < 0.5 else m), rng.randint(-spread, spread)


def test_kernel_reals_match_libmp():
    # _round, _add (to nearest and toward zero) and _div return libmp's
    # tuples: on seeded operands, on ties, on far-offset sums whose large
    # operand has more than prec + 4 bits, and on exact cancellation
    from mpmath.libmp import mpf_add, mpf_div, normalize
    rng = random.Random(24)
    for trial in range(3000):
        prec = (53, 64, 128, 416)[trial % 4]
        x, y = _kernel_real(rng, prec), _kernel_real(rng, prec)
        if x[0]:
            assert _raw(_round(*x, prec)) == normalize(*_raw(x), prec, "n")
            assert _raw(_round(*x, prec, True)) == normalize(
                *_raw(x), prec, "d")
        assert _raw(_add(*x, *y, prec)) == mpf_add(_raw(x), _raw(y), prec,
                                                   "n"), (x, y, prec)
        assert _raw(_add(*x, *y, prec, True)) == mpf_add(
            _raw(x), _raw(y), prec, "d"), (x, y, prec)
        if y[0]:
            assert _raw(_div(*x, *y, prec)) == mpf_div(
                _raw(x), _raw(y), prec, "n"), (x, y, prec)
    for k in (0b1011, 0b1001):
        # exact ties: K + 1/2 rounds to the even neighbour, both signs
        for sign in (1, -1):
            x, half = (sign * k, 5), (sign, 4)
            got = _add(*x, *half, 4)
            assert _raw(got) == mpf_add(_raw(x), _raw(half), 4, "n")
            assert _round(sign * (2 * k + 1), 4, 4) == got
            assert got[0] << got[1] == sign * (k + (k & 1)) << 5
    far = 0
    for sign_x in (1, -1):
        for sign_y in (1, -1):
            # x = K + (1/2 - 2^-200) in units of its last kept bit: the far
            # offset adds one unit with y's sign 68 bits below, so x + y
            # rounds down, though y carries into the half: not correctly
            # rounded, and the kernel agrees with libmp on it
            k = (1 << 63) + 12345
            x = (sign_x * ((k << 200) + (1 << 199) - 1), -500)
            y = (sign_y * ((1 << 150) - 1), -601)
            got = _add(*x, *y, 64)
            assert _raw(got) == mpf_add(_raw(x), _raw(y), 64, "n")
            assert _raw(_add(*y, *x, 64)) == mpf_add(_raw(y), _raw(x), 64,
                                                     "n")
            exact = x[0] * Fraction(2) ** x[1] + y[0] * Fraction(2) ** y[1]
            nearest = round(exact * 2 ** 300)
            far += got[0] * Fraction(2) ** (got[1] + 300) != nearest
    assert far == 2   # y's carry reaches the half bit when signs agree
    # exact cancellation gives the canonical zero
    assert _add(12345, -7, -12345, -7, 64) == (0, 0) == _add(0, 0, 0, 3, 64)
    # division by a power of two is exact before rounding; an exact
    # quotient has no sticky bit; a remainder sets one
    for x, y in (((3 ** 40, 2), (-1, -9)), ((3 ** 40, 2), (3, 5)),
                 ((3 ** 5 * 7, 0), (7, 0)), ((1, 0), (3, 0))):
        assert _raw(_div(*x, *y, 53)) == mpf_div(_raw(x), _raw(y), 53, "n")
    assert _div(3 ** 5 * 7, 0, 7, 0, 53) == (3 ** 5, 0)


def test_kernel_complex_routines_match_libmp():
    # each complex routine of the sweep against the libmp routine the
    # plain mpmath loop calls, with mpmath's default rounding to nearest
    from mpmath.libmp import (fone, fzero, mpc_add, mpc_add_mpf, mpc_div,
                              mpc_mpf_div, mpc_mul, mpc_sub, mpf_add)
    rng = random.Random(24)
    truncated = 0
    for trial in range(1500):
        prec = (53, 64, 128, 416)[trial % 4]
        z = _kernel_real(rng, prec) + _kernel_real(rng, prec)
        w = _kernel_real(rng, prec) + _kernel_real(rng, prec)
        rz, rw = _raw_c(z), _raw_c(w)
        assert _raw_c(_cadd(z, w, prec)) == mpc_add(rz, rw, prec, "n")
        assert _raw_c(_csub(z, w, prec)) == mpc_sub(rz, rw, prec, "n")
        assert _raw_c(_cadd_real(z, w[:2], prec)) == mpc_add_mpf(
            rz, rw[0], prec, "n")
        assert _raw_c(_cmul(z, w, prec)) == mpc_mul(rz, rw, prec, "n")
        assert _raw_c(_csub(_ONE, w, prec)) == mpc_sub((fone, fzero), rw,
                                                       prec, "n")
        if w != _ZERO:
            # mpc_div rounds its inner sums toward zero at prec + 10 bits
            assert _raw_c(_cdiv(z, w, prec)) == mpc_div(rz, rw, prec, "n")
            assert _raw_c(_cinv(w, prec)) == mpc_mpf_div(fone, rw, prec, "n")
            sq = (w[0] * w[0], 2 * w[1], w[2] * w[2], 2 * w[3])
            assert _raw(_add(*sq, prec + 10, True)) == mpf_add(
                _raw(sq[:2]), _raw(sq[2:]), prec + 10, "d")
            truncated += _add(*sq, prec + 10, True) != _add(*sq, prec + 10)
        cs = [_kernel_real(rng, prec) for _ in range(trial % 4)]
        acc = rz
        for c in cs:
            acc = mpc_add_mpf(mpc_mul(acc, rw, prec, "n"), _raw(c), prec,
                              "n")
        assert _raw_c(_horner(z, cs, w, prec)) == acc
    assert truncated > 100


def _reexpand(balls):
    coeffs = [ComplexBall.exact(1)]
    for b in balls:
        nxt = [ComplexBall.exact(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] + c * b.scale(-1)
        coeffs = nxt
    return coeffs


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=4))
def test_isolated_roots_reexpand(tail):
    p = IntPoly(tuple(tail + [1]))
    if p.degree < 1:
        return
    sf = p.squarefree_part()
    balls = isolate_roots(p, 80)
    assert len(balls) == sf.degree
    coeffs = _reexpand(balls)
    for ball, exact in zip(coeffs, sf.coefficients):
        assert contains_exact(ball, exact), (p, sf, exact)


def test_refine_preserves_matching():
    p = IntPoly((7, -3, 1))
    coarse = isolate_roots(p, 48)
    fine = refine_roots(p, coarse, 200)
    assert len(fine) == len(coarse)
    for f, c in zip(fine, coarse):
        assert f.intersects(c)
        assert f.rad < c.rad
    # the order of prev, not the sorted order
    back = refine_roots(p, list(reversed(coarse)), 200)
    with pytest.raises(ValueError):
        refine_roots(p, coarse[:1], 200)
    assert _match_permutation(
        2, lambda i, j: back[i].intersects(coarse[j])) == [1, 0]


def test_match_permutation_requires_a_bijection():
    balls = isolate_roots(IntPoly((25, 0, 9, 0, 1)), 48)

    def match(images):
        return _match_permutation(
            len(images), lambda i, j: images[i].intersects(balls[j]))

    perm = [2, 0, 3, 1]
    assert match([balls[i] for i in perm]) == perm
    # two images on one target, an image meeting every target, or one
    # missing every target
    assert match([balls[0], balls[0], balls[2], balls[3]]) is None
    assert _match_permutation(4, lambda i, j: True) is None
    far = ComplexBall.exact(100)
    assert match([far] + balls[1:]) is None


# --- relation candidates ---

def test_relation_candidates_orthogonal_pair():
    import mpmath
    with mpmath.workprec(200):
        hp = _mpf_to_frac(mpmath.pi / 2)
    eps = Fraction(1, 2 ** 150)
    tp = two_pi_ball(160)
    cands = relation_candidates([(hp, eps), (-hp, eps)], tp, 4)
    assert (1, 1) in cands
    assert (2, -2) in cands


def test_relation_candidates_generic_angles_empty():
    import mpmath
    with mpmath.workprec(200):
        a1 = _mpf_to_frac(mpmath.log(2))
        a2 = _mpf_to_frac(mpmath.log(3))
    eps = Fraction(1, 2 ** 150)
    assert relation_candidates([(a1, eps), (a2, eps)], two_pi_ball(160), 1) == []
