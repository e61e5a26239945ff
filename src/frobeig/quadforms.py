"""Exact quadratic form invariants and certified signature transfer.

Matrices come in as rational rows (anything Fraction accepts).  Each is
cleared once to an integer matrix A and a denominator d > 0 with
mat = A/d, and every kernel runs on Python ints:

- characteristic polynomials from the power sums tr(A^k) by Newton's
  identities (`intpoly.from_power_sums`), rescaled once;
- signatures by Bareiss fraction-free symmetric elimination;
- inverses and the comparison endomorphisms base^-1 * moved by one
  Bareiss solve A*X = det*B;
- spectra by one signed Sturm chain of p and p', built on the
  pseudo-remainder `exactmath.intpoly.prem` that also backs every
  polynomial gcd.

Fractions appear only in results (charpolys, inverses) and messages.  The
transfer engine moves a signature from a side where the form is positive
definite to a side where it is not, through an exact characteristic
polynomial comparison.  Nothing here is numerical: every verdict is
backed by integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .errors import (CharpolyMismatch, InternalInconsistency, MalformedInput,
                     NondegeneracyFailed, NotPositiveDefinite,
                     NotPositiveSpectrum, NotSelfAdjoint, NotSymmetric)
from .exactmath.intpoly import IntPoly, from_power_sums, prem, primitive

QMat = List[List[Fraction]]
IMat = List[List[int]]


def _clear(rows: Sequence[Sequence]) -> Tuple[IMat, int]:
    """(A, d) with rows = A/d, A integral and d > 0 the least common
    denominator.  Entries are anything Fraction accepts; ints and Fractions
    are read directly.  MalformedInput when rows are empty or not square."""
    if not rows:
        raise MalformedInput("empty matrix")
    n = len(rows)
    nums, dens = [], []
    for row in rows:
        if len(row) != n:
            raise MalformedInput("matrix is not square")
        out = []
        for x in row:
            if not isinstance(x, (int, Fraction)):
                x = Fraction(x)
            out.append(x.numerator)
            dens.append(x.denominator)
        nums.append(out)
    d = math.lcm(*dens)
    if d == 1:
        return nums, 1
    den = iter(dens)
    return [[x * (d // next(den)) for x in row] for row in nums], d


def check_symmetric(mat: QMat, what: str = "matrix") -> None:
    n = len(mat)
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                raise NotSymmetric(f"{what} differs at ({i},{j}) vs ({j},{i})")


def mat_mul_q(a: QMat, b: QMat) -> QMat:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def bareiss_solve(a: IMat, b: IMat) -> Tuple[IMat, int]:
    """(x, det) with a*x = det*b for a nonsingular integer matrix a; x is
    integral and det = +-det(a), the last Bareiss pivot.

    Forward elimination is fraction-free (each division by the previous
    pivot is exact) with the first nonzero entry of a column as pivot;
    back substitution divides exactly because x = det * a^-1 * b is
    integral.  NondegeneracyFailed when a is singular.
    """
    n = len(a)
    w = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    prev = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if w[r][c] != 0), None)
        if piv is None:
            raise NondegeneracyFailed("matrix is singular")
        w[c], w[piv] = w[piv], w[c]
        rc = w[c]
        p = rc[c]
        for r in range(c + 1, n):
            rr = w[r]
            f = rr[c]
            rr[c:] = [(p * x - f * y) // prev
                      for x, y in zip(rr[c:], rc[c:])]
        prev = p
    # cols[t] holds column t of x for the rows solved so far, last row
    # first, so row i's coefficients ri[n-1], ..., ri[i+1] meet it in order
    cols: IMat = [[] for _ in range(len(w[0]) - n)] if n else []
    for i in range(n - 1, -1, -1):
        ri = w[i]
        coef, p = ri[n - 1:i:-1], ri[i]
        for col, bt in zip(cols, ri[n:]):
            col.append((prev * bt - sum(map(mul, coef, col))) // p)
    return [[col[n - 1 - i] for col in cols] for i in range(n)], prev


def mat_inverse(a: QMat) -> QMat:
    """Exact inverse by one Bareiss solve; NondegeneracyFailed when singular."""
    ai, d = _clear(a)
    n = len(ai)
    x, det = bareiss_solve(ai, [[int(i == j) for j in range(n)]
                                for i in range(n)])
    # (A/d)^-1 = d * A^-1 = d * x / det
    return [[Fraction(d * v, det) for v in row] for row in x]


def _quotient(base: IMat, db: int, moved: IMat, dm: int) -> Tuple[IMat, int]:
    """(U, du) with U/du = (base/db)^-1 * (moved/dm), du > 0 and the
    common content of U and du divided out."""
    x, det = bareiss_solve(base, moved)
    den = det * dm
    if den < 0:
        den, db = -den, -db
    g = math.gcd(den, *(v * db for row in x for v in row))
    return [[v * db // g for v in row] for row in x], den // g


def signature(gram) -> Tuple[int, int]:
    """Signature (positive count, negative count) of a symmetric rational
    matrix, by congruence diagonalization.

    Raises NotSymmetric or, for a singular form, NondegeneracyFailed.
    """
    a, _ = _clear(gram)
    check_symmetric(a)
    return _signature(a)


def _signature(a: IMat) -> Tuple[int, int]:
    """Signature of a symmetric integer matrix by Bareiss fraction-free
    symmetric elimination.

    The trailing block at step k holds d_(k-1) times the Schur complement
    of the diagonalization over Q, where d_(k-1) is the previous pivot, so
    the pivot rules (a diagonal swap, else row_k += row_j) see the same
    zeros and the k-th diagonal entry has the sign of d_k / d_(k-1).
    Every entry is a minor of an integer congruent matrix, so each
    division by d_(k-1) is exact.  The argument is not modified.
    """
    a = [list(row) for row in a]
    n = len(a)

    def sym_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    pos = neg = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            j = next((t for t in range(k + 1, n) if a[t][t] != 0), None)
            if j is not None:
                sym_swap(k, j)
            else:
                j = next((t for t in range(k + 1, n) if a[k][t] != 0), None)
                if j is None:
                    raise NondegeneracyFailed(
                        f"form is degenerate (zero row at step {k})")
                # row_k += row_j and the mirrored column operation make
                # a[k][k] = 2 a[k][j]
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                for row in a:
                    row[k] += row[j]
        rk = a[k]
        pivot = rk[k]
        if (pivot > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            ri = a[i]
            f = rk[i]
            for j in range(i, n):
                a[j][i] = ri[j] = (pivot * ri[j] - f * rk[j]) // prev
        prev = pivot
    return pos, neg


def charpoly_exact(mat) -> List[Fraction]:
    """Characteristic polynomial det(X*I - mat), coefficients low to high,
    from the power sums of the cleared integer matrix by Newton's
    identities."""
    a, d = _clear(mat)
    return _rescale(_charpoly(a), d)


def _charpoly(a: IMat) -> List[int]:
    """det(X*I - a) of an integer matrix, low to high, from the power sums
    s_k = tr(a^k) by Newton's identities.  Only a^1 .. a^h, h = ceil(n/2),
    are formed; for k > h, s_k = tr(a^h a^(k-h)) is one dot product of
    a^h's rows with the columns of a^(k-h), without the product."""
    n = len(a)
    powers = [a]
    for _ in range((n - 1) // 2):
        powers.append(mat_mul_q(powers[-1], a))
    sums = [n] + [sum(p[i][i] for i in range(n)) for p in powers]
    top = list(chain.from_iterable(powers[-1]))
    sums += [sum(map(mul, top, chain.from_iterable(zip(*p))))
             for p in powers[:n - len(powers)]]
    return from_power_sums(sums)


def _rescale(coeffs: List[int], d: int) -> List[Fraction]:
    """Charpoly of a/d from the charpoly of the integer matrix a:
    coefficient i is c_i d^i / d^n."""
    n = len(coeffs) - 1
    return [Fraction(c, d ** (n - i)) for i, c in enumerate(coeffs)]


def _root_poly(coeffs: List[int], d: int) -> List[int]:
    """d^n times the charpoly of a/d: an integer polynomial with the same
    roots and the same signs."""
    return [c * d ** i for i, c in enumerate(coeffs)]


# --- Sturm chains ---

def _int_poly(p: Sequence) -> List[int]:
    """The primitive integer positive multiple of a rational polynomial."""
    p = [Fraction(c) for c in p]
    d = math.lcm(*(c.denominator for c in p))
    return primitive([c.numerator * (d // c.denominator) for c in p])


def _chain(p: List[int]) -> List[List[int]]:
    """p, p', then negated signed pseudo-remainders, each a positive
    multiple of the Euclidean chain's element; the last is a multiple of
    gcd(p, p').  Empty for the zero polynomial."""
    if not p:
        return []
    chain = [p]
    dp = primitive([i * c for i, c in enumerate(p)][1:])
    if dp:
        chain.append(dp)
    while len(chain) > 1 and len(chain[-1]) > 1:
        rem = prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _variations(signs: List[int]) -> int:
    signs = [s for s in signs if s]
    return sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0)


def _sign_at(poly: List[int], x: Fraction) -> int:
    # sign of den^deg * poly(num/den), den > 0, by homogeneous Horner
    num, den = x.numerator, x.denominator
    acc, dpow = 0, 1
    for c in reversed(poly):
        acc = acc * num + c * dpow
        dpow *= den
    return (acc > 0) - (acc < 0)


def _sign_at_inf(poly: List[int], positive: bool) -> int:
    lead = poly[-1]
    s = (lead > 0) - (lead < 0)
    if positive:
        return s
    return s if (len(poly) - 1) % 2 == 0 else -s


def _count(chain: List[List[int]], lo: Optional[Fraction] = None,
           hi: Optional[Fraction] = None) -> int:
    at_lo = [_sign_at(c, lo) if lo is not None else _sign_at_inf(c, False)
             for c in chain]
    at_hi = [_sign_at(c, hi) if hi is not None else _sign_at_inf(c, True)
             for c in chain]
    return _variations(at_lo) - _variations(at_hi)


def count_real_roots(p: List[Fraction], lo: Optional[Fraction] = None,
                     hi: Optional[Fraction] = None) -> int:
    """Distinct real roots of p in (lo, hi]; None means +-infinity.

    The chain is that of the squarefree part p / gcd(p, p'), so a multiple
    root at an end point cannot make every element vanish there."""
    sf = IntPoly(_int_poly(p)).squarefree_part()
    return _count(_chain(list(sf.coefficients)),
                  None if lo is None else Fraction(lo),
                  None if hi is None else Fraction(hi))


def _distinct(chain: List[List[int]]) -> int:
    # deg p - deg gcd(p, p'), the chain's last element being that gcd
    return len(chain[0]) - len(chain[-1]) if chain else 0


def spectrum_all_real_positive(p: List[Fraction]) -> bool:
    """True when every complex root of p is a (strictly) positive real."""
    ip = _int_poly(p)
    if not ip:
        raise MalformedInput("zero polynomial has no spectrum")
    return _positive_spectrum(ip)


def _positive_spectrum(p: List[int]) -> bool:
    """p(0) != 0 and all deg p - deg gcd(p, p') distinct roots of the
    nonzero integer polynomial p lie in (0, inf)."""
    if p[0] == 0:
        return False          # zero eigenvalue
    chain = _chain(p)
    return _count(chain, lo=Fraction(0)) == _distinct(chain)


# --- certified transfer ---

@dataclass(frozen=True)
class SignatureCertificate:
    """Witness that gram and gram*u share a signature.

    The hypotheses (u self-adjoint for gram, spectrum positive real) force
    equality; the certificate also records that both signatures were
    recomputed independently and agreed.
    """
    signature: Tuple[int, int]
    u_charpoly: Tuple[Fraction, ...]


@dataclass(frozen=True)
class TransferResult:
    verdict: str                       # "SignaturesEqual"
    signature: Tuple[int, int]
    charpoly: Tuple[Fraction, ...]


@dataclass(frozen=True)
class AmFilterResult:
    multiplicity: int
    determined: bool
    candidates: Tuple[Tuple[int, int], ...]
    note: str


def _certify(base: IMat, moved: IMat, root_poly: List[int],
             spectrum_msg: str) -> Tuple[int, int]:
    """The certification step of both public entry points: the deformation
    taking base to moved (integer multiples of the forms) has a positive
    real spectrum (root_poly, a positive multiple of its charpoly), and
    the two signatures, computed independently, agree."""
    if not _positive_spectrum(root_poly):
        raise NotPositiveSpectrum(spectrum_msg)
    sig_base = _signature(base)
    sig_moved = _signature(moved)
    if sig_base != sig_moved:
        raise InternalInconsistency(
            f"certified-equal signatures differ: {sig_base} vs {sig_moved}")
    return sig_base


def constant_signature_certify(gram, u) -> SignatureCertificate:
    """Certify signature(gram) == signature(gram*u) for a deformation u.

    Requirements, all checked exactly: gram symmetric and nondegenerate,
    gram*u symmetric (u self-adjoint for the form), and the spectrum of u
    positive real.  Such a u connects the two forms through nondegenerate
    symmetric matrices, so the signature cannot jump; both signatures are
    still computed independently and compared.
    """
    (g, _), (uu, du) = _clear(gram), _clear(u)
    if len(g) != len(uu):
        raise MalformedInput("matrix dimensions differ")
    check_symmetric(g, "base form")
    moved = mat_mul_q(g, uu)           # a positive multiple of gram*u
    try:
        check_symmetric(moved, "transported form")
    except NotSymmetric as exc:
        raise NotSelfAdjoint(
            f"deformation is not self-adjoint for the form: {exc}") from exc
    cp = _charpoly(uu)
    sig = _certify(g, moved, _root_poly(cp, du),
                   "deformation spectrum is not positive real")
    return SignatureCertificate(signature=sig, u_charpoly=tuple(_rescale(cp, du)))


def tannaka_transfer(side_a_base, side_a_moved, side_b_base, side_b_moved) -> TransferResult:
    """Transfer signature equality from a positive definite realization.

    side_a_* are the images of a form pair under a functor where the base
    form is positive definite; side_b_* are the images of the same pair
    under another functor.  The comparison endomorphisms u = base^-1 *
    moved must have identical characteristic polynomials on both sides
    (they realize the same abstract endomorphism); positivity on side A
    forces a positive real spectrum, which transports to side B and pins
    the signature there.  Side B's moved form is base * v itself, so the
    certification reads it directly.
    """
    cleared = [_clear(m) for m in (side_a_base, side_a_moved,
                                   side_b_base, side_b_moved)]
    if len({len(m) for m, _ in cleared}) != 1:
        raise MalformedInput("the four matrices must share one dimension")
    (a0, da0), (a1, da1), (b0, db0), (b1, db1) = cleared
    for m, name in ((a0, "side A base"), (a1, "side A moved"),
                    (b0, "side B base"), (b1, "side B moved")):
        check_symmetric(m, name)
    if _signature(a0) != (len(a0), 0):
        raise NotPositiveDefinite("side A base form is not positive definite")
    u, du = _quotient(a0, da0, a1, da1)
    v, dv = _quotient(b0, db0, b1, db1)
    cu, cv = _charpoly(u), _charpoly(v)
    cp_u, cp_v = _rescale(cu, du), _rescale(cv, dv)
    if cp_u != cp_v:
        raise CharpolyMismatch(
            "comparison endomorphisms disagree: "
            f"{_poly_str(cp_u)} vs {_poly_str(cp_v)}")
    sig = _certify(b0, b1, _root_poly(cu, du),
                   "comparison endomorphism spectrum is not positive real "
                   "(side A moved form cannot be positive definite)")
    return TransferResult(verdict="SignaturesEqual", signature=sig,
                          charpoly=tuple(cp_u))


def am_filter(multiplicity: int) -> AmFilterResult:
    """Signature candidates for an exotic class pair, filtered by the
    multiplicity of the Frobenius eigenvalue.

    Odd multiplicity forces positivity, (2, 0).  Multiplicity 2 mod 4
    rules out the split signature (1, 1) by a parity argument but cannot
    separate (2, 0) from (0, 2); multiplicity 0 mod 4 eliminates nothing.
    """
    if multiplicity < 1:
        raise MalformedInput("multiplicity must be positive")
    if multiplicity % 2 == 1:
        return AmFilterResult(multiplicity=multiplicity, determined=True,
                              candidates=((2, 0),),
                              note="odd multiplicity forces positivity")
    if multiplicity % 4 == 2:
        return AmFilterResult(multiplicity=multiplicity, determined=False,
                              candidates=((2, 0), (0, 2)),
                              note="even multiplicity: parity excludes (1, 1) only")
    return AmFilterResult(multiplicity=multiplicity, determined=False,
                          candidates=((2, 0), (1, 1), (0, 2)),
                          note="multiplicity 0 mod 4: no candidate excluded")


def _poly_str(coeffs: Sequence[Fraction]) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*X" if c != 1 else "X")
        else:
            terms.append(f"{c}*X^{i}" if c != 1 else f"X^{i}")
    return " + ".join(terms) if terms else "0"
