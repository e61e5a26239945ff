"""Integer lattice algorithms: Hermite rows, saturation index, LLL.

Everything runs over Python ints; only the angle enclosures handed to
`relation_candidates` are Fractions.  Matrices are lists of lists,
row-major, and a lattice is the span of the rows.  There is one normal
form: `hnf_rows` gives the unique Hermite normal form basis (Cohen, A
Course in Computational Algebraic Number Theory, Sec. 2.4),
`in_row_lattice` decides membership against it, and
`lattice_saturation_index` reads the index off the Hermite form of an
independent basis turned on its side.  The matrices that arise here are
small (dimension bounded by the degree of the input polynomial plus
one); entries are kept in check by the usual pivoting strategies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

Matrix = List[List[int]]


def hnf_rows(vectors: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """The Hermite normal form basis of the row lattice the vectors span.

    Rows in echelon form with positive pivots, each entry above a pivot
    reduced into [0, pivot); the basis is unique, so it names the
    lattice.  Column by column, Euclid on the rows not yet pivoted
    (the least entry pivots until it divides the rest), then the rows
    above are reduced by the pivot row.
    """
    a = [list(map(int, v)) for v in vectors]
    k = 0
    for c in range(len(a[0]) if a else 0):
        while any(row[c] for row in a[k + 1:]):
            i = min((i for i in range(k, len(a)) if a[i][c]),
                    key=lambda i: abs(a[i][c]))
            a[k], a[i] = a[i], a[k]
            for i in range(k + 1, len(a)):
                f = a[i][c] // a[k][c]
                if f:
                    a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        if k == len(a) or not a[k][c]:
            continue
        if a[k][c] < 0:
            a[k] = [-x for x in a[k]]
        for i in range(k):
            f = a[i][c] // a[k][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        k += 1
    return tuple(tuple(row) for row in a[:k])


def in_row_lattice(rows: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Exact membership of vec in the row lattice (rows in echelon form).

    Rejects at the first nonzero entry left of a pivot or the first pivot
    entry the pivot does not divide; no later row can mend either.
    """
    v = list(vec)
    start = 0
    for row in rows:
        piv = start
        while not row[piv]:
            if v[piv]:
                return False
            piv += 1
        f, rest = divmod(v[piv], row[piv])
        if rest:
            return False
        if f:
            for t in range(piv + 1, len(v)):
                if row[t]:
                    v[t] -= f * row[t]
        start = piv + 1
    return not any(v[start:])


def lattice_saturation_index(mat: Sequence[Sequence[int]]) -> int:
    """Index of the row lattice L of mat inside its saturation, the
    integer points of the rational span of L.

    For an independent basis B of L, of rank r, the index is
    [Z^r : B Z^n], the product of the pivots of the Hermite form of the
    columns of B.  The columns of dependent rows span a lattice of lower
    rank than their length, whose pivots measure nothing ([[2], [1]]
    would read 2, not 1), so B is the Hermite basis of L.
    """
    idx = 1
    for row in hnf_rows(list(zip(*hnf_rows(mat)))):
        idx *= next(x for x in row if x)
    return idx


def lll_reduce(basis: Sequence[Sequence[int]]) -> Matrix:
    """LLL-reduce integer basis rows with delta = 3/4, on integers only.

    Integral LLL (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7): the Gram determinants d_i and the integers
    lam[k][j] = d_(j+1) * mu_kj are updated in place on each size
    reduction and swap, and every division is exact.  Row k is
    size-reduced against j = k-1 down to 0 before the Lovasz test, with
    mu rounded half to even.  Raises ValueError on linearly dependent
    rows.  Returns a new list of rows.
    """
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise ValueError("lll_reduce: linearly dependent rows")
            else:
                d[k + 1] = u
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            if 2 * abs(lam[k][j]) > dj:
                r, rem = divmod(lam[k][j], dj)
                if 2 * rem > dj or (2 * rem == dj and r % 2):
                    r += 1
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                lam[k][j] -= r * dj
                for i in range(j):
                    lam[k][i] -= r * lam[j][i]
        lk = lam[k][k - 1]
        # Lovasz: B_k >= (3/4 - mu^2) B_(k-1), times 4 d_k d_(k-1)
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * lk * lk:
            k += 1
            continue
        # swap rows k-1 and k: lam[k][k-1] stays, d_k and the columns
        # k-1 and k of the rows below change
        b[k - 1], b[k] = b[k], b[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (dk * t + lk * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return b


def relation_candidates(angles: Sequence[Tuple[Fraction, Fraction]],
                        two_pi: Tuple[Fraction, Fraction],
                        bound: int,
                        scale_bits: int = 64) -> List[Tuple[int, ...]]:
    """Candidate integer relations sum a_i * angle_i = 0 (mod 2*pi).

    `angles` are (midpoint, radius) enclosures of the arguments; `two_pi`
    encloses 2*pi.  Builds the standard relation-finding lattice (identity
    block alongside a scaled column of angles, with an extra row for the
    2*pi ambiguity), LLL-reduces it, and returns short vectors with
    max-norm at most `bound`.

    These are candidates only: each survivor must be verified exactly by
    the caller.  Soundness of downstream results never depends on this
    list being complete.
    """
    k = len(angles)
    if k == 0:
        return []
    scale = 1 << scale_bits
    rows = [[int(j == i) for j in range(k)] + [round(mid * scale)]
            for i, (mid, _rad) in enumerate(angles)]
    rows.append([0] * k + [round(two_pi[0] * scale)])
    seen = set()
    out: List[Tuple[int, ...]] = []
    for row in lll_reduce(rows):
        vec = tuple(row[:k])
        if any(vec) and max(abs(x) for x in vec) <= bound:
            for cand in (vec, tuple(-x for x in vec)):
                if cand not in seen:
                    seen.add(cand)
                    out.append(cand)
    return sorted(out)
