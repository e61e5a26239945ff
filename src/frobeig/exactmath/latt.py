"""Integer lattice algorithms: Smith and Hermite forms, LLL.

Everything runs over Python ints; only the angle enclosures handed to
`relation_candidates` are Fractions.  Matrices are lists of lists,
row-major.  The matrices that arise here are small (dimension bounded by
the degree of the input polynomial plus one); entries are kept in check
by the usual pivoting strategies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(m: Matrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: Matrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(mat: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix, Matrix]:
    """Return (U, S, V) with U*mat*V = S in Smith normal form.

    U and V are unimodular; S is diagonal with non-negative entries
    satisfying the divisibility chain s_1 | s_2 | ... .  The chain is
    enforced in the one pivot loop: once row t and column t are clear, a
    lower row holding an entry the pivot does not divide is added to row
    t and the pivot is chosen again, so the pivot that stays divides every
    entry left below and to the right of it.
    """
    s = [list(map(int, row)) for row in mat]
    n = len(s)
    m = len(s[0]) if n else 0
    u = identity_matrix(n)
    v = identity_matrix(m)

    def row_op(i, j, c):
        # row i -= c * row j, mirrored in u
        s[i] = [a - c * b for a, b in zip(s[i], s[j])]
        u[i] = [a - c * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, c):
        # col i -= c * col j, mirrored in v
        for row in s:
            row[i] -= c * row[j]
        for row in v:
            row[i] -= c * row[j]

    t = 0
    while t < min(n, m):
        # locate a nonzero pivot with smallest absolute value
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                if s[i][j] and (pivot is None
                                or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        _swap_rows(s, t, pivot[0])
        _swap_rows(u, t, pivot[0])
        _swap_cols(s, t, pivot[1])
        _swap_cols(v, t, pivot[1])
        p = s[t][t]
        for i in range(t + 1, n):
            if s[i][t]:
                row_op(i, t, s[i][t] // p)
        for j in range(t + 1, m):
            if s[t][j]:
                col_op(j, t, s[t][j] // p)
        if (any(s[i][t] for i in range(t + 1, n))
                or any(s[t][j] for j in range(t + 1, m))):
            continue            # a nonzero remainder is a smaller pivot
        # row t and column t are clear; fold in a row the pivot does not
        # divide, and the next pivot is smaller again
        bad = next((i for i in range(t + 1, n)
                    if any(x % p for x in s[i][t + 1:])), None)
        if bad is not None:
            row_op(t, bad, -1)
            continue
        if p < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, s, v


def invariant_factors(mat: Sequence[Sequence[int]]) -> List[int]:
    _, s, _ = smith_normal_form(mat)
    out = []
    for i in range(min(len(s), len(s[0]) if s else 0)):
        if s[i][i]:
            out.append(s[i][i])
    return out


def hermite_column_form(mat: Sequence[Sequence[int]]) -> Matrix:
    """Column-style Hermite normal form of the column span of mat.

    Returns a matrix whose nonzero columns are the canonical basis:
    lower triangular profile, positive pivots, entries right of a pivot
    reduced into [0, pivot).  Zero columns are dropped.
    """
    a = [list(map(int, row)) for row in mat]
    if not a:
        return []
    n, m = len(a), len(a[0])
    col = 0
    for row_i in range(n):
        if col >= m:
            break
        # pick the column (>= col) minimizing |entry| in this row, nonzero
        piv = None
        for j in range(col, m):
            if a[row_i][j] and (piv is None or abs(a[row_i][j]) < abs(a[row_i][piv])):
                piv = j
        if piv is None:
            continue
        _swap_cols(a, col, piv)
        # clear the rest of the row by column gcd elimination
        while True:
            done = True
            for j in range(col + 1, m):
                if a[row_i][j]:
                    q = a[row_i][j] // a[row_i][col]
                    for r in range(n):
                        a[r][j] -= q * a[r][col]
                    if a[row_i][j]:
                        _swap_cols(a, col, j)
                        done = False
            if done:
                break
        if a[row_i][col] < 0:
            for r in range(n):
                a[r][col] = -a[r][col]
        # reduce columns left of the pivot column at this row
        for j in range(col):
            q = a[row_i][j] // a[row_i][col]
            if q:
                for r in range(n):
                    a[r][j] -= q * a[r][col]
        col += 1
    # drop zero columns, keep order (already echelon by construction)
    cols = []
    for j in range(m):
        column = [a[r][j] for r in range(n)]
        if any(column):
            cols.append(column)
    return [[c[r] for c in cols] for r in range(n)] if cols else [[] for _ in range(n)]


def lattice_saturation_index(mat: Sequence[Sequence[int]]) -> int:
    """Index of the column lattice inside its saturation (product of
    invariant factors)."""
    idx = 1
    for d in invariant_factors(mat):
        idx *= d
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
