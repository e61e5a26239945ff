"""Dense univariate polynomials with exact coefficients.

`IntPoly` stores integer coefficients in ascending order (coefficients[i]
is the coefficient of X^i) with no trailing zeros.  Helper functions ending
in `_q` operate on plain lists of Fractions in the same convention; they
back the handful of places that need rational intermediate results (gcds,
exact division, squarefree parts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple


def _strip(coeffs: Sequence) -> tuple:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, ascending coefficients, trailing zeros stripped."""

    coefficients: Tuple[int, ...]

    def __init__(self, coefficients: Iterable[int]):
        coeffs = _strip([int(c) for c in coefficients])
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading(self) -> int:
        if self.is_zero():
            return 0
        return self.coefficients[-1]

    def is_monic(self) -> bool:
        return self.leading == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coefficients])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coefficients])
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPoly([])
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative exponent")
        result = IntPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coefficients)][1:])

    def content(self) -> int:
        return math.gcd(*self.coefficients) if self.coefficients else 0

    def primitive_part(self) -> "IntPoly":
        """Divided by its content, with a positive leading coefficient."""
        c = self.content() if self.leading > 0 else -self.content()
        if c in (0, 1):
            return self
        return IntPoly([x // c for x in self.coefficients])

    def divides(self, other: "IntPoly") -> bool:
        q, r = qpoly_divmod(
            [Fraction(c) for c in other.coefficients],
            [Fraction(c) for c in self.coefficients],
        )
        return all(c == 0 for c in r)

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Quotient self/other, requiring an exact integer division."""
        q, r = qpoly_divmod(
            [Fraction(c) for c in self.coefficients],
            [Fraction(c) for c in other.coefficients],
        )
        if any(c != 0 for c in r):
            raise ValueError("division is not exact")
        if any(c.denominator != 1 for c in q):
            raise ValueError("quotient is not integral")
        return IntPoly([int(c) for c in q])

    def squarefree_part(self) -> "IntPoly":
        """Product of distinct irreducible factors (primitive, monic sign)."""
        if self.degree <= 0:
            return IntPoly([1])
        d = self.derivative()
        g = qpoly_gcd(
            [Fraction(c) for c in self.coefficients],
            [Fraction(c) for c in d.coefficients],
        )
        gz = qpoly_clear_denominators(g)
        return self.exact_div_rational(gz)

    def exact_div_rational(self, denom: "IntPoly") -> "IntPoly":
        """self/denom normalized to a primitive integer polynomial."""
        q, r = qpoly_divmod(
            [Fraction(c) for c in self.coefficients],
            [Fraction(c) for c in denom.coefficients],
        )
        if any(c != 0 for c in r):
            raise ValueError("division is not exact")
        return qpoly_clear_denominators(q)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mon = "X" if i == 1 else f"X^{i}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{c}*{mon}")
        return " + ".join(reversed(parts)).replace("+ -", "- ")


# --- rational-coefficient helpers ------------------------------------------

QP = List[Fraction]


def qpoly_strip(p: QP) -> QP:
    while p and p[-1] == 0:
        p.pop()
    return p


def qpoly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    num = list(num)
    den = qpoly_strip(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    r = list(num)
    dlead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        coef = r[k + len(den) - 1] / dlead
        q[k] = coef
        if coef:
            for i, dc in enumerate(den):
                r[k + i] -= coef * dc
    return qpoly_strip(q), qpoly_strip(r)


def qpoly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> QP:
    """Monic gcd over the rationals."""
    a = qpoly_strip(list(a))
    b = qpoly_strip(list(b))
    while b:
        _, r = qpoly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def qpoly_clear_denominators(p: Sequence[Fraction]) -> IntPoly:
    """Scale to a primitive integer polynomial with positive leading term."""
    p = qpoly_strip(list(p))
    if not p:
        return IntPoly([])
    lcm = 1
    for c in p:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in p]
    return IntPoly(ints).primitive_part()


def yun_decomposition(p: IntPoly) -> List[Tuple[IntPoly, int]]:
    """Squarefree decomposition p = prod q_i^i (primitive q_i, increasing i)."""
    if p.degree <= 0:
        return []
    out: List[Tuple[IntPoly, int]] = []
    pq = [Fraction(c) for c in p.coefficients]
    dq = [Fraction(c) for c in p.derivative().coefficients]
    g = qpoly_gcd(pq, dq)
    if len(g) == 1:
        return [(p.primitive_part(), 1)]
    w, _ = qpoly_divmod(pq, g)
    y, _ = qpoly_divmod(dq, g)
    i = 1
    # stop once w is constant: for non-monic p the leftover is the content,
    # not 1, and waiting for exactly 1 would never terminate
    while len(qpoly_strip(list(w))) > 1:
        wd = [k * c for k, c in enumerate(w)][1:]
        z = [a - b for a, b in zip(y + [Fraction(0)] * len(wd), wd + [Fraction(0)] * len(y))]
        z = qpoly_strip(z)
        f = qpoly_gcd(w, z)
        if len(f) > 1:
            out.append((qpoly_clear_denominators(f), i))
        w, _ = qpoly_divmod(w, f)
        y, _ = qpoly_divmod(z, f)
        i += 1
    return out


def power_sums(p: IntPoly, count: int) -> List[Fraction]:
    """Newton power sums s_0..s_count of the roots of p (with multiplicity)."""
    n = p.degree
    if n < 0:
        raise ValueError("zero polynomial")
    lead = Fraction(p.leading)
    # e[i] = (-1)^i * elementary symmetric e_i
    a = [Fraction(c) / lead for c in p.coefficients]
    s: List[Fraction] = [Fraction(n)]
    for k in range(1, count + 1):
        acc = Fraction(0)
        for i in range(1, min(k - 1, n) + 1):
            acc += a[n - i] * s[k - i]
        if k <= n:
            acc += k * a[n - k]
        s.append(-acc)
    return s


def from_power_sums(sums: Sequence) -> List[Fraction]:
    """Monic polynomial (ascending coefficients) whose sums[0] = n roots
    have the power sums sums[1..n], by Newton's identities
    k * c_(n-k) = -(c_(n-k+1) s_1 + ... + c_n s_k)."""
    n = int(sums[0])
    c = [Fraction(0)] * n + [Fraction(1)]
    for k in range(1, n + 1):
        c[n - k] = -sum(c[n - k + i] * sums[i] for i in range(1, k + 1)) / k
    return c
