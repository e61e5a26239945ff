"""Dense univariate polynomials with integer coefficients.

`IntPoly` stores integer coefficients in ascending order (coefficients[i]
is the coefficient of X^i) with no trailing zeros.  All arithmetic runs on
Python ints.  One pseudo-remainder routine, `prem`, sits at the centre:
the gcd is a primitive pseudo-remainder sequence, divisibility is a zero
pseudo-remainder, and the squarefree part divides by that gcd exactly.
`quadforms` builds its Sturm chains on the same routine.  Power sums and
Newton's identities work on monic polynomials, where they stay integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def gcd(self, other: "IntPoly") -> "IntPoly":
        """Greatest common divisor over Q as a primitive integer polynomial
        with a positive leading coefficient, by a primitive pseudo-remainder
        sequence; zero only when both inputs are zero."""
        a, b = primitive(self.coefficients), primitive(other.coefficients)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, prem(a, b)
        return IntPoly(a).primitive_part()

    def divides(self, other: "IntPoly") -> bool:
        """True when self divides other over Q."""
        return not prem(other.coefficients, self.coefficients)

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Quotient self/other, requiring an exact integer division."""
        b = other.coefficients
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coefficients)
        lead, db = b[-1], len(b) - 1
        q = [0] * max(0, len(r) - db)
        for k in range(len(q) - 1, -1, -1):
            c, rest = divmod(r[k + db], lead)
            if rest:
                raise ValueError("quotient is not integral"
                                 if other.divides(self)
                                 else "division is not exact")
            q[k] = c
            if c:
                for i, bc in enumerate(b):
                    r[k + i] -= c * bc
        if any(r):
            raise ValueError("division is not exact")
        return IntPoly(q)

    def squarefree_part(self) -> "IntPoly":
        """Product of distinct irreducible factors (primitive, monic sign):
        self // gcd(self, self'), exact over Z by Gauss's lemma because
        the gcd is primitive."""
        if self.degree <= 0:
            return IntPoly([1])
        return self.exact_div(self.gcd(self.derivative())).primitive_part()

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


# --- pseudo-remainders ---

def primitive(p: Sequence[int]) -> List[int]:
    """p with trailing zeros stripped and its positive content divided out."""
    p = list(_strip(p))
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def prem(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """|lc(b)|^s * (a mod b) with its content divided out, s the number of
    reduction steps: a positive multiple of the remainder over Q, and
    empty exactly when b divides a over Q.  Lists run low to high."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    db = len(b) - 1
    while len(r) > db:
        k = len(r) - 1 - db
        f = sign * r[-1]
        r = [scale * c for c in r]
        for i, c in enumerate(b):
            r[k + i] -= f * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return primitive(r)


# --- Newton's identities ---

def power_sums(p: IntPoly, count: int) -> List[int]:
    """Newton power sums s_0..s_count of the roots of the monic p (with
    multiplicity), all integers."""
    n = p.degree
    if n < 0:
        raise ValueError("zero polynomial")
    if not p.is_monic():
        raise ValueError("power sums need a monic polynomial")
    a = p.coefficients
    s = [n]
    for k in range(1, count + 1):
        acc = sum(a[n - i] * s[k - i] for i in range(1, min(k - 1, n) + 1))
        if k <= n:
            acc += k * a[n - k]
        s.append(-acc)
    return s


def from_power_sums(sums: Sequence[int]) -> List[int]:
    """Monic integer polynomial (ascending coefficients) whose sums[0] = n
    roots have the integer power sums sums[1..n], by Newton's identities
    k * c_(n-k) = -(c_(n-k+1) s_1 + ... + c_n s_k).  ValueError when a
    step does not divide exactly: no such integer polynomial exists."""
    n = int(sums[0])
    c = [0] * n + [1]
    for k in range(1, n + 1):
        c[n - k], rest = divmod(
            -sum(c[n - k + i] * sums[i] for i in range(1, k + 1)), k)
        if rest:
            raise ValueError("power sums are not those of an integer "
                             "polynomial")
    return c
