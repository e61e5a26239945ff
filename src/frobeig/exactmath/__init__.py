"""Exact arithmetic substrate: integer polynomials, certified complex balls,
integer lattices (Smith invariants, Hermite rows, LLL) and certified root
isolation.

Polynomials are integer coefficient tuples, complex balls hold integer
mantissas over a power-of-two exponent and round outward in one place,
`round_bits` (see `balls`), and the lattice algorithms are integral.
No rational data enters the balls: they are built from integers, and
their certificates multiply rather than divide.  `fractions.Fraction`
remains at the edges: the exact views of a ball, and the angle
enclosures handed to `latt.relation_candidates`.
"""

from .intpoly import IntPoly
from .balls import ComplexBall
from .latt import (
    hnf_rows,
    in_row_lattice,
    invariant_factors,
    lattice_saturation_index,
    lll_reduce,
    relation_candidates,
)
from .roots import isolate_roots, refine_roots

__all__ = [
    "IntPoly",
    "ComplexBall",
    "hnf_rows",
    "in_row_lattice",
    "invariant_factors",
    "lattice_saturation_index",
    "lll_reduce",
    "relation_candidates",
    "isolate_roots",
    "refine_roots",
]
