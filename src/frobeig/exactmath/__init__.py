"""Exact arithmetic substrate: integer polynomials, certified complex balls,
integer lattices (Smith/Hermite forms, LLL) and certified root
isolation.

Polynomials are integer coefficient tuples, complex balls hold integer
mantissas over a power-of-two exponent and round outward (see `balls`),
and the LLL is integral.  `fractions.Fraction` remains at the edges:
rational data enters the balls through one constructor, and the angle
enclosures handed to `latt.relation_candidates` are Fractions.
"""

from .intpoly import IntPoly
from .balls import ComplexBall
from .latt import (
    smith_normal_form,
    hermite_column_form,
    lattice_saturation_index,
    lll_reduce,
    relation_candidates,
)
from .roots import isolate_roots, refine_roots

__all__ = [
    "IntPoly",
    "ComplexBall",
    "smith_normal_form",
    "hermite_column_form",
    "lattice_saturation_index",
    "lll_reduce",
    "relation_candidates",
    "isolate_roots",
    "refine_roots",
]
