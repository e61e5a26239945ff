"""Exact arithmetic substrate: integer polynomials, certified complex balls,
integer lattices (Smith/Hermite forms, kernels, LLL) and certified root
isolation.

Rationals are `fractions.Fraction`: the stdlib type already guarantees
the normalization this package needs (lowest terms, positive
denominator).  Complex balls are the exception: they hold integer
mantissas over a power-of-two exponent and round outward (see `balls`),
and rational data enters them through one constructor.
"""

from .intpoly import IntPoly
from .balls import ComplexBall
from .latt import (
    smith_normal_form,
    hermite_column_form,
    kernel_lattice,
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
    "kernel_lattice",
    "lattice_saturation_index",
    "lll_reduce",
    "relation_candidates",
    "isolate_roots",
    "refine_roots",
]
