"""Exact arithmetic substrate: integer polynomials and Sturm chains,
certified complex balls, integer lattices (Hermite rows, saturation
index, LLL) and exact root isolation of Weil polynomials.

Polynomials are integer coefficient tuples, complex balls hold integer
mantissas over a power-of-two exponent and round outward in one place,
`round_bits` (see `balls`), and the lattice algorithms are integral.
Roots come from Sturm bisection and Newton steps on dyadic rationals
(see `roots`), so no float is computed anywhere.  No rational data
enters the balls: they are built from integers, and their certificates
multiply rather than divide.  `fractions.Fraction` remains at the edges:
the exact views of a ball, and the angle enclosures handed to
`latt.relation_candidates`.

The package itself exports nothing: callers import the submodules
`intpoly`, `balls`, `latt` and `roots` directly.
"""
