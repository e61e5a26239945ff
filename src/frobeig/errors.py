"""Exception hierarchy.

Domain rejections (bad or out-of-scope input) and certification failures are
ordinary exceptions carrying a human-readable reason; the command line maps
them to exit code 1.  Malformed input (schema level) maps to exit code 2,
I/O problems to exit code 3, and a batch worker process that dies (the
standard library's BrokenProcessPool, not one of these classes) to exit
code 4.
"""


class FrobeigError(Exception):
    """Base class for every error raised by this package."""


class Ambiguous(FrobeigError):
    """A certified comparison could not be decided.

    Raised when a ball straddles a decision boundary, for instance when an
    enclosure of a rational integer holds more than one integer.  Callers
    normally escalate precision and retry.
    """


class PrecisionExhausted(FrobeigError):
    """The working precision ceiling was reached without certification."""


class MalformedInput(FrobeigError):
    """Input record violates the schema (wrong types, missing fields)."""


# --- Weil polynomial validation -------------------------------------------

class NotPrimePower(FrobeigError):
    """q is not a prime power."""


class FunctionalEquationFailed(FrobeigError):
    """Coefficients violate a_{2g-i} = q^{g-i} * a_i."""


class RootModulusFailed(FrobeigError):
    """Some root provably does not have modulus sqrt(q).

    Carries a witness, every value a string: the real Weil polynomial's
    coefficients, how many of its distinct roots lie in [-2 sqrt(q),
    2 sqrt(q)] by an exact Sturm count, how many it has, and q.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotSimple(FrobeigError):
    """Operation requires an irreducible-power (simple) input."""


# --- splitting field / eigenvalue group -----------------------------------

class DegreeCapExceeded(FrobeigError):
    """The splitting field degree would exceed the configured cap."""


class TorsionDetected(FrobeigError):
    """The presented eigenvalue group has torsion.

    Reachable only when both sqrt(q) and -sqrt(q) occur among the roots;
    the relations 2[pi] = [q] for the two fixed roots force a 2-torsion
    class.  Carries the invariant factors of the presentation, read off
    the root layout: (1, ..., 1, 2), one per conjugation orbit.
    """

    def __init__(self, message, invariant_factors=None):
        super().__init__(message)
        self.invariant_factors = invariant_factors


class InternalInconsistency(FrobeigError):
    """A cross-check that should always hold failed; indicates a bug."""


class InternalError(FrobeigError):
    """An exception outside this hierarchy escaped a record's pipeline;
    the message names its type.  Indicates a bug."""


# --- quadratic forms -------------------------------------------------------

class NotSymmetric(FrobeigError):
    """Matrix expected to be symmetric is not."""


class NotSelfAdjoint(FrobeigError):
    """gram * u is not symmetric, so u is not self-adjoint for the form."""


class NondegeneracyFailed(FrobeigError):
    """The form has a radical (zero eigenvalue) where none is allowed."""


class NotPositiveSpectrum(FrobeigError):
    """charpoly(u) does not have exclusively positive real roots."""


class NotPositiveDefinite(FrobeigError):
    """A form required to be positive definite is not."""


class CharpolyMismatch(FrobeigError):
    """The intertwiner characteristic polynomials disagree across functors."""
