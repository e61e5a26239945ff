"""One analysis per validated record, each certified object built once.

Objects are built on first read: eigenvalue group, Galois group (from
the generic certificate, else from the splitting field), torsion rank,
then the field and the relation engine only when rho is not injective;
verdicts last.

The generic certificate (splitfield.generic_group) proves G = W' from
quadratic characters and Frobenius cycle types, with no field.  From G
the slope certificate (eig._torsion_rank) gives rank T, so r = s - 1 -
T, and reads rho only when its candidates disagree, never for G = W'.

rho is injective when T = #orbits - 1, the rank of the trivial words
pi_i pibar_i / pi_j pibar_j in T: a word realizing to 1 lies in T, so a
multiple of it is a sum of trivial words, which vanish in Eig, and Eig
is torsion-free.  Then the kernel is empty with saturation index 1, mu
is Tate exactly when mu = 0, and no field or relation engine is built.
Nor does the report scan base changes for multiplicity growth
(eig._growth): pi_i^k = pi_j^k for i != j would make the word
k (e_i - e_j), nonzero in Eig, realize to 1.

Only the certificate and the field can fail on a bound (degree cap or
precision ceiling), each on its own, so read order changes no result.
Each keeps its failure, in a slot of its own, for every read of it and
of what is built on it, so each runs at most once; the field reads the
certificate first: a cap that it proves ends the field.

The orbit classification reads four per-record tables on packed integer
keys of one width (see lefmot.pack_width): one expansion of the
eigenvalue multisets of every weight of a power d, kept for the power
read last only, so memory stays bounded over a grid; the validated
action rows of every Galois element; the realization map rho (shared
with the relation engine, and built only when rho is not injective or
the slope candidates disagree); and the
Tate verdicts.  A representative lam of weight 2n is Tate when its
weight-zero class mu = lam - n[q] realizes to 1, rho([q]) = q being
checked once; the verdict is kept per packed mu, so it is decided once
for every (d, n) and both ambients.
Full (d, n) decompositions keep only their dims, which rho tables reuse.
"""

from functools import cached_property
from typing import Dict, Iterator, Optional, Tuple

from .config import DEFAULT, MAX_POWER_CAP, Settings
from .eig import (Coords, EigGroup, Realization, RelationLattice,
                  _relation_engine, _torsion_rank, action_rows,
                  build_eig_group, realize_coords)
from .errors import (DegreeCapExceeded, InternalInconsistency,
                     MalformedInput, PrecisionExhausted)
from .lefmot import (ALL_PASS, DecompositionReport, HypothesisVerdict,
                     classify_orbits, hypothesis_check, pack, pack_width,
                     power_layers, unpack)
from .splitfield import (Elem, GaloisData, Perm, SplittingField,
                         galois_data, galois_group, generic_group,
                         splitting_field)
from .weil import WeilData

_BOUNDS = (DegreeCapExceeded, PrecisionExhausted)


class Analysis:
    """Everything certified about one validated record; not shared
    between threads.  cm_assertion enters `verdict` only: the exotic
    shape gate uses the verdict without it."""

    def __init__(self, data: WeilData, settings: Settings = DEFAULT,
                 cm_assertion: Optional[bool] = None):
        self.data = data
        self.settings = settings
        self.cm_assertion = cm_assertion
        self._generic_failure: Optional[Exception] = None
        self._field_failure: Optional[Exception] = None
        self._dims: Dict[Tuple[int, int], Tuple[int, int, int, int]] = {}
        # one slot, (d, layers), for the power d read last
        self._layers: Tuple[Optional[int], Tuple[Dict[int, int], ...]] = \
            (None, ())
        self._tate: Dict[int, bool] = {}

    def undetermined(self) -> Optional[str]:
        """Name of the bound failure of the Galois group, or of the field
        when rho is not injective, or None."""
        try:
            self.gal
            if not self.injective:
                self.field
        except _BOUNDS as exc:
            return type(exc).__name__
        return None

    @cached_property
    def eig(self) -> EigGroup:
        return build_eig_group(self.data)

    @cached_property
    def field(self) -> SplittingField:
        self.generic            # raises a cap the certificate proves
        if self._field_failure is None:
            try:
                return splitting_field(self.data, self.settings)
            except _BOUNDS as exc:
                self._field_failure = exc
        raise self._field_failure

    @cached_property
    def generic(self) -> Optional[Tuple[Perm, ...]]:
        """W', when splitfield.generic_group certifies G = W' with no
        field; None sends the Galois group to the field.  A bound failure
        is kept for every read."""
        if self._generic_failure is None:
            try:
                return generic_group(self.data, self.settings.degree_cap)
            except _BOUNDS as exc:
                self._generic_failure = exc
        raise self._generic_failure

    @cached_property
    def gal(self) -> GaloisData:
        perms = self.generic
        if perms is not None:
            return galois_data(perms, self.data)
        return galois_group(self.field, self.data)

    @cached_property
    def rho(self) -> Realization:
        """The realization map of the eigenvalue group in the field."""
        eig = self.eig          # a torsion failure outranks a field failure
        return Realization(eig, self.field, self.data.q)

    @cached_property
    def torsion_rank(self) -> int:
        """rank T of the eigenvalue words that are roots of unity, from
        the slope certificate."""
        eig = self.eig          # before the field: see rho
        return _torsion_rank(self.data, self.gal.perms, eig,
                             lambda: self.rho)

    @cached_property
    def injective(self) -> bool:
        """Is ker rho = 0?  (See the module docstring.)"""
        return self.torsion_rank == len(self.eig.orbit_reps) - 1

    @cached_property
    def relations(self) -> RelationLattice:
        """The kernel lattice of verified relations among the eigenvalues
        and q, empty when rho is injective; the engine's torsion scan
        stops at torsion_rank."""
        if self.injective:
            return RelationLattice(basis=(), rank=0, saturation_index=1)
        return _relation_engine(self.field, self.eig,
                                self.settings.search_bound, self.rho,
                                self.torsion_rank)

    @property
    def r(self) -> int:
        """The Frobenius rank s - 1 - rank T, for s distinct eigenvalues."""
        return self.eig.n_roots - 1 - self.torsion_rank

    @cached_property
    def verdict(self) -> HypothesisVerdict:
        """Hypothesis verdict under cm_assertion; NotSimple if reducible."""
        return hypothesis_check(self.data, self.r, self.cm_assertion)

    @cached_property
    def shape_certified(self) -> bool:
        """Do the hypotheses hold without cm_assertion?"""
        return self.data.is_simple and \
            hypothesis_check(self.data, self.r).verdict == ALL_PASS

    @cached_property
    def action(self) -> Tuple[Tuple[Coords, ...], ...]:
        """Basis-image rows of every Galois element, each validated once."""
        eig = self.eig
        return tuple(action_rows(eig, p) for p in self.gal.perms)

    @cached_property
    def _one(self) -> Elem:
        """The field's 1, once rho([q]) = q is checked: that identity makes
        rho(lam) = q^n equivalent to rho(lam - n[q]) = 1."""
        rho = self.rho
        if realize_coords(rho, self.eig.q_coords) != \
                rho.ring.const(self.data.q):
            raise InternalInconsistency("rho([q]) differs from q")
        return rho.ring.const(1)

    @cached_property
    def width(self) -> int:
        """Digit width of every packed key of the record (pack_width)."""
        return pack_width(self.data.g, self.eig)

    def layers(self, d: int) -> Tuple[Dict[int, int], ...]:
        """Eigenvalue multisets of weights 0 .. 2gd on power d <=
        MAX_POWER_CAP, on packed keys (see lefmot.power_layers).  Only the
        power read last is kept: the grid and rho tables read one d at a
        time."""
        if not 1 <= d <= MAX_POWER_CAP:
            raise MalformedInput(f"power d={d} outside 1..{MAX_POWER_CAP}")
        if self._layers[0] != d:
            self._layers = (d, power_layers(self.data, self.eig, d,
                                            self.width))
        return self._layers[1]

    @cached_property
    def packed_action(self) -> Tuple[Tuple[int, ...], ...]:
        """The action rows packed at `width` (see lefmot.pack), by basis
        position: entry j lists the image of b_j under every Galois
        element, in the order of gal.perms."""
        w = self.width
        return tuple(tuple(pack(rows[j], w) for rows in self.action)
                     for j in range(self.eig.rank))

    def is_tate(self, mu: int) -> bool:
        """Does the packed weight-zero class mu = lam - n[q] realize to 1,
        that is rho(lam) = q^n?  Exactly when mu = 0 if rho is injective;
        otherwise decided, and unpacked, once per class."""
        if self.injective:
            return mu == 0
        if mu not in self._tate:
            one = self._one
            self._tate[mu] = realize_coords(
                self.rho, unpack(mu, self.width, self.eig.rank)) == one
        return self._tate[mu]

    def grid(self, max_power: int) -> Iterator[DecompositionReport]:
        """Full decompositions for d = 1..max_power, n = 0..g*d, in order,
        yielded one at a time."""
        for d in range(1, max_power + 1):
            for n in range(self.data.g * d + 1):
                dec = classify_orbits(self, d, n)
                self._dims[(d, n)] = dec.dims
                yield dec

    def full_dims(self, d: int, n: int) -> Tuple[int, int, int, int]:
        """(L, E, T, total) of h^2n of power d, classified at most once."""
        if (d, n) not in self._dims:
            self._dims[(d, n)] = classify_orbits(self, d, n).dims
        return self._dims[(d, n)]
