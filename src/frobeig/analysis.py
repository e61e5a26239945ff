"""One analysis per validated record, each certified object built once.

Objects are built on first read, in the order eigenvalue group,
splitting field, Galois group, relation engine, verdicts.  Only the
field can fail on a bound (degree cap or precision ceiling); that
failure is kept and raised again on every read of the field and of
everything built on it, the Galois group included, which is certified
exactly from the field's root coordinates.  Both verdicts use the one
Frobenius rank r.

The orbit classification reads four per-record tables: one expansion of
the eigenvalue multisets of every weight per power d, the validated
action rows of every Galois element, the realization map rho (shared
with the relation engine), and the Tate verdict rho(lam) = q^n of every
orbit representative lam, decided once for all (d, n) and both
ambients.  Full (d, n) decompositions keep only their dims, which rho
tables reuse.
"""

from functools import cached_property
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from .config import DEFAULT, Settings
from .eig import (Coords, EigGroup, Realization, RelationLattice,
                  _relation_engine, action_rows, apply_rows, build_eig_group,
                  realize_coords)
from .errors import DegreeCapExceeded, PrecisionExhausted
from .lefmot import (ALL_PASS, DecompositionReport, HypothesisVerdict,
                     classify_orbits, hypothesis_check, power_layers)
from .splitfield import (GaloisData, SplittingField, galois_group,
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
        self._field_failure: Optional[Exception] = None
        self._dims: Dict[Tuple[int, int], Tuple[int, int, int, int]] = {}
        self._layers: Dict[int, Tuple[Dict[Coords, int], ...]] = {}
        self._tate: Dict[Coords, bool] = {}

    def undetermined(self, part: str) -> Optional[str]:
        """Name of the field's bound failure if it leaves part ("field",
        or "gal", which needs the field) undetermined, or None."""
        try:
            getattr(self, part)
        except _BOUNDS as exc:
            return type(exc).__name__
        return None

    @cached_property
    def eig(self) -> EigGroup:
        return build_eig_group(self.data)

    @cached_property
    def field(self) -> SplittingField:
        if self._field_failure is None:
            try:
                return splitting_field(self.data, self.settings)
            except _BOUNDS as exc:
                self._field_failure = exc
        raise self._field_failure

    @cached_property
    def gal(self) -> GaloisData:
        return galois_group(self.field, self.data)

    @cached_property
    def rho(self) -> Realization:
        """The realization map of the eigenvalue group in the field."""
        eig = self.eig          # a torsion failure outranks a field failure
        return Realization(eig, self.field, self.data.q)

    @cached_property
    def relations(self) -> Tuple[RelationLattice, int, int]:
        """(kernel lattice, torsion-relation rank, Frobenius rank r): the
        verified multiplicative relations among the eigenvalues and q."""
        rho = self.rho          # before the field: see rho
        return _relation_engine(self.data, self.field, self.eig,
                                self.settings.search_bound, rho)

    @property
    def r(self) -> int:
        return self.relations[2]

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

    def orbit(self, coords: Coords) -> FrozenSet[Coords]:
        """Galois orbit of the basis-coordinate vector coords."""
        return frozenset(apply_rows(rows, coords) for rows in self.action)

    def layers(self, d: int) -> Tuple[Dict[Coords, int], ...]:
        """Eigenvalue multisets of weights 0 .. 2gd on power d, by
        coordinates, expanded once per d (see lefmot.power_layers)."""
        if d not in self._layers:
            self._layers[d] = power_layers(self.data, self.eig, d)
        return self._layers[d]

    def is_tate(self, coords: Coords) -> bool:
        """Does rho(lam) = q^n hold, 2n the weight of lam?  Decided exactly
        once per coords; the weight fixes n."""
        if coords not in self._tate:
            weight = self.eig.element(coords).weight
            rho = self.rho
            self._tate[coords] = weight % 2 == 0 and \
                realize_coords(rho, coords) == rho.ring.const(
                    self.data.q ** (weight // 2))
        return self._tate[coords]

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
