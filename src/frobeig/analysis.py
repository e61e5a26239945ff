"""One analysis per validated record, each certified object built once.

Objects are built on first read, in the order eigenvalue group,
splitting field, Galois group, relation engine, verdicts.  Only the
field can fail on a bound (degree cap or precision ceiling); that
failure is kept and raised again on every read of the field and of
everything built on it, the Galois group included, which is certified
exactly from the field's root coordinates.  Both verdicts use the one
Frobenius rank r.

The orbit classification reads four per-record tables on packed integer
keys of one width (see lefmot.pack_width): one expansion of the
eigenvalue multisets of every weight of a power d, kept for the power
read last only, so memory stays bounded over a grid; the validated
action rows of every Galois element; the realization map rho (shared
with the relation engine); and the Tate verdicts.  A representative lam
of weight 2n is Tate when its weight-zero class mu = lam - n[q]
realizes to 1, rho([q]) = q being checked once; the verdict is kept per
packed mu, so it is decided once for every (d, n) and both ambients.
Full (d, n) decompositions keep only their dims, which rho tables reuse.
"""

from functools import cached_property
from typing import Dict, Iterator, Optional, Tuple

from .config import DEFAULT, MAX_POWER_CAP, Settings
from .eig import (Coords, EigGroup, Realization, RelationLattice,
                  _relation_engine, action_rows, build_eig_group,
                  realize_coords)
from .errors import (DegreeCapExceeded, InternalInconsistency,
                     MalformedInput, PrecisionExhausted)
from .lefmot import (ALL_PASS, DecompositionReport, HypothesisVerdict,
                     classify_orbits, hypothesis_check, pack, pack_width,
                     power_layers, unpack)
from .splitfield import (Elem, GaloisData, SplittingField, galois_group,
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
        # one slot, (d, layers), for the power d read last
        self._layers: Tuple[Optional[int], Tuple[Dict[int, int], ...]] = \
            (None, ())
        self._tate: Dict[int, bool] = {}

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
        return _relation_engine(self.field, self.eig,
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
        that is rho(lam) = q^n?  Decided, and unpacked, once per class."""
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
