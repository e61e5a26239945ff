"""One Analysis per record: every certified object is built once."""

import hashlib
import json
import signal
import sys

import pytest

from frobeig import __version__, analysis, eig, lefmot, splitfield, weil
from frobeig.analysis import Analysis
from frobeig.config import DEFAULT
from frobeig.corpus import CORPUS
from frobeig.eig import invariants_report
from frobeig.errors import DegreeCapExceeded, PrecisionExhausted
from frobeig.exactmath.intpoly import IntPoly
from frobeig.lefmot import motive_orbits, pack
from frobeig.report import (build_report_record, galois_fragment,
                            parse_record, process_line)
from frobeig.splitfield import ModRing
from frobeig.weil import base_change, validate

from families import seeded_generic_inputs, seeded_weil_inputs


def record_calls(monkeypatch, module, name):
    """Results of every call to module.name, under each frobeig module
    that binds it, for the length of the test."""
    orig = getattr(module, name)
    results = []

    def recorded(*args, **kwargs):
        results.append(orig(*args, **kwargs))
        return results[-1]

    for key, mod in list(sys.modules.items()):
        if (key == "frobeig" or key.startswith("frobeig.")) and \
                getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, recorded)
    return results


def test_report_builds_each_object_once(monkeypatch):
    validated = record_calls(monkeypatch, weil, "validate")
    fields = record_calls(monkeypatch, splitfield, "splitting_field")
    engines = record_calls(monkeypatch, eig, "_relation_engine")
    decs = record_calls(monkeypatch, lefmot, "classify_orbits")
    rep = build_report_record(parse_record(
        {"q": 3, "coeffs": [3, 0, 1], "options": {"max_power": 4}}))
    grid = rep["decompositions"]
    assert len(grid) == 14
    assert any(x["shape"] == "certified" for dec in grid
               for x in dec["exotic"])
    # the rho tables of d = 2 and d = 4 come from the grid's dims
    assert [p["d"] for p in rep["signature_predictions"]] == [2, 4]
    assert (len(validated), len(fields), len(engines), len(decs)) \
        == (1, 1, 1, 14)
    field = fields[0]
    assert field.ring() is field.ring()


def test_each_tate_verdict_decided_once(monkeypatch):
    # the sextic's grid holds exotic orbits of sizes 2 and 4 and needs
    # negative powers of every basis root
    an = Analysis(validate(2, [8, 0, 4, 0, 2, 0, 1]))
    inverses = []
    real_inv = ModRing.inv
    monkeypatch.setattr(ModRing, "inv", lambda ring, x: inverses.append(
        x) or real_inv(ring, x))
    an.relations                  # the kernel search reads rho too
    tate = record_calls(monkeypatch, eig, "realize_coords")
    q = an.eig.q_coords
    classes = set()
    for d in (1, 2):
        for n in range(3 * d + 1):
            orbits = list(motive_orbits(an, d, n))
            if 2 * n <= 3 * d:
                orbits += motive_orbits(an, d, n, "primitive")
            # each verdict is keyed by the weight-zero class lam - n[q]
            classes |= {tuple(a - n * b for a, b in
                              zip(o.elements[0].coords, q))
                        for o in orbits
                        if o.classification != lefmot.TATE_TRIVIAL}
    # one field test per class, and one of rho([q]) = q
    assert len(tate) == len(classes) + 1 > 1
    assert tate[0] == an.rho.ring.const(2)
    # negative powers start from 1/r = rbar/q, never from a field inverse
    assert inverses == []


def _bounded(seconds, fn):
    """fn() under a SIGALRM guard of the given seconds."""
    def too_slow(signum, frame):
        raise TimeoutError(f"exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        return fn()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _facts(data):
    """What the report reads of the group and the relations, from a fresh
    Analysis, the Tate verdicts of 0 and of the weight-zero classes b_i -
    b_j and 2 b_i - [q], and the record's process_line bytes at
    max_power 2."""
    an = Analysis(data)
    lattice = an.relations
    roots = [j for j, br in enumerate(an.eig.basis_roots) if br is not None]
    unit = lambda j: [int(t == j) for t in range(an.eig.rank)]
    mus = [[0] * an.eig.rank]
    mus += [[a - b for a, b in zip(unit(i), unit(j))]
            for i in roots for j in roots if i != j]
    mus += [[2 * a - b for a, b in zip(unit(i), an.eig.q_coords)]
            for i in roots]
    raw = json.dumps({"q": data.q, "coeffs": list(data.poly.coefficients),
                      "options": {"max_power": 2}})
    return (an.generic is not None,
            galois_fragment(an.gal), invariants_report(an)["splitting_degree"],
            an.r, an.torsion_rank, lattice.basis, lattice.saturation_index,
            [an.is_tate(pack(mu, an.width)) for mu in mus],
            process_line(raw, None, DEFAULT, __version__))


class TestGenericPath:
    """A record certified G = W' reads the group from G alone, and an
    injective rho gives the empty kernel and the Tate verdicts with no
    field; the field path and the relation engine must agree."""

    def test_matches_the_field_path(self, monkeypatch):
        quartics = [(e.q, e.coefficients) for e in CORPUS
                    if len(e.coefficients) == 5]
        quartics += seeded_weil_inputs(2026, 8, 4)
        quartics += seeded_weil_inputs(11, 30, 0)
        quartics += seeded_weil_inputs(7, 40, 0)
        pairs = [(e.q, e.coefficients) for e in CORPUS
                 if len(e.coefficients) == 3]
        pairs += [(q ** k, base_change(IntPoly(c), k).coefficients)
                  for q, c in pairs for k in (2, 3)]
        inputs = pairs + [(3, (9, 0, 6, 0, 1))] + quartics \
            + seeded_generic_inputs(2026, 3, 2) \
            + [(3, (27, 27, 6, -1, 2, 3, 1))]
        generic, injective = [], 0
        for q, coeffs in dict.fromkeys((q, tuple(c)) for q, c in inputs):
            data = validate(q, coeffs)
            if len(data.real_root_indices) > 1:
                continue                # TorsionDetected
            with monkeypatch.context() as m:
                m.setattr(analysis, "generic_group", lambda data, cap: None)
                an = Analysis(data)
                if _bounded(20, lambda: an.injective):
                    # the relation engine, forced, finds no relation
                    lattice = _bounded(20, lambda: eig._relation_engine(
                        an.field, an.eig, an.settings.search_bound, an.rho,
                        an.torsion_rank))
                    assert (lattice.basis, lattice.saturation_index) \
                        == ((), 1), (q, coeffs)
                    injective += 1
            if _bounded(5, lambda: Analysis(data).generic) is None:
                continue
            new = _bounded(10, lambda: _facts(data))
            with monkeypatch.context() as m:
                m.setattr(analysis, "generic_group", lambda data, cap: None)
                old = _bounded(20, lambda: _facts(data))
            assert new[0] and not old[0]
            assert new[1:] == old[1:], (q, coeffs)
            generic.append((q, coeffs))
        assert {(5, (25, -5, 6, -1, 1)), (2, (4, -2, 3, -1, 1)),
                (3, (27, 27, 6, -1, 2, 3, 1)), (3, (3, 0, 1)),
                (3, (9, 0, 6, 0, 1))} <= set(generic)
        assert (len(generic), injective) == (135, 122)

    def test_builds_no_field(self, monkeypatch):
        fields = record_calls(monkeypatch, splitfield, "splitting_field")
        engines = record_calls(monkeypatch, eig, "_relation_engine")
        for q, coeffs, degree, rank in (
                (3, [27, 27, 6, -1, 2, 3, 1], 48, 3),       # G = W_3
                (5, [5, 1, 1], 2, 1)):                      # ordinary pair
            rep = build_report_record(parse_record({"q": q, "coeffs": coeffs}))
            assert rep["invariants"]["splitting_degree"] == degree
            assert rep["invariants"]["frobenius_rank"] == rank
            assert rep["invariants"]["kernel_basis"] == []
            assert rep["status"]["undetermined"] == []
        assert (len(fields), len(engines)) == (0, 0)

    def test_field_failure_of_a_torsion_pair(self, monkeypatch):
        # q=3 [3,0,1]: G = W' = {1, iota} needs no field, but pi^2 = -q
        # makes pi / pibar torsion, so rho is not injective and the kernel
        # needs the field: its bound failure leaves the whole report
        # undetermined, in the bytes it had when G came from the field
        def exhausted(data, settings):
            raise PrecisionExhausted("splitting field undecided at 16 bits")

        monkeypatch.setattr(analysis, "splitting_field", exhausted)
        _, line, kind = process_line(json.dumps({"q": 3, "coeffs": [3, 0, 1]}),
                                     None, DEFAULT, __version__)
        assert kind == "report"
        assert '"galois":null' in line
        assert '"undetermined_reason":"PrecisionExhausted"' in line
        assert hashlib.sha256(line.encode()).hexdigest() == \
            "89bf5938e7064a5308070bb27116b70df29ab0f27e8862c678d4e35fa20f53b0"

    def test_read_order_changes_nothing(self, monkeypatch):
        # the certificate and the field keep no shared failure: a field
        # read first, and failing, leaves the group and the kernel of the
        # injective pair q=5 [5,1,1] as a fresh Analysis gives them
        def exhausted(data, settings):
            raise PrecisionExhausted("splitting field undecided at 16 bits")

        monkeypatch.setattr(analysis, "splitting_field", exhausted)
        data = validate(5, [5, 1, 1])
        an = Analysis(data)
        with pytest.raises(PrecisionExhausted):
            an.field
        fresh = Analysis(data)
        for a in (an, fresh):
            assert a.gal.order == 2
            assert a.undetermined() is None
            assert (a.relations.basis, a.relations.saturation_index) \
                == ((), 1)

    def test_field_ends_at_the_certificates_cap(self, monkeypatch):
        # g=5: the certificate proves the degree cap from one cycle type,
        # and the field reads it first, so it enumerates no subgroup; the
        # certificate keeps its failure, so it runs once per Analysis
        # however often the report reads it
        def unreachable(*args):
            raise AssertionError("the field enumerated subgroups")

        calls = []
        certify = analysis.generic_group

        def counted(data, cap):
            calls.append(cap)
            return certify(data, cap)

        monkeypatch.setattr(splitfield, "_subgroup_candidates", unreachable)
        monkeypatch.setattr(analysis, "generic_group", counted)
        coeffs = [32, 16, 8, 4, 2, 1, 1, 1, 1, 1, 1]
        an = Analysis(validate(2, coeffs))
        with pytest.raises(DegreeCapExceeded):
            an.field
        with pytest.raises(DegreeCapExceeded):
            an.gal
        assert an.undetermined() == "DegreeCapExceeded"
        assert len(calls) == 1
        line = process_line(json.dumps({"q": 2, "coeffs": coeffs}), None,
                            DEFAULT, __version__)[1]
        assert '"undetermined_reason":"DegreeCapExceeded"' in line
        assert len(calls) == 2

    def test_corpus_fields_and_engines(self, monkeypatch):
        # the field and the relation engine run only where rho is not
        # injective
        fields = record_calls(monkeypatch, splitfield, "splitting_field")
        engines = record_calls(monkeypatch, eig, "_relation_engine")
        for e in CORPUS:
            raw = json.dumps({"q": e.q, "coeffs": list(e.coefficients)})
            assert process_line(raw, None, DEFAULT, __version__)[2] == "report"
        assert (len(CORPUS), len(fields), len(engines)) == (57, 23, 23)

    def test_corpus_quartics_of_order_4_take_the_field(self, monkeypatch):
        fields = record_calls(monkeypatch, splitfield, "splitting_field")
        for coeffs in ((4, -4, 2, -2, 1), (4, -6, 5, -3, 1)):
            an = Analysis(validate(2, coeffs))
            assert an.generic is None
            assert an.gal.order == 4
        assert len(fields) == 2
