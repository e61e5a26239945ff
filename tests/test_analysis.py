"""One Analysis per record: every certified object is built once."""

import sys

from frobeig import eig, lefmot, splitfield, weil
from frobeig.analysis import Analysis
from frobeig.lefmot import motive_orbits
from frobeig.report import build_report_record, parse_record
from frobeig.splitfield import ModRing
from frobeig.weil import validate


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
