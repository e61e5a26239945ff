"""End-to-end acceptance gate.

Twelve oracle-backed criteria covering validation soundness, eigenvalue
group structure, the worked decomposition examples, hypothesis verdicts,
the certified quadratic-form engine, and batch determinism.  One test
per criterion; each prints a single PASS line with its runtime when it
succeeds, and criteria with a stated time budget assert it.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from frobeig.analysis import Analysis
from frobeig.config import DEFAULT
from frobeig.corpus import CORPUS
from frobeig.eig import build_eig_group, frobenius_rank
from frobeig.errors import FrobeigError, RootModulusFailed
from frobeig.lefmot import (ALL_PASS, EXOTIC, FAIL, build_rho_table,
                            classify_orbits, dims, eigen_multiset,
                            hypothesis_check, motive_orbits,
                            predicted_signature)
from frobeig.quadforms import (am_filter, charpoly_exact,
                               constant_signature_certify, count_real_roots,
                               mat_inverse, mat_mul_q, tannaka_transfer)
from frobeig.report import canonical_json, run_batch
from frobeig.weil import base_change, validate

from conftest import analysis_cached, deep_grid_records, split_cached

F = Fraction


def report_pass(num, label, elapsed):
    print(f"ACCEPTANCE {num:2d} PASS {label} ({elapsed:.2f}s)")


def full_setup(q, coeffs):
    an = analysis_cached(q, tuple(coeffs))
    return an, an.data, an.field, an.eig, an.gal


# 1. validation soundness over the quadratic grid

def test_criterion_01_weil_validation_soundness():
    t0 = time.perf_counter()
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 25):
        bound = 2 * (math.isqrt(q - 1) + 1) + 2   # 2*ceil(sqrt(q)) + 2
        for a in range(-bound, bound + 1):
            if a * a <= 4 * q:
                data = validate(q, (q, -a, 1))
                assert data.g == 1
            else:
                with pytest.raises(RootModulusFailed):
                    validate(q, (q, -a, 1))
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert checked >= 8 * 13
    report_pass(1, f"validation soundness on {checked} quadratics", elapsed)


# 2. eigenvalue group freeness and the rank identity across the corpus

WORKED_EXAMPLES = [
    (5, (5, -1, 1)),
    (3, (3, 0, 1)),
    (2, (2, 0, 1)),
    (9, (9, 6, 1)),
    (25, (25, 9, 1)),
    (5, (25, -5, 10, -1, 1)),
    (3, (27, 0, 27, 0, 9, 0, 1)),
]


def test_criterion_02_eig_freeness_and_rank_identity():
    t0 = time.perf_counter()
    assert len(CORPUS) >= 50
    seen = {(e.q, e.coefficients) for e in CORPUS}
    for pair in WORKED_EXAMPLES:
        assert pair in seen
    for entry in CORPUS:
        data, field = split_cached(entry.q, entry.coefficients)
        assert data.g <= 3
        eig = build_eig_group(data)
        assert all(f == 1 for f in eig.invariant_factors)
        lattice = analysis_cached(entry.q, entry.coefficients).relations[0]
        assert lattice.complete_within_bound
        r = frobenius_rank(data, field, eig)
        assert lattice.rank + r + 1 == eig.rank, entry.tag
        if data.is_simple and not data.real_root_indices:
            gm = data.g // data.multiplicity
            assert lattice.rank == gm - r, entry.tag
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report_pass(2, f"freeness + rank identity on {len(CORPUS)} entries",
                elapsed)


# 3. the worked supersingular fourth power

def test_criterion_03_supersingular_worked_example():
    an, data, field, eig, gal = full_setup(3, (3, 0, 1))
    t0 = time.perf_counter()
    rep = classify_orbits(an, 4, 2)
    elapsed = time.perf_counter() - t0
    assert rep.dims == (36, 2, 32, 70)
    assert 70 == math.comb(8, 4)
    assert rep.orbit_counts == (1, 1, 1)
    exotic = [o for o in motive_orbits(an, 4, 2)
              if o.classification == EXOTIC]
    assert len(exotic) == 1
    orbit = exotic[0]
    assert orbit.orbit_size == 2
    pi = eig.symbol_coords[0]
    pibar = eig.symbol_coords[data.iota[0]]
    expected = {tuple(4 * c for c in pi), tuple(4 * c for c in pibar)}
    assert {m.coords for m in orbit.elements} == expected
    assert elapsed < 1.0
    report_pass(3, "supersingular d=4 n=2 dims (36, 2, 32)", elapsed)


# 4. the ordinary control surface

def test_criterion_04_ordinary_control():
    t0 = time.perf_counter()
    an, data, field, eig, gal = full_setup(5, (5, -1, 1))
    rep = classify_orbits(an, 2, 1)
    assert rep.dims == (4, 0, 2, 6)
    lattice = an.relations[0]
    assert lattice.rank == 0
    for d in range(1, 4):
        for n in range(d + 1):
            lef, tate, exo = dims(an, d, n)
            assert exo == 0
            assert lef == tate
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report_pass(4, "ordinary d=2 n=1 dims (4, 0, 2), no exotic classes",
                elapsed)


# 5. mass conservation of the eigenvalue multisets

def test_criterion_05_mass_conservation():
    t0 = time.perf_counter()
    multisets = 0
    for entry in CORPUS:
        an = Analysis(validate(entry.q, entry.coefficients))
        data = an.data
        for d in range(1, 5):
            for k in range(2 * data.g * d + 1):
                ms = eigen_multiset(an, d, k)
                assert sum(ms.values()) == math.comb(2 * data.g * d, k)
                multisets += 1
    elapsed = time.perf_counter() - t0
    report_pass(5, f"mass conservation over {multisets} multisets", elapsed)


# 6. hypothesis checker verdicts

def test_criterion_06_hypothesis_checker():
    t0 = time.perf_counter()
    data, field = split_cached(3, (3, 0, 1))
    eig = build_eig_group(data)
    verdict = hypothesis_check(data, frobenius_rank(data, field, eig))
    assert verdict.verdict == ALL_PASS
    assert data.multiplicity == 1
    # the totally-real condition is automatic at multiplicity one
    assert ("totally_real_splitting", "PASS") in verdict.conditions
    assert verdict.failures == ()

    data9, field9 = split_cached(9, (9, 6, 1))
    eig9 = build_eig_group(data9)
    verdict9 = hypothesis_check(data9, frobenius_rank(data9, field9, eig9))
    assert verdict9.verdict == FAIL
    assert ("multiplicity_odd", "FAIL") in verdict9.conditions
    assert any("even" in f for f in verdict9.failures)
    elapsed = time.perf_counter() - t0
    report_pass(6, "hypothesis verdicts ALL_PASS / FAIL", elapsed)


# 7. Frobenius rank is a base-change invariant

def test_criterion_07_rank_base_change_invariance():
    t0 = time.perf_counter()
    pairs = 0
    for entry in CORPUS:
        data, field = split_cached(entry.q, entry.coefficients)
        eig = build_eig_group(data)
        r0 = frobenius_rank(data, field, eig)
        for k in range(2, 7):
            pk = base_change(data.poly, k)
            dk, fk = split_cached(entry.q ** k, pk.coefficients)
            ek = build_eig_group(dk)
            assert frobenius_rank(dk, fk, ek) == r0, (entry.tag, k)
            pairs += 1
    elapsed = time.perf_counter() - t0
    report_pass(7, f"rank invariance over {pairs} base changes", elapsed)


# 8. randomized constant-signature certificates

def _diag(entries):
    n = len(entries)
    return [[F(entries[i]) if i == j else F(0) for j in range(n)]
            for i in range(n)]


def _random_unimodular(rng, n):
    mat = _diag([1] * n)
    if n < 2:
        return mat
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = F(rng.choice((-2, -1, 1, 2)))
        mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
    return mat


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def test_criterion_08_constant_signature_suite():
    """500 certifying trials of the deformation u = u0^2 + eps*I.

    u0 = M^-1 S0 is self-adjoint for M, so M*u is always symmetric; its
    spectrum is positive real exactly when u0 has real spectrum.  For
    indefinite M the draw can produce complex u0 eigenvalues (M = diag(1,
    -1) with S0 = [[0, 1], [1, 0]] gives u0^2 = -I), and no positive
    deformation exists along that ray, so such draws are rejected by an
    exact Sturm count and redrawn; every surviving trial must certify.
    """
    t0 = time.perf_counter()
    rng = random.Random(20260819)
    classes = [(p, s - p) for s in range(1, 7) for p in range(s + 1)]
    trials = 0
    redraws = 0
    while trials < 500:
        pos, neg = classes[trials % len(classes)]
        n = pos + neg
        scale = [rng.randint(1, 5) for _ in range(n)]
        d = _diag([s if i < pos else -s
                   for i, s in enumerate(scale)])
        c = _random_unimodular(rng, n)
        m = mat_mul_q(_transpose(c), mat_mul_q(d, c))
        s0 = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s0[i][j] = s0[j][i] = F(rng.randint(-4, 4))
        u0 = mat_mul_q(mat_inverse(m), s0)
        if count_real_roots(charpoly_exact(u0)) != n:
            redraws += 1
            continue
        eps = F(1, rng.randint(2, 9))
        u = mat_mul_q(u0, u0)
        for i in range(n):
            u[i][i] += eps
        cert = constant_signature_certify(m, u)
        assert cert.signature == (pos, neg)
        trials += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report_pass(8, f"500 signature certificates ({redraws} redraws)",
                elapsed)


# 9. signature transfer between fiber functors

def test_criterion_09_tannaka_transfer():
    t0 = time.perf_counter()
    res = tannaka_transfer(_diag([1, 1]), _diag([2, 3]),
                           _diag([1, -1]), _diag([2, -3]))
    assert res.verdict == "SignaturesEqual"
    assert res.signature == (1, 1)
    from frobeig.errors import CharpolyMismatch
    with pytest.raises(CharpolyMismatch):
        tannaka_transfer(_diag([1, 1]), _diag([2, 3]),
                         _diag([1, -1]), _diag([2, -4]))
    elapsed = time.perf_counter() - t0
    report_pass(9, "transfer certificate and mismatch rejection", elapsed)


# 10. the mod-4 candidate filter against brute force

def test_criterion_10_am_filter_truth_table():
    t0 = time.perf_counter()
    candidates = ((2, 0), (1, 1), (0, 2))
    for m in range(1, 22):
        surviving = tuple(c for c in candidates if (m * c[1]) % 4 == 0)
        res = am_filter(m)
        assert set(res.candidates) == set(surviving), m
        assert res.determined == (len(surviving) == 1)
        if m % 2 == 1:
            assert res.candidates == ((2, 0),)
    assert not am_filter(2).determined
    assert not am_filter(4).determined
    elapsed = time.perf_counter() - t0
    report_pass(10, "mod-4 filter matches enumeration for m <= 21", elapsed)


# 11. predicted signature for the square of an ordinary elliptic curve

def test_criterion_11_predicted_signature_surface():
    t0 = time.perf_counter()
    rho = build_rho_table(analysis_cached(5, (5, -1, 1)), 2, source="tate")
    assert rho == [1, 4]
    pred = predicted_signature(rho, 1, source="tate")
    assert (pred.s_plus, pred.s_minus) == (3, 1)
    assert not pred.negative_prediction
    elapsed = time.perf_counter() - t0
    report_pass(11, "rho (1, 4) gives signature (3, 1)", elapsed)


# 12. batch determinism and parallel equivalence

def _store_lines(path):
    return [ln for ln in Path(path).read_text().splitlines()
            if '"record_type":"manifest"' not in ln]


def test_criterion_12_batch_determinism(tmp_path):
    t0 = time.perf_counter()
    in_path = tmp_path / "corpus.ndjson"
    in_path.write_text("\n".join(
        canonical_json({"label": e.tag, "q": e.q,
                        "coeffs": list(e.coefficients)})
        for e in CORPUS) + "\n")
    first = tmp_path / "run1.ndjson"
    second = tmp_path / "run2.ndjson"
    parallel = tmp_path / "run4.ndjson"
    s1 = run_batch(in_path, first, jobs=1)
    s2 = run_batch(in_path, second, jobs=1)
    s4 = run_batch(in_path, parallel, jobs=4)
    assert s1["errors"] == s2["errors"] == s4["errors"] == 0
    assert s1["written"] == len(CORPUS)
    lines1, lines2, lines4 = map(_store_lines, (first, second, parallel))
    assert lines1 == lines2                      # byte-identical, in order
    assert sorted(lines1) == sorted(lines4)      # parallel set equality
    keys = [json.loads(ln)["content_key"] for ln in lines1]
    assert len(set(keys)) == len(CORPUS)
    # the store is the output contract: a deliberate output change bumps
    # __version__ and this digest together
    digest = hashlib.sha256(("\n".join(lines1) + "\n").encode()).hexdigest()
    assert digest == ("3cdec388297b303ea935451dc52d274d"
                      "5ab2c5355f9c701b98b28eee19d473b5")
    elapsed = time.perf_counter() - t0
    report_pass(12, f"batch determinism over {len(CORPUS)} records x 3 runs",
                elapsed)


# the deep-grid store (see conftest.deep_grid_records): like the corpus
# store, it is an output contract

def test_deep_grid_store_digest(tmp_path):
    records = []
    for e, max_power in deep_grid_records():
        record = {"label": e.tag, "q": e.q, "coeffs": list(e.coefficients)}
        if max_power != 6:
            record["options"] = {"max_power": max_power}
        records.append(canonical_json(record))
    assert len(records) == 14
    in_path = tmp_path / "deep.ndjson"
    in_path.write_text("\n".join(records) + "\n")
    out = tmp_path / "store.ndjson"
    summary = run_batch(in_path, out, jobs=1,
                        global_options={"max_power": 6})
    assert (summary["written"], summary["errors"]) == (14, 0)
    lines = _store_lines(out)
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == ("66f45b5a6d6a918e24c3cb54d44ac34c"
                      "2fb1196567e752fd1ec488dcd86bb2e6")
