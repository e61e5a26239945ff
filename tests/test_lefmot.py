"""Eigenvalue multisets, orbit classification, hypotheses, signatures."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobeig.errors import InternalInconsistency, MalformedInput, NotSimple
from frobeig.lefmot import (ALL_PASS, EXOTIC, FAIL, NON_TATE,
                            PASS_CONDITIONAL_ON_CM, TATE_TRIVIAL,
                            build_rho_table, classify_orbits, dims,
                            eigen_multiset, hypothesis_check,
                            predicted_signature, primitive_multiset)
from frobeig.weil import base_change, validate

from conftest import analysis_cached, split_cached


def full_setup(q, coeffs):
    an = analysis_cached(q, coeffs)
    return an.data, an.field, an.eig, an.gal


class TestEigenMultiset:
    def test_ordinary_square(self):
        data, _, eig, _ = full_setup(5, (5, -1, 1))
        ms = {el.coords: c for el, c in eigen_multiset(data, eig, 2, 2).items()}
        two_pi = tuple(2 * c for c in eig.symbol_coords[eig.orbit_reps[0]])
        assert ms[eig.q_coords] == 4
        assert ms[two_pi] == 1
        assert sorted(ms.values()) == [1, 1, 4]

    def test_supersingular_fourth_power(self):
        data, _, eig, _ = full_setup(3, (3, 0, 1))
        ms = eigen_multiset(data, eig, 4, 4)
        assert sorted(ms.values()) == [1, 1, 16, 16, 36]
        assert sum(ms.values()) == 70

    def test_empty_wedge(self):
        data, _, eig, _ = full_setup(5, (5, -1, 1))
        ms = eigen_multiset(data, eig, 1, 0)
        (el, c), = ms.items()
        assert el.coords == (0,) * eig.rank and c == 1

    def test_odd_weight(self):
        data, _, eig, _ = full_setup(5, (5, -1, 1))
        ms = {el.coords: c for el, c in eigen_multiset(data, eig, 1, 1).items()}
        assert set(ms.values()) == {1} and len(ms) == 2

    def test_weights_match_degree(self):
        data, _, eig, _ = full_setup(3, (27, 0, 0, 0, 0, 0, 1))
        for el, c in eigen_multiset(data, eig, 2, 5).items():
            assert el.weight == 5 and c > 0

    def test_rejects_out_of_range(self):
        data, _, eig, _ = full_setup(5, (5, -1, 1))
        with pytest.raises(MalformedInput):
            eigen_multiset(data, eig, 1, 3)
        with pytest.raises(MalformedInput):
            eigen_multiset(data, eig, 1, -1)
        with pytest.raises(MalformedInput):
            eigen_multiset(data, eig, 0, 0)

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([(5, (5, -1, 1)), (3, (3, 0, 1)), (9, (9, 6, 1)),
                            (5, (25, -5, 10, -1, 1)),
                            (2, (8, 0, 4, 0, 2, 0, 1))]),
           st.integers(min_value=1, max_value=3),
           st.data())
    def test_mass_conservation(self, entry, d, datax):
        data, _, eig, _ = full_setup(*entry)
        k = datax.draw(st.integers(min_value=0, max_value=2 * data.g * d))
        ms = eigen_multiset(data, eig, d, k)
        assert sum(ms.values()) == math.comb(2 * data.g * d, k)


class TestPrimitiveMultiset:
    def test_ordinary_middle(self):
        data, _, eig, _ = full_setup(5, (5, -1, 1))
        prim = {el.coords: c
                for el, c in primitive_multiset(data, eig, 2, 1).items()}
        assert prim[eig.q_coords] == 3
        assert sum(prim.values()) == 5

    def test_supersingular_exotic_survives(self):
        data, _, eig, _ = full_setup(3, (3, 0, 1))
        prim = {el.coords: c
                for el, c in primitive_multiset(data, eig, 4, 2).items()}
        four_pi = tuple(4 * c for c in eig.symbol_coords[eig.orbit_reps[0]])
        assert prim[four_pi] == 1
        assert sum(prim.values()) == math.comb(8, 4) - math.comb(8, 2)

    def test_codimension_zero(self):
        data, _, eig, _ = full_setup(5, (5, -1, 1))
        prim = primitive_multiset(data, eig, 3, 0)
        assert sum(prim.values()) == 1

    def test_beyond_middle_rejected(self):
        # primitive parts stop at the middle degree g*d
        data, _, eig, _ = full_setup(5, (5, -1, 1))
        with pytest.raises(MalformedInput):
            primitive_multiset(data, eig, 1, 1)

    def test_lefschetz_image_contained(self):
        # the subtraction never clamps: every lower class lifts
        for q, coeffs, d, n in [(5, (5, -1, 1), 4, 2),
                                (3, (3, 0, 1), 4, 2),
                                (2, (8, 0, 4, 0, 2, 0, 1), 2, 3),
                                (5, (25, -5, 10, -1, 1), 2, 2)]:
            data, _, eig, _ = full_setup(q, coeffs)
            prim = primitive_multiset(data, eig, d, n)
            assert all(c > 0 for c in prim.values())


class TestClassifyOrbits:
    def test_supersingular_fourth_power_full(self):
        an = analysis_cached(3, (3, 0, 1))
        rep = classify_orbits(an, 4, 2)
        assert rep.dims == (36, 2, 32, 70)
        exo = [o for o in rep.orbits if o.classification == EXOTIC]
        assert len(exo) == 1 and exo[0].orbit_size == 2
        assert exo[0].dimension_in_ambient == 2
        assert rep.exotic_details[0]["shape"] == "certified"

    def test_supersingular_fourth_power_primitive(self):
        an = analysis_cached(3, (3, 0, 1))
        rep = classify_orbits(an, 4, 2, "primitive")
        assert rep.dims == (20, 2, 20, 42)

    def test_ordinary_square(self):
        an = analysis_cached(5, (5, -1, 1))
        rep = classify_orbits(an, 2, 1)
        assert rep.dims == (4, 0, 2, 6)
        assert rep.exotic_details == ()
        kinds = sorted(o.classification for o in rep.orbits)
        assert kinds == [NON_TATE, TATE_TRIVIAL]

    def test_point_class(self):
        an = analysis_cached(5, (5, -1, 1))
        rep = classify_orbits(an, 1, 0)
        assert rep.dims == (1, 0, 0, 1)
        assert rep.orbits[0].classification == TATE_TRIVIAL

    def test_squared_factor_shape_not_certified(self):
        # m = 2 fails the hypotheses, so the (correct) shape is reported
        # without certification
        an = analysis_cached(3, (9, 0, 6, 0, 1))
        rep = classify_orbits(an, 2, 2)
        assert rep.dims == (36, 2, 32, 70)
        assert rep.exotic_details[0]["shape"] == "as_predicted"
        assert "warning" not in rep.exotic_details[0]

    def test_mixed_supersingular_sextic_off_shape(self):
        # three distinct conjugate pairs give exotic orbits of size 4 and
        # non-antipodal coordinates; reducible input, so warnings only
        an = analysis_cached(2, (8, 0, 4, 0, 2, 0, 1))
        rep = classify_orbits(an, 2, 2)
        assert rep.dims == (51, 18, 426, 495)
        sizes = sorted(x["orbit_size"] for x in rep.exotic_details)
        assert sizes == [2, 4]
        assert all(x["shape"] == "unexpected" and "warning" in x
                   for x in rep.exotic_details)

    def test_partition_properties(self):
        from frobeig.eig import galois_action
        cases = [(5, (5, -1, 1), 2, 1), (3, (3, 0, 1), 4, 2),
                 (2, (8, 0, 4, 0, 2, 0, 1), 2, 2)]
        for q, coeffs, d, n in cases:
            data, field, eig, gal = full_setup(q, coeffs)
            rep = classify_orbits(analysis_cached(q, coeffs), d, n)
            seen = set()
            for orbit in rep.orbits:
                coords = {el.coords for el in orbit.elements}
                assert not (coords & seen)
                seen |= coords
                # G-stability
                for sigma in gal.perms:
                    assert {galois_action(eig, sigma, el).coords
                            for el in orbit.elements} == coords
            total = sum(o.dimension_in_ambient for o in rep.orbits)
            assert total == rep.dims[3] == math.comb(2 * data.g * d, 2 * n)

    def test_rejects_unknown_ambient(self):
        an = analysis_cached(5, (5, -1, 1))
        with pytest.raises(MalformedInput):
            classify_orbits(an, 1, 0, "middle")


class TestDims:
    def test_oracles(self):
        table = [
            (3, (3, 0, 1), 4, 2, (36, 38, 2)),
            (3, (3, 0, 1), 2, 1, (4, 4, 0)),
            (5, (5, -1, 1), 2, 1, (4, 4, 0)),
        ]
        for q, coeffs, d, n, want in table:
            assert dims(analysis_cached(q, coeffs), d, n) == want

    def test_injective_realization_forces_no_exotic(self):
        for q, coeffs in [(5, (5, -1, 1)), (5, (25, -5, 6, -1, 1))]:
            an = analysis_cached(q, coeffs)
            assert an.relations[0].rank == 0
            for d in (1, 2, 3):
                for n in range(d + 1):
                    lef, tate, exo = dims(an, d, n)
                    assert exo == 0 and tate == lef

    def test_tate_monotone_along_field_containment(self):
        # F_9 is not a subfield of F_27, so monotonicity holds along the
        # divisibility order of k, not along k itself: the linear sequence
        # k = 1, 2, 3 gives (4, 6, 4) here
        data0, _ = split_cached(3, (3, 0, 1))
        vals = []
        for k in (1, 2, 4):
            if k == 1:
                poly = data0.poly
            else:
                poly = base_change(data0.poly, k)
            an = analysis_cached(3 ** k, tuple(poly.coefficients))
            vals.append(dims(an, 2, 1)[1])
        assert vals == [4, 6, 6]
        bc3 = base_change(data0.poly, 3)
        an3 = analysis_cached(27, tuple(bc3.coefficients))
        assert dims(an3, 2, 1)[1] == 4


class TestHypothesisCheck:
    def test_supersingular_all_pass(self):
        an = analysis_cached(3, (3, 0, 1))
        v = hypothesis_check(an.data, an.r)
        assert v.verdict == ALL_PASS
        assert v.failures == () and v.warnings == ()

    def test_ordinary_all_pass(self):
        an = analysis_cached(5, (5, -1, 1))
        assert hypothesis_check(an.data, an.r).verdict == ALL_PASS

    def test_even_multiplicity_fails(self):
        an = analysis_cached(9, (9, 6, 1))
        v = hypothesis_check(an.data, an.r)
        assert v.verdict == FAIL
        assert any("even" in f for f in v.failures)

    def test_rank_condition_fails(self):
        # roots of X^4+2X^2+4 satisfy pi^6 = q^3, so r = 0 < g/m - 1 = 1
        an = analysis_cached(2, (4, 0, 2, 0, 1))
        v = hypothesis_check(an.data, an.r)
        assert v.verdict == FAIL
        assert v.failures == ("frobenius rank r=0 below g/m - 1 = 1",)
        assert any("prime dimension g=2" in w for w in v.warnings)

    def test_cm_assertion_paths(self):
        an = analysis_cached(3, (27, 0, 27, 0, 9, 0, 1))
        v = hypothesis_check(an.data, an.r)
        assert v.verdict == PASS_CONDITIONAL_ON_CM
        assert hypothesis_check(an.data, an.r,
                                cm_assertion=True).verdict == ALL_PASS
        assert hypothesis_check(an.data, an.r,
                                cm_assertion=False).verdict == FAIL
        # g = 3 is prime but m = 3, so the Tankeev expectation is flagged
        assert any("prime dimension" in w for w in v.warnings)

    def test_not_simple(self):
        an = analysis_cached(5, (25, -5, 10, -1, 1))
        with pytest.raises(NotSimple):
            hypothesis_check(an.data, an.r)


class TestPredictedSignature:
    def test_hodge_index_surface(self):
        s = predicted_signature((1, 4), 1)
        assert (s.s_plus, s.s_minus) == (3, 1)
        assert not s.negative_prediction

    def test_point(self):
        s = predicted_signature((1,), 0)
        assert (s.s_plus, s.s_minus) == (1, 0)

    def test_alternating_formula(self):
        for rho2 in range(8):
            s = predicted_signature((1, 4, rho2), 2)
            assert s.s_plus == rho2 - 3
            assert s.s_minus == 3
            assert s.negative_prediction == (rho2 < 3)

    def test_validation(self):
        with pytest.raises(MalformedInput):
            predicted_signature((2, 4), 1)
        with pytest.raises(MalformedInput):
            predicted_signature((1, -1), 1)
        with pytest.raises(MalformedInput):
            predicted_signature((1,), 1)

    def test_rho_table_ordinary_square(self):
        tab = build_rho_table(analysis_cached(5, (5, -1, 1)), 2)
        assert tab == [1, 4]
        s = predicted_signature(tab, len(tab) - 1, source="tate")
        assert (s.s_plus, s.s_minus) == (3, 1) and s.source == "tate"

    def test_rho_table_lefschetz_source(self):
        assert build_rho_table(analysis_cached(3, (3, 0, 1)), 2,
                               source="lefschetz") == [1, 4]

    def test_rho_table_odd_dimension_rejected(self):
        an = analysis_cached(5, (5, -1, 1))
        with pytest.raises(MalformedInput):
            build_rho_table(an, 1)
        with pytest.raises(MalformedInput):
            build_rho_table(an, 2, source="hodge")
