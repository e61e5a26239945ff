"""Eigenvalue multisets, orbit classification, hypotheses, signatures."""

import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobeig.corpus import CORPUS
from frobeig.errors import InternalInconsistency, MalformedInput, NotSimple
from frobeig.lefmot import (ALL_PASS, EXOTIC, FAIL, NON_TATE,
                            PASS_CONDITIONAL_ON_CM, TATE_TRIVIAL,
                            MotiveOrbit, _exotic_shape_ok, _primitive_layer,
                            build_rho_table, classify_orbits, dims,
                            eigen_multiset, hypothesis_check, motive_orbits,
                            pack, pack_width, power_layers,
                            predicted_signature, unpack)
from frobeig.config import MAX_POWER_CAP
from frobeig.eig import (action_rows, apply_rows, build_eig_group,
                         realize_coords)
from frobeig.weil import base_change, validate

from conftest import analysis_cached, deep_grid_records, split_cached


def full_setup(q, coeffs):
    an = analysis_cached(q, coeffs)
    return an.data, an.field, an.eig, an.gal


class TestEigenMultiset:
    def test_ordinary_square(self):
        an = analysis_cached(5, (5, -1, 1))
        eig = an.eig
        ms = {el.coords: c for el, c in eigen_multiset(an, 2, 2).items()}
        two_pi = tuple(2 * c for c in eig.symbol_coords[eig.orbit_reps[0]])
        assert ms[eig.q_coords] == 4
        assert ms[two_pi] == 1
        assert sorted(ms.values()) == [1, 1, 4]

    def test_supersingular_fourth_power(self):
        an = analysis_cached(3, (3, 0, 1))
        ms = eigen_multiset(an, 4, 4)
        assert sorted(ms.values()) == [1, 1, 16, 16, 36]
        assert sum(ms.values()) == 70

    def test_empty_wedge(self):
        an = analysis_cached(5, (5, -1, 1))
        eig = an.eig
        ms = eigen_multiset(an, 1, 0)
        (el, c), = ms.items()
        assert el.coords == (0,) * eig.rank and c == 1

    def test_odd_weight(self):
        an = analysis_cached(5, (5, -1, 1))
        ms = {el.coords: c for el, c in eigen_multiset(an, 1, 1).items()}
        assert set(ms.values()) == {1} and len(ms) == 2

    def test_weights_match_degree(self):
        an = analysis_cached(3, (27, 0, 0, 0, 0, 0, 1))
        for el, c in eigen_multiset(an, 2, 5).items():
            assert el.weight == 5 and c > 0

    def test_rejects_out_of_range(self):
        an = analysis_cached(5, (5, -1, 1))
        with pytest.raises(MalformedInput):
            eigen_multiset(an, 1, 3)
        with pytest.raises(MalformedInput):
            eigen_multiset(an, 1, -1)
        with pytest.raises(MalformedInput):
            eigen_multiset(an, 0, 0)

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([(5, (5, -1, 1)), (3, (3, 0, 1)), (9, (9, 6, 1)),
                            (5, (25, -5, 10, -1, 1)),
                            (2, (8, 0, 4, 0, 2, 0, 1))]),
           st.integers(min_value=1, max_value=3),
           st.data())
    def test_mass_conservation(self, entry, d, datax):
        an = analysis_cached(*entry)
        data = an.data
        k = datax.draw(st.integers(min_value=0, max_value=2 * data.g * d))
        ms = eigen_multiset(an, d, k)
        assert sum(ms.values()) == math.comb(2 * data.g * d, k)


def _expand_degree(data, eig, d, k):
    """Coefficient of t^k in prod_i (1 + x_i t)^(d * mult_i), summed over
    the ways to take j_i factors from root i with sum j_i = k."""
    out = {}
    roots = list(enumerate(data.root_mult))

    def rec(pos, left, coords, weight):
        if pos == len(roots):
            if left == 0:
                out[coords] = out.get(coords, 0) + weight
            return
        i, mult = roots[pos]
        e = d * mult
        for j in range(min(e, left) + 1):
            nc = tuple(a + j * b for a, b in zip(coords, eig.symbol_coords[i]))
            rec(pos + 1, left - j, nc, weight * math.comb(e, j))

    rec(0, k, (0,) * eig.rank, 1)
    return out


class TestPowerLayers:
    @pytest.mark.parametrize("q, coeffs, max_d", [
        (5, (5, -1, 1), 4), (3, (3, 0, 1), 4), (9, (9, 6, 1), 3),
        (5, (25, -5, 10, -1, 1), 2), (3, (9, 0, 6, 0, 1), 2),
        (2, (8, 0, 4, 0, 2, 0, 1), 1)])
    def test_layers_match_per_degree_expansion(self, q, coeffs, max_d):
        data = validate(q, list(coeffs))
        eig = build_eig_group(data)
        w = pack_width(data.g, eig)
        for d in range(1, max_d + 1):
            layers = power_layers(data, eig, d, w)
            assert len(layers) == 2 * data.g * d + 1
            for k, layer in enumerate(layers):
                decoded = {unpack(key, w, eig.rank): c
                           for key, c in layer.items()}
                assert len(decoded) == len(layer)
                assert decoded == _expand_degree(data, eig, d, k)

    def test_weight_zero_classes_fit_the_width(self):
        # the one width holds every label of every power and its class
        # lam - n[q], so the packed difference unpacks to the difference
        for e, max_power in deep_grid_records():
            an = analysis_cached(e.q, e.coefficients)
            w, rank, q = an.width, an.eig.rank, an.eig.q_coords
            q_key = pack(q, w)
            for d in range(1, max_power + 1):
                for n, layer in enumerate(an.layers(d)[::2]):
                    for key in layer:
                        lam = unpack(key, w, rank)
                        assert unpack(key - n * q_key, w, rank) == tuple(
                            a - n * b for a, b in zip(lam, q))

    def test_power_outside_the_cap_rejected(self):
        an = analysis_cached(5, (5, -1, 1))
        with pytest.raises(MalformedInput, match="outside 1..6"):
            an.layers(MAX_POWER_CAP + 1)
        with pytest.raises(MalformedInput):
            classify_orbits(an, MAX_POWER_CAP + 1, 0)
        with pytest.raises(MalformedInput):
            an.layers(0)

    def test_analysis_expands_each_power_once(self, monkeypatch):
        import frobeig.analysis as analysis_module
        from frobeig.analysis import Analysis
        calls = []
        real = analysis_module.power_layers
        monkeypatch.setattr(analysis_module, "power_layers",
                            lambda *args: calls.append(args[2]) or real(*args))
        an = Analysis(validate(3, [3, 0, 1]))
        for n in range(3):
            eigen_multiset(an, 4, 2 * n)
            _primitive_layer(an, 4, n)
            classify_orbits(an, 4, n)
            classify_orbits(an, 4, n, "primitive")
        eigen_multiset(an, 3, 1)
        assert calls == [4, 3]


class TestPacking:
    # a rank and a digit width, and vectors within the width's bound
    shapes = st.tuples(st.integers(1, 6), st.integers(2, 12))

    @staticmethod
    def vectors(rank, w, size=None):
        bound = (1 << (w - 1)) - 1
        vec = st.tuples(*[st.integers(-bound, bound)] * rank)
        return vec if size is None else st.lists(vec, min_size=size,
                                                 max_size=size)

    @settings(deadline=None, max_examples=200)
    @given(shapes, st.data())
    def test_round_trip(self, shape, datax):
        rank, w = shape
        bound = (1 << (w - 1)) - 1
        edge = st.tuples(*[st.sampled_from([-bound, bound, 0])] * rank)
        for vec in (datax.draw(self.vectors(rank, w)), datax.draw(edge)):
            assert unpack(pack(vec, w), w, rank) == vec

    @settings(deadline=None, max_examples=200)
    @given(shapes, st.data())
    def test_int_order_is_tuple_order(self, shape, datax):
        rank, w = shape
        a, b = datax.draw(self.vectors(rank, w, size=2))
        assert (pack(a, w) < pack(b, w)) == (a < b)
        assert (pack(a, w) == pack(b, w)) == (a == b)

    @settings(deadline=None, max_examples=200)
    @given(shapes, st.data())
    def test_linear(self, shape, datax):
        rank, w = shape
        rows = datax.draw(self.vectors(rank, w, size=rank))
        v = datax.draw(st.tuples(*[st.integers(-9, 9)] * rank))
        image = [sum(c * row[t] for c, row in zip(v, rows))
                 for t in range(rank)]
        assert pack(image, w) == sum(c * pack(row, w)
                                     for c, row in zip(v, rows))


def primitive_multiset(an, d, n):
    """The primitive layer of weight 2n, keys decoded to coordinates."""
    return {unpack(key, an.width, an.eig.rank): c
            for key, c in _primitive_layer(an, d, n).items()}


class TestPrimitiveMultiset:
    def test_ordinary_middle(self):
        an = analysis_cached(5, (5, -1, 1))
        eig = an.eig
        prim = primitive_multiset(an, 2, 1)
        assert prim[eig.q_coords] == 3
        assert sum(prim.values()) == 5

    def test_supersingular_exotic_survives(self):
        an = analysis_cached(3, (3, 0, 1))
        eig = an.eig
        prim = primitive_multiset(an, 4, 2)
        four_pi = tuple(4 * c for c in eig.symbol_coords[eig.orbit_reps[0]])
        assert prim[four_pi] == 1
        assert sum(prim.values()) == math.comb(8, 4) - math.comb(8, 2)

    def test_codimension_zero(self):
        an = analysis_cached(5, (5, -1, 1))
        prim = primitive_multiset(an, 3, 0)
        assert sum(prim.values()) == 1

    def test_beyond_middle_rejected(self):
        # primitive parts stop at the middle degree g*d
        an = analysis_cached(5, (5, -1, 1))
        with pytest.raises(MalformedInput):
            primitive_multiset(an, 1, 1)

    def test_lefschetz_image_contained(self):
        # the subtraction never clamps: every lower class lifts
        for q, coeffs, d, n in [(5, (5, -1, 1), 4, 2),
                                (3, (3, 0, 1), 4, 2),
                                (2, (8, 0, 4, 0, 2, 0, 1), 2, 3),
                                (5, (25, -5, 10, -1, 1), 2, 2)]:
            an = analysis_cached(q, coeffs)
            prim = primitive_multiset(an, d, n)
            assert all(c > 0 for c in prim.values())


class TestClassifyOrbits:
    def test_supersingular_fourth_power_full(self):
        an = analysis_cached(3, (3, 0, 1))
        rep = classify_orbits(an, 4, 2)
        assert rep.dims == (36, 2, 32, 70)
        assert rep.orbit_counts == (1, 1, 1)
        exo = [o for o in motive_orbits(an, 4, 2)
               if o.classification == EXOTIC]
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
        kinds = sorted(o.classification for o in motive_orbits(an, 2, 1))
        assert kinds == [NON_TATE, TATE_TRIVIAL]

    def test_point_class(self):
        an = analysis_cached(5, (5, -1, 1))
        rep = classify_orbits(an, 1, 0)
        assert rep.dims == (1, 0, 0, 1)
        orbit, = motive_orbits(an, 1, 0)
        assert orbit.classification == TATE_TRIVIAL

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

    def test_shape_independent_of_representatives(self):
        # {0[q] + 6mu, 12[q] - 6mu} with mu = pibar_1 + pi_3: the shape
        # holds although mu mixes the two kinds of orbit representative
        an = analysis_cached(2, (4, -6, 5, -3, 1))
        assert an.eig.basis_labels == ("pi_1", "pi_3", "q")
        rep = classify_orbits(an, 6, 6)
        detail, = rep.exotic_details
        assert detail["elements"] == [(-6, 6, 6), (6, -6, 6)]
        assert detail["shape"] == "certified"
        assert _exotic_shape_ok(an.eig, [(6, -6, 6), (-6, 6, 6)])
        assert _exotic_shape_ok(an.eig, [(6, 6, 0), (-6, -6, 12)])
        # unequal magnitudes, or a [q] part that is not conjugate
        assert not _exotic_shape_ok(an.eig, [(-6, 4, 7), (6, -4, 5)])
        assert not _exotic_shape_ok(an.eig, [(-6, 6, 6), (6, -6, 7)])

    def test_partition_properties(self):
        cases = [(5, (5, -1, 1), 2, 1), (3, (3, 0, 1), 4, 2),
                 (2, (8, 0, 4, 0, 2, 0, 1), 2, 2)]
        for q, coeffs, d, n in cases:
            data, field, eig, gal = full_setup(q, coeffs)
            an = analysis_cached(q, coeffs)
            rep = classify_orbits(an, d, n)
            orbits = motive_orbits(an, d, n)
            seen = set()
            for orbit in orbits:
                coords = {el.coords for el in orbit.elements}
                assert not (coords & seen)
                seen |= coords
                # G-stability
                for sigma in gal.perms:
                    rows = action_rows(eig, sigma)
                    assert {apply_rows(rows, el.coords)
                            for el in orbit.elements} == coords
            total = sum(o.dimension_in_ambient for o in orbits)
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
            assert an.relations.rank == 0
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

    def test_generic_tate_count(self):
        # kernel rank 0 and r = g: 2g distinct roots, multiplicatively
        # independent modulo q, so a class of weight 2n is Tate exactly
        # when it takes a_i of the d copies of pi_i and a_i of the d
        # copies of pibar_i for every pair i, and nothing is exotic
        pairs = 0
        for entry in CORPUS:
            an = analysis_cached(entry.q, entry.coefficients)
            g = an.data.g
            lattice, r = an.relations, an.r
            if lattice.rank or r != g:
                continue
            for d in (1, 2, 3):
                for n in range(g * d + 1):
                    tate = sum(
                        math.prod(math.comb(d, a) ** 2 for a in split)
                        for split in itertools.product(range(d + 1),
                                                       repeat=g)
                        if sum(split) == n)
                    lef, exo, _, total = an.full_dims(d, n)
                    assert (lef + exo, exo, total) == \
                        (tate, 0, math.comb(2 * g * d, 2 * n)), \
                        (entry.tag, d, n)
                    pairs += 1
        # 31 corpus records qualify
        assert pairs == 291

    def test_poincare_duality(self):
        # cup product pairs weight 2n with weight 2(gd - n) on A^d, and
        # lam pairs with gd[q] - lam: Galois-equivariant, Tate to Tate,
        # Lefschetz to Lefschetz, so both classifications must agree
        # orbit for orbit once the exotic elements are mapped across
        def exotic(details, mirror):
            return sorted(
                (sorted(tuple(mirror(lam)) for lam in det["elements"]),
                 det["orbit_size"], det["multiplicity"], det["shape"])
                for det in details)

        pairs = 0
        for entry in CORPUS:
            an = analysis_cached(entry.q, entry.coefficients)
            if an.undetermined():
                continue
            q_coords = an.eig.q_coords
            for d in (1, 2, 3):
                gd = an.data.g * d
                top = [gd * c for c in q_coords]
                for n in range(gd + 1):
                    low = classify_orbits(an, d, n)
                    high = classify_orbits(an, d, gd - n)
                    assert low.dims == high.dims, (entry.tag, d, n)
                    assert low.orbit_counts == high.orbit_counts, \
                        (entry.tag, d, n)
                    assert exotic(low.exotic_details,
                                  lambda lam: [t - x for t, x in
                                               zip(top, lam)]) == \
                        exotic(high.exotic_details, lambda lam: lam), \
                        (entry.tag, d, n)
                    pairs += 1
        assert pairs == 621


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

    def test_prime_dimension_warning(self):
        # r = 0 falls short of g - 1 for every g >= 2; only prime g warns
        for g in range(1, 8):
            data = SimpleNamespace(g=g, multiplicity=1)
            warned = bool(hypothesis_check(data, 0).warnings)
            assert warned == (g in (2, 3, 5, 7)), g


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
        s = predicted_signature(tab, len(tab) - 1)
        assert (s.s_plus, s.s_minus) == (3, 1)

    def test_rho_table_lefschetz_source(self):
        assert build_rho_table(analysis_cached(3, (3, 0, 1)), 2,
                               source="lefschetz") == [1, 4]

    def test_rho_table_odd_dimension_rejected(self):
        an = analysis_cached(5, (5, -1, 1))
        with pytest.raises(MalformedInput):
            build_rho_table(an, 1)
        with pytest.raises(MalformedInput):
            build_rho_table(an, 2, source="hodge")


# --- the tuple-keyed classification, kept as a test-only oracle ---

def _tuple_layers(data, eig, d):
    """power_layers on coordinate tuples."""
    top = 2 * data.g * d
    layers = [{} for _ in range(top + 1)]
    layers[0][(0,) * eig.rank] = 1
    reached = 0
    for i, mult in enumerate(data.root_mult):
        e = d * mult
        sym = eig.symbol_coords[i]
        reached += e
        for deg in range(reached - e, -1, -1):
            for coords, c in list(layers[deg].items()):
                nc = coords
                for j in range(1, e + 1):
                    nc = tuple(a + b for a, b in zip(nc, sym))
                    bucket = layers[deg + j]
                    bucket[nc] = bucket.get(nc, 0) + c * math.comb(e, j)
    return layers


def _tuple_decomposition(an, layers, n, ambient, tate):
    """(dims, orbit counts, exotic details, orbits) of the weight-2n
    part: orbits by applying every action row to tuples, the Tate test
    rho(lam) = q^n per coordinate vector, memoized in tate."""
    eig = an.eig
    by_coords = layers[2 * n]
    if ambient == "primitive" and n > 0:
        below = layers[2 * n - 2]
        by_coords = {}
        for coords, c in layers[2 * n].items():
            shifted = tuple(a - b for a, b in zip(coords, eig.q_coords))
            if c - below.get(shifted, 0):
                by_coords[coords] = c - below.get(shifted, 0)
    trivial = tuple(n * c for c in eig.q_coords)
    kinds = (TATE_TRIVIAL, EXOTIC, NON_TATE)
    dims_, counts, details, orbits = [0, 0, 0], [0, 0, 0], [], []
    seen = set()
    for coords in sorted(by_coords):
        if coords in seen:
            continue
        orbit = frozenset(apply_rows(rows, coords) for rows in an.action)
        seen |= orbit
        mult, = {by_coords[c] for c in orbit}
        members = tuple(eig.element(c) for c in sorted(orbit))
        if orbit == {trivial}:
            cls = TATE_TRIVIAL
        else:
            if coords not in tate:
                rho = an.rho
                tate[coords] = realize_coords(rho, coords) == \
                    rho.ring.const(an.data.q ** n)
            cls = EXOTIC if tate[coords] else NON_TATE
        dims_[kinds.index(cls)] += len(orbit) * mult
        counts[kinds.index(cls)] += 1
        orbits.append(MotiveOrbit(elements=members, weight=2 * n,
                                  orbit_size=len(orbit), classification=cls,
                                  multiplicity_in_ambient=mult))
        if cls == EXOTIC:
            shape = _exotic_shape_ok(eig, sorted(orbit))
            detail = {"elements": sorted(orbit),
                      "orbit_size": len(orbit), "multiplicity": mult}
            if an.shape_certified:
                assert shape
                detail["shape"] = "certified"
            else:
                detail["shape"] = "as_predicted" if shape else "unexpected"
                if not shape:
                    detail["warning"] = ("exotic orbit outside the rank-2 "
                                         "shape; hypotheses do not all hold")
            details.append(detail)
    assert sum(dims_) == sum(by_coords.values())
    return (tuple(dims_) + (sum(dims_),), tuple(counts), tuple(details),
            tuple(orbits))


def _check_against_oracle(an, max_power):
    g, tate = an.data.g, {}
    for d in range(1, max_power + 1):
        layers = _tuple_layers(an.data, an.eig, d)
        for n in range(g * d + 1):
            for ambient in ("full", "primitive")[:1 + (2 * n <= g * d)]:
                rep = classify_orbits(an, d, n, ambient)
                got = (rep.dims, rep.orbit_counts, rep.exotic_details,
                       motive_orbits(an, d, n, ambient))
                want = _tuple_decomposition(an, layers, n, ambient, tate)
                assert got == want, (an.data.q, d, n, ambient)


class TestClassificationOracle:
    """The packed-key walk against the tuple-keyed classification."""

    def test_corpus_to_power_2(self):
        for e in CORPUS:
            _check_against_oracle(analysis_cached(e.q, e.coefficients), 2)

    def test_deep_grid(self):
        for e, max_power in deep_grid_records():
            _check_against_oracle(analysis_cached(e.q, e.coefficients),
                                  max_power)
