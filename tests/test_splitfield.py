import random
from dataclasses import replace
from fractions import Fraction

import pytest

from frobeig import splitfield
from frobeig.config import DEFAULT
from frobeig.corpus import CORPUS
from frobeig.exactmath.intpoly import (IntPoly, discriminant_magnitude,
                                       sylvester_resultant)
from frobeig.errors import InternalInconsistency, PrecisionExhausted
from frobeig.splitfield import (ModRing, _block_permutations, _compose,
                                galois_group, is_root_of_unity,
                                splitting_field, word_value)
from frobeig.weil import validate

from conftest import analysis_cached, split_cached


class TestResultant:
    def test_oracles(self):
        assert abs(sylvester_resultant(IntPoly((-1, 1)), IntPoly((-2, 1)))) == 1
        assert discriminant_magnitude(IntPoly((5, -1, 1))) == 19
        assert discriminant_magnitude(IntPoly((3, 0, 1))) == 12
        assert discriminant_magnitude(IntPoly((2, -3, 1))) == 1
        assert discriminant_magnitude(IntPoly((-1, 0, 0, 1))) == 27

    def test_product_rule_seeded(self):
        rng = random.Random(4242)
        for _ in range(40):
            a = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1])
            b = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1])
            c = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1])
            lhs = sylvester_resultant(a * b, c)
            rhs = sylvester_resultant(a, c) * sylvester_resultant(b, c)
            assert lhs == rhs


class TestModRing:
    def test_quadratic_field(self):
        ring = ModRing(IntPoly((5, -1, 1)))
        x = ring.xbar()
        # x^2 = x - 5
        assert ring.mul(x, x) == [Fraction(-5), Fraction(1)]
        inv = ring.inv(x)
        assert ring.mul(x, inv) == ring.const(1)
        assert ring.trace(x) == 1
        assert ring.trace(ring.const(1)) == 2
        assert ring.is_rational(ring.const(7)) == 7
        assert ring.is_rational(x) is None
        assert ring.eval_intpoly(IntPoly((5, -1, 1)), x) == ring.const(0)

    def test_linear_modulus(self):
        ring = ModRing(IntPoly((-3, 1)))  # Q[x]/(x-3)
        assert ring.xbar() == [Fraction(3)]
        assert ring.mul([Fraction(2)], [Fraction(5)]) == [Fraction(10)]
        assert ring.trace([Fraction(4)]) == 4
        assert ring.inv([Fraction(2)]) == [Fraction(1, 2)]

    def test_ring_axioms_seeded(self):
        ring = ModRing(IntPoly((8, 0, 0, -1, 0, 0, 1)))
        rng = random.Random(99)

        def rand_elem():
            return [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(ring.n)]

        for _ in range(25):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
            assert ring.mul(a, b) == ring.mul(b, a)
            if any(a):
                assert ring.mul(a, ring.inv(a)) == ring.const(1)
            assert ring.pow(a, 3) == ring.mul(a, ring.mul(a, a))


class TestSplittingField:
    def test_ordinary_quadratic(self):
        d, sf = split_cached(5, (5, -1, 1))
        assert sf.modulus == IntPoly((5, -1, 1))
        assert sf.degree == 2
        assert sf.root_coords[1] == (Fraction(0), Fraction(1))
        assert sf.root_coords[0] == (Fraction(1), Fraction(-1))
        ring = sf.ring()
        pi = list(sf.root_coords[1])
        pibar = list(sf.root_coords[0])
        val = ring.mul(pi, ring.inv(pibar))
        assert val == [Fraction(-1), Fraction(1, 5)]
        assert ring.trace(val) == Fraction(-9, 5)

    def test_totally_real(self):
        d, sf = split_cached(2, (4, 0, -4, 0, 1))
        assert sf.modulus == IntPoly((-2, 0, 1))
        assert sf.root_coords == ((Fraction(0), Fraction(1)),
                                  (Fraction(0), Fraction(-1)))

    def test_sextic_collapse(self):
        # X^6+27 splits already over the imaginary quadratic field
        d, sf = split_cached(3, (27, 0, 0, 0, 0, 0, 1))
        assert sf.degree == 2
        ring = sf.ring()
        sfp = d.poly.squarefree_part()
        for vec in sf.root_coords:
            assert not any(ring.eval_intpoly(sfp, list(vec)))
            assert ring.is_rational(ring.pow(list(vec), 6)) == Fraction(-27)

    def test_klein_four(self):
        d, sf = split_cached(5, (25, -15, 12, -3, 1))
        assert sf.degree == 4
        g = galois_group(sf, d)
        assert g.order == 4 and g.fully_certified
        for p in g.perms:
            assert tuple(p[p[i]] for i in range(4)) == (0, 1, 2, 3)

    def test_verified_identities_quartic(self):
        d, sf = split_cached(5, (25, 0, 9, 0, 1))
        ring = sf.ring()
        qc = ring.const(5)
        for i in range(len(sf.root_coords)):
            pair = ring.mul(list(sf.root_coords[d.iota[i]]),
                            list(sf.root_coords[i]))
            assert pair == qc

    def test_generic_sextic(self):
        d, sf = split_cached(2, (8, 0, 0, -1, 0, 0, 1))
        assert sf.degree == 12
        ring = sf.ring()
        # eigenvalue cubes satisfy Y^2 - Y + 8
        for vec in sf.root_coords:
            cube = ring.pow(list(vec), 3)
            chk = ring.mul(cube, cube)
            chk = [a - b for a, b in zip(chk, cube)]
            chk[0] += 8
            assert chk == ring.const(0)

    def test_galois_group_quadratic(self):
        d, sf = split_cached(5, (5, -1, 1))
        g = galois_group(sf, d)
        assert g.order == 2 and g.fully_certified
        assert set(g.perms) == {(0, 1), (1, 0)}
        swap = g.perms.index((1, 0))
        # conjugation sends x to 1 - x (the other root of X^2-X+5)
        assert g.images[swap] == (Fraction(1), Fraction(-1))

    def test_env_ceiling_does_not_override_settings(self, monkeypatch):
        # only the CLI reads FROBEIG_MAX_PRECISION; an explicit Settings
        # keeps its ceiling (the same field is degree 8 at 4096 bits)
        st = replace(DEFAULT, precision_start=16, precision_ceiling=16)
        data = validate(5, [25, -5, 6, -1, 1], st)
        monkeypatch.setenv("FROBEIG_MAX_PRECISION", "4096")
        with pytest.raises(PrecisionExhausted):
            splitting_field(data, st)


def corpus_fields():
    """(data, field) of every corpus record whose field builds."""
    out = []
    for e in CORPUS:
        an = analysis_cached(e.q, e.coefficients)
        if an.undetermined("field") is None:
            out.append((an.data, an.field))
    return out


class TestGaloisGroup:
    def test_no_numerics(self, monkeypatch):
        # the group is certified from the field's exact root coordinates:
        # no enclosure, reconstruction or precision work
        fields = corpus_fields()
        calls = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("_newton_interpolate", "rational_reconstruct",
                     "refine_roots", "discriminant_magnitude"):
            monkeypatch.setattr(splitfield, name,
                                counted(name, getattr(splitfield, name)))
        for data, field in fields:
            galois_group(field, data)
        assert calls == []

    def test_images_are_root_combinations(self):
        # the image of x under w is sum_j c_j * r_{w(rep_j)}
        checked = 0
        for data, field in corpus_fields():
            gal = galois_group(field, data)
            if gal.order > 16:
                continue
            assert gal.fully_certified
            for w, image in zip(gal.perms, gal.images):
                expected = [sum(c * field.root_coords[w[rep]][k]
                                for c, rep in zip(field.weight,
                                                  field.orbit_reps))
                            for k in range(field.degree)]
                assert list(image) == expected
                checked += 1
        assert checked == 135          # every element of every corpus group

    def test_forged_group_rejected(self):
        # G = {id, iota, (2,3,0,1), (3,2,1,0)}; every other order-4
        # subgroup of W' through iota passes the group checks, so only
        # the exact image and action checks can refuse it
        d, sf = split_cached(2, (4, -6, 5, -3, 1))
        iota = d.iota
        assert iota == (1, 0, 3, 2)
        assert sf.group_perms == ((0, 1, 2, 3), (1, 0, 3, 2),
                                  (2, 3, 0, 1), (3, 2, 1, 0))
        ident = (0, 1, 2, 3)
        wprime = _block_permutations(4, [f.root_indices for f in d.factors],
                                     iota)
        subgroups = set()
        for a in wprime:
            h = frozenset({ident, iota, a, _compose(a, iota)})
            if len(h) == 4 and all(_compose(x, y) in h
                                   for x in h for y in h):
                subgroups.add(tuple(sorted(h)))
        forged = subgroups - {sf.group_perms}
        assert len(forged) == 2
        for perms in sorted(forged):
            with pytest.raises(InternalInconsistency):
                galois_group(replace(sf, group_perms=perms), d)


class TestWords:
    def test_conjugate_product_is_q(self):
        d, sf = split_cached(3, (3, 0, 1))
        ring = sf.ring()
        assert word_value(ring, sf.root_coords, [1, 1]) == ring.const(3)

    def test_q_exponent_cancels(self):
        # pi^2 = -3 in the supersingular field, so pi^4 / q^2 = 1
        d, sf = split_cached(3, (3, 0, 1))
        ring = sf.ring()
        assert word_value(ring, sf.root_coords, [4, 0], 3, -2) \
            == ring.const(1)

    def test_negative_exponent_inverts(self):
        d, sf = split_cached(5, (5, -1, 1))
        ring = sf.ring()
        got = word_value(ring, sf.root_coords, [2, 0])
        got = ring.mul(got, word_value(ring, sf.root_coords, [-1, 0]))
        assert got == list(sf.root_coords[0])

    def test_trace_of_word(self):
        # tr(pi^2 / q) = ((pi+pibar)^2 - 2q)/q = (1 - 10)/5
        d, sf = split_cached(5, (5, -1, 1))
        ring = sf.ring()
        val = word_value(ring, sf.root_coords, [2, 0], 5, -1)
        assert ring.trace(val) == Fraction(-9, 5)

    def test_unity_orders(self):
        d, sf = split_cached(3, (3, 0, 1))
        ring = sf.ring()
        assert is_root_of_unity(ring, ring.const(1)) == 1
        assert is_root_of_unity(ring, ring.const(-1)) == 2
        assert is_root_of_unity(ring, ring.const(7)) is None
        # pi / pibar = -1 for a supersingular pair
        ratio = word_value(ring, sf.root_coords, [1, -1])
        assert is_root_of_unity(ring, ratio) == 2
        # (1 + pi)/2 is a primitive 6th root of unity when pi^2 = -3
        one = ring.const(1)
        zeta = [(a + b) / 2 for a, b in zip(one, sf.root_coords[0])]
        assert is_root_of_unity(ring, zeta) == 6

    def test_ordinary_ratio_has_infinite_order(self):
        d, sf = split_cached(5, (5, -1, 1))
        ring = sf.ring()
        ratio = word_value(ring, sf.root_coords, [1, -1])
        assert is_root_of_unity(ring, ratio) is None
