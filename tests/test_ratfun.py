"""Rational functions, Stieltjes continued fractions, partial fractions."""

import copy
import pickle
import random
from fractions import Fraction as F
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from starstring.errors import BadShape, NotStieltjes
from starstring.inverse_center import build_psi
from starstring.inverse_pendant import build_phi
from starstring.model import SpectrumPair
from starstring.poly import ONE, Poly
from starstring.ratfun import (
    PartialFractions,
    RationalFunction,
    StieltjesCF,
    cf_expand,
    cf_to_ratfun,
    partial_fractions,
    partial_fractions_at,
    split_proper_by_factors,
)
from starstring.roots import isolate_real_roots
from tests.conftest import occurrences


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


EXAMPLE_F = RationalFunction(P(2, -3, 1), P(F(3, 4), -2, 1))
EXAMPLE_CF = StieltjesCF((F(1), F(4, 3), F(1, 3)), (F(1), F(3)))


class TestNormalize:
    def test_cancels_shared_factor(self):
        num = P(1, -1) * P(1, F(-1, 2)) ** 2
        den = P(1, -2) * P(1, F(-2, 3)) * P(1, F(-1, 2))
        rf, cancelled = RationalFunction.make(num, den)
        assert cancelled == P(-2, 1)
        # up to a constant this is (z^2-3z+2)/(z^2-2z+3/4)
        assert rf.den == P(F(3, 4), -2, 1)
        assert rf.num == P(2, -3, 1).scale(F(3, 8))

    def test_poly_over_one(self):
        rf, cancelled = RationalFunction.make(P(1, 2), ONE)
        assert rf.num == P(1, 2) and rf.den == ONE and cancelled == ONE

    def test_full_cancellation(self):
        rf, cancelled = RationalFunction.make(P(-1, 1), P(-1, 1))
        assert rf == RationalFunction.constant(1)
        assert cancelled == P(-1, 1)


def is_s0(f):
    """The S0 verdict by isolating f's zeros and poles: the oracle for the
    certificate of ``cf_expand``.  Both must be real, simple and positive
    and interlace strictly from a pole; the limit at infinity is positive
    (as many zeros as poles) or 0 reached from below (one zero fewer)."""
    if f.is_zero:
        return False
    num, den = f.num, f.den
    lead = num.lc / den.lc
    if num.degree == den.degree:
        if lead < 0:
            return False
    elif num.degree != den.degree - 1 or lead > 0:
        return False
    zeros = occurrences(isolate_real_roots(num, None, None))
    poles = occurrences(isolate_real_roots(den, None, None))
    if len(zeros) != num.degree or len(poles) != den.degree:
        return False
    chain = [r for pair in zip_longest(poles, zeros) for r in pair if r is not None]
    return not chain or chain[0].compare(F(0)) > 0 and all(
        a.compare(b) < 0 for a, b in zip(chain, chain[1:]))


class TestValidateS0:
    def test_worked_example(self):
        assert is_s0(EXAMPLE_F)
        assert EXAMPLE_F.num.degree == EXAMPLE_F.den.degree
        assert EXAMPLE_F.num.lc / EXAMPLE_F.den.lc == 1
        # poles interlace with zeros starting from a pole
        poles = occurrences(isolate_real_roots(EXAMPLE_F.den, None, None))
        zeros = occurrences(isolate_real_roots(EXAMPLE_F.num, None, None))
        chain = [poles[0], zeros[0], poles[1], zeros[1]]
        for a, b in zip(chain, chain[1:]):
            assert a.compare(b) < 0

    def test_proper_with_zero_limit(self):
        f = RationalFunction(P(1), P(1, -1))
        assert is_s0(f) and f.num.degree < f.den.degree

    def test_double_pole_rejected(self):
        assert not is_s0(RationalFunction(P(-2, 1), P(1, -2, 1)))

    def test_zero_limit_from_above_rejected(self):
        # 3/(z - 1) tends to 0 from above: no Stieltjes expansion
        f = RationalFunction(P(3), P(-1, 1))
        assert not is_s0(f) and f.num.degree < f.den.degree
        with pytest.raises(NotStieltjes):
            cf_expand(RationalFunction(P(3), P(-1, 1)))


def random_function(rng):
    """c * prod(z - zeros) / prod(z - poles) with up to four of each, drawn
    from [-3, 12]/{1, 2, 3}; about 30% of the numerators are perturbed."""
    def point():
        return F(rng.randint(-3, 12), rng.choice((1, 2, 3)))

    num = Poly.from_linear_roots([point() for _ in range(rng.randint(0, 4))])
    den = Poly.from_linear_roots([point() for _ in range(rng.randint(0, 4))])
    num = num.scale(rng.choice((-1, 1)) * F(rng.randint(1, 5), rng.randint(1, 3)))
    if rng.random() < 0.3:
        cs = list(num.coeffs)
        cs[rng.randrange(len(cs))] += F(rng.randint(-2, 2), rng.randint(1, 4))
        num = Poly(cs)
    return RationalFunction(num, den)


def test_cf_expand_agrees_with_validate_s0(rng):
    """cf_expand raises NotStieltjes exactly when the isolating oracle finds f not S0."""
    disagreements = []
    for _ in range(2000):
        f = random_function(rng)
        try:
            cf_expand(f)
            expands = True
        except NotStieltjes:
            expands = False
        if expands != is_s0(f):
            disagreements.append(f)
    assert disagreements == []


class TestContinuedFraction:
    def test_worked_example_expansion(self):
        assert cf_expand(EXAMPLE_F) == EXAMPLE_CF

    def test_constant(self):
        cf = cf_expand(RationalFunction.constant(F(5, 3)))
        assert cf.a == (F(5, 3),) and cf.b == ()

    def test_fold_worked_example(self):
        assert cf_to_ratfun(EXAMPLE_CF) == EXAMPLE_F

    def test_fold_constant(self):
        assert cf_to_ratfun(StieltjesCF((F(2),), ())) == RationalFunction.constant(2)

    def test_edge_coefficients_match_edge_data(self, rng):
        # expanding an edge's driving-point function returns the edge data
        from starstring.forward import edge_cauer_polys
        from starstring.model import Edge

        for _ in range(20):
            n = rng.randint(0, 4)
            lengths = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n + 1))
            masses = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
            cf = cf_expand(RationalFunction(*edge_cauer_polys(Edge(lengths, masses))))
            assert cf.a == lengths
            assert cf.b == masses

    def test_roundtrip_random(self, rng):
        for _ in range(100):
            p = rng.randint(0, 8)
            a0 = F(0) if (p > 0 and rng.random() < 0.4) else F(rng.randint(1, 12), rng.randint(1, 12))
            cf = StieltjesCF(
                (a0,) + tuple(F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(p)),
                tuple(F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(p)),
            )
            assert cf_expand(cf_to_ratfun(cf)) == cf

    def test_value_at_zero_is_coefficient_sum(self, rng):
        for _ in range(20):
            p = rng.randint(0, 6)
            cf = StieltjesCF(
                tuple(F(rng.randint(1, 9)) for _ in range(p + 1)),
                tuple(F(rng.randint(1, 9)) for _ in range(p)),
            )
            f = cf_to_ratfun(cf)
            assert f.eval(F(0)) == sum(cf.a)
            assert f.num.degree == f.den.degree and f.num.lc / f.den.lc == cf.a[0]

    def test_interlacing_of_folded_cf(self, rng):
        for _ in range(10):
            p = rng.randint(1, 5)
            cf = StieltjesCF(
                tuple(F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(p + 1)),
                tuple(F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(p)),
            )
            assert is_s0(cf_to_ratfun(cf))

    def test_not_s0_rejected(self):
        # zeros/poles out of order: (z-2)/(z-1) has pole before zero -> fine;
        # (z-1)/(z-2) has zero first -> not S0
        with pytest.raises(NotStieltjes):
            cf_expand(RationalFunction(P(-1, 1), P(-2, 1)))

    def test_negative_data_rejected(self):
        with pytest.raises(NotStieltjes):
            cf_expand(RationalFunction(P(-2, 1), P(1, 1)))


class TestTails:
    def test_tail_zero_monotonicity(self, rng):
        checked = 0
        while checked < 100:
            p = rng.randint(2, 6)
            a0 = F(0) if rng.random() < 0.5 else F(rng.randint(1, 9), rng.randint(1, 4))
            cf = StieltjesCF(
                (a0,) + tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(p)),
                tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(p)),
            )
            prev = isolate_real_roots(cf_to_ratfun(cf).num, 0, None)
            for i in range(1, p):
                cur = isolate_real_roots(cf_to_ratfun(StieltjesCF(cf.a[i:], cf.b[i:])).num, 0, None)
                if not prev or not cur:
                    break
                c = cur[0][0].compare(prev[0][0])
                if i == 1 and a0 == 0:
                    assert c >= 0
                else:
                    assert c > 0
                prev = cur
                checked += 1


class TestPartialFractions:
    def test_worked_example(self):
        # 3(1-z)/(2-z) = 3/(z-2) + 3
        f = RationalFunction(P(3, -3), P(2, -1))
        pf, cluster = partial_fractions(f)
        assert cluster.is_zero
        assert pf.linear_coeff == 0
        assert pf.terms == ((F(2), F(3)),)
        assert pf.constant == 3

    def test_linear_part(self):
        f = RationalFunction(P(0, -1), ONE) + RationalFunction(P(1), P(-1, 1))
        pf, _ = partial_fractions(f)
        assert pf.linear_coeff == 1
        assert pf.terms == ((F(1), F(1)),)
        assert pf.constant == 0
        assert pf.reassemble() == f

    def test_random_spectral_quotients(self, rng):
        from starstring.inverse_center import build_psi
        from tests.conftest import random_center_spectral_data

        for _ in range(25):
            spectra, lengths, q, m_positive = random_center_spectral_data(rng)
            psi = build_psi(spectra, lengths)
            pf, cluster = partial_fractions(psi)
            assert cluster.is_zero
            assert (pf.linear_coeff > 0) == m_positive
            assert all(r > 0 for _, r in pf.terms)
            assert pf.reassemble() == psi
            # the constant satisfies B = sum 1/l_j + sum residue/pole
            expected_b = sum(1 / F(l) for l in lengths) + sum(r / p for p, r in pf.terms)
            assert pf.constant == expected_b

    def test_irrational_pole_refused(self):
        # z^2 - 2 has the pole -sqrt(2)
        f = RationalFunction(P(1), P(-2, 0, 1))
        with pytest.raises(NotStieltjes):
            partial_fractions(f)

    def test_irrational_poles_form_the_cluster(self):
        # 2 -+ sqrt(2) stay together; 1 is split off
        cluster = RationalFunction(P(1), P(2, -4, 1))
        f = cluster + RationalFunction(P(2), P(-1, 1))
        pf, got = partial_fractions(f)
        assert pf.terms == ((F(1), F(2)),) and got == cluster

    def test_multiple_pole_refused(self):
        f = RationalFunction(P(1), P(1, -2, 1))
        with pytest.raises(NotStieltjes):
            partial_fractions(f)

    @pytest.mark.parametrize("den", [P(1, 1), P(1, 0, 1), P(0, 1)],
                             ids=["negative", "complex", "zero"])
    def test_nonpositive_and_complex_poles_refused(self, den):
        with pytest.raises(NotStieltjes):
            partial_fractions(RationalFunction(P(1), den))

    def test_poles_split_into_residues_and_a_cluster(self):
        rng = random.Random(14)
        # positive irrational root pairs: 2 -+ sqrt(2), 3 -+ sqrt(2), (5 -+ sqrt(5))/2, (3 -+ sqrt(8))/2
        quadratics = (P(2, -4, 1), P(7, -6, 1), P(5, -5, 1), P(F(1, 4), -3, 1))
        mixed = 0
        for _ in range(60):
            poles = sorted({F(rng.randint(1, 40), rng.randint(1, 5)) for _ in range(rng.randint(0, 4))})
            terms = tuple((v, F(rng.randint(1, 30), rng.randint(1, 7))) for v in poles)
            cluster = RationalFunction(Poly(), ONE)
            for d in rng.sample(quadratics, rng.randint(0, 3)):
                cluster = cluster + RationalFunction(P(rng.randint(1, 5), rng.randint(-5, 5)), d)
            linear = rng.choice((F(0), F(rng.randint(1, 9), rng.randint(1, 4))))
            f = PartialFractions(linear, terms, F(rng.randint(-9, 9), 2)).reassemble() + cluster
            pf, got = partial_fractions(f)
            assert pf.reassemble() + got == f
            assert (pf.linear_coeff, pf.terms, got) == (linear, terms, cluster)
            assert all(r > 0 for _, r in pf.terms)
            if got.den.degree:
                assert not any(rv.is_rational for rv, _ in isolate_real_roots(got.den, None, None))
                mixed += bool(terms)
        assert mixed >= 10

    def test_known_pole_variant_rejects_wrong_poles(self):
        f = RationalFunction(P(3, -3), P(2, -1))
        with pytest.raises(BadShape):
            partial_fractions_at(f, [F(3)])

    def test_partial_fractions_json(self):
        pf, _ = partial_fractions(RationalFunction(P(3, -3), P(2, -1)))
        assert pf.to_json() == {
            "linear_coeff": "0",
            "terms": [{"pole": "2", "residue": "3"}],
            "constant": "3",
        }


    def test_reassemble_matches_the_canonical_sum(self):
        # oracle: the terms added one at a time, each sum canonicalised
        rng = random.Random(20263)

        def rat():
            return F(rng.randint(-30, 30), rng.randint(1, 6))

        cases = [PartialFractions(F(0), (), F(0)), PartialFractions(F(3, 2), (), F(-1))]
        for _ in range(150):
            poles = sorted({rat() for _ in range(rng.randint(0, 6))})
            terms = tuple((v, rng.choice((-1, 1)) * F(rng.randint(1, 40), rng.randint(1, 7)))
                          for v in poles)
            linear = rng.choice((F(0), rat()))
            cases.append(PartialFractions(linear, terms, rng.choice((F(0), rat()))))
        for pf in cases:
            expect = RationalFunction(Poly([pf.constant, -pf.linear_coeff]), ONE)
            for pole, residue in pf.terms:
                expect = expect + RationalFunction(Poly.constant(residue), Poly([-pole, 1]))
            assert pf.reassemble() == expect
        assert sum(not pf.terms for pf in cases) > 2
        assert sum(pf.linear_coeff == 0 and bool(pf.terms) for pf in cases) > 2


class TestGroupedSplit:
    def test_two_factor_split(self):
        d1, d2 = P(-1, 1), P(-2, 1)
        f = RationalFunction(P(1), d1) + RationalFunction(P(2), d2)
        parts = split_proper_by_factors(RationalFunction(f.num, f.den), [d1, d2])
        assert parts[0] == RationalFunction(P(1), d1)
        assert parts[1] == RationalFunction(P(2), d2)

    def test_non_coprime_rejected(self):
        d = P(-1, 1)
        f = RationalFunction(P(1), d * d)
        with pytest.raises(BadShape):
            split_proper_by_factors(f, [d, d])

    def test_irrational_grouping(self):
        d1, d2 = P(-2, 0, 1), P(-3, 1)  # z^2-2 and z-3
        f = RationalFunction(P(1, 1), d1) + RationalFunction(P(5), d2)
        parts = split_proper_by_factors(RationalFunction(f.num, f.den), [d1, d2])
        assert parts[0] == RationalFunction(P(1, 1), d1)
        assert parts[1] == RationalFunction(P(5), d2)


# ---------------------------------------------------------------------------
# canonical arithmetic against the general canonicalizer

small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def linear_product(draw, max_factors=2):
    """Monic product of up to ``max_factors`` rational linear factors."""
    return Poly.from_linear_roots(draw(st.lists(small, max_size=max_factors)))


@st.composite
def canonical_pairs(draw):
    """Canonical f and g whose denominators share a random factor; g may be
    chosen so that f + g is a polynomial or f - g is zero."""
    shared = linear_product(draw)
    f = RationalFunction(Poly(draw(st.lists(small, max_size=4))), shared * linear_product(draw))
    mode = draw(st.sampled_from(["shared", "sum_is_poly", "equal"]))
    if mode == "shared":
        g = RationalFunction(Poly(draw(st.lists(small, max_size=4))), shared * linear_product(draw))
    elif mode == "sum_is_poly":
        p = Poly(draw(st.lists(small, max_size=3)))
        g = RationalFunction(p * f.den - f.num, f.den)
    else:
        g = f
    return f, g, mode


def reduced(num, den):
    return RationalFunction.make(num, den)[0]


class TestCanonicalArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(canonical_pairs())
    def test_matches_make_on_unreduced_pair(self, pair):
        f, g, mode = pair
        assert f + g == reduced(f.num * g.den + g.num * f.den, f.den * g.den)
        assert f - g == reduced(f.num * g.den - g.num * f.den, f.den * g.den)
        assert -f == reduced(-f.num, f.den)
        if not f.is_zero:
            assert f.inverse() == reduced(f.den, f.num)
        if mode == "sum_is_poly":
            assert (f + g).den == ONE
        if mode == "equal":
            assert (f - g).is_zero and (f - g).den == ONE

    @settings(max_examples=60, deadline=None)
    @given(canonical_pairs(), small)
    def test_constant_and_polynomial_operands(self, pair, c):
        f, _, _ = pair
        p = Poly([c, 1])
        assert f + c == reduced(f.num + f.den.scale(c), f.den)
        assert f - p == reduced(f.num - p * f.den, f.den)


def spectral_quotient_by_gcd(scale, num_values, den_values):
    """The quotient built whole and reduced by make, as before cancellation."""
    num = Poly.from_scaled_roots(num_values).scale(scale)
    return RationalFunction.make(num, Poly.from_scaled_roots(den_values))


multiset = st.lists(
    st.tuples(st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(7, 3), F(5)]), st.integers(1, 3)),
    max_size=4,
)
lengths_st = st.lists(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=5), min_size=1, max_size=4)


@st.composite
def tied_spectra(draw):
    shared = draw(multiset.filter(bool))
    return SpectrumPair(tuple(draw(multiset)) + tuple(shared), tuple(draw(multiset)) + tuple(shared))


class TestTiedQuotients:
    @settings(max_examples=80, deadline=None)
    @given(tied_spectra(), lengths_st)
    def test_build_psi_matches_gcd_path(self, spectra, lengths):
        scale = sum(1 / l for l in lengths)
        psi, _ = spectral_quotient_by_gcd(scale, spectra.neumann_values(), spectra.dirichlet_values())
        assert build_psi(spectra, lengths) == psi

    @settings(max_examples=80, deadline=None)
    @given(tied_spectra(), st.fractions(min_value=F(1, 4), max_value=4, max_denominator=5), lengths_st)
    def test_build_phi_matches_gcd_path(self, spectra, main_length, lengths):
        phi, gamma, cancelled = build_phi(spectra, main_length, lengths)
        assert gamma == main_length + 1 / sum(1 / l for l in lengths)
        assert (phi, cancelled) == spectral_quotient_by_gcd(
            gamma, spectra.dirichlet_values(), spectra.neumann_values()
        )
        assert cancelled.degree > 0


def test_canonical_arithmetic_takes_no_gcd(monkeypatch):
    """Inversion, negation, constant sums and the spectral quotients are
    canonical by construction; a gcd there is wasted work."""
    import starstring.ratfun as ratfun_module

    real_gcd = ratfun_module.poly_gcd
    calls = []

    def counting_gcd(p, q):
        calls.append((p, q))
        return real_gcd(p, q)

    monkeypatch.setattr(ratfun_module, "poly_gcd", counting_gcd)
    tied = SpectrumPair(((F(1), 1), (F(2), 1)), ((F(2), 2),))
    f = EXAMPLE_F
    f.inverse()
    -f
    f + 3
    f - F(1, 2)
    f + P(1, 1)
    cf_to_ratfun(EXAMPLE_CF)
    build_psi(tied, [F(2), F(1)])
    build_phi(tied, F(1), [F(2)])
    assert calls == []
    # denominators sharing z - 1/2: Henrici's rule does need gcd(b, d)
    f + RationalFunction(P(1), P(F(-1, 2), 1))
    assert calls


@settings(max_examples=60, deadline=None)
@given(canonical_pairs())
def test_pickle_and_copy_round_trip(pair):
    f, _, _ = pair
    copies = [pickle.loads(pickle.dumps(f, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(f), copy.deepcopy(f)]
    for g in copies:
        assert g == f and hash(g) == hash(f)
        assert (g.num, g.den) == (f.num, f.den)
        with pytest.raises(AttributeError):
            g.num = ONE
