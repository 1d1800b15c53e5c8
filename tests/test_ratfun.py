"""Rational functions, Stieltjes continued fractions, partial fractions."""

import copy
import math
import pickle
import random
from fractions import Fraction as F
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from starstring.errors import BadShape, DivisionByZero, InvariantViolation, NotStieltjes
from starstring.inverse_center import _edge_from_summand, build_psi
from starstring.inverse_pendant import build_phi
from starstring.model import SpectrumPair
from starstring.poly import ONE, Poly
from starstring.ratfun import (
    PartialFractions,
    RationalFunction,
    StieltjesCF,
    _cf_peel,
    _int_form,
    _pole_sum,
    cf_expand,
    cf_to_ratfun,
    partial_fractions,
    partial_fractions_at,
    split_proper_by_factors,
)
from starstring.rational import format_rational
from starstring.roots import isolate_real_roots
from tests.conftest import occurrences
from tests.structure_checks import rf_sum


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


EXAMPLE_F = RationalFunction(P(2, -3, 1), P(F(3, 4), -2, 1))
EXAMPLE_CF = StieltjesCF((F(1), F(4, 3), F(1, 3)), (F(1), F(3)))


class TestNormalize:
    def test_cancels_shared_factor(self):
        num = P(1, -1) * math.prod([P(1, F(-1, 2))] * 2, start=ONE)
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

    def test_division_by_zero_is_refused(self):
        with pytest.raises(DivisionByZero, match="zero denominator"):
            RationalFunction.make(P(1), P(0))
        with pytest.raises(DivisionByZero, match="inverse of the zero function"):
            RationalFunction.constant(0).inverse()
        with pytest.raises(DivisionByZero, match="pole at 1/2"):
            RationalFunction(P(1), P(F(-1, 2), 1)).eval(F(1, 2))


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

    def test_cancellation_below_the_next_level_rejected(self):
        # (z^2 + 1)/(z^2 + 2) - 1 = -1/(z^2 + 2) drops two degrees at once
        with pytest.raises(NotStieltjes, match="unexpected cancellation"):
            cf_expand(RationalFunction(P(1, 0, 1), P(2, 0, 1)))

    @pytest.mark.parametrize("a, b, message", [
        ((1, 1), (1, 1), "one more constant"),
        ((-1, 1), (1,), "leading constant"),
        ((0,), (), "zero function"),
        ((0, 0), (1,), "interior coefficients"),
        ((0, 1), (-1,), "interior coefficients"),
    ])
    def test_coefficients_are_checked(self, a, b, message):
        with pytest.raises(InvariantViolation, match=message):
            StieltjesCF(a, b)


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


def reassemble(pf):
    """-A0*z + B + sum r/(z - v) of ``pf`` as one rational function."""
    n, d = _pole_sum(pf.terms)
    return RationalFunction(n + d * Poly([pf.constant, -pf.linear_coeff]), d)


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
        f = rf_sum(RationalFunction(P(0, -1), ONE), RationalFunction(P(1), P(-1, 1)))
        pf, _ = partial_fractions(f)
        assert pf.linear_coeff == 1
        assert pf.terms == ((F(1), F(1)),)
        assert pf.constant == 0
        assert reassemble(pf) == f

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
            assert reassemble(pf) == psi
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
        f = rf_sum(cluster, RationalFunction(P(2), P(-1, 1)))
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
                cluster = rf_sum(cluster, RationalFunction(P(rng.randint(1, 5), rng.randint(-5, 5)), d))
            linear = rng.choice((F(0), F(rng.randint(1, 9), rng.randint(1, 4))))
            f = rf_sum(reassemble(PartialFractions(linear, terms, F(rng.randint(-9, 9), 2))), cluster)
            pf, got = partial_fractions(f)
            assert rf_sum(reassemble(pf), got) == f
            assert (pf.linear_coeff, pf.terms, got) == (linear, terms, cluster)
            assert all(r > 0 for _, r in pf.terms)
            if got.den.degree:
                assert not any(rv.is_rational for rv, _ in isolate_real_roots(got.den, None, None))
                mixed += bool(terms)
        assert mixed >= 10

    @pytest.mark.parametrize("f, message", [
        (RationalFunction(P(0, 0, 1), ONE), "polynomial part has degree 2"),
        (RationalFunction(P(0, 1), ONE), "grows upward"),
        (RationalFunction(P(-1), P(-1, 1)), "nonpositive residue -1 at pole 1"),
    ], ids=["quadratic", "rising", "negative-residue"])
    def test_shapes_that_are_not_nevanlinna_refused(self, f, message):
        with pytest.raises(BadShape, match=message):
            partial_fractions(f)

    def test_known_pole_variant_rejects_wrong_poles(self):
        f = RationalFunction(P(3, -3), P(2, -1))
        with pytest.raises(BadShape):
            partial_fractions_at(f, [F(3)])


class TestGroupedSplit:
    def test_two_factor_split(self):
        d1, d2 = P(-1, 1), P(-2, 1)
        f = rf_sum(RationalFunction(P(1), d1), RationalFunction(P(2), d2))
        parts = split_proper_by_factors(RationalFunction(f.num, f.den), [d1, d2])
        assert parts[0] == RationalFunction(P(1), d1)
        assert parts[1] == RationalFunction(P(2), d2)

    def test_non_coprime_rejected(self):
        d = P(-1, 1)
        f = RationalFunction(P(1), d * d)
        with pytest.raises(BadShape):
            split_proper_by_factors(f, [d, d])

    def test_factors_must_multiply_to_the_denominator(self):
        d1, d2 = P(-1, 1), P(-2, 1)
        f = rf_sum(RationalFunction(P(1), d1), RationalFunction(P(2), d2))
        for factors in ([d1], [d1, d2, P(-3, 1)], [d1, P(-3, 1)]):
            with pytest.raises(BadShape, match="factors do not multiply to the denominator"):
                split_proper_by_factors(RationalFunction(f.num, f.den), factors)

    def test_irrational_grouping(self):
        d1, d2 = P(-2, 0, 1), P(-3, 1)  # z^2-2 and z-3
        f = rf_sum(RationalFunction(P(1, 1), d1), RationalFunction(P(5), d2))
        parts = split_proper_by_factors(RationalFunction(f.num, f.den), [d1, d2])
        assert parts[0] == RationalFunction(P(1, 1), d1)
        assert parts[1] == RationalFunction(P(5), d2)


# ---------------------------------------------------------------------------
# canonical forms against the general canonicalizer

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
        if not f.is_zero:
            assert f.inverse() == reduced(f.den, f.num)
        # make takes a cross-multiplied pair that cancels to a polynomial, or
        # to zero, down to the canonical denominator 1
        total = reduced(f.num * g.den + g.num * f.den, f.den * g.den)
        difference = reduced(f.num * g.den - g.num * f.den, f.den * g.den)
        if mode == "sum_is_poly":
            assert total.den == ONE
        if mode == "equal":
            assert difference.is_zero and difference.den == ONE


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
    """Inversion, the continued-fraction fold and the spectral quotients
    are canonical by construction; a gcd there is wasted work."""
    import starstring.ratfun as ratfun_module

    real_gcd = ratfun_module.poly_gcd
    calls = []

    def counting_gcd(p, q):
        calls.append((p, q))
        return real_gcd(p, q)

    monkeypatch.setattr(ratfun_module, "poly_gcd", counting_gcd)
    tied = SpectrumPair(((F(1), 1), (F(2), 1)), ((F(2), 2),))
    EXAMPLE_F.inverse()
    cf_to_ratfun(EXAMPLE_CF)
    build_psi(tied, [F(2), F(1)])
    build_phi(tied, F(1), [F(2)])
    assert calls == []
    # the counter sees the general canonicalizer's gcd
    RationalFunction.make(EXAMPLE_F.num, EXAMPLE_F.den * P(1, 1))
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


# ---------------------------------------------------------------------------
# the integer peel and pole sum against Fraction references

P61 = 2 ** 61 - 1  # a Mersenne prime


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_peel(num, den):
    """``cf_expand``'s loop on rational coefficient lists, one Fraction
    per coefficient: ((a, b), rests) with rests[k] the pair (num, den)
    left once a_k is peeled, or the NotStieltjes message."""
    num, den = list(num), list(den)
    if not num:
        return "the zero function is not S0"
    a, b, rests = [], [], []
    while True:
        dn, dd = len(num) - 1, len(den) - 1
        if dn == dd:
            const = num[-1] / den[-1]
            num = _trim([x - const * y for x, y in zip(num, den)])
        elif dn == dd - 1:
            const = F(0)
        else:
            return f"degree pattern ({dn}, {dd}) is not S0"
        if a and const <= 0:
            return f"nonpositive constant a_{len(a)} = {format_rational(const)}"
        if const < 0:
            return f"negative limit at infinity: {format_rational(const)}"
        a.append(const)
        rests.append((num, den))
        if not num:
            return (tuple(a), tuple(b)), rests
        if len(num) != dd:
            return "unexpected cancellation while extracting a constant"
        slope = den[-1] / num[-1]
        if slope >= 0:
            return f"nonpositive mass coefficient b_{len(b) + 1} = {format_rational(-slope)}"
        b.append(-slope)
        den = _trim([x - slope * y for x, y in zip(den, [0, *num])])
        if not den:
            return "continued fraction terminated inside a linear level"


def fold(a, b):
    """a0 + 1/(-b1*z + 1/(a1 + ...)) as a reduced function, with no check on
    the coefficients; with len(a) == len(b) it ends in the level -bp*z."""
    even, odd = (Poly.constant(a[-1]), ONE) if len(a) > len(b) else (ONE, Poly())
    for mass, length in zip(reversed(b), reversed(a[:len(b)])):
        odd = Poly([0, -mass]) * even + odd
        even = odd.scale(length) + even
    return RationalFunction(even, odd)


def peel_cases(rng, count):
    """(f, broken) pairs: S0 functions folded from random coefficients,
    many over the 61-bit prime P61, each followed by its perturbations."""
    def coeff():
        if rng.random() < 0.3:
            return F(rng.randint(1, P61), P61)
        return F(rng.randint(1, 9), rng.choice((1, 2, 3, P61)))

    for _ in range(count):
        p = rng.randint(0, 6)
        a = [F(0) if p and rng.random() < 0.4 else coeff()] + [coeff() for _ in range(p)]
        b = [coeff() for _ in range(p)]
        f = cf_to_ratfun(StieltjesCF(tuple(a), tuple(b)))
        yield f, False
        yield RationalFunction(f.num.scale(-1), f.den), True
        yield RationalFunction(f.num * P(0, 0, 1), f.den), True
        yield fold(a, b + [coeff()]), True  # ends inside a linear level
        if p:
            k = rng.randint(1, p)
            # a zero a_k would only merge two levels
            yield fold(a[:k] + [-coeff()] + a[k + 1:], b), True
            yield fold(a, b[:k - 1] + [-coeff()] + b[k:]), True
        if f.den.degree >= 2:
            # f's denominator plus a constant over it: 1 - c/den drops two degrees
            yield RationalFunction(f.den + Poly.constant(coeff()), f.den), True
    yield RationalFunction.constant(0), True


def test_integer_peel_matches_fraction_peel(rng):
    """The integer ``_cf_peel`` emits the Fraction peel's expansion and
    leaves the same remainder at every cut, or fails with its message."""
    seen = set()
    for f, broken in peel_cases(rng, 150):
        ref = ref_peel(f.num.coeffs, f.den.coeffs)
        try:
            cf, rests = _cf_peel(*_int_form(f.num, f.den))
        except NotStieltjes as exc:
            assert str(exc) == ref
            seen.add(" ".join(ref.split()[:2]))
            continue
        assert not broken
        (ref_a, ref_b), ref_rests = ref
        assert (cf.a, cf.b) == (ref_a, ref_b)
        assert len(rests) == len(ref_rests)
        for (n, d, u, v), (rn, rd) in zip(rests, ref_rests):
            assert v > 0 and d and d[-1] and (not n or n[-1])
            num, den = Poly.from_ints([u * c for c in n], v), Poly.from_ints(d, 1)
            assert num * Poly(rd) == Poly(rn) * den
    assert seen == {
        "the zero", "degree pattern", "nonpositive constant", "negative limit",
        "unexpected cancellation", "nonpositive mass", "continued fraction",
    }


def test_pole_sum_matches_fraction_fold(rng):
    """``_pole_sum``'s integer fold equals sum r/(z - v) folded in
    Fractions, on poles and residues of either sign over large primes."""
    primes = (P61, 2 ** 31 - 1, 1_000_003, 7)
    for _ in range(200):
        poles = set()
        while len(poles) < rng.randint(0, 7):
            poles.add(F(rng.randint(-P61, P61), rng.choice(primes)))
        terms = [(v, F(rng.choice((-1, 1)) * rng.randint(1, P61), rng.choice(primes)))
                 for v in sorted(poles)]
        n, d = [], [F(1)]
        for v, r in terms:
            n = [x - v * y + r * c for x, y, c in zip([0, *n], [*n, 0], d)]
            d = [x - v * y for x, y in zip([0, *d], [*d, 0])]
        got = _pole_sum(terms)
        assert (got[0].coeffs, got[1].coeffs) == (tuple(_trim(n)), tuple(d))


def test_centre_realizer_runs_in_integers(monkeypatch):
    """The expansion, the pole sum and each edge's reciprocal run on
    integer vectors: no Poly sum, product or scaling, and no
    RationalFunction on the way to the peel."""
    terms = ((F(1, 3), F(2, 5)), (F(2), F(7, 4)), (F(9, 2), F(1, 6)))
    n, d = _pole_sum(terms)
    calls = []
    for owner, name in ((Poly, "__add__"), (Poly, "__mul__"), (Poly, "scale"),
                        (RationalFunction, "from_coprime")):
        real = owner.__dict__[name]
        fn = real.__func__ if isinstance(real, staticmethod) else real
        counted = (lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
        monkeypatch.setattr(owner, name, staticmethod(counted) if isinstance(real, staticmethod) else counted)
    cf = cf_expand(EXAMPLE_F)
    _pole_sum(terms)
    edge = _edge_from_summand(n, d, F(7, 2))
    monkeypatch.undo()
    assert calls == []
    assert cf == EXAMPLE_CF and edge.total_length == F(7, 2) and edge.mass_count == 3
