"""Polynomial arithmetic, gcd, square-free factorization."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from starstring.errors import DivisionByZero
from starstring.poly import ONE, Poly, ZERO, poly_gcd, squarefree_factor, squarefree_part


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


def test_mul_identity():
    assert P(1, -1) * ONE == P(1, -1)


def test_divrem_by_linear():
    # dividend z^2 - 2z + 3/4, divisor -z + 5/4: quotient -z + 3/4, remainder -3/16
    # (checked by hand and by p = q*quot + rem below; the same pair divided by
    # the monic z - 5/4 gives quotient z - 3/4 with the same remainder)
    p = Poly([F(3, 4), -2, 1])
    d = Poly([F(5, 4), -1])
    q, r = divmod(p, d)
    assert q == Poly([F(3, 4), -1])
    assert r == Poly([F(-3, 16)])
    assert d * q + r == p
    q2, r2 = divmod(p, Poly([F(-5, 4), 1]))
    assert q2 == Poly([F(-3, 4), 1])
    assert r2 == r
    for x in (F(0), F(1), F(7, 3)):
        assert p.eval(x) == d.eval(x) * q.eval(x) + r.eval(x)


def test_derivative():
    assert P(2, -1).derivative() == P(-1)
    assert P(1, 0, 3).derivative() == P(0, 6)
    assert ZERO.derivative() == ZERO


def test_divrem_zero_divisor():
    with pytest.raises(DivisionByZero):
        divmod(P(1, 1), ZERO)


def test_gcd_shared_factor():
    # (1-z)(2-z) and (2-z) share (2-z); gcd is monic
    a = P(1, -1) * P(2, -1)
    b = P(2, -1)
    assert poly_gcd(a, b) == P(-2, 1)


def test_gcd_coprime_quadratics():
    assert poly_gcd(P(2, -3, 1), P(F(3, 4), -2, 1)) == ONE


def test_gcd_with_zero():
    assert poly_gcd(P(2, -4), ZERO) == P(F(-1, 2), 1)
    with pytest.raises(DivisionByZero):
        poly_gcd(ZERO, ZERO)


def test_squarefree_simple():
    p = P(1, F(-1, 2)) ** 2 * P(1, -1)
    factors = squarefree_factor(p)
    assert sorted((f.degree, m) for f, m in factors) == [(1, 1), (1, 2)]
    by_mult = {m: f for f, m in factors}
    assert by_mult[1] == P(-1, 1)
    assert by_mult[2] == P(-2, 1)


def test_squarefree_linear():
    assert squarefree_factor(P(2, -1)) == [(P(-2, 1), 1)]


def test_squarefree_reassembles():
    rng = random.Random(5)
    for _ in range(25):
        roots = [F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        mults = [rng.randint(1, 3) for _ in roots]
        p = ONE
        for r, m in zip(roots, mults):
            p = p * Poly([-r, 1]) ** m
        total = ONE
        for f, m in squarefree_factor(p):
            total = total * f ** m
        assert total == p.monic()
        distinct = sorted(set(roots))
        assert squarefree_part(p) == Poly.from_linear_roots(distinct)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_divrem_reconstruction(data):
    def poly(degree):
        coeffs = [
            F(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9)))
            for _ in range(degree + 1)
        ]
        return Poly(coeffs)

    p = poly(data.draw(st.integers(0, 12)))
    q = poly(data.draw(st.integers(0, 6)))
    if q.is_zero:
        q = ONE
    quot, rem = divmod(p, q)
    assert q * quot + rem == p
    assert rem.degree < q.degree or rem.is_zero


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gcd_divides_and_scales(data):
    def small_poly():
        deg = data.draw(st.integers(0, 4))
        coeffs = [F(data.draw(st.integers(-5, 5))) for _ in range(deg)] + [F(data.draw(st.integers(1, 5)))]
        return Poly(coeffs)

    p, q, g = small_poly(), small_poly(), small_poly()
    d = poly_gcd(p, q)
    assert divmod(p, d)[1].is_zero
    assert divmod(q, d)[1].is_zero
    if poly_gcd(p, q) == ONE:
        assert poly_gcd(p * g, q * g) == g.monic()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool), max_size=8))
def test_root_products_match_factor_by_factor(roots):
    linear, scaled = ONE, ONE
    for r in roots:
        linear = linear * Poly([-r, 1])
        scaled = scaled * Poly([1, -1 / r])
    assert Poly.from_linear_roots(roots) == linear
    assert Poly.from_scaled_roots(roots) == scaled
    assert Poly.from_scaled_roots(roots).eval(0) == 1


def _random_poly(rng, degree, bits):
    """Fraction coefficients with numerators of up to ``bits`` bits, either
    sign, and denominators up to 2**32; the leading one is nonzero."""
    def coeff():
        return F(rng.choice((-1, 1)) * rng.getrandbits(bits), rng.randint(1, 1 << 32))

    lead = F(0)
    while lead == 0:
        lead = coeff()
    return Poly([coeff() for _ in range(degree)] + [lead])


def _to_sympy(sympy, x, p):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], x, domain="QQ")


def _from_sympy(sp):
    return Poly([F(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())])


def test_gcd_and_squarefree_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261018)
    pairs = [(ZERO, P(3, -1)), (P(F(-7, 2)), ZERO), (P(F(5, 3)), P(1, 2, 3)), (P(-2, 0, -1), P(-4))]
    for _ in range(40):
        g = _random_poly(rng, rng.randint(0, 4), rng.randint(64, 256))
        p = _random_poly(rng, rng.randint(0, 12), rng.randint(64, 256))
        q = _random_poly(rng, rng.randint(0, 12), rng.randint(64, 256))
        pairs.append((p * g, q * g))
    for p, q in pairs:
        ints = p.primitive_int()
        assert Poly(ints).monic() == p.monic()
        assert (Poly(ints).lc > 0) == (p.lc > 0)
        assert math.gcd(*ints) == (1 if ints else 0)
        expect = _from_sympy(sympy.gcd(_to_sympy(sympy, x, p), _to_sympy(sympy, x, q)).monic())
        assert poly_gcd(p, q) == expect
        assert poly_gcd(q, p) == expect
        assert poly_gcd(-p, q) == expect
    for _ in range(12):
        p = P(rng.choice((-1, 1)) * rng.randint(1, 1 << 64))
        for mult in range(1, 4):
            for _ in range(rng.randint(0, 2)):
                p = p * _random_poly(rng, rng.randint(1, 3), rng.randint(64, 128)) ** mult
        _, expect = sympy.sqf_list(_to_sympy(sympy, x, p))
        expect = sorted((m, _from_sympy(f.monic()).coeffs) for f, m in expect)
        got = sorted((m, f.coeffs) for f, m in squarefree_factor(p))
        assert got == expect
