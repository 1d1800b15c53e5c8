"""Polynomial arithmetic, gcd, square-free factorization."""

import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from starstring.errors import DivisionByZero
from starstring.poly import (
    ONE, Poly, ZERO, _sturm_sequence, poly_extended_gcd, poly_gcd, squarefree_factor,
)


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
    p = math.prod([P(1, F(-1, 2))] * 2, start=ONE) * P(1, -1)
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
            p = p * Poly.from_linear_roots([r] * m)
        total = ONE
        for f, m in squarefree_factor(p):
            total = total * math.prod([f] * m, start=ONE)
        assert total == p.monic()
        distinct = sorted(set(roots))
        part = ONE
        for f, _ in squarefree_factor(p):
            part = part * f
        assert part == Poly.from_linear_roots(distinct)


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


def test_half_extended_gcd_gives_the_cofactor_of_p():
    """(g, s) with g the monic gcd and s*p = g modulo q."""
    rng = random.Random(20261020)
    for _ in range(30):
        g = _random_poly(rng, rng.randint(0, 3), 32)
        p = _random_poly(rng, rng.randint(0, 6), 32) * g
        q = _random_poly(rng, rng.randint(1, 6), 32) * g
        gcd, s = poly_extended_gcd(p, q)
        assert gcd == poly_gcd(p, q)
        assert divmod(s * p - gcd, q)[1].is_zero
    with pytest.raises(DivisionByZero):
        poly_extended_gcd(ZERO, ZERO)


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
                factor = _random_poly(rng, rng.randint(1, 3), rng.randint(64, 128))
                p = p * math.prod([factor] * mult, start=ONE)
        _, expect = sympy.sqf_list(_to_sympy(sympy, x, p))
        expect = sorted((m, _from_sympy(f.monic()).coeffs) for f, m in expect)
        got = sorted((m, f.coeffs) for f, m in squarefree_factor(p))
        assert got == expect


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_ints(rng, degree, bits):
    """A dense random integer polynomial with coefficients of up to ``bits``
    bits or of at most 2 in size (whose remainder sequences often skip a
    degree), or a product of linear factors q*z - p and positive quadratics,
    so real roots are plentiful."""
    kind = rng.randrange(3)
    if kind < 2:
        size = 1 << bits if kind else 2
        lead = 0
        while lead == 0:
            lead = rng.randint(-size, size)
        return [rng.randint(-size, size) for _ in range(degree)] + [lead]
    out = [rng.choice((-1, 1)) * rng.randint(1, 1 << bits)]
    while len(out) <= degree:
        if rng.random() < 0.25 and len(out) < degree:
            out = _int_mul(out, [rng.randint(1, 50), 0, 1])
        else:
            out = _int_mul(out, [-rng.randint(-60, 60), rng.randint(1, 9)])
    return out


def _variations_at_infinity(seq, side):
    """Sign variations of the sequence at +oo (side 1) or -oo (side -1)."""
    signs = [(c[-1] > 0) == (side > 0 or len(c) % 2 == 1) for c in seq if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def test_sturm_sequence_against_sympy():
    """The kernel's remainder sequence: its last member is the gcd, on
    (f, f') it counts real roots, and its degrees fall."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261019)

    def to_sympy(c):
        return sympy.Poly(list(reversed(c)) or [0], x, domain="ZZ")

    pairs = []
    for _ in range(60):
        a = _random_ints(rng, rng.randint(0, 9), rng.randint(2, 64))
        b = _random_ints(rng, rng.randint(0, 9), rng.randint(2, 64))
        pairs.append((a, b))
        g = _random_ints(rng, rng.randint(1, 3), rng.randint(2, 16))
        planted = _int_mul(_int_mul(a, g), g)
        pairs.append((planted, _int_mul(b, g)))
        pairs.append((planted, [i * c for i, c in enumerate(planted)][1:]))
    pairs += [([-6], [1, 2, 3]), ([1, 2, 3], [4]), ([], [3, -1]), ([-7, 0, 2], []), ([5], [])]
    square_free = 0
    for a, b in pairs:
        seq = _sturm_sequence(a, b)
        expect = to_sympy(a).gcd(to_sympy(b)).primitive()[1].all_coeffs()[::-1]
        assert seq[-1] in (expect, [-c for c in expect]), (a, b)
        # the operands come in either order; from b on each degree falls
        assert all(len(q) < len(p) for p, q in zip(seq[1:], seq[2:])), (a, b)
        f = to_sympy(a)
        if f.degree() >= 1 and f.gcd(f.diff(x)).degree() == 0:
            square_free += 1
            chain = _sturm_sequence(a, [i * c for i, c in enumerate(a)][1:])
            count = _variations_at_infinity(chain, -1) - _variations_at_infinity(chain, 1)
            assert count == f.count_roots(), a
            # member for member a positive multiple of the classical sequence
            classical = (f if f.LC() > 0 else -f).to_field().sturm()
            assert len(chain) == len(classical), a
            for c, q in zip(chain, classical):
                q = q.all_coeffs()[::-1]
                assert all(ci * q[-1] == qi * c[-1] for ci, qi in zip(c, q)), a
                assert (c[-1] > 0) == (q[-1] > 0), a
    assert square_free >= 40


# -- the integer kernel against a plain Fraction-list reference ------------


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_divmod(a, b):
    r = list(a)
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        f = r[i + len(b) - 1] / b[-1]
        q[i] = f
        for j, c in enumerate(b):
            r[i + j] -= f * c
    return _ref_trim(q), _ref_trim(r[:len(b) - 1])


def _ref_eval(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _ref_primitive(a):
    den = math.lcm(*(c.denominator for c in a))
    ints = [c.numerator * (den // c.denominator) for c in a]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def _assert_is(p, ref):
    """p holds exactly the coefficients ``ref``, in the canonical form."""
    assert p.coeffs == tuple(ref)
    assert p == Poly(ref) and hash(p) == hash(p.coeffs)
    assert p.primitive_int() == p._ints == _ref_primitive(ref)
    if ref:
        assert p._scale > 0 and math.gcd(*p._ints) == 1
        assert all(p._scale * i == c for i, c in zip(p._ints, ref))
    else:
        assert p._ints == () and p._scale == 1


_FRACTIONS = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(F, st.integers(-(1 << 80), 1 << 80), st.integers(1, 1 << 40)),
)
# trailing zeros make zero polynomials and dropped leading terms
_COEFFS = st.lists(st.one_of(_FRACTIONS, st.just(F(0))), max_size=11)
# nonzero leading coefficient of either sign, rarely a unit
_DIVISOR = st.tuples(st.lists(_FRACTIONS, max_size=3), _FRACTIONS.filter(bool)).map(
    lambda t: t[0] + [t[1]])


@settings(max_examples=150, deadline=None)
@given(_COEFFS, _COEFFS, _DIVISOR, _FRACTIONS)
def test_kernel_matches_fraction_reference(a, b, d, c):
    ra, rb, rd = _ref_trim(a), _ref_trim(b), _ref_trim(d)
    pa, pb, pd = Poly(a), Poly(b), Poly(d)
    for p, ref in ((pa, ra), (pb, rb), (pd, rd)):
        _assert_is(p, ref)
    _assert_is(pa + pb, _ref_add(ra, rb))
    _assert_is(pa - pb, _ref_add(ra, [-x for x in rb]))
    _assert_is(-pa, [-x for x in ra])
    _assert_is(pa * pb, _ref_mul(ra, rb))
    _assert_is(pa * pd, _ref_mul(ra, rd))
    for k in (c, F(0), F(-1), -abs(c)):
        _assert_is(pa.scale(k), _ref_trim([k * x for x in ra]))
    _assert_is(pa.derivative(), [i * x for i, x in enumerate(ra)][1:])
    _assert_is(pa.monic(), [x / ra[-1] for x in ra] if ra else [])
    assert pa.eval(c) == _ref_eval(ra, c)
    assert pa.lc == (ra[-1] if ra else 0)
    assert (pa == pb) == (ra == rb)
    # quotients up to ten degrees deep, by divisors with any leading coefficient
    quot, rem = divmod(pa, pd)
    ref_quot, ref_rem = _ref_divmod(ra, rd)
    _assert_is(quot, ref_quot)
    _assert_is(rem, ref_rem)
    _assert_is((pa * pd).divexact(pd), ra)
    if ref_rem:
        with pytest.raises(DivisionByZero):
            pa.divexact(pd)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(max_denominator=10 ** 6), max_size=6))
def test_pickle_and_copy_round_trip(coeffs):
    p = Poly(coeffs)
    copies = [pickle.loads(pickle.dumps(p, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(p), copy.deepcopy(p)]
    for q in copies:
        assert q == p and hash(q) == hash(p) and q.coeffs == p.coeffs
        with pytest.raises(AttributeError):
            q._ints = ()
