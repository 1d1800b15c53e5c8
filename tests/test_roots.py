"""Root isolation, refinement, exact algebraic comparison."""

import math
import random
from fractions import Fraction as F
from functools import cache

import pytest

from starstring import roots
from starstring.errors import DivisionByZero, RangeError
from starstring.forward import char_polys
from starstring.model import Edge, Root, StarGraph
from starstring.poly import ONE, ZERO, Poly, _sturm_sequence, squarefree_factor
from starstring.roots import RootVal, isolate_real_roots


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


def test_single_rational_root():
    roots = isolate_real_roots(P(2, -1))
    assert len(roots) == 1
    rv, mult = roots[0]
    assert rv.is_rational and rv.rat == 2 and mult == 1


@pytest.mark.parametrize("solve", [isolate_real_roots, squarefree_factor])
def test_the_zero_polynomial_is_refused(solve):
    with pytest.raises(DivisionByZero):
        solve(ZERO)


def test_multiplicities():
    p = P(-1, 1) * Poly.from_linear_roots([2] * 2)
    roots = isolate_real_roots(p)
    assert [(rv.rat, m) for rv, m in roots] == [(F(1), 1), (F(2), 2)]


def test_irrational_isolation():
    roots = isolate_real_roots(P(-2, 0, 1), None, None)
    assert len(roots) == 2
    neg, pos = roots[0][0], roots[1][0]
    assert not pos.is_rational
    assert neg.compare(RootVal.rational(0)) < 0 < pos.compare(RootVal.rational(0))
    pos.refine_to_width(F(1, 10 ** 12))
    lo, hi = pos.bounds()
    assert lo * lo < 2 < hi * hi


def test_domain_restriction():
    p = P(-1, 1) * P(1, 1)  # roots at 1 and -1
    roots = isolate_real_roots(p, F(0), None)
    assert [(rv.rat, m) for rv, m in roots] == [(F(1), 1)]


@pytest.mark.parametrize("classify", [True, False])
@pytest.mark.parametrize("p, lo, hi, expect", [
    # roots 0, 1 and 3 of -z(z-1)(z-3), on and off the endpoints
    (P(0, -3, 4, -1), F(0), F(3), [(1, 1)]),
    (P(0, -3, 4, -1), F(1), F(3), []),
    (P(0, -3, 4, -1), None, F(3), [(0, 1), (1, 1)]),
    (P(0, -3, 4, -1), F(0), None, [(1, 1), (3, 1)]),
    # both endpoints are roots of one square-free factor
    (P(-1, 1) * P(-3, 1), F(1), F(3), []),
    # a double root at lo, a simple one at hi, sqrt(2) between them
    (Poly.from_linear_roots([1] * 2) * P(-3, 1) * P(-2, 0, 1), F(1), F(3), [(None, 1)]),
])
def test_roots_on_the_endpoints_are_excluded(p, lo, hi, expect, classify):
    roots = isolate_real_roots(p, lo, hi, classify)
    assert len(roots) == len(expect)
    for (rv, mult), (value, m) in zip(roots, expect):
        assert mult == m
        if value is None:
            lo_b, hi_b = rv.bounds()
            assert not rv.is_rational and lo_b * lo_b < 2 < hi_b * hi_b
        else:
            assert rv.compare(RootVal.rational(value)) == 0
            assert rv.is_rational or not classify


def test_random_rational_products(rng):
    for _ in range(30):
        k = rng.randint(1, 4)
        values = sorted({F(rng.randint(1, 30), rng.randint(1, 10)) for _ in range(k)})
        mults = [rng.randint(1, 3) for _ in values]
        p = ONE
        for r, m in zip(values, mults):
            p = p * Poly.from_linear_roots([r] * m)
        got = isolate_real_roots(p, F(0), None)
        assert [(rv.rat, m) for rv, m in got] == list(zip(values, mults))


def test_comparison_of_close_algebraics():
    # sqrt(2) vs the root of z^2 - 2 from a different isolating interval
    a = isolate_real_roots(P(-2, 0, 1), F(0), None)[0][0]
    b = isolate_real_roots(P(-2, 0, 1).scale(3), F(0), None)[0][0]
    assert a.compare(b) == 0
    # sqrt(2) < sqrt(3), sqrt(2) < 3/2
    c = isolate_real_roots(P(-3, 0, 1), F(0), None)[0][0]
    assert a.compare(c) < 0
    assert a.compare(RootVal.rational(F(3, 2))) < 0
    assert a.compare(RootVal.rational(F(7, 5))) > 0


def test_compare_overlapping_roots_of_polynomials_sharing_a_factor():
    # (z^2 - 2)(z^2 - 3) and (z^2 - 2)(5z^2 - 9) share z^2 - 2; roots
    # sqrt(2) ~ 1.414, sqrt(3) ~ 1.732 and sqrt(9/5) ~ 1.342
    p = [6, 0, -5, 0, 1]
    q = [18, 0, -19, 0, 5]
    sqrt2 = RootVal(ints=p, lo=F(1), hi=F(3, 2))
    # overlap (7/5, 3/2): z^2 - 2 changes sign there, the roots are equal
    assert sqrt2.compare(RootVal(ints=q, lo=F(7, 5), hi=F(2))) == 0
    assert RootVal(ints=q, lo=F(7, 5), hi=F(2)).compare(sqrt2) == 0
    # overlap (13/10, 7/5): z^2 - 2 keeps its sign, sqrt(9/5) < sqrt(2)
    sqrt95 = RootVal(ints=q, lo=F(13, 10), hi=F(7, 5))
    assert sqrt95.compare(RootVal(ints=p, lo=F(1), hi=F(3, 2))) < 0
    assert RootVal(ints=p, lo=F(1), hi=F(3, 2)).compare(sqrt95) > 0


def test_refine_root_width():
    root = isolate_real_roots(P(-2, 0, 1))[0][0]
    root.refine_to_width(F(1, 1024))
    lo, hi = root.bounds()
    assert hi - lo <= F(1, 1024)
    assert lo * lo < 2 < hi * hi


def test_refine_root_exact_hit():
    # 2 is the midpoint of (1, 3): refinement turns the root into the rational
    root = RootVal(ints=[-2, 1], lo=F(1), hi=F(3))
    root.refine_to_width(F(1, 4))
    assert root.is_rational and root.bounds() == (F(2), F(2))


def test_refine_root_quadratic_oracle():
    # (3 - sqrt(5))/2 is the small root of z^2 - 3z + 1
    root = isolate_real_roots(P(1, -3, 1), F(0), F(1))[0][0]
    root.refine_to_width(F(1, 10 ** 6))
    lo, hi = root.bounds()
    assert hi - lo <= F(1, 10 ** 6)
    # oracle via the quadratic formula: compare against squared bounds
    val = P(1, -3, 1)
    assert val.eval(lo) * val.eval(hi) < 0


@pytest.mark.parametrize("width", [F(0), F(-1, 2)])
def test_refinement_rejects_nonpositive_width(width):
    root = isolate_real_roots(P(-2, 0, 1), F(0), None)[0][0]
    with pytest.raises(RangeError):
        root.refine_to_width(width)


def test_random_mixed_sorting(rng):
    for _ in range(10):
        rationals = sorted({F(rng.randint(1, 40), rng.randint(1, 6)) for _ in range(3)})
        p = Poly.from_linear_roots(rationals) * P(-2, 0, 1) * P(-7, 0, 1)
        got = isolate_real_roots(p, F(0), None)
        flat = [rv for rv, _ in got]
        for i in range(len(flat) - 1):
            assert flat[i].compare(flat[i + 1]) < 0
        rational_found = sorted(rv.rat for rv in flat if rv.is_rational)
        assert rational_found == rationals


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_factored(rng, sympy):
    """Ascending integer coefficients of a random product of factors.

    Rational linear factors and irreducible quadratics and cubics with real
    roots of moderate size.  With ``monic_rest`` every factor but the first
    linear one is monic, so that root's denominator is the full leading
    coefficient of the product.
    """
    x = sympy.Symbol("x")
    bits = rng.randint(64, 256)
    monic_rest = rng.random() < 0.5

    def big():
        return rng.getrandbits(bits) | (1 << (bits - 1))

    factors = []
    for i in range(rng.randint(1, 3)):
        q = 1 if monic_rest and i else big()
        p = rng.randint(-4 * q, 4 * q)
        while math.gcd(p, q) != 1:
            p += 1
        factors.append([-p, q])
    for _ in range(rng.randint(0, 2)):
        a = 1 if monic_rest else big()
        while True:
            b, c = rng.randint(-3 * a - 3, 3 * a + 3), rng.randint(-a - 3, a + 3)
            disc = b * b - 4 * a * c
            if disc > 0 and math.isqrt(disc) ** 2 != disc:
                break
        factors.append([c, b, a])
    if rng.random() < 0.7:
        a = 1 if monic_rest else big()
        while True:
            cubic = [rng.randint(-50 * a, 50 * a) for _ in range(3)] + [a]
            if sympy.Poly(cubic[::-1], x).is_irreducible:
                break
        factors.append(cubic)
    coeffs = [1]
    for f in factors:
        for _ in range(rng.choice((1, 1, 2))):
            coeffs = _int_mul(coeffs, f)
    return coeffs


def test_isolation_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20260)

    def sym(v):
        return sympy.Rational(v.numerator, v.denominator)

    for _ in range(12):
        coeffs = _random_factored(rng, sympy)
        p = Poly([F(c) for c in coeffs])
        got = isolate_real_roots(p, None, None)
        unclassified = isolate_real_roots(p, None, None, classify_rational=False)

        factors = [(sympy.Poly(f, x), m) for f, m in sympy.Poly(coeffs[::-1], x).factor_list()[1]]
        rationals = sorted(
            (F(int(-f.nth(0)), int(f.nth(1))), m) for f, m in factors if f.degree() == 1)
        assert [(rv.rat, m) for rv, m in got if rv.is_rational] == rationals
        assert sum(m for _, m in got) == sum(f.count_roots() * m for f, m in factors)

        assert len(unclassified) == len(got)
        for (rv, mult), (raw, raw_mult) in zip(got, unclassified):
            assert raw_mult == mult
            if rv.is_rational:
                lo, hi = raw.bounds()
                assert lo <= rv.rat <= hi
                continue
            # sorting refines the two lists differently; at a common width
            # both must be the same bisection of one isolating interval
            lo, hi = rv.bounds()
            rv.refine_to_width(F(1, 1 << 80))
            raw.refine_to_width(F(1, 1 << 80))
            assert raw.bounds() == rv.bounds()
            inside = [(f, m) for f, m in factors if f.count_roots(sym(lo), sym(hi))]
            assert len(inside) == 1
            f, m = inside[0]
            assert f.count_roots(sym(lo), sym(hi)) == 1 and f.degree() > 1 and m == mult


def _plain_bisect(ints, frame, depth):
    """Reference: bisect the frame's y from [0, 1]; (k, e) or the exact root k/2**e."""
    u, v, den = frame

    def sign(k, e):
        val = roots._value(ints, (u << e) + v * k, den << e)
        return (val > 0) - (val < 0)

    k, e, left = 0, 0, sign(0, 0)
    while e < depth:
        k, e = 2 * k + 1, e + 1
        s = sign(k, e)
        if s == 0:
            return F(k, 1 << e)
        k -= s != left
    return k, e


def _kernel(ints, frame, depth, path=(0, 0, None), guess=None):
    path = roots._bisect(ints, frame, path, depth, guess)
    return F(path[0], 1 << path[1]) if path[2] == 0 else path


def test_refinement_matches_plain_bisection():
    rng = random.Random(20261)
    cases = []
    for _ in range(40):
        coeffs = [rng.randint(-60, 60) for _ in range(rng.randint(2, 7))] + [rng.randint(1, 9)]
        part = ONE
        for f, _ in squarefree_factor(Poly([F(c) for c in coeffs])):
            part = part * f
        for rv, _ in isolate_real_roots(part, None, None, classify_rational=False):
            if not rv.is_rational:
                cases.append((rv.ints, rv.lo, rv.hi))
    for _ in range(40):
        # a root dyadic in the frame's coordinate, times a factor with no real root
        lo = F(rng.randint(-50, 50), rng.randint(1, 9))
        hi = lo + F(rng.randint(1, 50), rng.randint(1, 9))
        e = rng.randint(1, 40)
        r = lo + (hi - lo) * F(rng.randrange(1, 1 << e, 2), 1 << e)
        cases.append((_int_mul([-r.numerator, r.denominator], [rng.randint(1, 9), 0, 1]), lo, hi))
    for ints, lo, hi in cases:
        frame = roots._frame(lo, hi)
        depth = rng.randint(1, 130)
        got = _kernel(ints, frame, depth)
        want = _plain_bisect(ints, frame, depth)
        assert (got if isinstance(got, F) else got[:2]) == want
        straight = _kernel(ints, frame, 64)
        stepped = _kernel(ints, frame, 17)
        if not isinstance(stepped, F):
            stepped = _kernel(ints, frame, 64, stepped)
        assert stepped == straight


def test_rational_roots_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20262)
    for _ in range(80):
        # with monic_rest every factor but the first is monic, so the first
        # root's denominator is the whole leading coefficient
        monic_rest = rng.random() < 0.3
        values = {F(rng.randint(-30, 30), rng.choice((1, 7, 12, 105, 210)))}
        values |= {F(rng.randint(-30, 30), 1 if monic_rest else rng.randint(1, 12))
                   for _ in range(rng.randint(0, 3))}
        if rng.random() < 0.2:
            values.add(F(0))
        if rng.random() < 0.5:
            # roots congruent mod 3, 5 and 7 are double roots there, so the
            # prime search must skip those primes
            r = rng.randint(-30, 30)
            values |= {F(r), F(r + 105)}
        coeffs = [1]
        for v in values:
            coeffs = _int_mul(coeffs, [-v.numerator, v.denominator])
        if rng.random() < 0.7:
            lead = 1 if monic_rest else rng.choice((1, 2, 5, 105))
            while True:
                irr = [rng.randint(-40, 40) for _ in range(rng.randint(2, 4))] + [lead]
                if sympy.Poly(irr[::-1], x).is_irreducible:
                    break
            coeffs = _int_mul(coeffs, irr)
        want = sorted(values)
        assert sorted(roots._rational_roots(coeffs)) == want
        factors = sympy.Poly(coeffs[::-1], x).factor_list()[1]
        assert want == sorted(F(int(-f.nth(0)), int(f.nth(1))) for f, _ in factors if f.degree() == 1)


def test_refinement_and_classification_cost_no_bisection(monkeypatch):
    calls = []
    value = roots._value
    monkeypatch.setattr(roots, "_value", lambda *args: calls.append(1) or value(*args))

    root = isolate_real_roots(P(-2, 0, 1), F(0), None)[0][0]
    del calls[:]
    root.refine_to_width(F(1, 1 << 4096))
    lo, hi = root.bounds()
    assert hi - lo <= F(1, 1 << 4096) and lo * lo < 2 < hi * hi
    assert len(calls) < 200  # plain bisection takes about 4096

    a = 3 ** 757  # a 1200-bit leading coefficient
    quadratic = P(-(2 * a + 1), 0, a)
    del calls[:]
    isolate_real_roots(quadratic, None, None, classify_rational=False)
    unclassified = len(calls)
    del calls[:]
    found = isolate_real_roots(quadratic, None, None)
    assert not any(rv.is_rational for rv, _ in found)
    assert len(calls) == unclassified


# ---------------------------------------------------------------------------
# isolation against Sturm bisection


def _sign(ints, x):
    val = roots._value(ints, x.numerator, x.denominator)
    return (val > 0) - (val < 0)


def _sturm_leaves(ints, lo, hi):
    """Reference isolation: bisect (lo, hi) by Sturm counts, splitting a
    cell while it holds two or more roots; a root at a midpoint becomes
    (mid, mid) between neighbours mid -+ eps, eps = (hi - lo)/4 halved
    until (mid - eps, mid + eps) holds that root alone."""
    chain = _sturm_sequence(ints, [i * c for i, c in enumerate(ints)][1:])

    def variations(x):
        signs = [s for c in chain if (s := _sign(c, x))]
        return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])

    out = []
    stack = [(lo, hi, variations(lo), variations(hi))]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb == 1:
            out.append((a, b))
        if va - vb <= 1:
            continue
        mid = (a + b) / 2
        if _sign(ints, mid) == 0:
            eps = (b - a) / 4
            while True:
                left, right = mid - eps, mid + eps
                if _sign(ints, left) and _sign(ints, right):
                    vl, vr = variations(left), variations(right)
                    if vl - vr == 1:
                        break
                eps /= 2
            out.append((mid, mid))
            stack += [(a, left, va, vl), (right, b, vr, vb)]
        else:
            vm = variations(mid)
            stack += [(a, mid, va, vm), (mid, b, vm, vb)]
    out.sort(key=lambda t: t[0])
    return out


def _product(*factors):
    out = ONE
    for f in factors:
        out = out * Poly([F(c) for c in f])
    return out


_NEAR_SQRT2 = F(1414213562373095, 10 ** 15)  # 4.9e-16 ~ 2**-50 below sqrt(2)
_ISOLATION_CASES = [
    # a root at the midpoint of a cell with three roots, and with two whose
    # other root sits on the first neighbour tried, 1/2 - 1/4
    (_product([-1, 1], [-2, 1], [-3, 1]), F(0), F(4)),
    (_product([-1, 2], [-1, 4], [5, 0, 1]), F(0), F(1)),
    # a root at the midpoint of a cell with one root: 1 in (0, 2)
    (_product([-1, 1], [-3, 1]), F(0), F(4)),
    (_product([-1, 1], [-2, 0, 1], [-3, 1]), F(0), F(4)),
    # roots on both ends of the start interval
    (_product([0, 1], [-1, 1], [-4, 1], [-3, 0, 1]), F(0), F(4)),
    (_product([-1, 1], [-2, 0, 1], [-4, 1]), F(1), F(4)),
    # clusters closer than 2**-40: two rationals 2**-45 apart, and a
    # rational 2**-50 from sqrt(2)
    (_product([-1, 3], [-(1 << 45) - 3, 3 << 45]), F(0), None),
    (_product([-2, 0, 1], [-_NEAR_SQRT2.numerator, _NEAR_SQRT2.denominator]), None, None),
    (_product([-2, 0, 1], [-_NEAR_SQRT2.numerator, _NEAR_SQRT2.denominator], [-1, 2]), F(1), F(2)),
    # complex pairs within 2**-30 of the real axis, where Descartes' bound
    # exceeds the count, next to real roots
    (_product([1 + (1 << 60), -(1 << 62), 1 << 62], [-(1 << 30) - 1, 2 << 30]), F(0), F(1)),
    (_product([1 + (1 << 60), -(1 << 62), 1 << 62], [-1, 2], [-3, 0, 1]), None, None),
    # unbounded sides
    (_product([7, 0, -5, 0, 1]), None, None),
    (_product([-1, 1], [1, 1], [-2, 0, 1]), None, F(1)),
    (_product([-1, 1], [1, 1], [-2, 0, 1]), F(-1), None),
]


def _random_isolation_cases(rng, count):
    cases = []
    for _ in range(count):
        factors = []
        for _ in range(rng.randint(1, 5)):
            r = rng.random()
            if r < 0.4:
                factors.append([-rng.randint(-16, 16), rng.choice((1, 2, 3, 4, 8))])
            elif r < 0.7:
                factors.append([rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 5)])
            else:
                c, s = rng.randint(-20, 20), rng.randint(1, 1 << 30)
                factors.append([c * c * s * s + rng.randint(1, 3), -2 * c * s * s, s * s])
        p = _product(*factors)
        if p.degree > 0:
            bounds = [rng.choice((None, F(rng.randint(-16, 16), rng.choice((1, 2, 3))))) for _ in "ab"]
            cases.append((p, *bounds))
    return cases


def _listing(p, lo, hi, classify):
    return [(rv.lo, rv.hi, rv.rat, m) for rv, m in isolate_real_roots(p, lo, hi, classify)]


def test_isolation_reproduces_sturm_leaves(monkeypatch):
    midpoints = 0
    cases = _ISOLATION_CASES + _random_isolation_cases(random.Random(20263), 150)
    for p, lo, hi in cases:
        for factor, _ in squarefree_factor(p):
            ints = factor.primitive_int()
            for a, b in [(F(-1000), F(1000)), (F(-7, 3), F(11, 5))]:
                if _sign(ints, a) and _sign(ints, b):
                    leaves = roots._isolate_squarefree(ints, a, b)
                    assert leaves == _sturm_leaves(ints, a, b)
                    midpoints += sum(1 for x, y in leaves if x == y)
        for classify in (True, False):
            got = _listing(p, lo, hi, classify)
            with monkeypatch.context() as m:
                m.setattr(roots, "_isolate_squarefree", _sturm_leaves)
                assert got == _listing(p, lo, hi, classify)
    # roots at the midpoints of cells with two or more roots were rebuilt
    assert midpoints >= 10


# ---------------------------------------------------------------------------
# the seeded refinement


def _ten_real_roots():
    """(z^2 - 2)(z^2 - 3)(z^2 - 5)(z^2 - 7)(z^2 - 11), ascending integer coefficients."""
    coeffs = [1]
    for p in (2, 3, 5, 7, 11):
        coeffs = _int_mul(coeffs, [-p, 0, 1])
    return coeffs


def _isolated(coeffs):
    found = isolate_real_roots(Poly([F(c) for c in coeffs]), None, None, classify_rational=False)
    return [(rv.ints, rv.lo, rv.hi) for rv, _ in found]


def _root_floats(coeffs):
    out = []
    for ints, lo, hi in _isolated(coeffs):
        root = RootVal(ints=ints, lo=lo, hi=hi)
        root.refine_to_width(F(1, 1 << 60))
        out.append(float(root.lo))
    return out


def _level_sign(ints, frame, k, e):
    """Sign of ``ints`` at the point y = k/2**e of the frame."""
    return _sign(ints, roots._point(frame, k, e))


@pytest.mark.parametrize("kind", ["wrong cell", "outside", "nan", "inf", "neighbour"])
def test_a_bad_float_guess_never_changes_a_cell(monkeypatch, kind):
    """Neither a bad ``_guess`` nor a bad proposal kept from isolation moves
    a cell: both are only where the exact Newton steps start."""
    coeffs = _ten_real_roots()
    floats = _root_floats(coeffs)
    guess = roots._guess

    def bad(ints, lo, hi):
        good = guess(ints, lo, hi)
        if kind == "wrong cell":
            return good + (hi - lo) * 2 ** -30
        if kind == "outside":
            return hi + (hi - lo)
        if kind in ("nan", "inf"):
            return float(kind)
        return next(r for r in floats if not lo <= r <= hi)

    monkeypatch.setattr(roots, "_guess", bad)
    seeded = []
    monkeypatch.setattr(roots, "_seed", lambda *args, seed=roots._seed: seeded.append(1) or seed(*args))
    for ints, lo, hi in _isolated(coeffs):
        frame = roots._frame(lo, hi)
        for kept in (None, bad(ints, float(lo), float(hi))):
            for depth in (9, 40, 64, 130):
                got = _kernel(ints, frame, depth, guess=kept)
                assert (got if isinstance(got, F) else got[:2]) == _plain_bisect(ints, frame, depth)
            # plain bisection to 4096 levels is too slow an oracle, but the one
            # cell of that level with a sign change at its ends is what it finds
            k, e, _ = _kernel(ints, frame, 4096, guess=kept)
            assert e == 4096 and 0 <= k < 1 << e
            assert _level_sign(ints, frame, k, e) != _level_sign(ints, frame, k + 1, e)
            stepped = _kernel(ints, frame, 20, guess=kept)
            assert _kernel(ints, frame, 100, stepped, kept) == _kernel(ints, frame, 100)
            root = RootVal(ints=ints, lo=lo, hi=hi, guess=kept)
            root.refine_to_width(F(1, 1 << 90))
            plain = RootVal(ints=ints, lo=lo, hi=hi)
            plain.refine_to_width(F(1, 1 << 90))
            assert root.bounds() == plain.bounds()
    assert seeded


@pytest.mark.parametrize("kind", ["nan", "off"])
def test_a_failed_seed_is_retried_deeper(monkeypatch, kind):
    """With a useless guess the first seeds start at the cell's end, and a
    guess 2**-20 of the cell off costs a step or two more; either way
    ``_seed`` is tried again below the levels bisection took, and deep
    refinement stays far below plain bisection's one evaluation a level."""
    guess = roots._guess

    def bad(ints, lo, hi):
        return float("nan") if kind == "nan" else guess(ints, lo, hi) + (hi - lo) * 2 ** -20

    monkeypatch.setattr(roots, "_guess", bad)
    calls = []
    value = roots._value
    monkeypatch.setattr(roots, "_value", lambda *args: calls.append(1) or value(*args))
    a = 3 ** 700  # 1110-bit coefficients
    for coeffs in (_ten_real_roots(), _int_mul([-(2 * a + 1), 0, a], [-3 * a, 7, a])):
        for ints, lo, hi in _isolated(coeffs):
            root = RootVal(ints=ints, lo=lo, hi=hi)
            del calls[:]
            root.refine_to_width(F(1, 1 << 4096))
            # plain bisection takes about 4096; a NaN guess averages 34
            assert len(calls) <= 64
            lo, hi = root.bounds()
            assert hi - lo <= F(1, 1 << 4096) and _sign(ints, lo) * _sign(ints, hi) < 0
    # in the frame (-2, 0) the root -sqrt(1 - 2**-t) lies a sliver above the
    # grid line x = -1; Newton's iterates land below it, in a cell the signs
    # refute, and must step on rather than stall there
    frame = roots._frame(F(-2), F(0))
    for depth in (150, 4096):
        ints = [1 - (1 << 2 * depth + 20), 0, 1 << 2 * depth + 20]
        del calls[:]
        k, e, _ = _kernel(ints, frame, depth)
        assert len(calls) <= 64
        assert e == depth and _level_sign(ints, frame, k, e) != _level_sign(ints, frame, k + 1, e)


def test_refinement_of_coefficients_beyond_float_range():
    a = 3 ** 700  # 1110-bit coefficients: float(a) overflows
    with pytest.raises(OverflowError):
        float(a)
    for coeffs in ([-(2 * a + 1), 0, a], _int_mul([-(2 * a + 1), 0, a], [-3 * a, 7, a])):
        for ints, lo, hi in _isolated(coeffs):
            frame = roots._frame(lo, hi)
            for depth in (12, 64, 200):
                got = _kernel(ints, frame, depth)
                assert (got if isinstance(got, F) else got[:2]) == _plain_bisect(ints, frame, depth)


def test_a_certified_seed_refines_in_few_evaluations(monkeypatch):
    calls = []
    value = roots._value
    monkeypatch.setattr(roots, "_value", lambda *args: calls.append(1) or value(*args))
    found = _isolated(_ten_real_roots())
    assert len(found) == 10
    for ints, lo, hi in found:
        root = RootVal(ints=ints, lo=lo, hi=hi)
        del calls[:]
        root.refine_to_width(F(1, 1 << 64))
        lo, hi = root.bounds()
        assert hi - lo <= F(1, 1 << 64) and _sign(ints, lo) * _sign(ints, hi) < 0
        # the exact step (f and f') and the two ends of the cell
        assert len(calls) <= 8


def test_seeds_certify_the_roots_of_a_large_star(monkeypatch):
    """A 32-mass centre graph: its 65 roots, refined to 2**-64, cost 1,055
    evaluations when one exact Newton step was followed by quadratic
    interval refinement; Newton steps on grids of doubling depth take
    about half of that."""
    rng = random.Random(0)

    def value():
        return F(rng.randint(1, 12), rng.randint(1, 12))

    edges = tuple(Edge(tuple(value() for _ in range(9)), tuple(value() for _ in range(8))) for _ in range(4))
    graph = StarGraph(Root.CENTER, F(1), edges)
    assert graph.point_mass_count >= 30
    found = [rv for phi in char_polys(graph) for rv, _ in isolate_real_roots(phi, F(0), None)]
    assert len(found) == 65 and not any(rv.is_rational for rv in found)
    calls = []
    evaluate = roots._value
    monkeypatch.setattr(roots, "_value", lambda *args: calls.append(1) or evaluate(*args))
    for root in found:
        root.refine_to_width(F(1, 1 << 64))
    assert len(calls) < 1055
    for root in found:
        lo, hi = root.bounds()
        assert hi - lo <= F(1, 1 << 64) and _sign(root.ints, lo) * _sign(root.ints, hi) < 0


# ---------------------------------------------------------------------------
# the certificate: float-proposed cells proven by exact signs


@cache
def _star_factors():
    """(ints, 0, Cauchy bound + 1) for the square-free factors of seeded
    centre and pendant characteristic polynomials with 9-33 masses, half of
    them with a duplicated edge: the isolations ``forward`` runs."""
    rng = random.Random(20264)

    def value():
        return F(rng.randint(1, 12), rng.randint(1, 12))

    out = []
    for total, q, root, dup in [(9, 3, Root.CENTER, False), (9, 4, Root.PENDANT, True),
                                (13, 4, Root.CENTER, True), (17, 4, Root.PENDANT, False),
                                (26, 5, Root.CENTER, True), (33, 4, Root.CENTER, False)]:
        edges = [Edge(tuple(value() for _ in range(k + 1)), tuple(value() for _ in range(k)))
                 for k in [total // q + (j < total % q) for j in range(q)]]
        if dup:
            edges[-1] = edges[-2]
        central = F(rng.randint(0, 1))
        if root is Root.CENTER:
            graph = StarGraph(root, central, tuple(edges))
        else:
            graph = StarGraph(root, central, tuple(edges[1:]), edges[0])
        for phi in char_polys(graph):
            for factor, _ in squarefree_factor(phi):
                ints = factor.primitive_int()
                out.append((ints, F(0), roots._cauchy_bound(ints) + 1))
    return tuple(out)


def _oracle_pairs():
    """(ints, a, b) for every square-free factor of the Sturm oracle's cases
    on the intervals ``test_isolation_reproduces_sturm_leaves`` uses."""
    out = []
    for p, _, _ in _ISOLATION_CASES + _random_isolation_cases(random.Random(20263), 150):
        for factor, _ in squarefree_factor(p):
            ints = factor.primitive_int()
            out += [(ints, a, b) for a, b in [(F(-1000), F(1000)), (F(-7, 3), F(11, 5))]
                    if _sign(ints, a) and _sign(ints, b)]
    return out


def test_certificate_reproduces_sturm_leaves():
    """A proven certificate gives the Sturm leaves.  It proves 69 of the
    oracle's 333 factor/interval pairs, and every factor of the star
    polynomials up to degree 18; at 26 and 33 masses float evaluation of
    the monomial form loses the roots' order, and the tree runs."""
    proven = {}
    for name, pairs in (("oracle", _oracle_pairs()), ("star", _star_factors())):
        proven[name] = []
        for ints, a, b in pairs:
            got = roots._certify(ints, a, b)
            if got is not None:
                assert [(lo, hi) for lo, hi, _ in got] == _sturm_leaves(ints, a, b)
                proven[name].append(len(ints) - 1)
    assert len(proven["oracle"]) >= 60
    assert sorted(proven["star"]) == sorted(len(ints) - 1 for ints, _, _ in _star_factors() if len(ints) <= 19)


@pytest.mark.parametrize("kind", ["nan", "inf", "outside", "neighbour", "wrong cell"])
def test_bad_proposals_leave_the_leaves_alone(monkeypatch, kind):
    """Proposals that are not finite, lie outside the interval or repeat
    fail the certificate, and proposals a third of the least gap (one to
    three cells) off are corrected by ``_seed``; either way the leaves are
    the tree's."""
    proposals = roots._proposals

    def bad(ints, start):
        xs = proposals(ints, start)
        i = len(xs) // 2
        if kind in ("nan", "inf"):
            xs[i] = float(kind)
        elif kind == "outside":
            xs[0] = start - 1
        elif kind == "neighbour" and len(xs) > 1:
            xs[i] = xs[i - 1]
        elif kind == "wrong cell" and len(xs) > 1:
            gap = min(y - x for x, y in zip(xs, xs[1:]))
            xs = [x + gap / 3 for x in xs[:-1]] + xs[-1:]
        return xs

    cases = [(Poly([F(c) for c in _ten_real_roots()]), None, None)]
    cases += [(Poly(ints), a, None) for ints, a, _ in _star_factors()[:8]]
    seeded = []
    monkeypatch.setattr(roots, "_seed", lambda *args, seed=roots._seed: seeded.append(1) or seed(*args))
    for p, lo, hi in cases:
        with monkeypatch.context() as m:
            m.setattr(roots, "_proposals", bad)
            got = _listing(p, lo, hi, True)
        with monkeypatch.context() as m:
            m.setattr(roots, "_certify", lambda *args: None)
            assert got == _listing(p, lo, hi, True)
    with monkeypatch.context() as m:
        m.setattr(roots, "_proposals", bad)
        verdicts = [roots._certify(ints, a, b) for ints, a, b in _star_factors()[:8] if len(ints) > 2]
    if kind == "wrong cell":
        assert seeded and all(verdicts)
    else:
        assert not any(verdicts)


@pytest.mark.parametrize("p, lo, hi, proven", [
    # roots on grid points: 1, 2 and 3 in the frame (0, 4)
    (_product([-1, 1], [-2, 1], [-3, 1]), F(0), F(4), False),
    # a complex pair within 2**-30 of the real axis next to a real root
    (*_ISOLATION_CASES[9], False),
    # two rationals 2**-45 apart: proven or not, the leaves are the tree's
    (*_ISOLATION_CASES[6], None),
])
def test_certificate_falls_back_where_it_proves_nothing(monkeypatch, p, lo, hi, proven):
    for factor, _ in squarefree_factor(p):
        ints = factor.primitive_int()
        a = lo if lo is not None else -roots._cauchy_bound(ints) - 1
        b = hi if hi is not None else roots._cauchy_bound(ints) + 1
        got = roots._certify(ints, a, b)
        if proven is False:
            assert got is None
        elif got is not None:
            assert [(x, y) for x, y, _ in got] == _sturm_leaves(ints, a, b)
    got = _listing(p, lo, hi, True)
    monkeypatch.setattr(roots, "_certify", lambda *args: None)
    assert got == _listing(p, lo, hi, True)
