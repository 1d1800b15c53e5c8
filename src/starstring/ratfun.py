"""Rational functions, Stieltjes continued fractions, partial fractions.

A rational S0-function (positive simple poles and zeros, strictly
interlacing with the pole first, nonnegative limit at infinity, reached
from below when it is 0) admits a unique alternating continued fraction

    f(z) = a0 + 1/(-b1*z + 1/(a1 + 1/(-b2*z + ... + 1/(-bp*z + 1/ap))))

with a0 >= 0 and all other coefficients strictly positive.  For a
Stieltjes string the a_k are its interval lengths and the b_k its point
masses, and f is even/odd of the ladder recurrence ``_ladder``, the one
three-term recurrence of the package: it also builds every edge's pair and
both characteristic polynomials of a star (``forward``).  ``cf_to_ratfun``
folds the coefficients into that recurrence; ``cf_expand`` runs it
backwards, peeling one ladder step per level off the numerator and
denominator.  It doubles as the S0 certificate: any positivity or
degree-pattern failure along the way proves the input was not S0.

The peel (``_cf_peel``) and the pole sum (``_pole_sum``) run on integer
coefficient vectors, with the rational factor between numerator and
denominator kept as two integers: a peel is one cross-multiplication by
the two leading coefficients and one content gcd, and a Fraction is made
only for each emitted coefficient.  A ``Poly`` is made only where a
result leaves them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd as _igcd, lcm as _ilcm

from .errors import BadShape, DivisionByZero, InvariantViolation, NotStieltjes
from .poly import ONE, Poly, ZERO, poly_extended_gcd, poly_gcd
from .rational import as_fractions, format_rational
from .roots import isolate_real_roots


class RationalFunction:
    """Quotient of two polynomials in canonical form.

    The denominator is monic and coprime to the numerator; the overall
    constant lives in the numerator, so equality is plain coefficient
    comparison.  The zero function is 0/1.

    ``make`` is the one general canonicalizer (it divides out the gcd);
    ``from_coprime`` normalizes a pair known to be coprime, and ``inverse``
    swaps one.  No solver adds two, so the class has no arithmetic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        rf, _ = RationalFunction.make(num, den)
        object.__setattr__(self, "num", rf.num)
        object.__setattr__(self, "den", rf.den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def __reduce__(self):
        return RationalFunction.from_coprime, (self.num, self.den)

    @staticmethod
    def make(num, den):
        """Canonicalize num/den; returns (function, cancelled monic factor)."""
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        g = ONE
        if num.degree > 0 and den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divexact(g)
                den = den.divexact(g)
        return RationalFunction.from_coprime(num, den), g

    @staticmethod
    def from_coprime(num, den):
        """num/den for coprime num and nonzero den: only the leading
        coefficient of den is normalized, no gcd is taken."""
        if num.is_zero:
            num, den = ZERO, ONE
        elif den.lc != 1:
            c = den.lc
            num, den = num.scale(1 / c), den.scale(1 / c)
        rf = object.__new__(RationalFunction)
        object.__setattr__(rf, "num", num)
        object.__setattr__(rf, "den", den)
        return rf

    @staticmethod
    def constant(c):
        return RationalFunction.from_coprime(Poly.constant(c), ONE)

    @property
    def is_zero(self):
        return self.num.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r} / {self.den!r})"

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("inverse of the zero function")
        return RationalFunction.from_coprime(self.den, self.num)

    def eval(self, x):
        d = self.den.eval(x)
        if d == 0:
            raise DivisionByZero(f"pole at {format_rational(x)}")
        return self.num.eval(x) / d


# ---------------------------------------------------------------------------
# Stieltjes continued fractions


@dataclass(frozen=True)
class StieltjesCF:
    """Coefficients (a0..ap ; b1..bp) of the alternating continued fraction."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a = as_fractions(self.a)
        b = as_fractions(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b) + 1:
            raise InvariantViolation("need exactly one more constant than linear term")
        if a[0] < 0:
            raise InvariantViolation("leading constant must be >= 0")
        if len(a) == 1 and a[0] == 0:
            raise InvariantViolation("the zero function has no Stieltjes expansion")
        if any(x <= 0 for x in a[1:]) or any(x <= 0 for x in b):
            raise InvariantViolation("interior coefficients must be positive")

    @property
    def depth(self):
        return len(self.b)

    def to_json(self):
        return {"a": [format_rational(x) for x in self.a],
                "b": [format_rational(x) for x in self.b]}


def cf_expand(f):
    """Expand a rational S0-function into its Stieltjes continued fraction.

    Each level peels one step of the ladder recurrence (``_ladder``)
    off num/den: the constant a = lc(num)/lc(den), or 0 when deg den is one
    higher, leaves num - a*den; the slope s = lc(den)/lc(num) of the simple
    pole at infinity of the reciprocal leaves den - s*z*num, and b = -s.
    The peels run on integer vectors (``_cf_peel``).
    For an edge's driving-point function the a_k are its interval lengths
    and the b_k its masses.  Positivity of every peeled coefficient
    certifies the S0 property; any violation raises NotStieltjes.
    """
    return _cf_peel(*_int_form(f.num, f.den))[0]


def _int_form(num, den):
    """(n, d, u, v) with num/den = (u/v) * n/d for the primitive integer
    vectors n, d of the polynomials num and nonzero den, and v > 0."""
    n, d = num.primitive_int(), den.primitive_int()
    if not n:
        return n, d, 0, 1
    w = num.lc * d[-1] / (den.lc * n[-1])
    return n, d, w.numerator, w.denominator


def _plus_constant(n, d, u, v, c):
    """(e, w) with (u/v) * n/d + c = e/(w*d) for a rational c: e is an
    integer vector with a nonzero last entry (empty for 0), and w > 0."""
    s, t = c.numerator, c.denominator
    e = [t * u * x + s * v * y for x, y in zip_longest(n, d, fillvalue=0)]
    while e and not e[-1]:
        e.pop()
    return e, v * t


def _reduced(p, q):
    """p/q in lowest terms with a positive denominator, as two integers."""
    g = _igcd(p, q)
    if q < 0:
        g = -g
    return p // g, q // g


def _content(r):
    """(c, r/c) for the content c of the integer list r, whose trailing
    zeros it drops: (0, []) when r is zero."""
    while r and not r[-1]:
        r.pop()
    c = _igcd(*r)
    return c, r if c == 1 else [x // c for x in r]


def _cf_peel(n, d, u, v):
    """``cf_expand``'s loop on f = (u/v) * n/d, for integer vectors n, d
    (lowest degree first, nonzero last entries, n empty for f = 0) and an
    integer v > 0: (cf, rests), rests[k] the state (n, d, u, v) of
    f_k - a_k for f_k = a_k + 1/(-b_{k+1}*z + 1/f_{k+1}).

    The constant peel, with lc(n)/lc(d) = y/x in lowest terms and x > 0,
    leaves (u/(v*x)) * (x*n - y*d)/d; the mass peel, with lc(d)/lc(n) =
    y/x, leaves f_{k+1} = (u*x/v) * n/(x*d - y*z*n).  The new member is
    divided by its content, which u/v takes up.  Each peel has
    determinant 1 up to a constant, so every pair is as coprime as f's.
    """
    if not n:
        raise NotStieltjes("the zero function is not S0")
    a = []
    b = []
    rests = []
    while True:
        dn, dd = len(n) - 1, len(d) - 1
        if dn == dd:
            y, x = _reduced(n[-1], d[-1])
            const = Fraction(u * y, v * x)
            c, n = _content([x * p - y * q for p, q in zip(n, d)])
            u, v = _reduced(u * c, v * x)
        elif dn == dd - 1:
            const = Fraction(0)
        else:
            raise NotStieltjes(f"degree pattern ({dn}, {dd}) is not S0")
        if a and const <= 0:
            raise NotStieltjes(f"nonpositive constant a_{len(a)} = {format_rational(const)}")
        if const < 0:
            raise NotStieltjes(f"negative limit at infinity: {format_rational(const)}")
        a.append(const)
        rests.append((n, d, u, v))
        if not n:
            break
        if len(n) != dd:
            raise NotStieltjes("unexpected cancellation while extracting a constant")
        y, x = _reduced(d[-1], n[-1])
        slope = Fraction(v * y, u * x)
        if slope >= 0:
            raise NotStieltjes(
                f"nonpositive mass coefficient b_{len(b) + 1} = {format_rational(-slope)}")
        b.append(-slope)
        c, d = _content([x * p - y * q for p, q in zip(d, [0, *n])])
        if not d:
            raise NotStieltjes("continued fraction terminated inside a linear level")
        u, v = u * x, v * c
    return StieltjesCF(tuple(a), tuple(b)), rests


def _ladder(even, odd, steps):
    """Final pair (R_{2n}, R_{2n-1}) of the ladder recurrence

        R_{2k-1} = -z * m_k * R_{2k-2} + R_{2k-3}
        R_{2k}   =      l_k * R_{2k-1} + R_{2k-2}

    from the seed pair (R_0, R_{-1}) = (even, odd); ``steps`` yields the
    (m_k, l_k) pairs.  Each step has determinant 1, so the final pair is as
    coprime as the seed pair.
    """
    for mass, length in steps:
        odd = Poly([0, -mass]) * even + odd
        even = odd.scale(length) + even
    return even, odd


def cf_to_ratfun(cf):
    """Fold a Stieltjes continued fraction back into a rational function.

    even/odd of the ladder seeded with 1/a_p is a_p; the step (b_k, a_{k-1})
    turns f_k into a_{k-1} + 1/(-b_k z + 1/f_k), so k = p..1 ends at f_0.
    """
    steps = zip(reversed(cf.b), reversed(cf.a[:-1]))
    return RationalFunction.from_coprime(*_ladder(ONE, Poly.constant(1 / cf.a[-1]), steps))


# ---------------------------------------------------------------------------
# partial fractions


@dataclass(frozen=True)
class PartialFractions:
    """f(z) = -linear_coeff*z + sum residue/(z - pole) + constant."""

    linear_coeff: Fraction
    terms: tuple  # ((pole, residue), ...) sorted by pole
    constant: Fraction


def _polynomial_part(f):
    """Split f into (A0, B, proper) with f = -A0*z + B + proper."""
    q, r = divmod(f.num, f.den)
    if q.degree > 1:
        raise BadShape(f"polynomial part has degree {q.degree} > 1")
    a0 = -q.coeffs[1] if q.degree == 1 else Fraction(0)
    const = q.coeffs[0] if q.degree >= 0 else Fraction(0)
    if a0 < 0:
        raise BadShape(f"linear part {format_rational(-a0)}*z grows upward, not a Nevanlinna shape")
    # gcd(r, den) = gcd(num, den) = 1
    proper = RationalFunction.from_coprime(r, f.den)
    return a0, const, proper


def _pole_sum(terms):
    """(n, d) with n/d = sum r/(z - v) over ``terms`` ((v, r), ...) with
    distinct v and nonzero r: d is monic, and the pair is coprime.

    For v = p/q and r = s/t, r/(z - v) = (T/t)*s*q / (T*(q*z - p)) with
    T the lcm of the t, so the sum folds on integer vectors over the one
    denominator T*lc(Q), Q the product of the q*z - p."""
    T = _ilcm(*(r.denominator for _, r in terms))
    n, d = [], [1]
    for v, r in terms:
        p, q = v.numerator, v.denominator
        w = T // r.denominator * r.numerator * q
        # times q*z - p: entry i is q*c[i-1] - p*c[i]
        n = [q * x - p * y + w * c for x, y, c in zip([0, *n], [*n, 0], d)]
        d = [q * x - p * y for x, y in zip([0, *d], [*d, 0])]
    return Poly.from_ints(n, T * d[-1]), Poly.from_ints(d, d[-1])


def _residues(proper, poles):
    """((pole, residue), ...) of the proper num/den at its simple rational
    ``poles``, ascending; every residue num(v)/den'(v) must be positive."""
    dden = proper.den.derivative()
    pairs = []
    for pole in poles:
        residue = proper.num.eval(pole) / dden.eval(pole)
        if residue <= 0:
            raise BadShape(f"nonpositive residue {format_rational(residue)} "
                           f"at pole {format_rational(pole)}")
        pairs.append((Fraction(pole), residue))
    return tuple(sorted(pairs))


def partial_fractions(f):
    """Split f into partial fractions over its unknown poles.

    Returns (pf, cluster) with f = -A0*z + B + sum r/(z - v) + cluster:
    pf holds A0, B and a positive residue r at each rational pole v, and the
    proper cluster S/C keeps the irrational poles together, 0/1 when there
    are none.  Every pole must be real, positive and simple (NotStieltjes
    otherwise): the denominator is isolated on (0, oo) with classification.
    """
    a0, const, proper = _polynomial_part(f)
    den = proper.den
    roots = isolate_real_roots(den, Fraction(0), None) if den.degree > 0 else []
    if sum(m for _, m in roots) != den.degree:
        raise NotStieltjes("a pole is not real and positive")
    if any(m != 1 for _, m in roots):
        raise NotStieltjes("multiple pole")
    terms = _residues(proper, [rv.rat for rv, _ in roots if rv.is_rational])
    # proper - n/d = S/C has exactly the irrational poles, so S is coprime to C
    n, d = _pole_sum(terms)
    c = den.divexact(d)
    s, rem = divmod(proper.num - n * c, d)
    if not rem.is_zero:
        raise InvariantViolation("pole cluster extraction mismatch")
    return PartialFractions(a0, terms, const), RationalFunction.from_coprime(s, c)


def partial_fractions_at(f, poles):
    """``partial_fractions`` when the simple rational poles are already
    known: (pf, 0/1), as there is no irrational cluster."""
    a0, const, proper = _polynomial_part(f)
    if Poly.from_linear_roots(poles) != proper.den:
        raise BadShape("declared poles do not match the reduced denominator")
    return PartialFractions(a0, _residues(proper, poles), const), RationalFunction.constant(0)


def split_proper_by_factors(proper, factors):
    """Split a proper rational function over pairwise coprime denominator factors.

    Given proper = R/(D_1*...*D_k) with pairwise coprime D_j, returns the
    list of proper parts S_j/D_j with proper = sum_j S_j/D_j, exactly
    (Chinese remaindering via the extended Euclidean algorithm).
    """
    factors = [d.monic() for d in factors]
    den = ONE
    for d in factors:
        den = den * d
    if den != proper.den:
        raise BadShape("factors do not multiply to the denominator")
    parts = []
    total = ZERO
    for d in factors:
        m = den.divexact(d)
        g, s = poly_extended_gcd(m, d)
        if g.degree != 0:
            raise BadShape("denominator factors are not pairwise coprime")
        # R/(m*d) = (R*s mod d)/d + ...; s is the inverse of m modulo d, so
        # gcd(R*s mod d, d) = gcd(R, d) = 1
        sj = divmod(proper.num * s, d)[1]
        parts.append(RationalFunction.from_coprime(sj, d))
        total = total + sj * m
    if total != proper.num:
        raise BadShape("grouped partial fraction reassembly mismatch")
    return parts
