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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadShape, DivisionByZero, InvariantViolation, NotStieltjes
from .poly import ONE, Poly, ZERO, poly_extended_gcd, poly_gcd
from .rational import format_rational
from .roots import isolate_real_roots


class RationalFunction:
    """Quotient of two polynomials in canonical form.

    The denominator is monic and coprime to the numerator; the overall
    constant lives in the numerator, so equality is plain coefficient
    comparison.  The zero function is 0/1.

    ``make`` is the only general canonicalizer.  Negation and inversion
    keep a coprime pair coprime, as does a sum with a polynomial; any other
    sum is canonicalized by ``make``.
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

    def _sum(self, c, d):
        """self + c/d for a canonical c/d."""
        a, b = self.num, self.den
        # a canonical denominator of degree 0 is 1
        if b.degree == 0:
            return RationalFunction.from_coprime(a * d + c, d)
        if d.degree == 0:
            return RationalFunction.from_coprime(a + c * b, b)
        return RationalFunction.make(a * d + c * b, b * d)[0]

    def __add__(self, other):
        other = _as_rf(other)
        return self._sum(other.num, other.den)

    def __sub__(self, other):
        other = _as_rf(other)
        return self._sum(-other.num, other.den)

    def __neg__(self):
        return RationalFunction.from_coprime(-self.num, self.den)

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("inverse of the zero function")
        return RationalFunction.from_coprime(self.den, self.num)

    def eval(self, x):
        d = self.den.eval(x)
        if d == 0:
            raise DivisionByZero(f"pole at {x}")
        return self.num.eval(x) / d


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Poly):
        return RationalFunction.from_coprime(x, ONE)
    return RationalFunction.constant(Fraction(x))


# ---------------------------------------------------------------------------
# Stieltjes continued fractions


@dataclass(frozen=True)
class StieltjesCF:
    """Coefficients (a0..ap ; b1..bp) of the alternating continued fraction."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a = tuple(Fraction(x) for x in self.a)
        b = tuple(Fraction(x) for x in self.b)
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
    Both peels are ``Poly.cancel_lead``, one integer step each.
    For an edge's driving-point function the a_k are its interval lengths
    and the b_k its masses.  Positivity of every peeled coefficient
    certifies the S0 property; any violation raises NotStieltjes.
    """
    if f.is_zero:
        raise NotStieltjes("the zero function is not S0")
    num, den = f.num, f.den
    a = []
    b = []
    while True:
        dn, dd = num.degree, den.degree
        if dn == dd:
            const, num = num.cancel_lead(den)
        elif dn == dd - 1:
            const = Fraction(0)
        else:
            raise NotStieltjes(f"degree pattern ({dn}, {dd}) is not S0")
        if a and const <= 0:
            raise NotStieltjes(f"nonpositive constant a_{len(a)} = {const}")
        if const < 0:
            raise NotStieltjes(f"negative limit at infinity: {const}")
        a.append(const)
        if num.is_zero:
            break
        if num.degree != dd - 1:
            raise NotStieltjes("unexpected cancellation while extracting a constant")
        slope, den = den.cancel_lead(num)
        if slope >= 0:
            raise NotStieltjes(f"nonpositive mass coefficient b_{len(b) + 1} = {-slope}")
        b.append(-slope)
        if den.is_zero:
            raise NotStieltjes("continued fraction terminated inside a linear level")
    return StieltjesCF(tuple(a), tuple(b))


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

    def reassemble(self):
        # n/d is coprime, so is n + d*(B - A0*z) over d
        n, d = _pole_sum(self.terms)
        return RationalFunction.from_coprime(n + d * Poly([self.constant, -self.linear_coeff]), d)

    def to_json(self):
        return {
            "linear_coeff": format_rational(self.linear_coeff),
            "terms": [
                {"pole": format_rational(p), "residue": format_rational(r)}
                for p, r in self.terms
            ],
            "constant": format_rational(self.constant),
        }


def _polynomial_part(f):
    """Split f into (A0, B, proper) with f = -A0*z + B + proper."""
    q, r = divmod(f.num, f.den)
    if q.degree > 1:
        raise BadShape(f"polynomial part has degree {q.degree} > 1")
    a0 = -q.coeffs[1] if q.degree == 1 else Fraction(0)
    const = q.coeffs[0] if q.degree >= 0 else Fraction(0)
    if a0 < 0:
        raise BadShape(f"linear part {-a0}*z grows upward, not a Nevanlinna shape")
    # gcd(r, den) = gcd(num, den) = 1
    proper = RationalFunction.from_coprime(r, f.den)
    return a0, const, proper


def _pole_sum(terms):
    """(n, d) with n/d = sum r/(z - v) over ``terms`` ((v, r), ...) with
    distinct v and nonzero r: d is monic, and the pair is coprime."""
    n, d = ZERO, ONE
    for v, r in terms:
        lin = Poly([-v, 1])
        n, d = n * lin + d.scale(r), d * lin
    return n, d


def _residues(proper, poles):
    """((pole, residue), ...) of the proper num/den at its simple rational
    ``poles``, ascending; every residue num(v)/den'(v) must be positive."""
    dden = proper.den.derivative()
    pairs = []
    for pole in poles:
        residue = proper.num.eval(pole) / dden.eval(pole)
        if residue <= 0:
            raise BadShape(f"nonpositive residue {residue} at pole {pole}")
        pairs.append((Fraction(pole), residue))
    return tuple(sorted(pairs))


def partial_fractions(f):
    """Split f into partial fractions over its unknown poles.

    Returns (pf, cluster) with f = pf.reassemble() + cluster: pf holds
    -A0*z + B and a positive residue term at each rational pole, and the
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
    """Partial fractions when the simple rational poles are already known."""
    a0, const, proper = _polynomial_part(f)
    if Poly.from_linear_roots(poles) != proper.den:
        raise BadShape("declared poles do not match the reduced denominator")
    return PartialFractions(a0, _residues(proper, poles), const)


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
        g, s, _ = poly_extended_gcd(m, d)
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
