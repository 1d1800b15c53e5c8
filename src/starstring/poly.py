"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored lowest degree first; the zero polynomial is the
empty tuple.  All arithmetic is exact.  Degrees stay at desk scale
(<= ~60), so the dense representation is the simple and sufficient choice.

Gcds run in integers: operands cleared of denominators and content
(``Poly.primitive_int``) go through ``_sturm_sequence``, the primitive
signed pseudo-remainder sequence (Collins 1967, Brown 1971) and the one
remainder loop: its last member is the gcd, on (f, f') it is the Sturm
chain of ``roots``, and on two pencil determinants it is ``matrixize``'s
interlacing certificate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm as _ilcm

from .errors import DivisionByZero


def _coerce(c):
    return c if isinstance(c, Fraction) else Fraction(c)


class Poly:
    """Immutable dense polynomial with Fraction coefficients (lowest first)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce(c) for c in coeffs]
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", tuple(cs[:n]))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c):
        return Poly([c])

    @staticmethod
    def from_linear_roots(roots):
        """Product of (z - r) over the given rationals."""
        # z - p/q = (q*z - p)/q
        rs = [Fraction(r) for r in roots]
        return _linear_product((-r.numerator, r.denominator, r.denominator) for r in rs)

    @staticmethod
    def from_scaled_roots(roots):
        """Product of (1 - z/r) over the given nonzero rationals."""
        # 1 - z/(p/q) = (p - q*z)/p
        rs = [Fraction(r) for r in roots]
        return _linear_product((r.numerator, -r.denominator, r.numerator) for r in rs)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient (of the zero polynomial: 0)."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    def scale(self, c):
        c = _coerce(c)
        return Poly([c * x for x in self.coeffs])

    def __pow__(self, n):
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        """Exact division with remainder: self = q*other + r, deg r < deg other."""
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        r = list(self.coeffs)
        d = other.degree
        lc = other.lc
        q = [Fraction(0)] * max(len(r) - d, 0)
        for i in range(len(r) - 1 - d, -1, -1):
            f = r[i + d] / lc
            if f == 0:
                continue
            q[i] = f
            for j, c in enumerate(other.coeffs):
                r[i + j] -= f * c
        return Poly(q), Poly(r[:d])

    def divexact(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise DivisionByZero("inexact polynomial division")
        return q

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        """Horner evaluation at an exact rational point."""
        x = _coerce(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(1 / self.lc)

    def primitive_int(self):
        """Integer coefficient list with content 1, same sign and roots."""
        den = _ilcm(*(c.denominator for c in self.coeffs))
        return _int_primitive([c.numerator * (den // c.denominator) for c in self.coeffs])


def _linear_product(factors):
    """Product of (a0 + a1*z)/d over integer triples (a0, a1, d), multiplied
    in integers with one division per coefficient at the end."""
    out, den = [1], 1
    for a0, a1, d in factors:
        nxt = [0] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i] += c * a0
            nxt[i + 1] += c * a1
        out, den = nxt, den * d
    return Poly([Fraction(c, den) for c in out])


ZERO = Poly()
ONE = Poly([1])


# ---------------------------------------------------------------------------
# integer polynomials: coefficient lists, lowest degree first


def _int_primitive(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    g = _igcd(*cs)
    return [c // g for c in cs] if g else []


def _positive(coeffs):
    """The polynomial or its negative, whichever has a positive leading coefficient."""
    return [-c for c in coeffs] if coeffs and coeffs[-1] < 0 else coeffs


def _prem_signed(a, b):
    """Pseudo-remainder r with lc(b)**s * a = q*b + r, s the number of
    reduction steps, and the sign of lc(b)**s."""
    db, lcb = len(b) - 1, b[-1]
    r = list(a)
    steps = 0
    while True:
        while r and r[-1] == 0:
            r.pop()
        e = len(r) - 1 - db
        if e < 0:
            break
        head = r[-1]
        r = [lcb * c for c in r]
        for j, cb in enumerate(b):
            r[e + j] -= head * cb
        steps += 1
    return r, 1 if lcb > 0 or steps % 2 == 0 else -1


def _sturm_sequence(a, b):
    """The primitive signed remainder sequence of integer polynomials a, b.

    Its members are a and b, primitive with positive leading coefficients,
    then f_{k+1} = -rem(f_{k-1}, f_k) times a positive number, primitive.
    It stops after a constant member or a zero remainder, so its last
    member is gcd(a, b) up to sign; b = 0 gives [a].
    """
    a, b = _positive(_int_primitive(a)), _positive(_int_primitive(b))
    seq = [a]
    while b:
        seq.append(b)
        if len(b) == 1:
            break
        r, sgn = _prem_signed(seq[-2], b)
        b = _int_primitive(r if sgn < 0 else [-c for c in r])
    return seq


def _int_poly_gcd(a, b):
    """Primitive gcd of integer polynomials, with a positive leading coefficient."""
    g = _sturm_sequence(a, b)[-1]
    return [1] if len(g) == 1 else _positive(g)


def poly_gcd(p, q):
    """Monic greatest common divisor; gcd(p, 0) = monic(p)."""
    if p.is_zero and q.is_zero:
        raise DivisionByZero("gcd(0, 0) undefined")
    return Poly(_int_poly_gcd(p.primitive_int(), q.primitive_int())).monic()


def poly_extended_gcd(p, q):
    """Extended Euclid: returns (g, s, t) monic g with s*p + t*q = g."""
    r0, r1 = p, q
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while not r1.is_zero:
        qt, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - qt * s1
        t0, t1 = t1, t0 - qt * t1
    if r0.is_zero:
        raise DivisionByZero("gcd(0, 0) undefined")
    c = r0.lc
    return r0.monic(), s0.scale(1 / c), t0.scale(1 / c)


def squarefree_factor(p):
    """Square-free decomposition (Yun): list of (monic factor, multiplicity).

    The product of factor**multiplicity equals p up to a constant; factors
    are pairwise coprime and square-free, sorted by multiplicity.
    """
    if p.is_zero:
        raise DivisionByZero("square-free factorization of zero")
    f = p.monic()
    if f.degree == 0:
        return []
    df = f.derivative()
    g = poly_gcd(f, df)
    if g.degree == 0:
        return [(f, 1)]
    out = []
    c = f.divexact(g)
    d = df.divexact(g) - c.derivative()
    i = 1
    while c.degree > 0:
        s = poly_gcd(c, d)
        if s.degree > 0:
            out.append((s.monic(), i))
        c = c.divexact(s)
        d = d.divexact(s) - c.derivative()
        i += 1
    return out
