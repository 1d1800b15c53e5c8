"""Dense univariate polynomials with exact rational coefficients.

A polynomial is stored as a positive rational scale times a primitive
integer vector, lowest degree first: ``(scale, ints)`` with content
gcd(ints) = 1 and the polynomial's sign carried by ``ints``; the zero
polynomial is ``(1, ())``.  The form is canonical, so equality compares
the two fields, and the kernels run in integers, touching the scale once
per operation:

- a product of primitive vectors is primitive (Gauss's lemma), so
  multiplication is an integer convolution with no gcd;
- scaling, negation and ``monic`` change only the scale or the signs;
- a sum cross-multiplies by the scale denominators and takes one content
  gcd, as does the derivative;
- division multiplies its working vectors by |lc|/gcd(head, lc) only at a
  step that is not exact, so an exact quotient of primitive polynomials
  never leaves the integers;
- evaluation is homogeneous Horner in integers (``_value``) with one
  Fraction at the end.

``coeffs`` gives the rational coefficients on demand.  Degrees stay at desk
scale (<= ~60), so the dense representation is the simple and sufficient
choice.

Gcds run on the integer vectors (``Poly.primitive_int``) through
``_sturm_sequence``, the primitive signed pseudo-remainder sequence
(Collins 1967, Brown 1971) and the one remainder loop: its last member is
the gcd (on (f, f') the Sturm chain, for ``squarefree_factor``), and on two
pencil determinants it is ``matrixize``'s interlacing certificate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm as _ilcm

from .errors import DivisionByZero


def _coerce(c):
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


class Poly:
    """Immutable dense polynomial: a positive Fraction scale times a
    primitive integer tuple (lowest degree first)."""

    __slots__ = ("_scale", "_ints")

    def __init__(self, coeffs=()):
        cs = [_coerce(c) for c in coeffs]
        den = _ilcm(*(c.denominator for c in cs))
        _store(self, 1, den, [c.numerator * (den // c.denominator) for c in cs])

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.coeffs,)

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
    def coeffs(self):
        """The rational coefficients, lowest degree first."""
        s = self._scale
        return tuple(s * c for c in self._ints)

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self._ints) - 1

    @property
    def is_zero(self):
        return not self._ints

    @property
    def lc(self):
        """Leading coefficient (of the zero polynomial: 0)."""
        return self._scale * self._ints[-1] if self._ints else Fraction(0)

    def __bool__(self):
        return bool(self._ints)

    def __eq__(self, other):
        return isinstance(other, Poly) and self._ints == other._ints and self._scale == other._scale

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
        return self.scale(-1)

    def __add__(self, other):
        a, b = self._ints, other._ints
        if not b:
            return self
        if not a:
            return other
        # s*a + t*b = (h/L) * (x*a + y*b): h = gcd of the scale numerators,
        # L = lcm of their denominators
        s, t = self._scale, other._scale
        h = _igcd(s.numerator, t.numerator)
        g = _igcd(s.denominator, t.denominator)
        x = s.numerator // h * (t.denominator // g)
        y = t.numerator // h * (s.denominator // g)
        if len(a) < len(b):
            a, b, x, y = b, a, y, x
        out = [x * c for c in a]
        for i, c in enumerate(b):
            out[i] += y * c
        return _new(h, s.denominator // g * t.denominator, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self._ints, other._ints
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        # primitive times primitive is primitive
        return _canonical(self._scale * other._scale, tuple(out))

    def scale(self, c):
        c = _coerce(c)
        if not c or not self._ints:
            return ZERO
        if c > 0:
            return _canonical(self._scale * c, self._ints)
        return _canonical(self._scale * -c, tuple(-x for x in self._ints))

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
        """Exact division with remainder: self = q*other + r, deg r < deg other.

        In integers d*a = q*b + r for the vectors a, b of self and other:
        d starts at 1 and takes the factor |lc(b)|/gcd(head, lc(b)) at each
        step whose head lc(b) does not divide.
        """
        b = other._ints
        if not b:
            raise DivisionByZero("polynomial division by zero")
        db, lcb = len(b) - 1, b[-1]
        r = list(self._ints)
        if len(r) <= db:
            return ZERO, self
        q = [0] * (len(r) - db)
        d = 1
        for i in range(len(q) - 1, -1, -1):
            head = r[i + db]
            if not head:
                continue
            m = abs(lcb) // _igcd(head, lcb)
            if m != 1:
                r = [m * c for c in r[:i + db + 1]]
                q = [m * c for c in q]
                d *= m
                head *= m
            f = q[i] = head // lcb
            for j, c in enumerate(b):
                r[i + j] -= f * c
        s, t = self._scale, other._scale
        quot = _new(s.numerator * t.denominator, s.denominator * t.numerator * d, q)
        return quot, _new(s.numerator, s.denominator * d, r[:db])

    def divexact(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise DivisionByZero("inexact polynomial division")
        return q

    def cancel_lead(self, other):
        """(c, self - c*z**k*other) with c = lc(self)/lc(other) and
        k = deg self - deg other >= 0: one division step, which drops the
        degree.  In integers it is lc(b)*a - lc(a)*z**k*b, both leading
        coefficients divided by their gcd, and one content gcd."""
        a, b = self._ints, other._ints
        k = len(a) - len(b)
        g = _igcd(a[-1], b[-1])
        x, y = b[-1] // g, a[-1] // g
        out = [x * c for c in a]
        for j, c in enumerate(b):
            out[k + j] -= y * c
        s, t = self._scale, other._scale
        c = Fraction(s.numerator * t.denominator * y, s.denominator * t.numerator * x)
        return c, _new(s.numerator, s.denominator * x, out)

    def derivative(self):
        s = self._scale
        return _new(s.numerator, s.denominator, [i * c for i, c in enumerate(self._ints)][1:])

    def eval(self, x):
        """Horner evaluation at an exact rational point, homogeneous in integers."""
        x = _coerce(x)
        a, s = self._ints, self._scale
        if not a:
            return Fraction(0)
        q = x.denominator
        return Fraction(s.numerator * _value(a, x.numerator, q), s.denominator * q ** (len(a) - 1))

    def monic(self):
        a = self._ints
        if not a:
            return self
        if a[-1] < 0:
            a = tuple(-c for c in a)
        return _canonical(Fraction(1, a[-1]), a)

    def primitive_int(self):
        """Integer coefficients with content 1, same sign and roots: the
        stored vector."""
        return self._ints


def _canonical(scale, ints):
    """The Poly scale*ints for a positive Fraction and a primitive integer
    tuple with a nonzero last entry (or the empty tuple with scale 1)."""
    p = object.__new__(Poly)
    object.__setattr__(p, "_scale", scale)
    object.__setattr__(p, "_ints", ints)
    return p


def _store(p, num, den, ints):
    """Store (num/den) * ints in p in canonical form, for nonzero integers
    num, den and an integer list; returns p."""
    prim = _int_primitive(ints)
    if prim:
        # the content is the leading entry over the primitive one
        num *= ints[len(prim) - 1] // prim[-1]
        if (num < 0) != (den < 0):
            prim = [-c for c in prim]
        scale = Fraction(abs(num), abs(den))
    else:
        scale = Fraction(1)
    object.__setattr__(p, "_scale", scale)
    object.__setattr__(p, "_ints", tuple(prim))
    return p


def _new(num, den, ints):
    return _store(object.__new__(Poly), num, den, ints)


def _value(coeffs, p, q):
    """q**n * f(p/q) for f of degree n and q > 0, by homogeneous evaluation in integers."""
    if not coeffs:
        return 0
    acc = coeffs[-1]
    qpow = 1
    for i in range(len(coeffs) - 2, -1, -1):
        qpow *= q
        acc = acc * p + coeffs[i] * qpow
    return acc


def _linear_product(factors):
    """Product of (a0 + a1*z)/d over integer triples (a0, a1, d) with
    coprime a0, a1: the integer product of the numerators, primitive by
    Gauss's lemma, over the product of the d."""
    out, den = [1], 1
    for a0, a1, d in factors:
        nxt = [0] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i] += c * a0
            nxt[i + 1] += c * a1
        out, den = nxt, den * d
    return _new(1, den, out)


# ---------------------------------------------------------------------------
# integer polynomials: coefficient lists, lowest degree first


def _int_primitive(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    g = _igcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


ZERO = Poly()
ONE = Poly([1])


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
