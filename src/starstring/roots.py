"""Exact real-root isolation and comparison.

Roots of rational polynomials are located with Sturm sequences computed on
the square-free part, in integer arithmetic with the primitive
pseudo-remainders of ``poly``'s kernel, so coefficient growth stays tame.
This module adds only sign evaluation, Sturm chains and bisection.  Each
root that is not hit exactly comes out as an isolating interval (lo, hi) of
a square-free integer polynomial.

All refinement runs on one integer bisection kernel, ``_bisect``.  It
walks dyadic points y = k/2**e of the interval's own coordinate,
x = lo + (hi - lo)*y, and evaluates the polynomial's sign there
homogeneously in integers, so a bisection step builds no Fraction and
takes no gcd.  A root's k/2**e path depends only on its interval, so the
deepest path found so far serves every later refinement.

A root is classified rational or irrational by bisecting to width at most
1/lc**2 and testing one candidate, the smallest-denominator rational in the
interval (see ``RootVal._classify``).  Irrational roots stay as
(polynomial, isolating interval) pairs that can be refined and compared
without ever guessing a strict inequality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from .errors import DivisionByZero, NotIsolating, RangeError
from .poly import (
    Poly, _int_poly_gcd, _int_primitive, _prem_signed, squarefree_factor, squarefree_part,
)

# ---------------------------------------------------------------------------
# sign evaluation and Sturm chains


def _sign_at(coeffs, x):
    """Sign of the polynomial at the rational x."""
    return _sign_frac(coeffs, x.numerator, x.denominator)


def _sign_frac(coeffs, p, q):
    """Sign of the polynomial at p/q, q > 0, by homogeneous evaluation in integers."""
    if not coeffs:
        return 0
    acc = coeffs[-1]
    qpow = 1
    for i in range(len(coeffs) - 2, -1, -1):
        qpow *= q
        acc = acc * p + coeffs[i] * qpow
    return (acc > 0) - (acc < 0)


def _sturm_chain(coeffs):
    chain = [_int_primitive(coeffs)]
    d = _int_primitive([i * c for i, c in enumerate(chain[0])][1:])
    if d:
        chain.append(d)
    while len(chain[-1]) > 1:
        r, sgn = _prem_signed(chain[-2], chain[-1])
        r = _int_primitive(r)
        if not r:
            break
        if sgn > 0:
            r = [-c for c in r]
        chain.append(r)
    return chain


def _variations(signs):
    signs = [s for s in signs if s]
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def _variations_at(chain, x):
    return _variations([_sign_at(c, x) for c in chain])


def _count_open(chain, lo, hi):
    """Number of distinct roots in the open interval; endpoints must not be roots."""
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def _cauchy_bound(coeffs):
    lead = abs(coeffs[-1])
    m = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    return Fraction(1) + Fraction(m, lead)


# ---------------------------------------------------------------------------
# simplest rational in an open interval


def simplest_in_open(lo, hi):
    """The rational with the smallest denominator in the open interval (lo, hi).

    ``hi=None`` means +infinity.  Stern-Brocot descent on the continued
    fraction of the endpoints, run as a loop over integer numerators and
    denominators and folded back once at the end.
    """
    ln, ld = lo.numerator, lo.denominator
    hn, hd = (None, None) if hi is None else (hi.numerator, hi.denominator)
    terms = []
    while True:
        fl = ln // ld
        if hn is None or (fl + 1) * hd < hn:
            break
        terms.append(fl)
        # (lo, hi) <- (1/(hi - fl), 1/(lo - fl)), the latter +infinity at lo == fl
        rest = ln - fl * ld
        ln, ld, hn, hd = hd, hn - fl * hd, (ld if rest else None), rest
    p, q = fl + 1, 1
    for fl in reversed(terms):
        p, q = fl * p + q, p
    return Fraction(p, q)


# ---------------------------------------------------------------------------
# the integer bisection kernel


def _frame(lo, hi):
    """Integers (u, v, den) with x = (u + v*y)/den mapping y in [0, 1] onto [lo, hi]."""
    a, b = lo.numerator, lo.denominator
    c, d = hi.numerator, hi.denominator
    return a * d, c * b - a * d, b * d


def _bisect(ints, frame, left, k, e, depth):
    """Bisect the root in [k/2**e, (k+1)/2**e] of the frame's y down to level ``depth``.

    ``ints`` is square-free with exactly one root in the interval and sign
    ``left`` at y = 0, which every left end keeps.  The point y = k/2**e is
    x = (u*2**e + v*k)/(den*2**e), evaluated in integers.  Returns
    (k, depth, False) for the interval [k/2**depth, (k+1)/2**depth], or
    (m, e, True) when the midpoint m/2**e is the root itself.
    """
    u, v, den = frame
    while e < depth:
        k, e = 2 * k + 1, e + 1
        s = _sign_frac(ints, (u << e) + v * k, den << e)
        if s == 0:
            return k, e, True
        if s != left:
            k -= 1
    return k, e, False


def _depth_for(num, den):
    """Smallest e >= 0 with num/den <= 2**e, for positive integers."""
    e = max(0, num.bit_length() - den.bit_length())
    while num > den << e:
        e += 1
    return e


def _check_width(width):
    if width <= 0:
        raise RangeError(f"refinement width must be > 0, got {width}")


# ---------------------------------------------------------------------------
# algebraic reals


def _cmp(a, b):
    return (a > b) - (a < b)


class RootVal:
    """One real algebraic number, exactly.

    Either a rational (``rat`` set) or the unique root of a square-free
    integer polynomial inside an isolating interval with a strict sign
    change at the endpoints.  ``compare`` is exact: equality is decided
    through polynomial gcds, order through interval refinement.

    ``lo``/``hi`` are the current interval: the isolating interval
    bisected ``_depth`` times.  ``_path`` = (k, e) is the deepest bisection
    level computed so far, in the coordinate y of ``_frame``; every
    shallower level is a prefix of it.  ``_left``, the sign at y = 0, is
    found on the first bisection, so roots never refined pay nothing.
    """

    __slots__ = ("rat", "ints", "lo", "hi", "_frame", "_left", "_path", "_depth")

    def __init__(self, rat=None, ints=None, lo=None, hi=None):
        self.rat = rat
        self.ints = ints
        self.lo = lo
        self.hi = hi
        self._frame = None if rat is not None else _frame(lo, hi)
        self._left = None
        self._path = (0, 0)
        self._depth = 0

    @staticmethod
    def rational(value):
        return RootVal(rat=Fraction(value))

    @property
    def is_rational(self):
        return self.rat is not None

    def bounds(self):
        """Current enclosing interval (degenerate for rationals)."""
        if self.rat is not None:
            return self.rat, self.rat
        return self.lo, self.hi

    def _point(self, k, e):
        """The point y = k/2**e of the isolating interval, as x."""
        u, v, den = self._frame
        return Fraction((u << e) + v * k, den << e)

    def _extend(self, depth):
        """Extend the bisection path to ``depth``; False if it hit the root exactly.

        On a hit the root becomes the rational it is.
        """
        k, e = self._path
        if e >= depth:
            return True
        if self._left is None:
            u, _, den = self._frame
            self._left = _sign_frac(self.ints, u, den)
        k, e, exact = _bisect(self.ints, self._frame, self._left, k, e, depth)
        if exact:
            self.rat = self.lo = self.hi = self._point(k, e)
            return False
        self._path = (k, e)
        return True

    def _descend(self, depth):
        """Make the current interval the isolating interval's level-``depth`` bisection."""
        if self.rat is None and self._extend(depth):
            k, e = self._path
            k >>= e - depth
            # an endpoint the descent keeps is not rebuilt
            steps = depth - self._depth
            was = k >> steps
            if k != was << steps:
                self.lo = self._point(k, depth)
            if k + 1 != (was + 1) << steps:
                self.hi = self._point(k + 1, depth)
            self._depth = depth

    def _refine_once(self):
        self._descend(self._depth + 1)

    def _classify(self):
        """Decide whether the root is rational; if it is, become that rational.

        Any rational root p/q of the integer polynomial has q | lc, so
        q <= |lc|.  Two distinct rationals with denominators <= |lc| lie at
        least 1/lc**2 apart, so once the path reaches an interval of width
        <= 1/lc**2, the root and the interval's smallest-denominator
        rational, both strictly inside it, coincide if the root is rational
        at all.  One exact evaluation of that candidate then decides.  The
        current interval is left as it was.
        """
        bound = abs(self.ints[-1])
        _, v, den = self._frame
        if not self._extend(_depth_for(v * bound * bound, den)):
            return
        k, e = self._path
        cand = simplest_in_open(self._point(k, e), self._point(k + 1, e))
        if cand.denominator <= bound and _sign_at(self.ints, cand) == 0:
            self.rat = self.lo = self.hi = cand

    def refine_to_width(self, width):
        _check_width(width)
        if self.rat is None:
            _, v, den = self._frame
            depth = _depth_for(v * width.denominator, den * width.numerator)
            if depth > self._depth:
                self._descend(depth)

    def _compare_rational(self, r):
        if self.rat is not None:
            return _cmp(self.rat, r)
        if self.lo < r < self.hi and _sign_at(self.ints, r) == 0:
            return 0
        while self.lo < r < self.hi:
            self._refine_once()
        return 1 if r <= self.lo else -1

    def compare(self, other):
        if not isinstance(other, RootVal):
            other = RootVal.rational(other)
        if other.rat is not None:
            return self._compare_rational(other.rat)
        if self.rat is not None:
            return -other._compare_rational(self.rat)
        if self.hi <= other.lo:
            return -1
        if other.hi <= self.lo:
            return 1
        gi = _int_poly_gcd(self.ints, other.ints)
        if len(gi) > 1:
            a, b = max(self.lo, other.lo), min(self.hi, other.hi)
            if a < b:
                chain = _sturm_chain(gi)
                if _sign_at(gi, a) != 0 and _sign_at(gi, b) != 0 and _count_open(chain, a, b) >= 1:
                    return 0
        while True:
            self._refine_once()
            other._refine_once()
            if self.hi <= other.lo:
                return -1
            if other.hi <= self.lo:
                return 1

    def __repr__(self):
        if self.rat is not None:
            return f"RootVal({self.rat})"
        return f"RootVal({self.lo}..{self.hi})"


def sort_rootvals(pairs):
    """Sort (RootVal, payload) pairs ascending by exact comparison."""
    return sorted(pairs, key=cmp_to_key(lambda a, b: a[0].compare(b[0])))


# ---------------------------------------------------------------------------
# isolation


def _isolate_squarefree(ints, lo, hi):
    """Isolate all roots of a square-free integer polynomial in open (lo, hi).

    Endpoints must not be roots.  Yields exact rationals and isolating
    intervals, ascending.
    """
    chain = _sturm_chain(ints)
    out = []
    stack = [(lo, hi, _variations_at(chain, lo), _variations_at(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        if _sign_at(ints, mid) == 0:
            eps = (b - a) / 4
            while True:
                left, right = mid - eps, mid + eps
                if (
                    left > a
                    and right < b
                    and _sign_at(ints, left) != 0
                    and _sign_at(ints, right) != 0
                ):
                    vl = _variations_at(chain, left)
                    vr = _variations_at(chain, right)
                    if vl - vr == 1:
                        break
                eps /= 2
            out.append((mid, mid))
            stack.append((a, left, va, vl))
            stack.append((right, b, vr, vb))
        else:
            vm = _variations_at(chain, mid)
            stack.append((a, mid, va, vm))
            stack.append((mid, b, vm, vb))
    out.sort(key=lambda t: t[0])
    return out


def isolate_real_roots(p, lo=Fraction(0), hi=None, classify_rational=True):
    """All real roots of p in the open interval (lo, hi), with multiplicity.

    ``lo``/``hi`` may be None for the unbounded side.  Rational roots come
    back exact; irrational ones as refinable isolating intervals.  Returns
    a list of (RootVal, multiplicity) sorted ascending.

    ``classify_rational=False`` skips the exact rational-root extraction,
    leaving every root in interval form; comparisons stay exact either way,
    so order/equality checks that never need the literal rational value can
    avoid the (potentially long) irrationality certification.
    """
    if p.is_zero:
        raise DivisionByZero("root isolation of the zero polynomial")
    found = []
    for factor, mult in squarefree_factor(p):
        ints = factor.primitive_int()[0]
        if len(ints) <= 1:
            continue
        bound = _cauchy_bound(ints) + 1
        a = -bound if lo is None else max(lo, -bound)
        b = bound if hi is None else min(hi, bound)
        if not a < b:
            continue
        f = factor
        # open interval: roots sitting exactly on an endpoint are excluded,
        # and Sturm evaluation needs non-root endpoints
        while _sign_at(ints, a) == 0:
            f = f.divexact(Poly([-a, 1]))
            ints = f.primitive_int()[0]
            if len(ints) <= 1:
                break
        if len(ints) <= 1:
            continue
        while _sign_at(ints, b) == 0:
            f = f.divexact(Poly([-b, 1]))
            ints = f.primitive_int()[0]
            if len(ints) <= 1:
                break
        if len(ints) <= 1:
            continue
        for item in _isolate_squarefree(ints, a, b):
            ilo, ihi = item
            if ilo == ihi:
                found.append((RootVal.rational(ilo), mult))
                continue
            rv = RootVal(ints=ints, lo=ilo, hi=ihi)
            if classify_rational:
                rv._classify()
            found.append((rv, mult))
    return sort_rootvals(found)


def refine_root(p, interval, width):
    """Bisect an isolating interval of p's square-free part down to ``width``.

    Collapses to a degenerate (r, r) interval when an exact rational root is
    hit.  Raises NotIsolating when the endpoint signs do not bracket a root,
    and RangeError unless ``width`` > 0.
    """
    _check_width(width)
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    part = squarefree_part(p)
    ints = part.primitive_int()[0]
    s_lo, s_hi = _sign_at(ints, lo), _sign_at(ints, hi)
    if s_lo == 0:
        return lo, lo
    if s_hi == 0:
        return hi, hi
    if s_lo * s_hi > 0:
        raise NotIsolating(f"no sign change of the square-free part on ({lo}, {hi})")
    rv = RootVal(ints=ints, lo=lo, hi=hi)
    rv.refine_to_width(width)
    return rv.bounds()
