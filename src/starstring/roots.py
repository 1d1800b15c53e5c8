"""Exact real-root isolation and comparison.

Roots are isolated on each square-free factor, certificate first.  Floats
propose all n roots (Laguerre's method with deflation, ``_proposals``),
and each proposal's cell on a shallow dyadic level of the start interval
is kept when exact integer signs at its ends differ (``_certify``); one
that misses its cell is corrected by exact Newton steps.  n such cells
hold one root each, so the Sturm leaves can be read off the cells'
indices.  Floats only choose where to look and exact signs decide, so the
leaves are those of the tree below.  The characteristic polynomials of
the paper's pencils are real-rooted; on seeded star graphs the
certificate proves every factor up to 13 masses, about four in five up to
33 and one in three at 40, where float evaluation of the monomial form
loses the roots' order.

Where the certificate proves nothing (a proposal that is not finite,
ascending and inside the interval, a root on a grid point, fewer proven
cells than roots), roots are isolated by Descartes bisection in
integers (G. E. Collins and A. G. Akritas, SYMSAC 1976; F. Rouillier and
P. Zimmermann, J. Comput. Appl. Math. 162(1), 2004).  The start interval
maps onto y in [0, 1], and a dyadic cell with polynomial h on [0, 1] holds
at most as many roots as the reversed h shifted by 1 has sign variations,
exactly that many when 0 or 1; a cell with more splits into 2**n * h(y/2)
and that shifted by 1.  Summed leaf counts give every cell's exact count,
so the intervals returned are those of Sturm bisection on the same tree:
the first cell of count 1 on each root's path.  A rational root at the
midpoint of a cell with more roots becomes (mid, mid), with neighbours
rebuilt from Descartes counts next to it, and both sides start afresh.

Refinement runs on one integer kernel, ``_bisect``, which bisects at
dyadic points y = k/2**e of an isolating interval and evaluates there
homogeneously in integers (``poly._value``).  A deep descent tries exact
Newton steps from a float guess on grids of doubling depth (``_seed``),
starting at the root's proposal when the certificate proved it,
with bisection as the fallback (after M. Sagraloff and K. Mehlhorn,
J. Symb. Comput. 73, 2016).  Floats only propose and exact signs decide,
so a root's cell at each depth is the one bisection finds, and the
deepest cell found so far serves every later refinement.

Rational roots are found once per square-free factor by p-adic lifting
(``_rational_roots``), and the isolating interval holding each becomes
that rational.  Irrational roots stay as (polynomial, isolating interval)
pairs that are refined and compared without guessing a strict inequality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import ceil, inf, isqrt, log2, sqrt

from .errors import DivisionByZero, RangeError
from .poly import Poly, _int_poly_gcd, _value, squarefree_factor
from .rational import format_rational

# ---------------------------------------------------------------------------
# evaluation


def _sign_at(coeffs, x):
    """Sign of the polynomial at the rational x."""
    val = _value(coeffs, x.numerator, x.denominator)
    return (val > 0) - (val < 0)


def _cauchy_bound(coeffs):
    lead = abs(coeffs[-1])
    m = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    return Fraction(1) + Fraction(m, lead)


# ---------------------------------------------------------------------------
# the integer refinement kernel


def _frame(lo, hi):
    """Integers (u, v, den) with x = (u + v*y)/den mapping y in [0, 1] onto [lo, hi]."""
    a, b = lo.numerator, lo.denominator
    c, d = hi.numerator, hi.denominator
    return a * d, c * b - a * d, b * d


def _point(frame, k, e):
    """The point y = k/2**e of the frame, as x."""
    u, v, den = frame
    return Fraction((u << e) + v * k, den << e)


def _floats(ints):
    """The coefficients as floats, highest degree first, scaled by a power
    of 2 into float range."""
    shift = max(0, max(c.bit_length() for c in ints) - 960)
    return [c / (1 << shift) for c in reversed(ints)]


def _guess(ints, lo, hi):
    """A float near the root of ``ints`` in the float cell [lo, hi]: Newton
    steps inside the bracket the signs keep, bisecting when a step leaves it
    or is not half the one before last (rtsafe, Numerical Recipes 9.4)."""
    fc = _floats(ints)

    def newton(x):
        f = d = 0.0
        for c in fc:
            f, d = f * x + c, d * x + f
        return f, d

    below, x = newton(lo)[0] < 0, (lo + hi) / 2
    older = old = hi - lo
    for _ in range(100):
        f, d = newton(x)
        if f == 0:
            return x
        lo, hi = (x, hi) if (f < 0) == below else (lo, x)
        step = x - f / d if d else lo
        if not lo < step < hi or 2 * abs(step - x) > older:
            step = (lo + hi) / 2
        if abs(step - x) <= abs(x) * 2 ** -44 or step == x:
            return step
        older, old, x = old, abs(step - x), step
    return x


def _seed(ints, frame, k, e, depth, at, guess=None):
    """The root's level-``depth`` path by exact Newton steps in the cell
    (k, e), or None.

    The steps start at the grid point of ``guess``, the float the root was
    proposed at, when it lies strictly between the cell's float ends, else
    at that of ``_guess``; at the cell's left end when that is not a finite
    float inside the cell or the floats cannot tell the cell's ends apart.
    Each step is floored to a grid: the first of level min(depth, e + 96),
    each next one twice as deep below e, up to ``depth``, where the step
    repeats until the cell under it has a strict sign change or a zero at
    an end.  An iterate outside (k, e), a zero derivative, or
    2 * depth.bit_length() steps without a proof give None.
    """
    u, v, den = frame
    level = min(depth, e + 96)
    m = k << level - e
    try:
        lo, hi = ((u << e) + v * k) / (den << e), ((u << e) + v * (k + 1)) / (den << e)
        if lo < hi:
            x = guess if guess is not None and lo < guess < hi else _guess(ints, lo, hi)
            p, q = x.as_integer_ratio()
            if (g := ((p * den - u * q) << level) // (v * q)) >> level - e == k:
                m = g
    except (OverflowError, ValueError):
        pass
    deriv = [i * c for i, c in enumerate(ints)][1:]
    fm = fr = None
    for _ in range(2 * depth.bit_length()):
        x, w = (u << level) + v * m, den << level
        if fm is None:
            fm = _value(ints, x, w)
        dm = _value(deriv, x, w) * v
        if not dm:
            return None
        # a step that stays in a cell the signs refuted goes on to the next
        step = -fm // dm or (fr is not None)
        if (m := m + step) >> level - e != k:
            return None
        if level < depth:
            deeper = min(depth, 2 * level - e)
            m, level, fm = m << deeper - level, deeper, None
            continue
        fm, fr = at(m, depth), at(m + 1, depth)
        if not fm or not fr:
            return (m + 1 if fm else m), depth, 0
        if (fm > 0) != (fr > 0):
            return m, depth, 1 if fm > 0 else -1
    return None


def _bisect(ints, frame, path, depth, guess=None):
    """Refine the root's cell of the frame's y down to level ``depth``.

    ``path`` = (k, e, s) is the cell [k/2**e, (k+1)/2**e], which holds the
    one root of the square-free ``ints`` strictly inside, and the sign s of
    f at its left end (None until needed), the same in every cell on the
    path.  The point y = k/2**e is x = (u*2**e + v*k)/(den*2**e), evaluated
    in integers.  Each level evaluates the midpoint and keeps the half with
    the sign change.  While more than 8 levels are left, ``_seed`` is tried,
    from ``guess`` when given, first and again after every 8 levels; it
    returns only a cell that exact signs at its ends prove, so the result is
    what plain bisection gives: the level-``depth`` path, or (m, e, 0) when
    m/2**e is the root itself.
    """
    u, v, den = frame
    k, e, s = path

    def at(m, level):
        return _value(ints, (u << level) + v * m, den << level)

    start = e
    while e < depth:
        if depth - e > 8 and (e - start) % 8 == 0 and (seeded := _seed(ints, frame, k, e, depth, at, guess)):
            return seeded
        if s is None:
            s = 1 if at(k, e) > 0 else -1
        fm = at(2 * k + 1, e + 1)
        if fm == 0:
            return 2 * k + 1, e + 1, 0
        k, e = 2 * k + ((fm > 0) == (s > 0)), e + 1
    return k, e, s


# ---------------------------------------------------------------------------
# algebraic reals


class RootVal:
    """One real algebraic number, exactly.

    Either a rational (``rat`` set) or the unique root of a square-free
    integer polynomial inside an isolating interval with a strict sign
    change at the endpoints.  ``compare`` is exact: equality is decided
    through polynomial gcds, order through interval refinement.

    ``lo``/``hi`` are the current interval: the isolating interval's cell
    ``_path`` = (k, e, s) of the coordinate y of ``_frame``, with the sign
    of the polynomial at the cell's left end as ``_bisect`` keeps it.  The
    sign is found on the first refinement, so roots never refined pay
    nothing, and a one-level refinement costs one evaluation.  ``guess`` is
    the float isolation proposed the root at, if any; ``_seed`` starts there.
    """

    __slots__ = ("rat", "ints", "lo", "hi", "guess", "_frame", "_path")

    def __init__(self, rat=None, ints=None, lo=None, hi=None, guess=None):
        self.rat = rat
        self.ints = ints
        self.lo = lo
        self.hi = hi
        self.guess = guess
        self._frame = None if rat is not None else _frame(lo, hi)
        self._path = (0, 0, None)

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

    def _descend(self, depth):
        """Make the current interval the isolating interval's level-``depth`` cell.

        If refinement hits the root exactly, the root becomes the rational it is.
        """
        was, e = self._path[:2]
        if self.rat is not None or e >= depth:
            return
        path = _bisect(self.ints, self._frame, self._path, depth, self.guess)
        k = path[0]
        if path[2] == 0:
            self.rat = self.lo = self.hi = _point(self._frame, k, path[1])
            return
        self._path = path
        # an endpoint the descent keeps is not rebuilt
        steps = depth - e
        if k != was << steps:
            self.lo = _point(self._frame, k, depth)
        if k + 1 != (was + 1) << steps:
            self.hi = _point(self._frame, k + 1, depth)

    def _refine_once(self):
        self._descend(self._path[1] + 1)

    def refine_to_width(self, width):
        if width <= 0:
            raise RangeError(f"refinement width must be > 0, got {format_rational(width)}")
        if self.rat is None:
            # the least depth e >= 0 with (hi - lo)/2**e <= width
            _, v, den = self._frame
            self._descend((-(-v * width.denominator // (den * width.numerator)) - 1).bit_length())

    def _compare_rational(self, r):
        if self.rat is not None:
            return (self.rat > r) - (self.rat < r)
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
            # gi divides a square-free polynomial with one root in (a, b), so
            # a sign change there (nonzero at both ends) is the common root
            if a < b and _sign_at(gi, a) * _sign_at(gi, b) < 0:
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
# rational roots


def _mod_value(coeffs, x, m):
    """f(x) mod m, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _rational_roots(ints):
    """All rational roots of a square-free integer polynomial, by p-adic lifting.

    After R. Loos, SIAM J. Comput. 12(2), 1983.  Once the root 0 is split
    off, a root a/b in lowest terms has a | a0 and b | lc.  Modulo the
    smallest prime p that divides neither lc nor f'(r) at any root r of f
    mod p, a/b reduces to one of those simple roots, and Newton's iteration
    lifts each to a modulus m > 2*|a0|*|lc|.  There a/b is the only
    fraction with |a| <= |a0| and 0 < b <= |lc| congruent to the lift, and
    the extended Euclidean algorithm on (m, lift) finds it.  Exact
    evaluation keeps the candidates that are roots.
    """
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        ints = ints[1:]
    if len(ints) < 2:
        return roots
    deriv = [i * c for i, c in enumerate(ints)][1:]
    a0, lc = abs(ints[0]), abs(ints[-1])
    p = 1
    while True:
        p += 1
        if lc % p == 0 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            continue
        reduced = [c % p for c in ints]
        simple = [r for r in range(p) if _mod_value(reduced, r, p) == 0]
        if all(_mod_value(deriv, r, p) for r in simple):
            break
    for r in simple:
        m = p
        while m <= 2 * a0 * lc:
            m *= m
            r = (r - _mod_value(ints, r, m) * pow(_mod_value(deriv, r, m), -1, m)) % m
        # Euclid on (m, r), stopped at the first remainder <= a0, gives a = b*r mod m
        r0, r1, t0, t1 = m, r, 0, 1
        while r1 > a0:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        a, b = (r1, t1) if t1 > 0 else (-r1, -t1)
        if b <= lc and _value(ints, a, b) == 0:
            roots.append(Fraction(a, b))
    return roots


# ---------------------------------------------------------------------------
# isolation


def _shift(h):
    """h(y + 1), by Taylor shift in integers."""
    a = list(h)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _variations(h):
    """Descartes' bound on the roots of h in (0, 1), exact when 0 or 1 and
    capped at 2: the sign variations of the reversed h shifted by 1.  A pass
    of the shift finishes one coefficient, so the count stops at the second
    variation; coefficients of one sign need no shift."""
    if min(h) >= 0 or max(h) <= 0:
        return 0
    a, n = h[::-1], len(h) - 1
    var = last = 0
    for i in range(n + 1):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
        if a[i] and last and (a[i] < 0) != (last < 0):
            var += 1
            if var == 2:
                return 2
        last = a[i] or last
    return var


def _tree(ints, lo, hi):
    """Descartes bisection of (lo, hi) for ``ints`` down to bounds of 0 or 1:
    the frame, the cells (k, e, h) of [k/2**e, (k+1)/2**e] of its y with h
    on [0, 1] (den**n * f((u + v*y)/den) at the top, then 2**n * h(y/2) and
    that shifted by 1), the (left, right, midpoint is a root) of each split
    cell, and each cell's exact root count in the open cell, summed up."""
    u, v, den = frame = _frame(lo, hi)
    h, dpow, n = [ints[-1]], 1, len(ints) - 1
    for c in reversed(ints[:-1]):
        dpow *= den
        h = [u * a + v * b for a, b in zip(h + [0], [0] + h)]
        h[0] += c * dpow
    cells, kids, counts = [(0, 0, h)], {}, []
    for i, (k, e, h) in enumerate(cells):  # the loop visits the cells it appends
        counts.append(_variations(h))
        if counts[i] > 1:
            left = [c << n - j for j, c in enumerate(h)]
            right = _shift(left)
            kids[i] = (len(cells), len(cells) + 1, right[0] == 0)
            cells += [(2 * k, e + 1, left), (2 * k + 1, e + 1, right)]
    for i in sorted(kids, reverse=True):
        counts[i] = counts[kids[i][0]] + counts[kids[i][1]] + kids[i][2]
    return frame, cells, kids, counts


def _isolate_squarefree(ints, lo, hi):
    """The roots of a square-free integer polynomial in open (lo, hi), whose
    ends are not roots, as exact rationals (r, r) and isolating intervals,
    ascending: the leaves of Sturm bisection, which splits a cell only
    while it holds two or more roots."""
    out, todo = [], [(lo, hi)]
    while todo:
        frame, cells, kids, counts = _tree(ints, *todo.pop())
        stack = [0]
        while stack:
            i = stack.pop()
            if counts[i] > 1 and not kids[i][2]:
                stack += kids[i][:2]
            elif counts[i]:
                k, e, _ = cells[i]
                a, b = _point(frame, k, e), _point(frame, k + 1, e)
                if counts[i] == 1:
                    out.append((a, b))
                    continue
                # a root at the midpoint: its neighbours mid -+ eps enclose no other
                mid, eps = (a + b) / 2, (b - a) / 4
                while not (_sign_at(ints, mid - eps) and _sign_at(ints, mid + eps)
                           and _tree(ints, mid - eps, mid + eps)[3][0] == 1):
                    eps /= 2
                out.append((mid, mid))
                todo += [(a, mid - eps), (mid + eps, b)]
    out.sort(key=lambda t: t[0])
    return out


def _proposals(ints, start):
    """Floats near all n roots of ``ints``, ascending on a real-rooted
    polynomial.

    Laguerre's method from ``start``, then from each root found, on the
    polynomial with the roots found so far divided out: from left of all
    its roots a real-rooted polynomial's Laguerre iterates rise to its
    least root.  They stop once a step is 2**-32 of the iterate or less, no
    shorter than the one before (the float noise), or not a number.
    Removing the least root first keeps forward deflation stable at desk
    degrees; past about 33 masses float evaluation itself loses the roots'
    leading digits, and the exact signs in ``_certify`` find out.  Float
    errors raise.
    """
    q, x, out = _floats(ints), start, []
    while len(q) > 1:
        m, last = len(q) - 1, inf
        for _ in range(60):
            f = d = h = 0.0
            for c in q:
                h, d, f = h * x + d, d * x + f, f * x + c
            if not f:
                break
            g = d / f
            # (m - 1)(m*H - G**2), H = G**2 - f''/f, is >= 0 on a real-rooted q
            root = sqrt(max((m - 1) * (m * (g * g - 2 * h / f) - g * g), 0.0))
            step = m / (g + root if g > 0 else g - root)
            x -= step
            if not abs(step) > abs(x) * 2 ** -32 or abs(step) >= last:
                break
            last = abs(step)
        out.append(x)
        deflated = [q[0]]
        for c in q[1:-1]:
            deflated.append(c + x * deflated[-1])
        q = deflated
    return out


def _certify(ints, a, b):
    """The Sturm leaves of (a, b) for a square-free ``ints`` whose roots all
    lie in (a, b), each with the float its root was proposed at; or None.

    ``_proposals`` proposes the n roots.  Each one's cell is taken on the
    level of the frame of (a, b) where the closest two proposals lie 4 to 8
    cells apart, and kept when exact signs at its ends differ and are
    nonzero; one that misses its cell is corrected by ``_seed``.  n
    distinct cells with a sign change hold one root each, as n is the
    degree, and no root lies on a grid point of that level or above.  So a
    cell of a coarser level holds the roots whose cell indices share its
    bits, and the Sturm leaf of a root is its cell at the first level where
    its index differs from both neighbours'.  Proposals that are not finite,
    ascending and inside (a, b), a zero sign, or fewer than n cells give
    None, and ``_isolate_squarefree`` runs instead.
    """
    u, v, den = frame = _frame(a, b)
    try:
        fa, fb = float(a), float(b)
        xs = _proposals(ints, fa)
        if not all(x < y for x, y in zip([fa, *xs], [*xs, fb])):
            return None
        gap = min((y - x for x, y in zip(xs, xs[1:])), default=fb - fa)
        level = max(0, ceil(log2((fb - fa) / gap))) + 2
    except (ArithmeticError, ValueError):
        return None
    values = {}

    def at(m, _):  # f at grid points of the one level _seed is asked about
        if m not in values:
            values[m] = _value(ints, (u << level) + v * m, den << level)
        return values[m]

    cells = []
    for x in xs:
        p, q = x.as_integer_ratio()
        k = ((p * den - u * q) << level) // (v * q)
        if not 0 <= k < 1 << level or not at(k, level) or not at(k + 1, level):
            return None
        if (at(k, level) > 0) == (at(k + 1, level) > 0):
            seeded = _seed(ints, frame, 0, 0, level, at, x)
            if not seeded or not seeded[2]:
                return None
            k = seeded[0]
        if cells and k <= cells[-1]:
            return None
        cells.append(k)
    out = []
    for i, (c, x) in enumerate(zip(cells, xs)):
        e = max([0] + [level + 1 - (c ^ d).bit_length() for d in cells[max(0, i - 1):i + 2] if d != c])
        k = c >> level - e
        out.append((_point(frame, k, e), _point(frame, k + 1, e), x))
    return out


def isolate_real_roots(p, lo=Fraction(0), hi=None, classify_rational=True):
    """All real roots of p in the open interval (lo, hi), with multiplicity.

    ``lo``/``hi`` may be None for the unbounded side.  Rational roots come
    back exact: each square-free factor's rational roots are found in one
    ``_rational_roots`` call, and the isolating interval holding one becomes
    that rational.  Irrational roots come back as refinable isolating
    intervals.  Returns a list of (RootVal, multiplicity) sorted ascending.

    ``classify_rational=False`` skips that search, leaving in interval form
    every root that isolation does not hit exactly; comparisons stay exact
    either way, so order/equality checks that never need the literal
    rational value need not pay for it.
    """
    if p.is_zero:
        raise DivisionByZero("root isolation of the zero polynomial")
    found = []
    for factor, mult in squarefree_factor(p):
        ints = factor.primitive_int()
        bound = _cauchy_bound(ints) + 1
        a = -bound if lo is None else max(lo, -bound)
        b = bound if hi is None else min(hi, bound)
        if not a < b:
            continue
        # open interval: a root sitting exactly on an endpoint is excluded,
        # and isolation needs non-root endpoints; the square-free
        # factor has at most one root at each
        for end in (a, b):
            if _sign_at(ints, end) == 0:
                factor = factor.divexact(Poly([-end, 1]))
                ints = factor.primitive_int()
        if len(ints) <= 1:
            continue
        rationals = _rational_roots(ints) if classify_rational else []
        leaves = _certify(ints, a, b)
        if leaves is None:
            leaves = [(ilo, ihi, None) for ilo, ihi in _isolate_squarefree(ints, a, b)]
        for ilo, ihi, guess in leaves:
            rat = ilo if ilo == ihi else next((r for r in rationals if ilo < r < ihi), None)
            rv = RootVal(ints=ints, lo=ilo, hi=ihi, guess=guess) if rat is None else RootVal.rational(rat)
            found.append((rv, mult))
    return sort_rootvals(found)
