"""Star-patterned stiffness/mass pencil of the centre-rooted Neumann problem.

With a positive central mass the Neumann problem is the generalized
eigenvalue problem for the pencil (L, M): M is the diagonal mass matrix
ordered centre first, then each edge's masses walking outward from the
centre; L is the symmetric star-patterned stiffness matrix whose only
off-diagonal entries couple chain neighbours and the centre row to each
edge's innermost mass.  Working with the pencil instead of the
mass-normalized matrix keeps every entry rational; the spectra agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm as _ilcm, prod

from .errors import InvariantViolation, RequiresPositiveCentralMass
from .model import Root
from .poly import Poly, _convolve
from .rational import format_rational
from .roots import isolate_real_roots


@dataclass(frozen=True)
class RationalMatrix:
    """A square matrix of Fractions: its ``diagonal`` and, off the diagonal,
    its nonzero ``pattern``.

    ``pattern`` holds (i, j, L[i][j]) for every nonzero entry off the
    diagonal, in strictly increasing (i, j) order, so equal values are equal
    matrices; every entry it does not name off the diagonal is zero.
    """

    diagonal: tuple
    pattern: tuple

    def __post_init__(self):
        n = len(self.diagonal)
        last = (-1, -1)
        for i, j, c in self.pattern:
            if not (c and i != j and 0 <= i < n and 0 <= j < n and (i, j) > last):
                raise InvariantViolation(f"pattern entry ({i}, {j}) must be nonzero, off the "
                                         "diagonal, in range and after the entry before it")
            last = (i, j)

    @property
    def dim(self):
        return len(self.diagonal)

    def to_json(self):
        n = self.dim
        out = [["0"] * n for _ in range(n)]
        for i, c in enumerate(self.diagonal):
            if c:
                out[i][i] = format_rational(c)
        for i, j, c in self.pattern:
            out[i][j] = format_rational(c)
        return out


def build_pencil(graph):
    """(L, M_diag) of a centre-rooted graph with positive central mass.

    Ordering: centre first, then edge by edge, each edge's masses from the
    innermost (centre-adjacent) outward.
    """
    if graph.root is not Root.CENTER:
        raise InvariantViolation("pencil is defined for centre-rooted graphs")
    if graph.central_mass <= 0:
        raise RequiresPositiveCentralMass("pencil needs a positive central mass")
    diag, stiff = [graph.central_mass], [Fraction(0)]  # M's and L's diagonals
    off = [[]]  # (j, L[i][j]) off the diagonal of row i, j ascending
    for e in graph.edges:
        w = [1 / l for l in e.lengths]  # the spring constants, centre outward
        stiff[0] += w[0]
        prev = 0  # the chain walks outward from the centre, so prev < v
        for i, m in enumerate(e.masses):
            v, c = len(diag), -w[i]
            diag.append(m)
            stiff.append(w[i] + w[i + 1])
            off[prev].append((v, c))
            off.append([(prev, c)])
            prev = v
    pattern = tuple((i, j, c) for i, row in enumerate(off) for j, c in row)
    return RationalMatrix(tuple(stiff), pattern), tuple(diag)


def pencil_det(L, mass_diag):
    """(det(L - z*M), the same without row and column 0), exact polynomials
    from one elimination on L's pattern.

    The pattern of L is the graph joining i and j when L[i][j] or L[j][i]
    is nonzero (i != j).  It must be a forest, as it is for a star pencil
    and for its principal submatrix, a forest of chains; otherwise this
    raises InvariantViolation, as it does for an empty L.  Each tree is
    rooted at its lowest index and eliminated from the leaves up: a vertex
    v with children c has

        Q_v = prod_c P_c,
        P_v = (L_vv - z*m_v)*Q_v - sum_c L_vc*L_cv*Q_c*prod_{c' != c} P_c',

    the determinants of v's subtree without and with v.  The determinant is
    the product of P over the roots; vertex 0 is a root, so the submatrix
    determinant is Q_0 times the P of the other roots, and for a star
    pencil Q_0 alone.  On a chain this is the three-term continuant, at
    the centre the Schur complement; it takes O(n^2) coefficient operations.

    The elimination runs on integer coefficient vectors: row v of L - z*M
    is scaled by its own D_v, the lcm of the denominators in the row and of
    m_v (a fraction-free elimination in the sense of Bareiss, Math. Comp.
    22, 1968).  That multiplies the determinant by prod D and the submatrix
    determinant by prod_{v >= 1} D_v, so each becomes a Poly once, with the
    one rational scale that divides these out.
    """
    d = L.diagonal
    n = L.dim
    if n == 0:
        raise InvariantViolation("an empty pencil has no row 0")
    # nbrs[i][j] = L[i][j] for each neighbour j of i: zero where only L[j][i] is not
    nbrs = [{} for _ in range(n)]
    den = [_ilcm(d[v].denominator, mass_diag[v].denominator) for v in range(n)]
    for i, j, c in L.pattern:
        nbrs[i][j] = c
        nbrs[j].setdefault(i, 0)
        den[i] = _ilcm(den[i], c.denominator)
    parent = [None] * n
    order = []  # preorder: every vertex after its parent
    for root in range(n):
        if parent[root] is not None:
            continue
        parent[root] = -1
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for c in nbrs[v]:
                if c == parent[v]:
                    continue
                if parent[c] is not None:
                    raise InvariantViolation("pencil pattern is not a forest")
                parent[c] = v
                stack.append(c)
    # p[v], q[v] fold in v's children one at a time; final once v is reached
    p = [[_scaled(d[v], den[v]), -_scaled(mass_diag[v], den[v])] for v in range(n)]
    q = [[1]] * n
    others = [1]  # the P of every root but 0
    for c in reversed(order):
        v = parent[c]
        if v < 0:
            if c > 0:
                others = _convolve(others, p[c])
            continue
        pv = _convolve(p[v], p[c])
        if k := _scaled(nbrs[v][c], den[v]) * _scaled(nbrs[c][v], den[c]):
            for i, x in enumerate(_convolve(q[c], q[v])):
                pv[i] -= k * x
        p[v] = pv
        q[v] = _convolve(q[v], p[c])
    total = prod(den)
    return (Poly.from_ints(_convolve(p[0], others), total),
            Poly.from_ints(_convolve(q[0], others), total // den[0]))


def _scaled(x, d):
    """d*x, an integer, for a rational x whose denominator divides d."""
    return x.numerator * (d // x.denominator)


@dataclass(frozen=True)
class InterlacingCertificate:
    ok: bool
    full_count: int
    sub_count: int
    failures: tuple

    def to_json(self):
        return {
            "ok": self.ok,
            "full_count": self.full_count,
            "sub_count": self.sub_count,
            "failures": list(self.failures),
        }


def interlacing_certificate(L, mass_diag):
    """Certify lam_1 <= mu_1 <= lam_2 <= ... for the pencil and its first
    principal submatrix pencil, from their determinants (one elimination).

    For a symmetric L and a positive mass diagonal, as ``build_pencil``
    always gives, this is Cauchy's interlacing theorem (Horn and Johnson,
    "Matrix Analysis", 2nd ed., section 4.3): the pencil's eigenvalues are
    those of A = M^-1/2 L M^-1/2, and, M being diagonal, the subpencil's
    are those of A without row and column 0.  Both are real, n and n - 1
    of them with multiplicity, so only the determinants' degrees are
    checked, and a wrong one raises InvariantViolation.  Any other pencil
    has both determinants isolated and their roots compared, for the
    counts and the mu_k/lambda_k failure messages.
    """
    full, sub = pencil_det(L, mass_diag)
    n = L.dim
    mirror = {(j, i): c for i, j, c in L.pattern}
    if all(mirror.get((i, j)) == c for i, j, c in L.pattern) and all(m > 0 for m in mass_diag):
        if (full.degree, sub.degree) != (n, n - 1):
            raise InvariantViolation(f"pencil determinants have degrees {full.degree} and "
                                     f"{sub.degree}, expected {n} and {n - 1}")
        return InterlacingCertificate(True, n, n - 1, ())
    full_roots, sub_roots = (
        [rv for rv, m in isolate_real_roots(p, None, None, classify_rational=False)
         for _ in range(m)]
        for p in (full, sub)
    )
    failures = []
    if len(full_roots) != full.degree:
        failures.append("full pencil determinant has non-real roots")
    if len(sub_roots) != sub.degree:
        failures.append("submatrix pencil determinant has non-real roots")
    if not failures:
        for k, mu in enumerate(sub_roots):
            if k < len(full_roots) and mu.compare(full_roots[k]) < 0:
                failures.append(f"mu_{k + 1} < lambda_{k + 1}")
            if k + 1 < len(full_roots) and mu.compare(full_roots[k + 1]) > 0:
                failures.append(f"mu_{k + 1} > lambda_{k + 2}")
    return InterlacingCertificate(not failures, len(full_roots), len(sub_roots), tuple(failures))


def pencil_to_json(L, mass_diag):
    return {
        "dim": L.dim,
        "L": L.to_json(),
        "M_diag": [format_rational(c) for c in mass_diag],
    }
