"""Exact spectral-structure checks shared by the property and acceptance suites.

The paper's structural identities (ladder identities, the quotient and
branching folds, common-zero multiplicities and monotonicity in the central
mass) live here rather than in the package: no command calls them, and
``branching_quotient`` folds with its own sums (``rf_sum``, canonicalized by
the general gcd in ``RationalFunction.make``) as the independent check on
``forward.pendant_quotient``.  ``sequence_certifies`` proves two
determinants interlaced by one signed remainder sequence, the independent
check on the isolate-and-compare path of ``matrixize.interlacing_certificate``.
``dense_rows`` and ``scanned_matrix`` convert between a ``RationalMatrix``
and its n^2 entries, which only the tests need.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product

from starstring.errors import InvariantViolation
from starstring.forward import (
    _join,
    center_quotient,
    char_polys,
    edge_cauer_polys,
    pendant_quotient,
)
from starstring.matrixize import RationalMatrix
from starstring.model import ReconstructionPlan, Root
from starstring.poly import ONE, ZERO, Poly, _sturm_sequence, poly_gcd, squarefree_factor
from starstring.ratfun import RationalFunction, _ladder
from starstring.roots import isolate_real_roots
from tests.conftest import occurrences


def unclassified_spectrum(p):
    """Roots of p in (0, oo) with multiplicity, left unclassified: the
    checks compare them exactly through their intervals."""
    if p.degree <= 0:
        return []
    return isolate_real_roots(p, Fraction(0), None, classify_rational=False)


def realizes(graph, spectra):
    """The graph's monic characteristic polynomials are the products over
    the two multisets of ``spectra``."""
    phi_n, phi_d = char_polys(graph)
    return (phi_n.monic(), phi_d.monic()) == (
        Poly.from_linear_roots(spectra.neumann_values()),
        Poly.from_linear_roots(spectra.dirichlet_values()),
    )


def every_plan(poles, q):
    """A ReconstructionPlan for every occurrence partition of ``poles``,
    ((value, mult), ...), over q edges: once with the default equal
    residue shares, once with the unequal shares 1 : 2 : ... : mult."""
    unequal = tuple(
        (v, tuple(Fraction(2 * k, m * (m + 1)) for k in range(1, m + 1))) for v, m in poles
    )
    for partition in product(*(combinations(range(q), m) for _, m in poles)):
        yield ReconstructionPlan(partition)
        yield ReconstructionPlan(partition, unequal)


def rf_sum(a, b):
    """a + b, reduced by the general gcd canonicalizer."""
    return RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den)


def edge_quotient(edge):
    """Driving-point function even/odd of a star edge at the centre."""
    # the ladder steps have determinant 1 and the seed pair (1, 1/l) is coprime
    return RationalFunction.from_coprime(*edge_cauer_polys(edge))


def _root_ladders(main_edge, k=None):
    """Ladder pairs of the main edge after its first k steps (all of them
    by default) from a clamped root, seed (1, 1/l0), and from a free root,
    seed (1, 0)."""
    steps = list(zip(main_edge.masses, main_edge.lengths[1:]))[:k]
    return [_ladder(ONE, seed, steps) for seed in (Poly.constant(1 / main_edge.lengths[0]), ZERO)]


def _subgraph_polys(graph):
    """(sub_D, sub_N) of the centre-rooted star that the non-main edges
    and the central mass form."""
    return _ladder(*_join(graph.edges), [(graph.central_mass, 0)])


def lagrange_check(main_edge):
    """Cross-flavour ladder identity at every level k.

    even_k(clamped) * odd_k(free) - odd_k(clamped) * even_k(free) == -1/l0
    for all k = 0..n.  Returns (ok, first failing k or None).
    """
    target = Poly.constant(-1 / main_edge.lengths[0])
    for k in range(main_edge.mass_count + 1):
        (ed, od), (en, on) = _root_ladders(main_edge, k)
        if ed * on - od * en != target:
            return False, k
    return True, None


def total_length_identity(main_edge):
    """Total length from the two ladder flavours evaluated at zero."""
    (even_d, _), (even_n, _) = _root_ladders(main_edge)
    l0 = main_edge.lengths[0]
    return main_edge.total_length == l0 * even_d.eval(0) / even_n.eval(0)



def center_quotient_identity(graph):
    """phi_D/phi_N equals 1/(sum_j 1/edge_quotient_j - M*z), exactly."""
    quotient, _ = center_quotient(graph)
    acc = RationalFunction(Poly([0, -graph.central_mass]), ONE)
    for e in graph.edges:
        acc = rf_sum(acc, edge_quotient(e).inverse())
    return quotient == acc.inverse()



def pendant_subgraph_identities(graph):
    """The two cross-multiplied ladder identities tying the main edge
    to the characteristic polynomials of the q-1 edge subgraph."""
    phi_n, phi_d = char_polys(graph)
    sub_d, sub_n = _subgraph_polys(graph)
    (even_d, odd_d), (even_n, odd_n) = _root_ladders(graph.main_edge)
    l0 = graph.main_edge.lengths[0]
    first = (phi_d * even_n - phi_n * even_d).scale(l0) == sub_d
    second = (phi_n * odd_d - phi_d * odd_n).scale(l0) == sub_n
    return first, second


def branching_quotient(graph):
    """Fold the branching continued fraction of a pendant-rooted star.

    Innermost level: -M*z + sum of the reciprocal edge driving-point
    functions; then alternate main-edge lengths and masses outward to the
    root.  Equals l0 * phi(clamped)/phi(free) as a rational function.
    """
    if graph.root is not Root.PENDANT:
        raise InvariantViolation("branching_quotient needs a pendant-rooted graph")
    cur = RationalFunction(Poly([0, -graph.central_mass]), ONE)
    for e in graph.edges:
        cur = rf_sum(cur, edge_quotient(e).inverse())
    main = graph.main_edge
    n = main.mass_count
    for k in range(n, 0, -1):
        cur = rf_sum(RationalFunction.constant(main.lengths[k]), cur.inverse())
        cur = rf_sum(RationalFunction(Poly([0, -main.masses[k - 1]]), ONE), cur.inverse())
    return rf_sum(RationalFunction.constant(main.lengths[0]), cur.inverse())


def multiplicity_of_factor(p, h):
    """Largest t with h**t dividing p (h nonconstant)."""
    t = 0
    while True:
        q, r = divmod(p, h)
        if not r.is_zero:
            return t
        p = q
        t += 1


def common_zero_accounting(graph):
    """Multiplicity bookkeeping at common zeros of the two pendant problems.

    For every square-free factor h shared by phi(clamped root) and
    phi(free root), returns a record with the multiplicities k0, k_inf in
    the two polynomials and the multiplicities of h in the subgraph's
    Neumann and Dirichlet polynomials.
    """
    phi_n, phi_d = char_polys(graph)
    sub_d, sub_n = _subgraph_polys(graph)
    g = poly_gcd(phi_d, phi_n)
    records = []
    if g.degree == 0:
        return records
    for h, _ in squarefree_factor(g):
        k0 = multiplicity_of_factor(phi_d, h)
        k_inf = multiplicity_of_factor(phi_n, h)
        records.append(
            {
                "factor": h,
                "k0": k0,
                "k_inf": k_inf,
                "sub_neumann_mult": multiplicity_of_factor(sub_n, h),
                "sub_dirichlet_mult": multiplicity_of_factor(sub_d, h),
            }
        )
    return records


# ---------------------------------------------------------------------------
# monotonicity in the central mass


@dataclass(frozen=True)
class MonotonicityReport:
    """``unresolved`` is always 0: every comparison is exact and decided."""

    ok: bool
    comparisons: int
    unresolved: int
    failures: tuple


def neumann_monotonicity(graph, mass_values):
    """Check the Neumann spectrum is non-increasing in the central mass.

    Comparison is exact: equal roots are recognised through gcds, distinct
    ones separated by interval refinement.
    """
    masses = sorted(Fraction(m) for m in mass_values)
    spectra = []
    for m in masses:
        phi_n, _ = char_polys(replace(graph, central_mass=m))
        roots = unclassified_spectrum(phi_n)
        spectra.append([rv for rv, mult in roots for _ in range(mult)])
    comparisons = 0
    failures = []
    for i in range(len(masses) - 1):
        lighter, heavier = spectra[i], spectra[i + 1]
        # eigenvalues beyond the lighter list count as +infinity
        for k in range(min(len(heavier), len(lighter))):
            comparisons += 1
            if heavier[k].compare(lighter[k]) > 0:
                failures.append((masses[i], masses[i + 1], k))
    return MonotonicityReport(not failures, comparisons, 0, tuple(failures))


def sequence_certifies(full, sub):
    """Whether the signed remainder sequence of (full, sub) proves them interlaced.

    The sequence is ``poly._sturm_sequence``: f_0 = full, f_1 = sub, each
    with a positive leading coefficient (the sign does not move a root),
    then f_{k+1} = -rem(f_{k-1}, f_k) times a positive number, ending in
    g = gcd(full, sub).  Its members are g times those of F = full/g,
    S = sub/g.  If each degree drops by one, n down to d = deg g, and each
    leading coefficient is positive, the signs vary n - d times at -oo and
    never at +oo.  By Sturm's theorem S/F then has Cauchy index deg F, its
    most: F has deg F simple real roots and S/F a positive residue at each,
    so S changes sign between them and F, S interlace strictly.  The
    converse holds as well (Gantmacher-Krein; Holtz-Tyaglov, SIAM Rev.
    54(3), 2012), and the multisets interlace weakly iff g is real-rooted
    and F, S interlace strictly (Fisk, arXiv:math/0612833).
    """
    if full.degree < 1 or sub.degree != full.degree - 1:
        return False
    seq = _sturm_sequence(full.primitive_int(), sub.primitive_int())
    if any(len(b) != len(a) - 1 or b[-1] < 0 for a, b in zip(seq, seq[1:])):
        return False
    g = seq[-1]
    roots = isolate_real_roots(Poly(g), None, None, classify_rational=False) if len(g) > 1 else ()
    return sum(m for _, m in roots) == len(g) - 1


def dense_rows(L):
    """The rows of a ``RationalMatrix`` as tuples of Fractions, zero
    wherever neither its diagonal nor its pattern names an entry."""
    n = L.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, c in enumerate(L.diagonal):
        rows[i][i] = c
    for i, j, c in L.pattern:
        rows[i][j] = c
    return tuple(map(tuple, rows))


def scanned_matrix(rows):
    """The ``RationalMatrix`` of square rows: every entry made a Fraction and
    all n^2 scanned for the nonzero pattern off the diagonal."""
    rows = [[Fraction(c) for c in row] for row in rows]
    return RationalMatrix(
        tuple(row[i] for i, row in enumerate(rows)),
        tuple((i, j, c) for i, row in enumerate(rows) for j, c in enumerate(row) if c and i != j),
    )


# ---------------------------------------------------------------------------
# checks


def check_center_interlacing(graph):
    """Interlacing chain, tie condition, multiplicity caps, neighbour simplicity."""
    phi_n, phi_d = char_polys(graph)
    lam_roots = unclassified_spectrum(phi_n)
    zet_roots = unclassified_spectrum(phi_d)
    lam = occurrences(lam_roots)
    zet = occurrences(zet_roots)
    q = len(graph.edges)
    n = len(zet)
    m_positive = graph.central_mass > 0
    assert len(lam) == n + (1 if m_positive else 0), "eigenvalue count"
    if n:
        assert lam[0].compare(zet[0]) < 0, "lambda_1 < zeta_1"
        for k in range(1, n):
            assert zet[k - 1].compare(lam[k]) <= 0, f"zeta_{k} <= lambda_{k + 1}"
            assert lam[k].compare(zet[k]) <= 0, f"lambda_{k + 1} <= zeta_{k + 1}"
        if m_positive:
            assert zet[n - 1].compare(lam[n]) < 0, "zeta_n < lambda_{n+1}"
        for k in range(1, n):
            left = zet[k - 1].compare(lam[k]) == 0
            right = lam[k].compare(zet[k]) == 0
            assert left == right, f"tie condition at k={k + 1}"
    for _, mult in lam_roots:
        assert mult <= q - 1, "neumann multiplicity cap"
    for _, mult in zet_roots:
        assert mult <= q, "dirichlet multiplicity cap"
    # of two neighbouring distinct Neumann eigenvalues one must be simple
    for (_, m1), (_, m2) in zip(lam_roots, lam_roots[1:]):
        assert m1 == 1 or m2 == 1, "neighbour simplicity"


def check_center_identities(graph):
    assert center_quotient_identity(graph), "quotient identity"


def check_pendant_interlacing(graph):
    phi_n, phi_d = char_polys(graph)
    mu_roots = unclassified_spectrum(phi_n)
    lam_roots = unclassified_spectrum(phi_d)
    mu = occurrences(mu_roots)
    lam = occurrences(lam_roots)
    q = len(graph.edges) + 1
    n = len(lam)
    assert len(mu) == n, "equal counts"
    if n:
        assert mu[0].compare(lam[0]) < 0, "mu_1 < lambda_1"
        for k in range(1, n):
            assert lam[k - 1].compare(mu[k]) <= 0, f"lambda_{k} <= mu_{k + 1}"
            assert mu[k].compare(lam[k]) <= 0, f"mu_{k + 1} <= lambda_{k + 1}"
    for _, mult in mu_roots:
        assert mult <= q - 1, "neumann multiplicity cap"
    for _, mult in lam_roots:
        assert mult <= q - 1, "dirichlet multiplicity cap"
    # shared values: multiplicity sum bounded by 2q - 3
    for mrv, mm in mu_roots:
        for lrv, lm in lam_roots:
            if mrv.compare(lrv) == 0:
                assert mm + lm <= 2 * q - 3, "shared multiplicity bound"


def check_common_zero_accounting(graph):
    """At common zeros: subgraph Neumann multiplicity min{k0,kinf},
    subgraph Dirichlet multiplicity min{k0,kinf}+1, and k0+kinf <= 2q-3."""
    q = len(graph.edges) + 1
    records = common_zero_accounting(graph)
    for rec in records:
        low = min(rec["k0"], rec["k_inf"])
        assert rec["sub_neumann_mult"] == low, rec
        assert rec["sub_dirichlet_mult"] == low + 1, rec
        assert rec["k0"] + rec["k_inf"] <= 2 * q - 3, rec
    return len(records)


def check_main_edge_identities(graph):
    ok, failing = lagrange_check(graph.main_edge)
    assert ok, f"ladder identity fails at level {failing}"
    assert total_length_identity(graph.main_edge), "total length identity"


def check_pendant_identities(graph):
    first, second = pendant_subgraph_identities(graph)
    assert first, "clamped/free even-ladder identity"
    assert second, "clamped/free odd-ladder identity"
    quotient, _ = pendant_quotient(graph)
    assert branching_quotient(graph) == quotient, "branching fold identity"
