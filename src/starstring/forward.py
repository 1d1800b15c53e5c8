"""Direct spectral solver for star graphs of Stieltjes strings.

Every polynomial here comes from one three-term ladder recurrence,
``ratfun._ladder``:

    R_{2k-1} = -z * m_k * R_{2k-2} + R_{2k-3}
    R_{2k}   =      l_k * R_{2k-1} + R_{2k-2}

A star edge runs it from its clamped pendant end, seeded with
(R_0, R_{-1}) = (1, 1/l), to the centre, where even/odd is the edge's
driving-point function.  The edges join at the centre under continuity
and Kirchhoff's condition into one pair (D, N), D = prod even_j and
N/D = sum odd_j/even_j, and the ladder goes on from that seed with the
central mass M as its first mass.  A centre root takes the single step
(M, 0) and ends at (phi_D, phi_N); a pendant root carries the fraction
out along the main edge, steps (M, l_n), (m_{n-1}, l_{n-1}), ...,
(m_0, l_0), and ends at (l_0 * phi_D, phi_N).  Zeros of phi_N give the
spectrum with the root free, zeros of phi_D with it clamped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InvariantViolation
from .model import Root
from .poly import ONE, ZERO, Poly, poly_gcd, squarefree_factor
from .ratfun import RationalFunction, _ladder
from .roots import isolate_real_roots


def edge_cauer_polys(edge):
    """Ladder pair (even, odd) of a star edge clamped at its pendant end
    (the far end of the stored interval list), seen from the centre."""
    steps = zip(reversed(edge.masses), reversed(edge.lengths[:-1]))
    return _ladder(ONE, Poly.constant(1 / edge.lengths[-1]), steps)


def edge_quotient(edge):
    """Driving-point function even/odd of a star edge at the centre."""
    # the ladder steps have determinant 1 and the seed pair (1, 1/l) is coprime
    return RationalFunction.from_coprime(*edge_cauer_polys(edge))


# ---------------------------------------------------------------------------
# characteristic polynomials


def _join(edges):
    """(D, N) of the edges joined at the centre: D = prod even_j and
    N/D = sum odd_j/even_j."""
    num, den = ZERO, ONE
    for e in edges:
        even, odd = edge_cauer_polys(e)
        num, den = num * even + odd * den, den * even
    return den, num


def char_polys(graph):
    """(phi_N, phi_D): the characteristic polynomials with the root free
    and clamped.  At a pendant root both must have degree equal to the
    mass count, central mass included when positive."""
    den, num = _join(graph.edges)
    if graph.root is Root.CENTER:
        phi_d, phi_n = _ladder(den, num, [(graph.central_mass, 0)])
        return phi_n, phi_d
    main = graph.main_edge
    steps = zip((graph.central_mass, *reversed(main.masses)), reversed(main.lengths))
    scaled, phi_n = _ladder(den, num, steps)
    phi_d = scaled.scale(1 / main.lengths[0])
    n = graph.spectral_size
    if phi_d.degree != n or phi_n.degree != n:
        raise InvariantViolation(f"pendant characteristic polynomials have degrees "
                                 f"{phi_d.degree} and {phi_n.degree}, expected {n}")
    return phi_n, phi_d


def spectrum_of(p, classify_rational=True):
    """Positive squared eigenvalues: roots of p in (0, oo) with multiplicity."""
    if p.degree <= 0:
        return []
    return isolate_real_roots(p, Fraction(0), None, classify_rational)


# ---------------------------------------------------------------------------
# structural identities (diagnostics / property-test surface)


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


def center_quotient(graph):
    """Canonical phi_D/phi_N with the cancelled common factor."""
    phi_n, phi_d = char_polys(graph)
    return RationalFunction.make(phi_d, phi_n)


def center_quotient_identity(graph):
    """phi_D/phi_N equals 1/(sum_j 1/edge_quotient_j - M*z), exactly."""
    quotient, _ = center_quotient(graph)
    acc = RationalFunction(Poly([0, -graph.central_mass]), ONE)
    for e in graph.edges:
        acc = acc + edge_quotient(e).inverse()
    return quotient == acc.inverse()


def pendant_quotient(graph):
    """Canonical l0 * phi(clamped root)/phi(free root) with cancelled factor."""
    phi_n, phi_d = char_polys(graph)
    l0 = graph.main_edge.lengths[0]
    return RationalFunction.make(phi_d.scale(l0), phi_n)


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
        cur = cur + edge_quotient(e).inverse()
    main = graph.main_edge
    n = main.mass_count
    for k in range(n, 0, -1):
        cur = RationalFunction.constant(main.lengths[k]) + cur.inverse()
        cur = RationalFunction(Poly([0, -main.masses[k - 1]]), ONE) + cur.inverse()
    return RationalFunction.constant(main.lengths[0]) + cur.inverse()


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
        roots = spectrum_of(phi_n, classify_rational=False)
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
