"""Direct spectral solver for star graphs of Stieltjes strings.

Each edge carries the three-term ladder recurrence

    R_{2k-1} = -z * m_k * R_{2k-2} + R_{2k-3}
    R_{2k}   =      l_k * R_{2k-1} + R_{2k-2}

seeded with R_0 = 1 and R_{-1} = 1/l_seed (clamped seed end) or R_{-1} = 0
(free seed end).  The recurrence starts at the far end of the edge and
moves toward the vertex whose driving-point function even/odd describes:
the centre for the star edges, the root for the main edge.  Zeros of the
final "even" polynomial give the spectrum with that vertex clamped, zeros
of "odd" the spectrum with it free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .errors import InvariantViolation
from .model import Root
from .poly import ONE, Poly, poly_gcd, squarefree_factor
from .ratfun import RationalFunction, _cauer_sequence
from .roots import isolate_real_roots


class Flavor(Enum):
    DIRICHLET_END = "dirichlet_end"
    NEUMANN_END = "neumann_end"


@dataclass(frozen=True)
class CauerPair:
    """Final ladder polynomials (R_{2n}, R_{2n-1}) of one edge."""

    even: Poly
    odd: Poly


def edge_cauer_polys(edge, flavor=Flavor.DIRICHLET_END):
    """Ladder pair of a star edge, seen from the central vertex.

    The seed end is the pendant (the far end of the stored interval list);
    DIRICHLET_END clamps it, NEUMANN_END frees it.
    """
    seed = 1 / edge.lengths[-1] if flavor is Flavor.DIRICHLET_END else None
    steps = zip(reversed(edge.masses), reversed(edge.lengths[:-1]))
    even, odd = _cauer_sequence(seed, steps)[-1]
    return CauerPair(even, odd)


def main_cauer_polys(edge, flavor=Flavor.DIRICHLET_END):
    """Ladder pair of the main edge, seen from the central vertex.

    The seed end is the root: DIRICHLET_END clamps the root (finite seed
    interval lengths[0]), NEUMANN_END frees it (the "infinite seed" family).
    """
    seed = 1 / edge.lengths[0] if flavor is Flavor.DIRICHLET_END else None
    steps = zip(edge.masses, edge.lengths[1:])
    even, odd = _cauer_sequence(seed, steps)[-1]
    return CauerPair(even, odd)


def edge_quotient(edge):
    """Driving-point function even/odd of a star edge at the centre."""
    pair = edge_cauer_polys(edge, Flavor.DIRICHLET_END)
    # the ladder steps have determinant 1 and the seed pair (1, 1/l) is coprime
    return RationalFunction.from_coprime(pair.even, pair.odd)


# ---------------------------------------------------------------------------
# characteristic polynomials


def _center_char_polys(edges, central_mass):
    """(phi_N, phi_D) of a centre-rooted star with the given central mass."""
    # N/D = sum_j odd_j/even_j, folded edge by edge; phi_N = N - M*z*phi_D
    num, den = Poly(), ONE
    for e in edges:
        pair = edge_cauer_polys(e, Flavor.DIRICHLET_END)
        num, den = num * pair.even + pair.odd * den, den * pair.even
    return num - Poly([0, central_mass]) * den, den


def char_polys_center(graph):
    """Neumann and Dirichlet characteristic polynomials, centre root."""
    if graph.root is not Root.CENTER:
        raise InvariantViolation("char_polys_center needs a centre-rooted graph")
    return _center_char_polys(graph.edges, graph.central_mass)


def char_polys_pendant(graph):
    """(phi at clamped root, phi at free root) for a pendant-rooted star.

    Both have degree equal to the total mass count (central mass included
    when positive); the degree is checked, not assumed.
    """
    if graph.root is not Root.PENDANT:
        raise InvariantViolation("char_polys_pendant needs a pendant-rooted graph")
    sub_n, sub_d = _center_char_polys(graph.edges, graph.central_mass)
    main_d = main_cauer_polys(graph.main_edge, Flavor.DIRICHLET_END)
    main_n = main_cauer_polys(graph.main_edge, Flavor.NEUMANN_END)
    phi_root_dirichlet = main_d.even * sub_n + main_d.odd * sub_d
    phi_root_neumann = main_n.even * sub_n + main_n.odd * sub_d
    n = graph.spectral_size
    if phi_root_dirichlet.degree != n or phi_root_neumann.degree != n:
        raise InvariantViolation(
            f"pendant characteristic polynomials have degrees {phi_root_dirichlet.degree}"
            f" and {phi_root_neumann.degree}, expected {n}"
        )
    return phi_root_dirichlet, phi_root_neumann


def spectrum_of(p, classify_rational=True):
    """Positive squared eigenvalues: roots of p in (0, oo) with multiplicity."""
    if p.degree <= 0:
        return []
    return isolate_real_roots(p, Fraction(0), None, classify_rational)


def _char_polys(graph):
    """(phi_N, phi_D) of either root; at a pendant root the clamped-root
    polynomial carries the Dirichlet spectrum."""
    if graph.root is Root.CENTER:
        return char_polys_center(graph)
    phi_d, phi_n = char_polys_pendant(graph)
    return phi_n, phi_d


def graph_spectra(graph):
    """(neumann_roots, dirichlet_roots) of the graph's two problems."""
    phi_n, phi_d = _char_polys(graph)
    return spectrum_of(phi_n), spectrum_of(phi_d)


# ---------------------------------------------------------------------------
# structural identities (diagnostics / property-test surface)


def lagrange_check(main_edge):
    """Cross-flavour ladder identity at every level k.

    even_k(clamped) * odd_k(free) - odd_k(clamped) * even_k(free) == -1/l0
    for all k = 0..n.  Returns (ok, first failing k or None).
    """
    l0 = main_edge.lengths[0]
    steps = list(zip(main_edge.masses, main_edge.lengths[1:]))
    seq_d = _cauer_sequence(1 / l0, steps)
    seq_n = _cauer_sequence(None, steps)
    target = Poly.constant(Fraction(-1, 1) / l0)
    for k, ((ed, od), (en, on)) in enumerate(zip(seq_d, seq_n)):
        if ed * on - od * en != target:
            return False, k
    return True, None


def total_length_identity(main_edge):
    """Total length from the two ladder flavours evaluated at zero."""
    pair_d = main_cauer_polys(main_edge, Flavor.DIRICHLET_END)
    pair_n = main_cauer_polys(main_edge, Flavor.NEUMANN_END)
    l0 = main_edge.lengths[0]
    lhs = main_edge.total_length
    return lhs == l0 * pair_d.even.eval(0) / pair_n.even.eval(0)


def center_quotient(graph):
    """Canonical phi_D/phi_N with the cancelled common factor."""
    phi_n, phi_d = char_polys_center(graph)
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
    phi_d, phi_n = char_polys_pendant(graph)
    l0 = graph.main_edge.lengths[0]
    return RationalFunction.make(phi_d.scale(l0), phi_n)


def pendant_subgraph_identities(graph):
    """The two cross-multiplied ladder identities tying the main edge
    to the characteristic polynomials of the q-1 edge subgraph."""
    phi_d, phi_n = char_polys_pendant(graph)
    sub_n, sub_d = _center_char_polys(graph.edges, graph.central_mass)
    main_d = main_cauer_polys(graph.main_edge, Flavor.DIRICHLET_END)
    main_n = main_cauer_polys(graph.main_edge, Flavor.NEUMANN_END)
    l0 = graph.main_edge.lengths[0]
    first = (phi_d * main_n.even - phi_n * main_d.even).scale(l0) == sub_d
    second = (phi_n * main_d.odd - phi_d * main_n.odd).scale(l0) == sub_n
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
    phi_d, phi_n = char_polys_pendant(graph)
    sub_n, sub_d = _center_char_polys(graph.edges, graph.central_mass)
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
        phi_n, _ = char_polys_center(replace(graph, central_mass=m))
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
