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

from fractions import Fraction

from .errors import InvariantViolation
from .model import Root
from .poly import ONE, ZERO, Poly, poly_gcd
from .ratfun import RationalFunction, _ladder
from .roots import isolate_real_roots


def edge_cauer_polys(edge):
    """Ladder pair (even, odd) of a star edge clamped at its pendant end
    (the far end of the stored interval list), seen from the centre."""
    steps = zip(reversed(edge.masses), reversed(edge.lengths[:-1]))
    return _ladder(ONE, Poly.constant(1 / edge.lengths[-1]), steps)


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


def spectrum_of(p):
    """Positive squared eigenvalues: roots of p in (0, oo) with multiplicity."""
    if p.degree <= 0:
        return []
    return isolate_real_roots(p, Fraction(0), None)


def _divide_shared(num, den, edges):
    """(num/den in lowest terms, pairwise coprime parts) for a pair sharing only what
    the edges share: part j is edge j's monic clamped polynomial less what 0..j-1 hold."""
    parts, held, shared = [], ONE, ONE
    for e in edges:
        f = edge_cauer_polys(e)[0].monic()
        g = poly_gcd(f, held)
        parts.append(f.divexact(g))
        held, shared = held * parts[-1], shared * g
    return RationalFunction.from_coprime(num.divexact(shared), den.divexact(shared)), parts


def center_quotient(graph):
    """(phi_D/phi_N in lowest terms, the edges' parts).  A value k edges hold is
    a simple pole of N/D with a positive residue sum, so a root of phi_N k - 1 times."""
    phi_n, phi_d = char_polys(graph)
    return _divide_shared(phi_d, phi_n, graph.edges)


def pendant_quotient(graph):
    """(l0 * phi(clamped root)/phi(free root) in lowest terms, the non-main edges'
    parts).  Main-edge ladder steps have determinant 1: the same k - 1 rule holds."""
    phi_n, phi_d = char_polys(graph)
    return _divide_shared(phi_d.scale(graph.main_edge.lengths[0]), phi_n, graph.edges)
