"""Inverse problem with the root at a pendant vertex.

The quotient Phi(z) = gamma * prod(1 - z/lambda_k^2) / prod(1 - z/mu_k^2)
with gamma = main_length + (sum_j 1/l_j)^-1 expands into a Stieltjes
continued fraction whose leading coefficients are the main edge: the
unique cut index is the first partial sum of the constants reaching the
main length.  The tail is the expansion's remainder at the cut, read off
the pair ``cf_expand`` leaves there; with the common spectral values
re-inserted it is the reciprocal spectral quotient of the q-1 edge
subgraph, which the centre-root realizer then splits into edges.  The
main edge is uniquely determined; the subgraph inherits the usual
residue-split freedom.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidSpectra, InvariantViolation, MainTooLong, NotStieltjes
from .inverse_center import (
    Issue,
    ValidationReport,
    _cap_issues,
    _chain_issues,
    _common_values,
    _edge_from_summand,
    _realize,
    _spectral_quotient,
    _sum_reciprocal,
    validate_center,
)
from .model import Edge, ReconstructionPlan, Root, SpectrumPair, StarGraph
from .poly import Poly
from .ratfun import (
    RationalFunction,
    StieltjesCF,
    partial_fractions,
    _cf_peel,
    _int_form,
    _plus_constant,
    _polynomial_part,
)
from .rational import format_rational
from .roots import isolate_real_roots


def build_phi(spectra, main_length, lengths):
    """Spectral quotient of the pendant problem.

    Returns (phi, gamma, cancelled) where cancelled is the monic product of
    the factors shared by numerator and denominator (the common spectral
    values, squared).
    """
    gamma = Fraction(main_length) + 1 / _sum_reciprocal(lengths)
    common = _common_values(spectra)
    phi = _spectral_quotient(gamma, spectra.dirichlet_sq, spectra.neumann_sq, common)
    cancelled = Poly.from_linear_roots(v for v, m in common for _ in range(m))
    return phi, gamma, cancelled


@dataclass(frozen=True)
class MainEdgeDecomposition:
    main: Edge
    main_mass_count: int
    tail_constant: Fraction  # the nonnegative constant opening the tail
    tail: RationalFunction
    cf: StieltjesCF
    gamma: Fraction
    common_zeros: tuple  # ((value, mult), ...) shared by the two spectra


def decompose_main_from_quotient(phi, main_length, common_zeros=()):
    """Cut the continued fraction of phi at the main-string length.

    gamma = phi(0) is the sum of the continued fraction's constants.  The
    tail is the expansion's remainder at the cut with the tail constant t
    put back: (num + t*den)/den for the pair (num, den) left there.
    """
    cf, rests = _cf_peel(*_int_form(phi.num, phi.den))
    total = sum(cf.a, Fraction(0))
    main_length = Fraction(main_length)
    if main_length >= total:
        raise MainTooLong(f"main length {format_rational(main_length)} >= "
                          f"quotient value {format_rational(total)} at zero")
    prefix = Fraction(0)
    cut = 0
    for k, a in enumerate(cf.a):
        prefix += a
        if prefix >= main_length:
            cut = k
            break
    tail_constant = prefix - main_length
    lengths = list(cf.a[:cut]) + [cf.a[cut] - tail_constant]
    main = Edge(tuple(lengths), cf.b[:cut])
    if cut == cf.depth and tail_constant <= 0:
        raise InvariantViolation("tail of the full expansion must keep a constant")
    n, d, u, v = rests[cut]
    e, w = _plus_constant(n, d, u, v, tail_constant)
    tail = RationalFunction.from_coprime(Poly.from_ints(e, w), Poly.from_ints(d, 1))
    return MainEdgeDecomposition(
        main, cut, tail_constant, tail, cf, total, tuple(common_zeros)
    )


def decompose_main(spectra, main_length, lengths):
    """Main-edge decomposition from raw spectral data."""
    phi, _, _ = build_phi(spectra, main_length, lengths)
    return decompose_main_from_quotient(phi, main_length, _common_values(spectra))


def validate_pendant(spectra, main_length, lengths):
    """Check the pendant-root solvability conditions.

    The interlacing chain must open strictly (mu_1 < lambda_1), both
    multiplicities stay below the edge count, and at every value shared by
    the two spectra the continued-fraction tail must vanish; the last
    condition is checked constructively by computing the tail.  The chain
    check lists every occurrence, so it runs only once every multiplicity
    is within its cap.
    """
    q = len(lengths) + 1
    issues = []
    caps = _cap_issues(spectra, q - 1, q - 1)
    # a value shared by both spectra is a common zero of the two
    # characteristic polynomials, whose multiplicities sum to at most 2q-3
    mu_mult = dict(spectra.neumann_sq)
    for v, mult in spectra.dirichlet_sq:
        shared = mu_mult.get(v, 0)
        if shared and shared + mult > 2 * q - 3:
            caps.append(Issue("multiplicity", f"shared value {format_rational(v)}: multiplicity "
                                              f"sum {shared + mult} exceeds {2 * q - 3}"))
    mu_count = sum(m for _, m in spectra.neumann_sq)
    n = sum(m for _, m in spectra.dirichlet_sq)
    if mu_count != n:
        issues.append(Issue("count", f"need equal counts, got {mu_count} vs {n}"))
    elif n == 0:
        issues.append(Issue("count", "need at least one eigenvalue pair"))
    elif not caps:
        mu = spectra.neumann_values()
        issues += _chain_issues(mu, spectra.dirichlet_values(), "mu", "lambda")
    issues += caps
    if not issues:
        try:
            dec = decompose_main(spectra, main_length, lengths)
        except NotStieltjes as exc:
            issues.append(Issue(exc.code, exc.message))
        else:
            for v, _ in dec.common_zeros:
                den_v = dec.tail.den.eval(v)
                if den_v == 0 or dec.tail.num.eval(v) != 0:
                    value = "pole" if den_v == 0 else format_rational(dec.tail.num.eval(v) / den_v)
                    v = format_rational(v)
                    issues.append(Issue("tail", f"tail does not vanish at the shared value {v}: "
                                                f"tail({v}) = {value}"))
    return ValidationReport(not issues, tuple(issues), None)


# ---------------------------------------------------------------------------
# full reconstruction


@dataclass(frozen=True)
class PendantReconstruction:
    graph: StarGraph
    decomposition: MainEdgeDecomposition
    subgraph_plan: ReconstructionPlan | None


def _subgraph_edges(psi_sub, lengths, common_zeros, plan):
    """(central mass, edges, plan used) of the q-1 edge subgraph.

    One string with no plan needs no split: its summand is the quotient's
    proper part (``validate_pendant`` leaves it no shared value).  Anything
    else goes to the centre realizer.
    """
    if len(lengths) == 1 and plan is None:
        a0, _, proper = _polynomial_part(psi_sub)
        return a0, [_edge_from_summand(proper.num, proper.den, lengths[0])], None
    pf, cluster = partial_fractions(psi_sub)
    common = dict(common_zeros)
    occurrences = tuple((v, 1 + common.get(v, 0)) for v, _ in pf.terms)
    edges, used = _realize(pf, cluster, occurrences, lengths, plan)
    return pf.linear_coeff, edges, used


def reconstruct_pendant(spectra, main_length, lengths, plan=None):
    """Recover a pendant-rooted star graph realizing the given spectra; data
    that fails ``validate_pendant`` raises InvalidSpectra with the report."""
    report = validate_pendant(spectra, main_length, lengths)
    if not report.valid:
        raise InvalidSpectra(report)
    dec = decompose_main(spectra, main_length, lengths)
    psi_sub = dec.tail.inverse()
    if psi_sub.eval(Fraction(0)) != _sum_reciprocal(lengths):
        raise InvariantViolation("subgraph quotient value at zero must match the given lengths")
    sub_mass, edges, plan_used = _subgraph_edges(
        psi_sub, list(lengths), dec.common_zeros, plan
    )
    if dec.tail_constant > 0:
        if sub_mass != 0:
            raise InvariantViolation("positive tail constant forces a massless centre")
    elif sub_mass <= 0:
        raise InvariantViolation("vanishing tail constant forces a central mass")
    graph = StarGraph(Root.PENDANT, sub_mass, tuple(edges), dec.main)
    return PendantReconstruction(graph, dec, plan_used)


def validate_subgraph_data(dec, lengths):
    """Internal alarm: when the subgraph spectra are rational, re-check them
    against the centre-root conditions (they hold by construction)."""
    num_roots = isolate_real_roots(dec.tail.num, Fraction(0), None)
    den_roots = isolate_real_roots(dec.tail.den, Fraction(0), None)
    if not all(rv.is_rational for rv, _ in num_roots + den_roots):
        return None
    # SpectrumPair merges the common zeros into the roots' multiplicities
    pair = SpectrumPair(
        tuple((rv.rat, m) for rv, m in den_roots) + dec.common_zeros,
        tuple((rv.rat, m) for rv, m in num_roots) + dec.common_zeros,
    )
    return validate_center(pair, len(lengths))
