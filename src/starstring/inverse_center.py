"""Inverse problem with the root at the central vertex.

Given the Neumann and Dirichlet spectra (squared, with multiplicities) and
the string lengths, build the spectral quotient

    Psi(z) = (sum_j 1/l_j) * prod(1 - z/lam_k^2) / prod(1 - z/zeta_k^2),

split it into partial fractions -A0*z + sum A_i/(z - zeta_i^2) + B, divide
each pole's residue among the edges that hold an occurrence of that value,
and expand each per-edge summand's reciprocal into its Stieltjes continued
fraction: the coefficients are that edge's intervals and masses, and the
central mass is A0.  Repeated Dirichlet values make the residue division a
genuine free parameter; the plan object pins it down, the default spreads
occurrences round-robin by edge load with equal residue shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import InvalidSpectra, InvariantViolation, IrrationalPole, PlanInfeasible
from .model import Edge, ReconstructionPlan, Root, StarGraph
from .poly import Poly
from .rational import format_rational
from .ratfun import (
    RationalFunction,
    partial_fractions_at,
    split_proper_by_factors,
    _cf_peel,
    _int_form,
    _plus_constant,
    _pole_sum,
    _polynomial_part,
)


@dataclass(frozen=True)
class Issue:
    code: str
    message: str

    def to_json(self):
        return {"code": self.code, "message": self.message}


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    issues: tuple
    central_mass_positive: bool | None

    def to_json(self):
        return {
            "valid": self.valid,
            "issues": [i.to_json() for i in self.issues],
            "central_mass_positive": self.central_mass_positive,
        }


def _cap_issues(spectra, neumann_cap, dirichlet_cap):
    """A multiplicity issue for each value above its spectrum's cap."""
    return [
        Issue("multiplicity",
              f"{label} value {format_rational(v)} has multiplicity {mult} > {cap}")
        for label, entries, cap in (
            ("neumann", spectra.neumann_sq, neumann_cap),
            ("dirichlet", spectra.dirichlet_sq, dirichlet_cap),
        )
        for v, mult in entries
        if mult > cap
    ]


def _chain_issues(lower, upper, lo_name, up_name):
    """A chain issue for each break of lower_1 < upper_1 and
    upper_k <= lower_k+1 <= upper_k+1 over the n = len(upper) values."""
    issues = []
    if not lower[0] < upper[0]:
        issues.append(Issue("chain", f"need {lo_name}_1 < {up_name}_1, got "
                                     f"{format_rational(lower[0])} >= {format_rational(upper[0])}"))
    for k in range(1, len(upper)):
        if not upper[k - 1] <= lower[k] <= upper[k]:
            issues.append(Issue(
                "chain",
                f"need {up_name}_{k} <= {lo_name}_{k + 1} <= {up_name}_{k + 1} "
                f"({', '.join(format_rational(x) for x in (upper[k - 1], lower[k], upper[k]))})",
            ))
    return issues


FEW_LENGTHS = "need at least two string lengths"


def validate_center(spectra, q):
    """Check the centre-root solvability conditions, reporting every violation.

    Conditions: counts differ by one (positive central mass) or agree
    (massless centre); the interlacing chain with strict outer
    inequalities; the two-sided equality condition at interior ties;
    Neumann multiplicities at most q-1 (Dirichlet at most q).  For q = 1
    (internal single-string use) interlacing must be strict throughout.
    The chain and tie checks list every occurrence, so they run only once
    every multiplicity is within its cap.
    """
    issues = []
    caps = _cap_issues(spectra, q - 1 if q >= 2 else 1, q)
    lam_count = sum(m for _, m in spectra.neumann_sq)
    n = sum(m for _, m in spectra.dirichlet_sq)
    m_positive = None
    if lam_count == n + 1:
        m_positive = True
    elif lam_count == n:
        m_positive = False
    else:
        issues.append(Issue(
            "count",
            f"need #neumann = #dirichlet or #dirichlet + 1, got {lam_count} vs {n}",
        ))
    if not caps and m_positive is not None and n > 0:
        lam = spectra.neumann_values()
        zet = spectra.dirichlet_values()
        issues += _chain_issues(lam, zet, "lambda", "zeta")
        if m_positive and not zet[n - 1] < lam[n]:
            issues.append(Issue("chain", "need zeta_n < lambda_n+1, got "
                                f"{format_rational(zet[n - 1])} >= {format_rational(lam[n])}"))
        for k in range(1, n):
            left = zet[k - 1] == lam[k]
            right = lam[k] == zet[k]
            if left != right:
                issues.append(Issue(
                    "tie",
                    f"tie condition fails at k={k + 1}: zeta_{k}={format_rational(zet[k - 1])}, "
                    f"lambda_{k + 1}={format_rational(lam[k])}, "
                    f"zeta_{k + 1}={format_rational(zet[k])}",
                ))
    issues += caps
    if q == 1:
        if common := _common_values(spectra):
            shared = ", ".join(format_rational(v) for v, _ in common)
            issues.append(Issue(
                "multiplicity", f"single-string data must interlace strictly, shared [{shared}]"
            ))
    return ValidationReport(not issues, tuple(issues), m_positive)


def _sum_reciprocal(lengths):
    return sum((Fraction(1) / Fraction(l) for l in lengths), Fraction(0))


def _common_values(spectra):
    """The multiset intersection ((value, mult), ...) of the two spectra."""
    mu = dict(spectra.neumann_sq)
    out = []
    for v, m in spectra.dirichlet_sq:
        if v in mu:
            out.append((v, min(m, mu[v])))
    return tuple(out)


def _spectral_quotient(scale, num_sq, den_sq, common):
    """scale * prod(1 - z/x) over num_sq / the same over den_sq, in canonical
    form, with the shared values ``common`` cancelled as multisets first."""
    shared = dict(common)

    def rest(entries):
        return [v for v, m in entries for _ in range(m - shared.get(v, 0))]

    # what is left of the two multisets is disjoint, so the pair is coprime
    num = Poly.from_scaled_roots(rest(num_sq)).scale(scale)
    den = Poly.from_scaled_roots(rest(den_sq))
    return RationalFunction.from_coprime(num, den)


def build_psi(spectra, lengths):
    """The spectral quotient in canonical form; its value at 0 is sum(1/l_j)."""
    return _spectral_quotient(
        _sum_reciprocal(lengths), spectra.neumann_sq, spectra.dirichlet_sq,
        _common_values(spectra),
    )


# ---------------------------------------------------------------------------
# plans


def plan_partition(distinct, q, plan=None):
    """Resolve the (possibly partial) user plan over the poles ``distinct``,
    ((value, multiplicity), ...) ascending, into a complete
    ReconstructionPlan: the edges and residue shares of every pole.

    Default: occurrences of each value go to the least-loaded edges (ties
    by index), residues are split equally.  A user partition and/or residue
    split overrides; infeasible requests raise PlanInfeasible.
    """
    user_partition = plan.partition if plan is not None else None
    if user_partition is not None and len(user_partition) != len(distinct):
        raise PlanInfeasible(
            f"partition must list edges for each of the {len(distinct)} distinct values"
        )
    if plan is not None and plan.residue_split is not None:
        known = {v for v, _ in distinct}
        for v, _ in plan.residue_split:
            if v not in known:
                raise PlanInfeasible(f"residue split names an absent pole {format_rational(v)}")
    load = [0] * q
    partition, split = [], []
    for idx, (value, mult) in enumerate(distinct):
        name = format_rational(value)  # for the messages
        if mult > q:
            raise PlanInfeasible(f"cannot place {mult} occurrences of {name} on {q} edges")
        if user_partition is not None:
            edges = tuple(user_partition[idx])
            if len(edges) != mult:
                raise PlanInfeasible(
                    f"value {name} needs {mult} edges, partition gives {len(edges)}"
                )
            if len(set(edges)) != mult or any(not 0 <= e < q for e in edges):
                raise PlanInfeasible(f"partition for value {name} must use distinct valid edges")
        else:
            order = sorted(range(q), key=lambda j: (load[j], j))
            edges = tuple(order[:mult])
        shares = plan.split_for(value) if plan is not None else None
        if shares is None:
            shares = tuple(Fraction(1, mult) for _ in range(mult))
        else:
            shares = tuple(Fraction(s) for s in shares)
            if len(shares) != mult:
                raise PlanInfeasible(f"value {name} needs {mult} residue shares")
            if any(s <= 0 for s in shares) or sum(shares) != 1:
                raise PlanInfeasible(f"residue shares for {name} must be positive and sum to 1")
        for e in edges:
            load[e] += 1
        partition.append(edges)
        split.append((value, shares))
    return ReconstructionPlan(tuple(partition), tuple(split))


# ---------------------------------------------------------------------------
# reconstruction


@dataclass(frozen=True)
class CenterReconstruction:
    graph: StarGraph
    plan_used: ReconstructionPlan
    psi: RationalFunction
    residues: tuple  # ((pole, total residue), ...)


def _edge_from_summand(num, den, length):
    """Expand the reciprocal of the per-edge summand num/den plus its
    constant into intervals and masses; num/den is coprime with den monic.
    The sum and its reciprocal are formed in integers (``_int_form``)."""
    length = Fraction(length)
    n, d, u, v = _int_form(num, den)
    b_j = 1 / length - (Fraction(u * n[0], v * d[0]) if n else 0)
    e, w = _plus_constant(n, d, u, v, b_j)
    cf = _cf_peel(d, e, w, 1)[0]
    edge = Edge(cf.a, cf.b)
    if edge.total_length != length:
        raise InvariantViolation("reconstructed lengths do not sum")
    return edge


def _realize(pf, cluster, occurrences, lengths, plan):
    """(edges, plan used) of the star edges, one per length, that split
    the quotient pf + cluster (``partial_fractions``' pair); ``occurrences``
    gives each pole of pf its edge count.  The irrational cluster goes whole
    to the least-loaded edge, which keeps it exact; a user plan beside it
    is refused."""
    q = len(lengths)
    if cluster.den.degree > 0 and plan is not None and (
        plan.partition is not None or plan.residue_split is not None
    ):
        raise IrrationalPole(
            "user plans require rational subgraph spectra; "
            f"a degree-{cluster.den.degree} pole cluster is irrational"
        )
    used = plan_partition(occurrences, q, plan)
    residue_of = dict(pf.terms)
    per_edge = [[] for _ in range(q)]
    for edges, (value, shares) in zip(used.partition, used.residue_split):
        for edge_idx, share in zip(edges, shares):
            per_edge[edge_idx].append((value, residue_of[value] * share))
    summands = [_pole_sum(terms) for terms in per_edge]
    if cluster.den.degree > 0:
        # the cluster's poles are not the edge's, so n*C + S*d over d*C
        # stays coprime
        target = min(range(q), key=lambda j: (len(per_edge[j]), j))
        n, d = summands[target]
        summands[target] = (n * cluster.den + cluster.num * d, d * cluster.den)
    edges = [_edge_from_summand(n, d, l) for (n, d), l in zip(summands, lengths)]
    return edges, used


def reconstruct_center(spectra, lengths, plan=None):
    """Recover a centre-rooted star graph realizing the given spectra; data
    that fails ``validate_center`` raises InvalidSpectra with the report."""
    if len(lengths) < 2:
        raise InvariantViolation(FEW_LENGTHS)
    report = validate_center(spectra, len(lengths))
    if not report.valid:
        raise InvalidSpectra(report)
    psi = build_psi(spectra, lengths)
    pf, cluster = partial_fractions_at(psi, [v for v, _ in spectra.dirichlet_sq])
    edges, used = _realize(pf, cluster, spectra.dirichlet_sq, lengths, plan)
    graph = StarGraph(Root.CENTER, pf.linear_coeff, tuple(edges))
    return CenterReconstruction(graph, used, psi, pf.terms)


def reconstruct_center_grouped(psi, factors, lengths):
    """Reconstruct from a spectral quotient with a per-edge pole grouping.

    ``factors`` gives each edge's monic Dirichlet polynomial; they must be
    pairwise coprime and multiply to psi's denominator.  This is the
    forward-induced partition: residues stay grouped per edge, so no root
    isolation is needed and irrational spectra round-trip exactly.
    """
    q = len(lengths)
    if len(factors) != q:
        raise PlanInfeasible("need one denominator factor per edge")
    if psi.eval(Fraction(0)) != _sum_reciprocal(lengths):
        raise InvariantViolation("quotient value at 0 does not match the given lengths")
    a0, _, proper = _polynomial_part(psi)
    parts = split_proper_by_factors(proper, [f.monic() for f in factors])
    edges = [_edge_from_summand(p.num, p.den, l) for p, l in zip(parts, lengths)]
    return StarGraph(Root.CENTER, a0, tuple(edges))


def enumerate_constraints(spectra, lengths, rec):
    """Describe the solution family: per-pole residue simplices and the
    combinatorial count of feasible occurrence partitions.

    ``rec``, the CenterReconstruction of the same data, supplies the
    residues, central mass and plan used.
    """
    q = len(lengths)
    residue_of = dict(rec.residues)
    used = rec.plan_used.to_json()
    partition_count = 1
    poles = []
    for value, mult in spectra.dirichlet_sq:
        partition_count *= comb(q, mult)
        poles.append({
            "value": format_rational(value),
            "mult": mult,
            "total_residue": format_rational(residue_of[value]),
            "free_parameters": mult - 1,
            "constraint": "shares positive, summing to the total residue",
        })
    return {
        "central_mass": format_rational(rec.graph.central_mass),
        "poles": poles,
        "feasible_partitions": partition_count,
        "partition_used": used["partition"],
        "shares_used": used["residue_split"],
    }
