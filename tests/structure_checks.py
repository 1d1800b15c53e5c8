"""Exact spectral-structure checks shared by the property and acceptance suites."""

from starstring.forward import (
    branching_quotient,
    center_quotient_identity,
    char_polys,
    common_zero_accounting,
    lagrange_check,
    pendant_quotient,
    pendant_subgraph_identities,
    spectrum_of,
    total_length_identity,
)
from tests.conftest import occurrences


def check_center_interlacing(graph):
    """Interlacing chain, tie condition, multiplicity caps, neighbour simplicity."""
    phi_n, phi_d = char_polys(graph)
    lam_roots = spectrum_of(phi_n, classify_rational=False)
    zet_roots = spectrum_of(phi_d, classify_rational=False)
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
    mu_roots = spectrum_of(phi_n, classify_rational=False)
    lam_roots = spectrum_of(phi_d, classify_rational=False)
    mu = occurrences(mu_roots)
    lam = occurrences(lam_roots)
    q = graph.edge_count
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
    q = graph.edge_count
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
