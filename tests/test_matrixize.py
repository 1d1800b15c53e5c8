"""Stiffness/mass pencil: structure, determinants, interlacing."""

import math
from fractions import Fraction as F
from math import lcm as _ilcm

import pytest

from starstring import matrixize
from starstring.errors import InvariantViolation, RequiresPositiveCentralMass
from starstring.forward import char_polys
from starstring.matrixize import (
    RationalMatrix,
    _certify,
    _sequence_certifies,
    build_pencil,
    interlacing_certificate,
    pencil_det,
    pencil_to_json,
)
from starstring.model import Edge, Root, StarGraph
from starstring.poly import ONE, Poly, poly_gcd
from starstring.roots import RootVal, isolate_real_roots
from tests.conftest import (
    duplicated_edge_center_graph,
    increasing_rationals,
    occurrences,
    random_center_graph,
)

BEAD = Edge((F(1), F(1)), (F(1),))


def test_massless_edges_collapse_to_center_row():
    g = StarGraph(Root.CENTER, F(1), (Edge((F(1),), ()), Edge((F(1),), ())))
    L, diag = build_pencil(g)
    assert L.dim == 1
    assert L.entries == ((F(2),),)
    assert diag == (F(1),)
    full, _ = pencil_det(L, diag)
    assert full == Poly([F(2), F(-1)])


def test_requires_positive_mass():
    g = StarGraph(Root.CENTER, F(0), (BEAD, BEAD))
    with pytest.raises(RequiresPositiveCentralMass):
        build_pencil(g)


def test_three_by_three_structure():
    g = StarGraph(Root.CENTER, F(1), (BEAD, BEAD))
    L, diag = build_pencil(g)
    assert L.dim == 3
    assert L.entries == tuple(zip(*L.entries))
    assert diag == (F(1), F(1), F(1))
    assert L.entries[0] == (F(2), F(-1), F(-1))
    # masses on different edges are not coupled
    assert L.entries[1][2] == 0


def det_rational(rows):
    """Exact determinant via integer scaling and Bareiss elimination: the
    dense oracle for ``pencil_det``."""
    n = len(rows)
    if n == 0:
        return F(1)
    scale = F(1)
    m = []
    for row in rows:
        denlcm = _ilcm(*(c.denominator for c in row)) if row else 1
        m.append([int(c * denlcm) for c in row])
        scale /= denlcm
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return F(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return scale * sign * m[n - 1][n - 1]


def test_det_rational_small():
    assert det_rational([]) == 1
    assert det_rational([[F(5)]]) == 5
    assert det_rational([[F(1), F(2)], [F(3), F(4)]]) == -2
    # singular
    assert det_rational([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_pencil_matches_char_polys():
    g = StarGraph(Root.CENTER, F(1), (BEAD, BEAD))
    L, diag = build_pencil(g)
    phi_n, phi_d = char_polys(g)
    full, sub = pencil_det(L, diag)
    assert full.monic() == phi_n.monic()
    assert sub.monic() == phi_d.monic()


def test_pencil_random_graphs(rng):
    for _ in range(15):
        g = random_center_graph(rng, q_max=4, max_masses=3, mass_choices=(1, 2, F(1, 2)))
        L, diag = build_pencil(g)
        assert L.entries == tuple(zip(*L.entries))
        phi_n, phi_d = char_polys(g)
        full, sub = pencil_det(L, diag)
        assert full.monic() == phi_n.monic()
        assert sub.monic() == phi_d.monic()


def test_interlacing_certificate(rng):
    g = StarGraph(Root.CENTER, F(1), (BEAD, BEAD))
    L, diag = build_pencil(g)
    cert = interlacing_certificate(L, diag)
    assert cert.ok
    assert cert.full_count == 3 and cert.sub_count == 2
    for _ in range(5):
        h = random_center_graph(rng, q_max=3, max_masses=2, mass_choices=(1, 3))
        L, diag = build_pencil(h)
        assert interlacing_certificate(L, diag).ok


def test_interlacing_certificate_failures():
    # det(L - z*I) = z^2 + 1 has no real root
    rotation = RationalMatrix(((F(0), F(1)), (F(-1), F(0))))
    cert = interlacing_certificate(rotation, (F(1), F(1)))
    assert cert.to_json() == {
        "ok": False, "full_count": 0, "sub_count": 1,
        "failures": ["full pencil determinant has non-real roots"],
    }
    # an indefinite mass diagonal: the full roots are +-sqrt(3), mu_1 = -2 lies below both
    cert = interlacing_certificate(RationalMatrix(((F(2), F(1)), (F(1), F(2)))), (F(1), F(-1)))
    assert not cert.ok
    assert (cert.full_count, cert.sub_count, cert.failures) == (2, 1, ("mu_1 < lambda_1",))


def _isolate_and_compare(full, sub):
    """The certificate JSON by isolating both determinants and comparing
    their roots pairwise: the oracle for the remainder-sequence certificate."""
    full_roots = occurrences(isolate_real_roots(full, None, None, classify_rational=False))
    sub_roots = occurrences(isolate_real_roots(sub, None, None, classify_rational=False))
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
    return {"ok": not failures, "full_count": len(full_roots), "sub_count": len(sub_roots),
            "failures": failures}


def _check_against_oracle(full, sub):
    """The sequence verdict and the whole certificate agree with the oracle;
    returns the oracle's verdict."""
    expect = _isolate_and_compare(full, sub)
    if sub.degree == full.degree - 1:
        assert _sequence_certifies(full, sub) == expect["ok"], (full, sub)
    assert _certify(full, sub).to_json() == expect, (full, sub)
    return expect["ok"]


def _determinants(graph):
    return pencil_det(*build_pencil(graph))


def test_sequence_certificate_matches_oracle_on_pencils(rng):
    shared = 0
    for _ in range(25):
        g = random_center_graph(rng, q_max=4, max_masses=3, mass_choices=(1, 2, F(1, 2)))
        assert _check_against_oracle(*_determinants(g))
    for _ in range(25):
        g = duplicated_edge_center_graph(rng, copies=rng.randint(2, 3), mass_choices=(1, F(3, 2)))
        full, sub = _determinants(g)
        assert _check_against_oracle(full, sub)
        shared += poly_gcd(full, sub).degree >= 1
    assert shared >= 10


def _linear(roots, lead):
    return Poly.from_linear_roots(roots).scale(F(lead))


def _planted_pair(rng):
    """(full, sub) with roots planted around a strictly interlacing pair:
    shared real roots of multiplicity 1-3, a shared complex pair, a shared
    irrational pair, or one root of sub moved just outside full's."""
    n = rng.randint(1, 5)
    grid = increasing_rationals(rng, 2 * n - 1, start=F(-12))
    lam, mu = grid[0::2], grid[1::2]
    full = _linear(lam, rng.choice((1, -1, F(2, 3), F(-5, 2))))
    sub = _linear(mu, rng.choice((1, -1, F(7, 4), F(-3))))
    kind = rng.choice(("tie", "tie", "complex", "irrational", "outside", "plain"))
    common = ONE
    if kind == "tie":
        for _ in range(rng.randint(1, 2)):
            r = rng.choice(grid + [grid[-1] + 1, grid[0] - F(1, 3)])
            common = common * Poly.from_linear_roots([r] * rng.randint(1, 3))
    elif kind == "complex":
        c, b = rng.randint(1, 9), rng.randint(-3, 3)
        common = Poly([c, b, 1]) if b * b < 4 * c else Poly([1, 0, 1])  # no real root
    elif kind == "irrational":
        common = math.prod([Poly([-2, 0, 1])] * rng.randint(1, 2), start=ONE)
    elif kind == "outside" and mu:
        k = rng.randrange(len(mu))
        eps = F(1, 10 ** rng.randint(3, 9))
        mu[k] = lam[k] - eps if rng.random() < 0.5 else lam[k + 1] + eps
        sub = _linear(mu, sub.lc)
    return full * common, sub * common


def test_sequence_certificate_matches_oracle_on_planted_pairs(rng):
    verdicts = {True: 0, False: 0}
    for _ in range(120):
        verdicts[_check_against_oracle(*_planted_pair(rng))] += 1
    assert min(verdicts.values()) >= 20
    # the dim-1 pencil: sub is the constant determinant of the empty matrix
    assert _check_against_oracle(Poly([3, -2]), ONE)
    # a shared double root on top of a root of full, and below every root
    assert _check_against_oracle(_linear([1, 3, 3, 3], 1), _linear([2, 3, 3], -1))
    assert _check_against_oracle(_linear([-1, -1, 0, 4], 1), _linear([-1, -1, 2], 1))
    # sub's roots just outside full's, on either side
    assert not _check_against_oracle(_linear([0, 1], 1), _linear([F(-1, 10 ** 9)], -1))
    assert not _check_against_oracle(_linear([0, 1], 1), _linear([1 + F(1, 10 ** 9)], -1))
    # a shared complex pair: every other root interlaces
    z2p1 = Poly([1, 0, 1])
    assert not _check_against_oracle(_linear([0, 2], 1) * z2p1, _linear([1], 1) * z2p1)
    # degrees that do not step by one fall back to the comparison
    assert _check_against_oracle(_linear([0, 2, 4], 1), _linear([1], 1))
    # -rem(z^3 - z - 1, z^2 - 1) = 1: every leading coefficient is positive,
    # but the sequence skips degree 1 (full has one real root)
    assert not _check_against_oracle(Poly([-1, -1, 0, 1]), Poly([-1, 0, 1]))


@pytest.fixture
def certificate_calls(monkeypatch):
    """Record the polynomials matrixize isolates, and count the RootVal.compare
    calls made outside them (isolation sorts its roots by compare)."""
    calls = {"isolated": [], "compare": 0, "inside": False}
    real_isolate, real_compare = matrixize.isolate_real_roots, RootVal.compare

    def isolate(p, *args, **kwargs):
        calls["isolated"].append(p)
        calls["inside"] = True
        try:
            return real_isolate(p, *args, **kwargs)
        finally:
            calls["inside"] = False

    def compare(self, other):
        calls["compare"] += not calls["inside"]
        return real_compare(self, other)

    monkeypatch.setattr(matrixize, "isolate_real_roots", isolate)
    monkeypatch.setattr(RootVal, "compare", compare)
    return calls


def test_certified_interlacing_isolates_at_most_the_gcd(rng, certificate_calls):
    graphs = [random_center_graph(rng, q_max=4, max_masses=3, mass_choices=(1, 2))
              for _ in range(5)]
    graphs += [duplicated_edge_center_graph(rng, copies=3, mass_choices=(1, 2)) for _ in range(5)]
    shared = 0
    for g in graphs:
        certificate_calls["isolated"].clear()
        L, diag = build_pencil(g)
        assert interlacing_certificate(L, diag).ok
        gcd = poly_gcd(*_determinants(g))
        assert [p.monic() for p in certificate_calls["isolated"]] == ([gcd] if gcd.degree else [])
        shared += gcd.degree >= 1
    assert shared >= 3
    assert certificate_calls["compare"] == 0


def test_trivially_interlaced_single_row():
    g = StarGraph(Root.CENTER, F(1), (Edge((F(1),), ()), Edge((F(1),), ())))
    L, diag = build_pencil(g)
    cert = interlacing_certificate(L, diag)
    assert cert.ok and cert.full_count == 1 and cert.sub_count == 0


def test_json_shape():
    g = StarGraph(Root.CENTER, F(1), (BEAD, BEAD))
    L, diag = build_pencil(g)
    obj = pencil_to_json(L, diag)
    assert obj["dim"] == 3
    assert obj["M_diag"] == ["1", "1", "1"]
    assert obj["L"][0] == ["2", "-1", "-1"]
    assert tuple(tuple(F(c) for c in row) for row in obj["L"]) == L.entries


def _pencil_at(L, diag, x):
    n = L.dim
    return [[L.entries[i][j] - (x * diag[i] if i == j else 0) for j in range(n)] for i in range(n)]


def test_pencil_det_matches_dense_determinant(rng):
    """Both determinants on star pencils, on their principal submatrices (a
    forest of several chains), and on pencils whose vertex 0 is isolated."""
    points = (F(0), F(1), F(-3, 2), F(7, 5), F(40))
    graphs = [random_center_graph(rng, q_max=5, max_masses=3, mass_choices=(1, F(3, 2)))
              for _ in range(10)]
    graphs += [duplicated_edge_center_graph(rng, copies=3, mass_choices=(1, 2)) for _ in range(5)]
    assert any(e.mass_count == 0 for g in graphs for e in g.edges)
    pencils = []
    forests = 0
    for g in graphs:
        L, diag = build_pencil(g)
        pencils.append((L, diag))
        if L.dim > 1:
            pencils.append((RationalMatrix(tuple(row[1:] for row in L.entries[1:])), diag[1:]))
            # one chain per edge with masses, each coupled to the centre row
            forests += sum(1 for c in L.entries[0][1:] if c) >= 2
        isolated = ((F(3),) + (F(0),) * L.dim,) + tuple((F(0),) + row for row in L.entries)
        pencils.append((RationalMatrix(isolated), (F(2),) + diag))
    assert forests >= 5
    for M, d in pencils:
        full, sub = pencil_det(M, d)
        assert full.degree == M.dim and sub.degree == M.dim - 1
        for x in points:
            dense = _pencil_at(M, d, x)
            assert full.eval(x) == det_rational(dense)
            assert sub.eval(x) == det_rational([row[1:] for row in dense[1:]])


def test_interlacing_certificate_runs_one_elimination(monkeypatch):
    calls = []

    def counted(L, diag):
        calls.append(L)
        return pencil_det(L, diag)

    monkeypatch.setattr(matrixize, "pencil_det", counted)
    assert interlacing_certificate(*build_pencil(StarGraph(Root.CENTER, F(1), (BEAD, BEAD)))).ok
    assert len(calls) == 1


def test_pencil_det_refuses_an_empty_pencil():
    with pytest.raises(InvariantViolation):
        pencil_det(RationalMatrix(()), ())


def test_pencil_det_rejects_cyclic_pattern():
    cycle = RationalMatrix(((F(2), F(-1), F(-1)), (F(-1), F(2), F(-1)), (F(-1), F(-1), F(2))))
    with pytest.raises(InvariantViolation):
        pencil_det(cycle, (F(1), F(1), F(1)))
