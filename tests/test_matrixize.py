"""Stiffness/mass pencil: structure, determinants, interlacing."""

import json
import math
from fractions import Fraction as F
from math import lcm as _ilcm

import pytest

from starstring import matrixize
from starstring.cli import main
from starstring.errors import InvariantViolation, RequiresPositiveCentralMass
from starstring.forward import char_polys
from starstring.matrixize import (
    InterlacingCertificate,
    RationalMatrix,
    build_pencil,
    interlacing_certificate,
    pencil_det,
    pencil_to_json,
)
from starstring.model import Edge, Root, StarGraph
from starstring.poly import ONE, Poly, poly_gcd
from starstring.roots import RootVal
from tests.conftest import (
    duplicated_edge_center_graph,
    increasing_rationals,
    random_center_graph,
)
from tests.structure_checks import dense_rows, scanned_matrix, sequence_certifies

BEAD = Edge((F(1), F(1)), (F(1),))


def test_massless_edges_collapse_to_center_row():
    g = StarGraph(Root.CENTER, F(1), (Edge((F(1),), ()), Edge((F(1),), ())))
    L, diag = build_pencil(g)
    assert L.dim == 1
    assert dense_rows(L) == ((F(2),),)
    assert diag == (F(1),)
    full, _ = pencil_det(L, diag)
    assert full == Poly([F(2), F(-1)])


def test_matrix_is_its_diagonal_and_pattern(rng):
    """Two matrices with the same JSON are equal and have the same
    determinants; a pattern entry that is zero, on the diagonal, out of
    range or out of order is refused."""
    diag = (F(2), F(2))
    coupled = RationalMatrix(diag, ((0, 1, F(-1)), (1, 0, F(-1))))
    apart = RationalMatrix(diag, ())
    assert coupled != apart and coupled.to_json() != apart.to_json()
    assert pencil_det(coupled, (F(1), F(1))) != pencil_det(apart, (F(1), F(1)))
    for _ in range(10):
        g = random_center_graph(rng, q_max=4, max_masses=3, mass_choices=(1, 2, F(1, 2)))
        L, masses = build_pencil(g)
        read = scanned_matrix([[F(c) for c in row] for row in L.to_json()])
        assert read == L and read.to_json() == L.to_json()
        assert pencil_det(read, masses) == pencil_det(L, masses)
    refused = {
        "zero": ((0, 1, F(0)),),
        "on the diagonal": ((1, 1, F(1)),),
        "row out of range": ((2, 0, F(1)),),
        "column out of range": ((0, 2, F(1)),),
        "negative index": ((-1, 0, F(1)),),
        "out of order": ((1, 0, F(1)), (0, 1, F(1))),
        "repeated": ((0, 1, F(1)), (0, 1, F(1))),
    }
    for pattern in refused.values():
        with pytest.raises(InvariantViolation, match="pattern entry"):
            RationalMatrix(diag, pattern)


def test_requires_positive_mass():
    g = StarGraph(Root.CENTER, F(0), (BEAD, BEAD))
    with pytest.raises(RequiresPositiveCentralMass):
        build_pencil(g)


def test_three_by_three_structure():
    g = StarGraph(Root.CENTER, F(1), (BEAD, BEAD))
    L, diag = build_pencil(g)
    assert L.dim == 3
    rows = dense_rows(L)
    assert rows == tuple(zip(*rows))
    assert diag == (F(1), F(1), F(1))
    assert rows[0] == (F(2), F(-1), F(-1))
    # masses on different edges are not coupled
    assert rows[1][2] == 0


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
        rows = dense_rows(L)
        assert rows == tuple(zip(*rows))
        phi_n, phi_d = char_polys(g)
        full, sub = pencil_det(L, diag)
        assert full.monic() == phi_n.monic()
        assert sub.monic() == phi_d.monic()


def test_build_pencil_records_the_scanned_pattern(rng):
    """The pattern build_pencil writes is the one a scan of its rows finds,
    in the same row-major order, and every entry is a Fraction."""
    for _ in range(15):
        g = random_center_graph(rng, q_max=4, max_masses=3, mass_choices=(1, 2, F(1, 2)))
        L, _ = build_pencil(g)
        rows = dense_rows(L)
        scanned = scanned_matrix(rows)
        assert scanned == L and scanned.pattern == L.pattern
        assert all(type(c) is F for row in rows for c in row)


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
    rotation = scanned_matrix(((F(0), F(1)), (F(-1), F(0))))
    cert = interlacing_certificate(rotation, (F(1), F(1)))
    assert cert.to_json() == {
        "ok": False, "full_count": 0, "sub_count": 1,
        "failures": ["full pencil determinant has non-real roots"],
    }
    # an indefinite mass diagonal: the full roots are +-sqrt(3), mu_1 = -2 lies below both
    cert = interlacing_certificate(scanned_matrix(((F(2), F(1)), (F(1), F(2)))), (F(1), F(-1)))
    assert not cert.ok
    assert (cert.full_count, cert.sub_count, cert.failures) == (2, 1, ("mu_1 < lambda_1",))


# a 1 x 1 pencil with a negative mass: not a star pencil, so its certificate
# isolates and compares whatever determinants pencil_det gives
NOT_A_STAR = (scanned_matrix(((F(1),),)), (F(-1),))


def _general_certificate(monkeypatch, full, sub):
    """The isolate-and-compare certificate of the determinants (full, sub)."""
    monkeypatch.setattr(matrixize, "pencil_det", lambda L, diag: (full, sub))
    return interlacing_certificate(*NOT_A_STAR)


def _check_against_oracle(monkeypatch, full, sub):
    """The general certificate's verdict, which the remainder-sequence
    oracle confirms wherever the degrees step by one; a certified pair
    counts every root of both determinants."""
    cert = _general_certificate(monkeypatch, full, sub)
    if sub.degree == full.degree - 1:
        assert sequence_certifies(full, sub) == cert.ok, (full, sub)
    if cert.ok:
        assert (cert.full_count, cert.sub_count, cert.failures) == (full.degree, sub.degree, ())
    return cert.ok


def _determinants(graph):
    return pencil_det(*build_pencil(graph))


def test_star_pencils_interlace_by_theorem_and_oracle(rng, monkeypatch):
    """On star pencils the oracle certifies what Cauchy's theorem gives, and
    the general certificate of the same determinants agrees."""
    shared = 0
    graphs = [random_center_graph(rng, q_max=4, max_masses=3, mass_choices=(1, 2, F(1, 2)))
              for _ in range(25)]
    graphs += [
        duplicated_edge_center_graph(rng, copies=rng.randint(2, 3), mass_choices=(1, F(3, 2)))
        for _ in range(25)
    ]
    for g in graphs:
        L, diag = build_pencil(g)
        full, sub = pencil_det(L, diag)
        assert sequence_certifies(full, sub), g
        expect = interlacing_certificate(L, diag)
        assert expect == InterlacingCertificate(True, L.dim, L.dim - 1, ())
        assert _general_certificate(monkeypatch, full, sub) == expect, g
        monkeypatch.undo()
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


def test_general_certificate_matches_sequence_oracle_on_planted_pairs(rng, monkeypatch):
    def check(full, sub):
        return _check_against_oracle(monkeypatch, full, sub)

    verdicts = {True: 0, False: 0}
    for _ in range(120):
        verdicts[check(*_planted_pair(rng))] += 1
    assert min(verdicts.values()) >= 20
    # the dim-1 pencil: sub is the constant determinant of the empty matrix
    assert check(Poly([3, -2]), ONE)
    # a shared double root on top of a root of full, and below every root
    assert check(_linear([1, 3, 3, 3], 1), _linear([2, 3, 3], -1))
    assert check(_linear([-1, -1, 0, 4], 1), _linear([-1, -1, 2], 1))
    # sub's roots just outside full's, on either side
    assert not check(_linear([0, 1], 1), _linear([F(-1, 10 ** 9)], -1))
    assert not check(_linear([0, 1], 1), _linear([1 + F(1, 10 ** 9)], -1))
    # a shared complex pair: every other root interlaces
    z2p1 = Poly([1, 0, 1])
    assert not check(_linear([0, 2], 1) * z2p1, _linear([1], 1) * z2p1)
    # degrees that do not step by one: the comparison alone decides
    assert check(_linear([0, 2, 4], 1), _linear([1], 1))
    # -rem(z^3 - z - 1, z^2 - 1) = 1: every leading coefficient is positive,
    # but the sequence skips degree 1 (full has one real root)
    assert not check(Poly([-1, -1, 0, 1]), Poly([-1, 0, 1]))


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
    """A star pencil is certified by the theorem: nothing is isolated or
    compared, not even where duplicated edges give the determinants a
    common factor."""
    graphs = [random_center_graph(rng, q_max=4, max_masses=3, mass_choices=(1, 2))
              for _ in range(5)]
    graphs += [duplicated_edge_center_graph(rng, copies=3, mass_choices=(1, 2)) for _ in range(5)]
    shared = 0
    for g in graphs:
        L, diag = build_pencil(g)
        assert interlacing_certificate(L, diag).ok
        shared += poly_gcd(*_determinants(g)).degree >= 1
    assert shared >= 3
    assert certificate_calls["isolated"] == []
    assert certificate_calls["compare"] == 0


def test_wrong_determinant_degree_is_an_invariant_violation(monkeypatch, tmp_path, capsys):
    """A star pencil's determinant of the wrong degree is a defect of
    ``pencil_det``: the certificate raises instead of reporting a failure,
    and ``matrix`` exits 2 with E_INVARIANT and writes no certificate."""
    def wrong(L, diag):
        full, sub = pencil_det(L, diag)
        return full * Poly([1, 0, 1]), sub

    monkeypatch.setattr(matrixize, "pencil_det", wrong)
    with pytest.raises(InvariantViolation):
        interlacing_certificate(*build_pencil(StarGraph(Root.CENTER, F(1), (BEAD, BEAD))))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({
        "root": "center", "central_mass": "1",
        "edges": [{"lengths": ["1", "1"], "masses": ["1"]}, {"lengths": ["1", "1"], "masses": ["1"]}],
    }))
    out = tmp_path / "pencil.json"
    assert main(["matrix", "--graph", str(graph), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "E_INVARIANT"
    assert out.exists() and not (tmp_path / "pencil.certificate.json").exists()


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
    assert tuple(tuple(F(c) for c in row) for row in obj["L"]) == dense_rows(L)


def _pencil_at(L, diag, x):
    n = L.dim
    rows = dense_rows(L)
    return [[rows[i][j] - (x * diag[i] if i == j else 0) for j in range(n)] for i in range(n)]


# 61-bit primes: length denominators (and numerators), mass denominators,
# and one denominator that only a single diagonal entry carries
WIDE_LENGTHS = tuple(2 ** 61 - k for k in (1, 31, 45))
WIDE_MASSES = tuple(2 ** 61 - k for k in (229, 259))
UNSHARED = 2 ** 61 - 283


def _wide_pencils(rng):
    """Star pencils whose lengths and masses have 61-bit prime denominators,
    each also with one diagonal entry given a denominator no entry off the
    diagonal shares."""
    def length():
        num, den = rng.sample(WIDE_LENGTHS, 2)
        return F(num, den)

    def mass():
        return F(rng.randint(1, 10 ** 6), rng.choice(WIDE_MASSES))

    for _ in range(4):
        edges = [Edge(tuple(length() for _ in range(k + 1)), tuple(mass() for _ in range(k)))
                 for k in (rng.randint(1, 3) for _ in range(rng.randint(2, 3)))]
        L, diag = build_pencil(StarGraph(Root.CENTER, mass(), tuple(edges)))
        yield L, diag
        rows = [list(row) for row in dense_rows(L)]
        v = rng.randrange(L.dim)
        rows[v][v] += F(rng.randint(1, 10 ** 6), UNSHARED)
        yield scanned_matrix(rows), diag


def test_pencil_det_matches_dense_determinant(rng):
    """Both determinants on star pencils, on their principal submatrices (a
    forest of several chains), on pencils whose vertex 0 is isolated, and
    on star pencils with wide, unshared denominators."""
    points = (F(0), F(1), F(-3, 2), F(7, 5), F(40))
    graphs = [random_center_graph(rng, q_max=5, max_masses=3, mass_choices=(1, F(3, 2)))
              for _ in range(10)]
    graphs += [duplicated_edge_center_graph(rng, copies=3, mass_choices=(1, 2)) for _ in range(5)]
    assert any(e.mass_count == 0 for g in graphs for e in g.edges)
    pencils = list(_wide_pencils(rng))
    forests = 0
    for g in graphs:
        L, diag = build_pencil(g)
        pencils.append((L, diag))
        rows = dense_rows(L)
        if L.dim > 1:
            pencils.append((scanned_matrix(tuple(row[1:] for row in rows[1:])), diag[1:]))
            # one chain per edge with masses, each coupled to the centre row
            forests += sum(1 for c in rows[0][1:] if c) >= 2
        isolated = ((F(3),) + (F(0),) * L.dim,) + tuple((F(0),) + row for row in rows)
        pencils.append((scanned_matrix(isolated), (F(2),) + diag))
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
        pencil_det(RationalMatrix((), ()), ())


def test_pencil_det_rejects_cyclic_pattern():
    cycle = scanned_matrix(((F(2), F(-1), F(-1)), (F(-1), F(2), F(-1)), (F(-1), F(-1), F(2))))
    with pytest.raises(InvariantViolation):
        pencil_det(cycle, (F(1), F(1), F(1)))


def test_zero_mirror_entry_takes_the_general_path(certificate_calls):
    """A pencil asymmetric only through a zero mirror entry, L[0][1] != 0 =
    L[1][0] or its transpose, is not certified by the theorem: both
    determinants are isolated and compared, and the verdict is the
    remainder-sequence oracle's."""
    upper = ((F(3), F(-1), F(0)), (F(0), F(2), F(-1)), (F(0), F(-1), F(2)))
    diag = (F(1), F(2), F(1))
    for rows in (upper, tuple(zip(*upper))):
        L = scanned_matrix(rows)
        certificate_calls["isolated"].clear()
        cert = interlacing_certificate(L, diag)
        full, sub = pencil_det(L, diag)
        assert certificate_calls["isolated"] == [full, sub]
        assert cert.ok == sequence_certifies(full, sub)


def test_pencil_det_runs_in_integers(monkeypatch):
    """The elimination of a 16-mass star pencil adds and multiplies integer
    vectors: it calls neither Poly.__mul__ nor Poly.__add__."""
    chain = Edge((F(1, 2), F(2, 3), F(1), F(3, 4), F(1), F(2)), (F(1), F(2, 5), F(3), F(1), F(1, 7)))
    graph = StarGraph(Root.CENTER, F(5, 3), (chain, chain, chain))
    L, diag = build_pencil(graph)
    assert L.dim == 16
    calls = []
    for name in ("__mul__", "__add__"):
        real = getattr(Poly, name)
        monkeypatch.setattr(Poly, name, lambda a, b, real=real, name=name: calls.append(name) or real(a, b))
    full, sub = pencil_det(L, diag)
    monkeypatch.undo()
    assert calls == []
    phi_n, phi_d = char_polys(graph)
    assert (full.monic(), sub.monic()) == (phi_n.monic(), phi_d.monic())
