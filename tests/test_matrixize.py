"""Stiffness/mass pencil: structure, determinants, interlacing."""

from fractions import Fraction as F

import pytest

from starstring.errors import InvariantViolation, RequiresPositiveCentralMass
from starstring.forward import char_polys_center
from starstring.matrixize import (
    RationalMatrix,
    build_pencil,
    det_rational,
    interlacing_certificate,
    pencil_det,
    pencil_to_json,
)
from starstring.model import Edge, Root, StarGraph
from starstring.poly import Poly
from tests.conftest import duplicated_edge_center_graph, random_center_graph

BEAD = Edge((F(1), F(1)), (F(1),))


def test_massless_edges_collapse_to_center_row():
    g = StarGraph(Root.CENTER, F(1), (Edge((F(1),), ()), Edge((F(1),), ())))
    L, diag = build_pencil(g)
    assert L.dim == 1
    assert L.entries == ((F(2),),)
    assert diag == (F(1),)
    assert pencil_det(L, diag) == Poly([F(2), F(-1)])


def test_requires_positive_mass():
    g = StarGraph(Root.CENTER, F(0), (BEAD, BEAD))
    with pytest.raises(RequiresPositiveCentralMass):
        build_pencil(g)


def test_three_by_three_structure():
    g = StarGraph(Root.CENTER, F(1), (BEAD, BEAD))
    L, diag = build_pencil(g)
    assert L.dim == 3
    assert L.is_symmetric()
    assert diag == (F(1), F(1), F(1))
    assert L.entries[0] == (F(2), F(-1), F(-1))
    # masses on different edges are not coupled
    assert L.entries[1][2] == 0


def test_symmetry_violation_detected():
    m = RationalMatrix(((F(1), F(2)), (F(3), F(1))))
    assert not m.is_symmetric()


def test_det_rational_small():
    assert det_rational([]) == 1
    assert det_rational([[F(5)]]) == 5
    assert det_rational([[F(1), F(2)], [F(3), F(4)]]) == -2
    # singular
    assert det_rational([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_pencil_matches_char_polys():
    g = StarGraph(Root.CENTER, F(1), (BEAD, BEAD))
    L, diag = build_pencil(g)
    phi_n, phi_d = char_polys_center(g)
    assert pencil_det(L, diag).monic() == phi_n.monic()
    sub = pencil_det(L.principal_submatrix(), diag[1:])
    assert sub.monic() == phi_d.monic()


def test_pencil_random_graphs(rng):
    for _ in range(15):
        g = random_center_graph(rng, q_max=4, max_masses=3, mass_choices=(1, 2, F(1, 2)))
        L, diag = build_pencil(g)
        assert L.is_symmetric()
        phi_n, phi_d = char_polys_center(g)
        assert pencil_det(L, diag).monic() == phi_n.monic()
        sub = pencil_det(L.principal_submatrix(), diag[1:])
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
    assert RationalMatrix.from_json(obj["L"]) == L


def _pencil_at(L, diag, x):
    n = L.dim
    return [[L.entries[i][j] - (x * diag[i] if i == j else 0) for j in range(n)] for i in range(n)]


def test_pencil_det_matches_dense_determinant(rng):
    points = (F(0), F(1), F(-3, 2), F(7, 5), F(40))
    graphs = [random_center_graph(rng, q_max=5, max_masses=3, mass_choices=(1, F(3, 2)))
              for _ in range(10)]
    graphs += [duplicated_edge_center_graph(rng, copies=3, mass_choices=(1, 2)) for _ in range(5)]
    assert any(e.mass_count == 0 for g in graphs for e in g.edges)
    for g in graphs:
        L, diag = build_pencil(g)
        for M, d in ((L, diag), (L.principal_submatrix(), diag[1:])):
            p = pencil_det(M, d)
            assert p.degree == M.dim
            for x in points:
                assert p.eval(x) == det_rational(_pencil_at(M, d, x))


def test_pencil_det_rejects_cyclic_pattern():
    cycle = RationalMatrix(((F(2), F(-1), F(-1)), (F(-1), F(2), F(-1)), (F(-1), F(-1), F(2))))
    with pytest.raises(InvariantViolation):
        pencil_det(cycle, (F(1), F(1), F(1)))
