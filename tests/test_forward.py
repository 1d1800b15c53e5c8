"""Direct solver: ladder recurrences, characteristic polynomials, identities."""

import math
from dataclasses import replace
from fractions import Fraction as F

import pytest

from starstring.forward import char_polys, edge_cauer_polys, spectrum_of
from starstring.model import Edge, Root, StarGraph
from starstring.poly import ONE, ZERO, Poly
from starstring.ratfun import RationalFunction, _ladder
from tests.conftest import (
    duplicated_edge_center_graph,
    duplicated_edge_pendant_graph,
    random_center_graph,
    random_edge,
    random_pendant_graph,
)
from tests.structure_checks import (
    _root_ladders,
    check_center_identities,
    check_center_interlacing,
    check_common_zero_accounting,
    check_main_edge_identities,
    check_pendant_identities,
    check_pendant_interlacing,
    neumann_monotonicity,
)


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


SINGLE_BEAD = Edge((F(1), F(1)), (F(1),))


class TestCauer:
    def test_single_bead_clamped(self):
        # fixed-fixed unit bead: R_1 = 1 - z, R_2 = 2 - z;
        # frequency^2 oracle (1/m)(1/l0 + 1/l1) = 2
        even, odd = edge_cauer_polys(SINGLE_BEAD)
        assert odd == P(1, -1)
        assert even == P(2, -1)

    def test_massless_base_case(self):
        even, odd = edge_cauer_polys(Edge((F(1),), ()))
        assert even == P(1)
        assert odd == P(1)

    def test_single_bead_free(self):
        # free-fixed bead: frequency^2 oracle = 1/(m*l) = 1
        even, odd = _ladder(ONE, ZERO, [(F(1), F(1))])
        assert even == P(1, -1)
        assert odd == P(0, -1)

    def test_main_edge_flavours(self):
        pair_d, pair_n = _root_ladders(SINGLE_BEAD)
        assert pair_d == (P(2, -1), P(1, -1))
        assert pair_n == (P(1, -1), P(0, -1))

    def test_even_odd_coprime(self, rng):
        from starstring.poly import poly_gcd

        for _ in range(20):
            assert poly_gcd(*edge_cauer_polys(random_edge(rng))).degree == 0


class TestCharPolysCenter:
    def test_two_massless_edges(self):
        g = StarGraph(Root.CENTER, F(1), (Edge((F(1),), ()), Edge((F(1),), ())))
        phi_n, phi_d = char_polys(g)
        assert phi_d == P(1)
        assert phi_n == P(2, -1)

    def test_two_single_bead_edges(self):
        g = StarGraph(Root.CENTER, F(0), (SINGLE_BEAD, SINGLE_BEAD))
        phi_n, phi_d = char_polys(g)
        assert phi_d == math.prod([P(2, -1)] * 2, start=ONE)
        assert phi_n == P(1, -1) * P(2, -1) * P(2)

    def test_worked_subgraph_quotient(self):
        # the two reconstructed edges: quotient reduces to 3(1-z)/(2-z)
        g = StarGraph(
            Root.CENTER,
            F(0),
            (
                Edge((F(2, 3), F(4, 3)), (F(9, 8),)),
                Edge((F(2, 3), F(1, 3)), (F(9, 4),)),
            ),
        )
        phi_n, phi_d = char_polys(g)
        rf, _ = RationalFunction.make(phi_n, phi_d)
        expect, _ = RationalFunction.make(P(3, -3), P(2, -1))
        assert rf == expect


class TestCharPolysPendant:
    def _example_graph(self):
        return StarGraph(
            Root.PENDANT,
            F(0),
            (
                Edge((F(2, 3), F(4, 3)), (F(9, 8),)),
                Edge((F(2, 3), F(1, 3)), (F(9, 4),)),
            ),
            Edge((F(1), F(1)), (F(1),)),
        )

    def test_worked_example_spectra(self):
        phi_n, phi_d = char_polys(self._example_graph())
        zeros_d = [(rv.rat, m) for rv, m in spectrum_of(phi_d)]
        zeros_n = [(rv.rat, m) for rv, m in spectrum_of(phi_n)]
        assert zeros_d == [(F(1), 1), (F(2), 2)]
        assert zeros_n == [(F(1, 2), 1), (F(3, 2), 1), (F(2), 1)]

    def test_worked_example_squarefree_structure(self):
        from starstring.poly import squarefree_factor

        _, phi_d = char_polys(self._example_graph())
        factors = {m: f for f, m in squarefree_factor(phi_d)}
        assert factors[2] == P(-2, 1)
        assert factors[1] == P(-1, 1)

    def test_single_nonmain_massless_edge(self):
        # main bead + one massless edge: free-end spectrum is the
        # fixed-free spectrum of the combined string
        g = StarGraph(Root.PENDANT, F(0), (Edge((F(1),), ()),), SINGLE_BEAD)
        phi_n, phi_d = char_polys(g)
        assert phi_d.degree == 1 and phi_n.degree == 1
        # single mass 1 on a fixed-free string: intervals 1 then 2 to the wall
        # frequency^2 = (1/m) * 1/l_to_wall_side... computed by the recurrences
        roots = spectrum_of(phi_n)
        assert len(roots) == 1

    def test_empty_graph_constant(self):
        g = StarGraph(
            Root.PENDANT,
            F(0),
            (Edge((F(2),), ()),),
            Edge((F(3),), ()),
        )
        phi_n, phi_d = char_polys(g)
        assert phi_d.degree == 0 and phi_n.degree == 0
        assert spectrum_of(phi_d) == [] and spectrum_of(phi_n) == []


def _reference_char_polys(graph):
    """(phi_N, phi_D) by the two-flavour formula: the main edge's ladders
    from a clamped and from a free root, glued by four products to the
    polynomials (sub_N, sub_D) of the edges folded at the centre."""

    def ladder(seed, steps):
        even, odd = P(1), seed
        for mass, length in steps:
            odd = P(0, -mass) * even + odd
            even = odd.scale(length) + even
        return even, odd

    num, den = P(), P(1)
    for e in graph.edges:
        even, odd = ladder(P(1 / e.lengths[-1]), zip(reversed(e.masses), reversed(e.lengths[:-1])))
        num, den = num * even + odd * den, den * even
    sub_n, sub_d = num - P(0, graph.central_mass) * den, den
    if graph.root is Root.CENTER:
        return sub_n, sub_d
    main = graph.main_edge
    steps = list(zip(main.masses, main.lengths[1:]))
    even_d, odd_d = ladder(P(1 / main.lengths[0]), steps)
    even_n, odd_n = ladder(P(), steps)
    return even_n * sub_n + odd_n * sub_d, even_d * sub_n + odd_d * sub_d


@pytest.mark.parametrize("central_mass", [0, 1, 2])
def test_char_polys_match_the_two_flavour_formula(rng, central_mass):
    """The one ladder through the centre equals the two main-edge ladders
    glued to the subgraph, for both roots and for duplicated edges."""
    masses = (F(central_mass),)
    makers = (
        lambda: random_center_graph(rng, mass_choices=masses),
        lambda: random_pendant_graph(rng, mass_choices=masses),
        lambda: duplicated_edge_center_graph(rng, copies=rng.randint(2, 3), mass_choices=masses),
        lambda: duplicated_edge_pendant_graph(rng, copies=rng.randint(2, 3), extra=1,
                                              mass_choices=masses),
    )
    for _ in range(10):
        for make in makers:
            g = make()
            assert char_polys(g) == _reference_char_polys(g)


class TestMonotonicity:
    def test_single_center_bead_oracle(self):
        # two massless unit edges: the only eigenvalue is 2/M
        g = StarGraph(Root.CENTER, F(1), (Edge((F(1),), ()), Edge((F(1),), ())))
        rep = neumann_monotonicity(g, [F(1), F(2)])
        assert rep.ok and rep.unresolved == 0
        phi_1, _ = char_polys(replace(g, central_mass=F(1)))
        phi_2, _ = char_polys(replace(g, central_mass=F(2)))
        assert spectrum_of(phi_1)[0][0].rat == 2
        assert spectrum_of(phi_2)[0][0].rat == 1

    def test_worked_subgraph(self):
        g = StarGraph(
            Root.CENTER,
            F(0),
            (
                Edge((F(2, 3), F(4, 3)), (F(9, 8),)),
                Edge((F(2, 3), F(1, 3)), (F(9, 4),)),
            ),
        )
        rep = neumann_monotonicity(g, [F(0), F(1)])
        assert rep.ok

    def test_equal_masses(self):
        g = StarGraph(Root.CENTER, F(1), (SINGLE_BEAD, SINGLE_BEAD))
        rep = neumann_monotonicity(g, [F(1), F(1)])
        assert rep.ok

    def test_random_graphs(self, rng):
        for _ in range(10):
            g = random_center_graph(rng, q_max=3, max_masses=2)
            rep = neumann_monotonicity(g, [F(0), F(1, 2), F(1), F(2)])
            assert rep.ok and rep.unresolved == 0


class TestSpectralStructure:
    def test_center_interlacing_random(self, rng):
        for _ in range(25):
            g = random_center_graph(rng, q_max=4, max_masses=3)
            check_center_interlacing(g)
            check_center_identities(g)

    def test_center_interlacing_duplicated(self, rng):
        for _ in range(10):
            g = duplicated_edge_center_graph(rng, copies=rng.randint(2, 3), extra=1)
            check_center_interlacing(g)

    def test_pendant_chain_random(self, rng):
        for _ in range(15):
            g = random_pendant_graph(rng, q_max=4, max_masses=2)
            check_pendant_interlacing(g)
            check_main_edge_identities(g)
            check_pendant_identities(g)

    def test_common_zero_accounting_engineered(self, rng):
        found = 0
        for _ in range(12):
            g = duplicated_edge_pendant_graph(rng, copies=rng.randint(2, 3), extra=1)
            found += check_common_zero_accounting(g)
            check_pendant_interlacing(g)
        assert found > 0, "engineered graphs must produce common zeros"

    def test_lagrange_and_length_random_edges(self, rng):
        from tests.structure_checks import lagrange_check, total_length_identity

        for _ in range(25):
            e = random_edge(rng, max_masses=6)
            ok, failing = lagrange_check(e)
            assert ok, failing
            assert total_length_identity(e)

    def test_lagrange_massless(self):
        from tests.structure_checks import lagrange_check

        ok, _ = lagrange_check(Edge((F(5, 3),), ()))
        assert ok
