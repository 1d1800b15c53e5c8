"""Acceptance suite: one test per criterion, exact tolerances, pass/fail lines.

Every assertion is exact (rational equality or certified root comparison);
there are no numeric tolerances anywhere.  Each criterion reports one
CRITERION line, echoed in the terminal summary of any pytest run.
"""

import random
import time
from fractions import Fraction as F

from starstring.forward import (
    center_quotient,
    char_polys,
    edge_cauer_polys,
    pendant_quotient,
    spectrum_of,
)
from starstring.inverse_center import reconstruct_center, reconstruct_center_grouped
from starstring.inverse_pendant import decompose_main_from_quotient, reconstruct_pendant
from starstring.matrixize import build_pencil, interlacing_certificate, pencil_det
from starstring.model import Edge, ReconstructionPlan, SpectrumPair
from starstring.poly import Poly, poly_gcd
from starstring.ratfun import RationalFunction, StieltjesCF, cf_expand, cf_to_ratfun
from starstring.roots import isolate_real_roots
from tests.conftest import (
    duplicated_edge_center_graph,
    duplicated_edge_pendant_graph,
    random_center_graph,
    random_center_spectral_data,
    random_pendant_graph,
)
from tests.structure_checks import (
    center_quotient_identity,
    check_center_interlacing,
    check_common_zero_accounting,
    check_pendant_interlacing,
    dense_rows,
    lagrange_check,
    neumann_monotonicity,
    pendant_subgraph_identities,
    sequence_certifies,
    total_length_identity,
)

GOLDEN_PENDANT_SPECTRA = SpectrumPair(
    ((F(1, 2), 1), (F(3, 2), 1), (F(2), 1)),
    ((F(1), 1), (F(2), 2)),
)
GOLDEN_PENDANT_MAIN_LENGTH = F(2)
GOLDEN_PENDANT_LENGTHS = [F(2), F(1)]
GOLDEN_PENDANT_SPLIT = ReconstructionPlan(residue_split=((F(2), (F(2, 3), F(1, 3))),))

GOLDEN_CENTER_SPECTRA = SpectrumPair(((F(1), 1), (F(2), 1)), ((F(2), 2),))
GOLDEN_CENTER_LENGTHS = [F(2), F(1)]


def _line(number, description, started):
    return f"CRITERION {number}: PASS - {description} ({time.monotonic() - started:.2f}s)"


def test_criterion_1_worked_pendant_example(acceptance_report):
    started = time.monotonic()
    rec = reconstruct_pendant(GOLDEN_PENDANT_SPECTRA, GOLDEN_PENDANT_MAIN_LENGTH, GOLDEN_PENDANT_LENGTHS, GOLDEN_PENDANT_SPLIT)
    g = rec.graph
    assert g.main_edge == Edge((F(1), F(1)), (F(1),))
    assert g.central_mass == 0
    assert g.edges[0] == Edge((F(2, 3), F(4, 3)), (F(9, 8),))
    assert g.edges[1] == Edge((F(2, 3), F(1, 3)), (F(9, 4),))
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"
    acceptance_report(_line(1, "pendant golden reconstruction, byte-exact rationals", started))


def test_criterion_2_worked_example_intermediates(acceptance_report):
    started = time.monotonic()
    from starstring.inverse_pendant import build_phi, decompose_main

    phi, gamma, _ = build_phi(GOLDEN_PENDANT_SPECTRA, GOLDEN_PENDANT_MAIN_LENGTH, GOLDEN_PENDANT_LENGTHS)
    assert gamma == F(8, 3)
    cf = cf_expand(phi)
    assert cf.a == (F(1), F(4, 3), F(1, 3))
    assert cf.b == (F(1), F(3))
    dec = decompose_main(GOLDEN_PENDANT_SPECTRA, GOLDEN_PENDANT_MAIN_LENGTH, GOLDEN_PENDANT_LENGTHS)
    assert dec.main_mass_count == 1
    assert dec.tail_constant == F(1, 3)
    # (2 - z)/(3(1 - z)) in canonical form
    assert dec.tail == RationalFunction(Poly([F(-2, 3), F(1, 3)]), Poly([F(-1), F(1)]))
    acceptance_report(_line(2, "gamma, continued fraction, cut index, tail - all exact", started))


def test_criterion_3_worked_center_family(acceptance_report):
    started = time.monotonic()
    for a in (F(1, 2), F(1), F(3, 2), F(2), F(5, 2)):
        plan = ReconstructionPlan(residue_split=((F(2), (a / 3, (3 - a) / 3)),))
        rec = reconstruct_center(GOLDEN_CENTER_SPECTRA, GOLDEN_CENTER_LENGTHS, plan)
        assert rec.graph.central_mass == 0
        e1, e2 = rec.graph.edges
        assert e1.lengths[0] == 2 / (a + 1)
        assert e1.lengths[1] == 2 * a / (a + 1)
        assert e1.masses[0] == (1 / a) * ((a + 1) / 2) ** 2
        assert e2.lengths[0] == 2 / (5 - a)
        assert e2.lengths[1] == (3 - a) / (5 - a)
        assert e2.masses[0] == (1 / (3 - a)) * ((5 - a) / 2) ** 2
    acceptance_report(_line(3, "centre-root family closed forms at a in {1/2,1,3/2,2,5/2}", started))


def test_criterion_4_roundtrips(acceptance_report):
    started = time.monotonic()
    rng = random.Random(407)
    # centre: random admissible spectra -> graph; then the stated loop
    # graph -> forward -> reconstruct (default plan) -> forward
    for _ in range(200):
        spectra, lengths, q, _ = random_center_spectral_data(rng, q_max=5, d_max=4)
        graph = reconstruct_center(spectra, lengths).graph
        phi_n, phi_d = char_polys(graph)
        forwarded = SpectrumPair(
            tuple((rv.rat, m) for rv, m in spectrum_of(phi_n)),
            tuple((rv.rat, m) for rv, m in spectrum_of(phi_d)),
        )
        assert forwarded == spectra
        again = reconstruct_center(forwarded, lengths).graph
        q1, _ = center_quotient(graph)
        q2, _ = center_quotient(again)
        assert q1 == q2
    # centre graphs with bounded random data (irrational spectra):
    # round-trip through the forward-induced per-edge grouping
    done = 0
    while done < 100:
        g = random_center_graph(rng, q_max=5, max_masses=4)
        factors = [edge_cauer_polys(e)[0].monic() for e in g.edges]
        if any(
            poly_gcd(factors[i], factors[j]).degree > 0
            for i in range(len(factors))
            for j in range(i)
        ):
            continue
        quotient, _ = center_quotient(g)
        rebuilt = reconstruct_center_grouped(
            quotient.inverse(), factors, [e.total_length for e in g.edges]
        )
        q2, _ = center_quotient(rebuilt)
        assert q2 == quotient
        done += 1
    # pendant: main edge recovered identically from the spectral quotient
    for _ in range(200):
        g = random_pendant_graph(rng, q_max=5, max_masses=4)
        quotient, _ = pendant_quotient(g)
        dec = decompose_main_from_quotient(quotient, g.main_edge.total_length)
        assert dec.main == g.main_edge
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s"
    acceptance_report(_line(4, "200 centre + 200 pendant round-trips, identical quotients/main edges", started))


def test_criterion_5_structure_suites(acceptance_report):
    started = time.monotonic()
    rng = random.Random(508)
    for _ in range(150):
        g = random_center_graph(rng, q_max=5, max_masses=4)
        check_center_interlacing(g)  # interlacing, ties, caps, neighbour simplicity
        assert center_quotient_identity(g)
    for _ in range(50):
        g = duplicated_edge_center_graph(rng, copies=rng.randint(2, 3), extra=1)
        check_center_interlacing(g)
    for _ in range(150):
        g = random_pendant_graph(rng, q_max=5, max_masses=4)
        check_pendant_interlacing(g)
        ok, failing = lagrange_check(g.main_edge)
        assert ok, failing
        assert total_length_identity(g.main_edge)
        first, second = pendant_subgraph_identities(g)
        assert first and second
    common_records = 0
    for _ in range(50):
        g = duplicated_edge_pendant_graph(rng, copies=rng.randint(2, 3), extra=1)
        check_pendant_interlacing(g)
        common_records += check_common_zero_accounting(g)
    assert common_records >= 25, "engineered graphs must exercise common zeros"
    acceptance_report(_line(
        5,
        f"interlacing/tie/multiplicity/identity suites, {common_records} common-zero records, zero failures",
        started,
    ))


def test_criterion_6_monotonicity(acceptance_report):
    started = time.monotonic()
    rng = random.Random(609)
    masses = [F(0), F(1, 2), F(1), F(2)]
    unresolved = 0
    for _ in range(50):
        g = random_center_graph(rng, q_max=4, max_masses=3)
        rep = neumann_monotonicity(g, masses)
        assert rep.ok, rep.failures
        unresolved += rep.unresolved
    assert unresolved == 0
    acceptance_report(_line(6, "Neumann spectra non-increasing in the central mass, 0 unresolved", started))


def test_criterion_7_matrix_bridge(acceptance_report):
    started = time.monotonic()
    rng = random.Random(710)
    for _ in range(100):
        g = random_center_graph(rng, q_max=4, max_masses=3, mass_choices=(1, 2, F(1, 2), F(3)))
        L, diag = build_pencil(g)
        rows = dense_rows(L)
        assert rows == tuple(zip(*rows))
        phi_n, phi_d = char_polys(g)
        full, sub = pencil_det(L, diag)
        assert full.monic() == phi_n.monic()
        assert sub.monic() == phi_d.monic()
        # Cauchy's theorem certifies the pencil; the remainder sequence checks it
        assert interlacing_certificate(L, diag).ok
        assert sequence_certifies(full, sub)
    acceptance_report(_line(7, "pencil determinants proportional to the char polys; interlacing certified", started))


def test_criterion_8_continued_fraction_engine(acceptance_report):
    started = time.monotonic()
    rng = random.Random(811)
    for _ in range(500):
        p = rng.randint(0, 10)
        a0 = F(0) if (p > 0 and rng.random() < 0.4) else F(rng.randint(1, 20), rng.randint(1, 20))
        cf = StieltjesCF(
            (a0,) + tuple(F(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(p)),
            tuple(F(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(p)),
        )
        assert cf_expand(cf_to_ratfun(cf)) == cf
    checked = 0
    while checked < 100:
        p = rng.randint(2, 6)
        a0 = F(0) if rng.random() < 0.5 else F(rng.randint(1, 9), rng.randint(1, 4))
        cf = StieltjesCF(
            (a0,) + tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(p)),
            tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(p)),
        )
        prev = isolate_real_roots(cf_to_ratfun(cf).num, 0, None)
        for i in range(1, p):
            cur = isolate_real_roots(cf_to_ratfun(StieltjesCF(cf.a[i:], cf.b[i:])).num, 0, None)
            if not prev or not cur:
                break
            c = cur[0][0].compare(prev[0][0])
            if i == 1 and a0 == 0:
                assert c >= 0
            else:
                assert c > 0
            prev = cur
            checked += 1
    acceptance_report(_line(8, "500 expansion/fold round-trips; 100 tail-zero monotonicity checks", started))
