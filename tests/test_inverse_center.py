"""Centre-root inverse: validation, quotient, plans, reconstruction."""

import pickle
from fractions import Fraction as F

import pytest

from starstring import inverse_center
from starstring.errors import InvalidSpectra, InvariantViolation, PlanInfeasible, StarStringError
from starstring.forward import center_quotient, char_polys, edge_cauer_polys, spectrum_of
from starstring.inverse_center import (
    ValidationReport,
    build_psi,
    enumerate_constraints,
    plan_partition,
    reconstruct_center,
    reconstruct_center_grouped,
    validate_center,
)
from starstring.inverse_pendant import validate_pendant
from starstring.model import Edge, ReconstructionPlan, Root, SpectrumPair, StarGraph
from starstring.poly import Poly, poly_gcd
from tests.conftest import random_center_graph, random_center_spectral_data
from tests.structure_checks import every_plan, realizes

EX_SPECTRA = SpectrumPair(((F(1), 1), (F(2), 1)), ((F(2), 2),))
EX_LENGTHS = [F(2), F(1)]
BEAD = Edge((F(1), F(1)), (F(1),))


class TestValidate:
    def test_worked_example_valid(self):
        report = validate_center(EX_SPECTRA, 3)
        assert report.valid
        assert report.central_mass_positive is False

    def test_strictness_violation(self):
        bad = SpectrumPair(((F(1), 1),), ((F(1), 1),))
        report = validate_center(bad, 2)
        assert not report.valid
        assert any(i.code == "chain" for i in report.issues)

    def test_chain_messages(self):
        # both validators word the same chain, with their own names
        values = lambda *vs: tuple((v, 1) for v in vs)
        issues = lambda report: [(i.code, i.message) for i in report.issues]
        center = SpectrumPair(values(F(2), F(13, 2), F(7), F(8)), values(F(1, 2), F(5), F(9)))
        assert issues(validate_center(center, 2)) == [
            ("chain", "need lambda_1 < zeta_1, got 2 >= 1/2"),
            ("chain", "need zeta_1 <= lambda_2 <= zeta_2 (1/2, 13/2, 5)"),
            ("chain", "need zeta_n < lambda_n+1, got 9 >= 8"),
        ]
        pendant = SpectrumPair(values(F(2), F(13, 2), F(7)), values(F(1, 2), F(5), F(9)))
        assert issues(validate_pendant(pendant, 1, [F(1), F(1)])) == [
            ("chain", "need mu_1 < lambda_1, got 2 >= 1/2"),
            ("chain", "need lambda_1 <= mu_2 <= lambda_2 (1/2, 13/2, 5)"),
        ]

    def test_multiplicity_cap(self):
        bad = SpectrumPair(
            ((F(1), 1), (F(2), 2), (F(4), 1)),
            ((F(2), 3), (F(5), 1)),
        )
        report = validate_center(bad, 2)  # dirichlet multiplicity 3 > q = 2
        assert not report.valid
        assert any(i.code == "multiplicity" for i in report.issues)

    def test_random_generated_data_valid(self, rng):
        for _ in range(30):
            spectra, lengths, q, m_positive = random_center_spectral_data(rng)
            report = validate_center(spectra, q)
            assert report.valid, [i.message for i in report.issues]
            assert report.central_mass_positive == m_positive


class TestBuildPsi:
    def test_worked_example(self):
        psi = build_psi(EX_SPECTRA, EX_LENGTHS)
        # 3(1-z)/(2-z), canonically (3z-3)/(z-2)
        assert psi.num == Poly([F(-3), F(3)])
        assert psi.den == Poly([F(-2), F(1)])
        assert psi.eval(F(0)) == F(3, 2)

    def test_no_dirichlet(self):
        spectra = SpectrumPair(((F(2), 1),), ())
        psi = build_psi(spectra, [F(1), F(1)])
        assert psi.num == Poly([F(2), F(-1)])
        assert psi.den == Poly([F(1)])


class TestPlans:
    def test_explicit_split(self):
        plan = ReconstructionPlan(residue_split=((F(2), (F(2, 3), F(1, 3))),))
        cplan = plan_partition(EX_SPECTRA.dirichlet_sq, 2, plan)
        assert cplan.partition == ((0, 1),)
        assert cplan.residue_split == ((F(2), (F(2, 3), F(1, 3))),)

    def test_default_equal_split(self):
        cplan = plan_partition(EX_SPECTRA.dirichlet_sq, 2)
        assert cplan.residue_split == ((F(2), (F(1, 2), F(1, 2))),)

    def test_too_many_occurrences(self):
        spectra = SpectrumPair(
            ((F(1), 1), (F(2), 2), (F(4), 1)),
            ((F(2), 3), (F(5), 1)),
        )
        with pytest.raises(PlanInfeasible):
            plan_partition(spectra.dirichlet_sq, 2)

    def test_bad_share_sum(self):
        plan = ReconstructionPlan(residue_split=((F(2), (F(1, 2), F(1, 3))),))
        with pytest.raises(PlanInfeasible):
            plan_partition(EX_SPECTRA.dirichlet_sq, 2, plan)

    def test_partition_override(self):
        plan = ReconstructionPlan(partition=((1, 0),))
        cplan = plan_partition(EX_SPECTRA.dirichlet_sq, 2, plan)
        assert cplan.partition == ((1, 0),)

    def test_round_robin_by_load(self):
        spectra = SpectrumPair(
            ((F(1, 2), 1), (F(3), 1), (F(5), 1)),
            ((F(1), 1), (F(4), 1)),
        )
        cplan = plan_partition(spectra.dirichlet_sq, 3)
        assert cplan.partition == ((0,), (1,))


class TestReconstruct:
    def test_worked_family_closed_forms(self):
        for a in (F(1, 2), F(1), F(3, 2), F(2), F(5, 2)):
            plan = ReconstructionPlan(residue_split=((F(2), (a / 3, (3 - a) / 3)),))
            rec = reconstruct_center(EX_SPECTRA, EX_LENGTHS, plan)
            assert rec.graph.central_mass == 0
            e1, e2 = rec.graph.edges
            assert e1.lengths == (2 / (a + 1), 2 * a / (a + 1))
            assert e1.masses == ((1 / a) * ((a + 1) / 2) ** 2,)
            assert e2.lengths == (2 / (5 - a), (3 - a) / (5 - a))
            assert e2.masses == ((1 / (3 - a)) * ((5 - a) / 2) ** 2,)

    def test_lengths_always_recovered(self, rng):
        for _ in range(20):
            spectra, lengths, q, _ = random_center_spectral_data(rng)
            rec = reconstruct_center(spectra, lengths)
            for edge, length in zip(rec.graph.edges, lengths):
                assert edge.total_length == length

    def test_isospectral_across_plans(self):
        quotients = set()
        for a in (F(1, 2), F(1), F(2), F(5, 2)):
            plan = ReconstructionPlan(residue_split=((F(2), (a / 3, (3 - a) / 3)),))
            rec = reconstruct_center(EX_SPECTRA, EX_LENGTHS, plan)
            quotient, _ = center_quotient(rec.graph)
            quotients.add(quotient)
            assert quotient == rec.psi.inverse()
        assert len(quotients) == 1

    def test_spectral_fidelity(self, rng):
        for _ in range(30):
            spectra, lengths, q, m_positive = random_center_spectral_data(rng)
            rec = reconstruct_center(spectra, lengths)
            assert (rec.graph.central_mass > 0) == m_positive
            phi_n, phi_d = char_polys(rec.graph)
            for got, want in (
                (spectrum_of(phi_n), spectra.neumann_sq),
                (spectrum_of(phi_d), spectra.dirichlet_sq),
            ):
                assert [(rv.rat, m) for rv, m in got] == list(want)

    def test_positivity_of_all_data(self, rng):
        # positivity is an Edge invariant; constructing the graph is the test
        for _ in range(10):
            spectra, lengths, *_ = random_center_spectral_data(rng)
            reconstruct_center(spectra, lengths)

    def test_degenerate_empty_dirichlet(self):
        spectra = SpectrumPair(((F(2), 1),), ())
        rec = reconstruct_center(spectra, [F(1), F(1)])
        assert rec.graph.central_mass == 1
        assert all(e.mass_count == 0 for e in rec.graph.edges)
        phi_n, phi_d = char_polys(rec.graph)
        assert [(rv.rat, m) for rv, m in spectrum_of(phi_n)] == [(F(2), 1)]
        assert phi_d.degree == 0

    def test_invalid_input_raises(self):
        bad = SpectrumPair(((F(1), 1),), ((F(1), 1),))
        with pytest.raises(InvalidSpectra) as info:
            reconstruct_center(bad, [F(1), F(1)])
        report = validate_center(bad, 2)
        assert info.value.report == report and not report.valid
        assert info.value.message == "; ".join(i.message for i in report.issues)
        again = pickle.loads(pickle.dumps(info.value))
        assert (type(again), again.report, again.message) == (InvalidSpectra, report, info.value.message)

    def test_single_string_requires_strict(self):
        # one string (the subgraph of a two-string pendant graph) admits no
        # shared value; reconstruction itself needs two strings
        shared = SpectrumPair(((F(1), 1), (F(2), 1)), ((F(2), 1), (F(3), 1)))
        report = validate_center(shared, 1)
        assert not report.valid
        assert any("interlace strictly" in i.message for i in report.issues)
        with pytest.raises(InvariantViolation):
            reconstruct_center(shared, [F(1)])

    def test_roundtrip_forward_induced(self, rng):
        # graph -> forward -> grouped reconstruct -> forward: same quotient,
        # and in fact the identical graph
        done = 0
        while done < 25:
            g = random_center_graph(rng, q_max=4, max_masses=3)
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
            assert rebuilt == g
            done += 1

    def test_grouped_reconstruction_checks_its_factors_and_lengths(self):
        g = StarGraph(Root.CENTER, F(1), (BEAD, Edge((F(2), F(1)), (F(3),))))
        factors = [edge_cauer_polys(e)[0].monic() for e in g.edges]
        lengths = [e.total_length for e in g.edges]
        psi = center_quotient(g)[0].inverse()
        assert reconstruct_center_grouped(psi, factors, lengths) == g
        with pytest.raises(PlanInfeasible, match="one denominator factor per edge"):
            reconstruct_center_grouped(psi, factors[:1], lengths)
        with pytest.raises(InvariantViolation, match="does not match the given lengths"):
            reconstruct_center_grouped(psi, factors, [lengths[0], lengths[1] + 1])


class TestEnumerate:
    def test_constraint_export(self):
        rec = reconstruct_center(EX_SPECTRA, EX_LENGTHS)
        out = enumerate_constraints(EX_SPECTRA, EX_LENGTHS, rec)
        assert out["central_mass"] == "0"
        (pole,) = out["poles"]
        assert pole["value"] == "2"
        assert pole["total_residue"] == "3"
        assert pole["free_parameters"] == 1
        assert out["feasible_partitions"] == 1


def test_reconstruction_takes_no_gcd(canonical_calls, rng):
    """Per-edge summands are coprime pairs by construction: rebuilding a
    graph from tied spectra canonicalises nothing."""
    reconstruct_center(EX_SPECTRA, EX_LENGTHS)
    for _ in range(10):
        spectra, lengths, _, _ = random_center_spectral_data(rng)
        reconstruct_center(spectra, lengths)
    assert canonical_calls == {"poly_gcd": 0, "make": 0}


def test_every_plan_realizes_the_spectra(rng):
    """forward(inverse) is the identity on tied seeded data under every
    occurrence partition, with equal and with unequal residue shares."""
    plans = 0
    for _ in range(8):
        spectra, lengths, q, _ = random_center_spectral_data(rng)
        assert validate_center(spectra, q).valid
        for plan in every_plan(spectra.dirichlet_sq, q):
            rec = reconstruct_center(spectra, lengths, plan)
            assert rec.plan_used.partition == plan.partition
            assert realizes(rec.graph, spectra)
            plans += 1
    assert plans > 1000


def _break_one(spectra, q, code):
    """``spectra``, valid for q edges, with the one validate_center
    condition ``code`` broken and every other one kept."""
    lam, zet = dict(spectra.neumann_sq), dict(spectra.dirichlet_sq)
    if code == "count":
        # Neumann values above all others until #neumann = #dirichlet + 2
        top = max(lam | zet)
        for k in range(1, sum(zet.values()) + 3 - sum(lam.values())):
            lam[top + k] = 1
    elif code == "chain":
        # the smallest Neumann value, always simple, moves just above the
        # smallest Dirichlet value: lambda_1 < zeta_1 fails if that value is
        # tied, and lambda_k <= zeta_k where it ends up otherwise
        del lam[min(lam)]
        low = min(zet)
        lam[(low + min((v for v in lam if v > low), default=low + 2)) / 2] = 1
    else:
        # the largest Dirichlet value's tie pattern (m, m - 1) raised to
        # (q + 1, q): both caps broken, the counts kept
        top = max(zet)
        zet[top], lam[top] = q + 1, q
    return SpectrumPair(tuple(lam.items()), tuple(zet.items()))


def test_broken_conditions_are_not_realized(rng, monkeypatch):
    """The converse for the centre root: seeded data with exactly one
    validate_center condition broken is not realized; reconstruction
    with the validator stubbed out raises or returns a graph of other
    spectra."""
    monkeypatch.setattr(inverse_center, "validate_center",
                        lambda spectra, q: ValidationReport(True, (), None))
    for i in range(60):
        spectra, lengths, q, _ = random_center_spectral_data(rng)
        code = ("count", "chain", "multiplicity")[i % 3]
        broken = _break_one(spectra, q, code)
        assert {issue.code for issue in validate_center(broken, q).issues} == {code}
        try:
            rec = reconstruct_center(broken, lengths)
        except StarStringError:
            continue
        assert not realizes(rec.graph, broken), (code, broken, lengths)
