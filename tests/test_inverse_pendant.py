"""Pendant-root inverse: decomposition, validation, full reconstruction."""

from fractions import Fraction as F
from itertools import accumulate, combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from starstring import inverse_pendant
from starstring.errors import InvariantViolation, MainTooLong, StarStringError
from starstring.forward import char_polys, pendant_quotient, spectrum_of
from starstring.inverse_center import ValidationReport
from starstring.inverse_pendant import (
    build_phi,
    decompose_main,
    decompose_main_from_quotient,
    reconstruct_pendant,
    validate_pendant,
)
from starstring.model import Edge, ReconstructionPlan, SpectrumPair
from starstring.poly import Poly
from starstring.ratfun import RationalFunction, StieltjesCF, cf_expand, cf_to_ratfun
from starstring.roots import isolate_real_roots
from tests.conftest import random_pendant_graph, random_pendant_spectral_data
from tests.structure_checks import every_plan, realizes

EX_SPECTRA = SpectrumPair(
    ((F(1, 2), 1), (F(3, 2), 1), (F(2), 1)),
    ((F(1), 1), (F(2), 2)),
)
EX_MAIN_LENGTH = F(2)
EX_LENGTHS = [F(2), F(1)]
# with main length 1/3 and lengths [3, 1], the subgraph quotient's poles
# are an irrational, 20 and an irrational
MIXED_SPECTRA = SpectrumPair(
    ((F(7, 2), 1), (F(33, 2), 1), (F(30), 1)),
    ((F(4), 1), (F(19), 1), (F(39), 1)),
)


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


class TestBuildPhi:
    def test_worked_example(self):
        phi, gamma, cancelled = build_phi(EX_SPECTRA, EX_MAIN_LENGTH, EX_LENGTHS)
        assert gamma == F(8, 3)
        assert phi == RationalFunction(P(2, -3, 1), P(F(3, 4), -2, 1))
        assert cancelled == P(-2, 1)

    def test_constant_when_empty(self):
        spectra = SpectrumPair((), ())
        phi, gamma, cancelled = build_phi(spectra, F(1), [F(1)])
        assert phi == RationalFunction.constant(F(2))
        assert gamma == F(2)

    def test_distinct_values_no_cancellation(self):
        spectra = SpectrumPair(((F(1), 1),), ((F(2), 1),))
        _, _, cancelled = build_phi(spectra, F(1), [F(1)])
        assert cancelled.degree == 0


class TestDecompose:
    def test_worked_example(self):
        dec = decompose_main(EX_SPECTRA, EX_MAIN_LENGTH, EX_LENGTHS)
        assert dec.cf.a == (F(1), F(4, 3), F(1, 3))
        assert dec.cf.b == (F(1), F(3))
        assert dec.main_mass_count == 1
        assert dec.tail_constant == F(1, 3)
        assert dec.main == Edge((F(1), F(1)), (F(1),))
        assert dec.tail == RationalFunction(P(F(-2, 3), F(1, 3)), P(-1, 1))
        assert dec.common_zeros == ((F(2), 1),)

    def test_boundary_exact_cut(self):
        # total a-sum 8/3; cutting exactly at a0 + a1 = 7/3 forces a
        # vanishing tail constant, hence a positive central mass downstream
        phi, _, _ = build_phi(EX_SPECTRA, EX_MAIN_LENGTH, EX_LENGTHS)
        dec = decompose_main_from_quotient(phi, F(7, 3))
        assert dec.tail_constant == 0
        assert dec.main.lengths == (F(1), F(4, 3))

    def test_tail_is_the_expansion_remainder_at_every_cut(self, rng):
        # the tail at cut k with constant t folds (t, a_k+1, ...; b_k+1, ...)
        seen = set()
        for _ in range(40):
            p = rng.randint(0, 5)
            cf = StieltjesCF(
                tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(p + 1)),
                tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(p)),
            )
            phi = cf_to_ratfun(cf)
            prefix = F(0)
            for cut, a in enumerate(cf.a):
                prefix += a
                # an exact cut, then one a third of the level short of its end
                for t in (F(0), a / 3):
                    if not 0 < prefix - t < sum(cf.a):
                        continue
                    dec = decompose_main_from_quotient(phi, prefix - t)
                    assert (dec.main_mass_count, dec.tail_constant) == (cut, t)
                    assert dec.tail == cf_to_ratfun(StieltjesCF((t,) + cf.a[cut + 1:], cf.b[cut:]))
                    seen.add((t == 0, cut == cf.depth))
        assert seen == {(True, False), (False, False), (False, True)}

    def test_massless_main(self):
        phi, _, _ = build_phi(EX_SPECTRA, EX_MAIN_LENGTH, EX_LENGTHS)
        dec = decompose_main_from_quotient(phi, F(1, 2))
        assert dec.main_mass_count == 0
        assert dec.main == Edge((F(1, 2),), ())
        assert dec.tail_constant == F(1, 2)

    def test_main_too_long(self):
        phi, _, _ = build_phi(EX_SPECTRA, EX_MAIN_LENGTH, EX_LENGTHS)
        with pytest.raises(MainTooLong):
            decompose_main_from_quotient(phi, F(8, 3))


class TestValidate:
    def test_worked_example_valid(self):
        report = validate_pendant(EX_SPECTRA, EX_MAIN_LENGTH, EX_LENGTHS)
        assert report.valid

    def test_strict_opening_required(self):
        bad = SpectrumPair(((F(1), 1),), ((F(1), 1),))
        report = validate_pendant(bad, F(1), [F(1)])
        assert not report.valid

    def test_tail_condition_rejects_perturbed_data(self):
        # moving lambda_2 off the shared value makes mu_3 = lambda_3 = 2 a
        # tie at which the tail no longer vanishes
        perturbed = SpectrumPair(
            ((F(1, 2), 1), (F(3, 2), 1), (F(2), 1)),
            ((F(1), 1), (F(9, 4), 1), (F(2), 1)),
        )
        report = validate_pendant(perturbed, EX_MAIN_LENGTH, EX_LENGTHS)
        assert not report.valid
        assert any(i.code in ("tail", "E_NOT_S0") for i in report.issues)

    def test_multiplicity_cap(self):
        bad = SpectrumPair(
            ((F(1, 2), 1), (F(1), 2)),
            ((F(3, 4), 2), (F(2), 1)),
        )
        report = validate_pendant(bad, F(1), [F(1)])  # q = 2: caps are 1
        assert not report.valid
        assert any(i.code == "multiplicity" for i in report.issues)

    def test_shared_value_sum_bound(self):
        # passes every stated pointwise condition (the tail vanishes at the
        # shared value 3), yet a two-string graph admits no shared
        # eigenvalue: the multiplicity sum bound 2q-3 must reject it
        data = SpectrumPair(((F(1), 1), (F(3), 1)), ((F(2), 1), (F(3), 1)))
        report = validate_pendant(data, F(1), [F(3)])
        assert not report.valid
        assert any("shared value" in i.message for i in report.issues)

    def test_random_strict_data_valid(self, rng):
        for _ in range(20):
            spectra, main_length, lengths = random_pendant_spectral_data(rng)
            report = validate_pendant(spectra, main_length, lengths)
            assert report.valid, [i.message for i in report.issues]


class TestReconstruct:
    def test_worked_example_with_split(self):
        plan = ReconstructionPlan(residue_split=((F(2), (F(2, 3), F(1, 3))),))
        rec = reconstruct_pendant(EX_SPECTRA, EX_MAIN_LENGTH, EX_LENGTHS, plan)
        g = rec.graph
        assert g.central_mass == 0
        assert g.main_edge == Edge((F(1), F(1)), (F(1),))
        assert g.edges[0] == Edge((F(2, 3), F(4, 3)), (F(9, 8),))
        assert g.edges[1] == Edge((F(2, 3), F(1, 3)), (F(9, 4),))

    def test_worked_example_default_split(self):
        rec = reconstruct_pendant(EX_SPECTRA, EX_MAIN_LENGTH, EX_LENGTHS)
        g = rec.graph
        # the closed-form family evaluated at the midpoint share a = 3/2
        assert g.edges[0] == Edge((F(4, 5), F(6, 5)), (F(25, 24),))
        assert g.edges[1] == Edge((F(4, 7), F(3, 7)), (F(49, 24),))

    def test_spectral_fidelity_random(self, rng):
        for _ in range(20):
            spectra, main_length, lengths = random_pendant_spectral_data(rng, q_max=4, n_max=4)
            rec = reconstruct_pendant(spectra, main_length, lengths)
            phi_n, phi_d = char_polys(rec.graph)
            for got, want in (
                (spectrum_of(phi_n), spectra.neumann_sq),
                (spectrum_of(phi_d), spectra.dirichlet_sq),
            ):
                assert [(rv.rat, m) for rv, m in got] == list(want)
            quotient, _ = pendant_quotient(rec.graph)
            phi, _, _ = build_phi(spectra, main_length, lengths)
            assert quotient == phi

    def test_main_edge_independent_of_plan(self):
        mains = set()
        for a in (F(1, 2), F(1), F(2)):
            plan = ReconstructionPlan(residue_split=((F(2), (a / 3, (3 - a) / 3)),))
            rec = reconstruct_pendant(EX_SPECTRA, EX_MAIN_LENGTH, EX_LENGTHS, plan)
            mains.add(rec.graph.main_edge)
        assert len(mains) == 1

    def test_roundtrip_main_edge_recovery(self, rng):
        for _ in range(25):
            g = random_pendant_graph(rng, q_max=4, max_masses=3)
            quotient, _ = pendant_quotient(g)
            dec = decompose_main_from_quotient(quotient, g.main_edge.total_length)
            assert dec.main == g.main_edge
            assert (dec.tail_constant > 0) == (g.central_mass == 0)

    def test_lengths_recovered(self, rng):
        for _ in range(15):
            spectra, main_length, lengths = random_pendant_spectral_data(rng)
            rec = reconstruct_pendant(spectra, main_length, lengths)
            assert rec.graph.main_edge.total_length == main_length
            for e, l in zip(rec.graph.edges, lengths):
                assert e.total_length == l

    def test_invalid_raises(self):
        bad = SpectrumPair(((F(1), 1),), ((F(1), 1),))
        with pytest.raises(InvariantViolation):
            reconstruct_pendant(bad, F(1), [F(1)])

    def test_massless_main_full_reconstruction(self):
        # strictly interlacing data with a main string shorter than the
        # first continued-fraction constant: no mass lands on the main edge
        spectra = SpectrumPair(
            ((F(1, 2), 1), (F(3, 2), 1)),
            ((F(1), 1), (F(2), 1)),
        )
        rec = reconstruct_pendant(spectra, F(1, 10), [F(1), F(1)])
        assert rec.decomposition.main_mass_count == 0
        assert rec.graph.main_edge == Edge((F(1, 10),), ())
        assert rec.decomposition.tail_constant == F(1, 8)
        assert rec.graph.central_mass == 0
        phi_n, phi_d = char_polys(rec.graph)
        assert [(rv.rat, m) for rv, m in spectrum_of(phi_d)] == list(spectra.dirichlet_sq)
        assert [(rv.rat, m) for rv, m in spectrum_of(phi_n)] == list(spectra.neumann_sq)

    def test_mixed_rational_and_irrational_subgraph_poles(self):
        # 20 follows the plan; the irrational cluster goes whole to the
        # least-loaded edge
        spectra = MIXED_SPECTRA
        rec = reconstruct_pendant(spectra, F(1, 3), [F(3), F(1)])
        poles = isolate_real_roots(rec.decomposition.tail.num, F(0), None)
        assert [(rv.rat, m) for rv, m in poles] == [(None, 1), (F(20), 1), (None, 1)]
        assert rec.subgraph_plan.partition == ((0,),)
        assert rec.subgraph_plan.residue_split == ((F(20), (F(1),)),)
        phi_n, phi_d = char_polys(rec.graph)
        assert [(rv.rat, m) for rv, m in spectrum_of(phi_d)] == list(spectra.dirichlet_sq)
        assert [(rv.rat, m) for rv, m in spectrum_of(phi_n)] == list(spectra.neumann_sq)

    def test_central_mass_classification(self):
        # vanishing tail constant <=> positive central mass; the strictly
        # interlacing pair below has the same quotient as the worked example
        # after cancellation, and 1/(gamma - 7/3) = 3 = 3/2 + 3/2
        spectra = SpectrumPair(
            ((F(1, 2), 1), (F(3, 2), 1)),
            ((F(1), 1), (F(2), 1)),
        )
        rec = reconstruct_pendant(spectra, F(7, 3), [F(2, 3), F(2, 3)])
        assert rec.graph.central_mass == 3
        assert rec.decomposition.tail_constant == 0
        assert rec.graph.main_edge == Edge((F(1), F(4, 3)), (F(1),))
        assert all(e == Edge((F(2, 3),), ()) for e in rec.graph.edges)
        phi_n, phi_d = char_polys(rec.graph)
        assert [(rv.rat, m) for rv, m in spectrum_of(phi_d)] == list(spectra.dirichlet_sq)
        assert [(rv.rat, m) for rv, m in spectrum_of(phi_n)] == list(spectra.neumann_sq)


positive = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=6)


@st.composite
def tied_pendant_data(draw):
    """(spectra, main length, lengths, v) with v in both spectra, so that v
    is a rational pole of the subgraph quotient held by two edges.  The main
    length is one at which the expansion's tail vanishes at v: at a cut k
    short of the last level the tail is t + R_k, so t = -R_k(v) must lie in
    [0, a_k)."""
    steps = draw(st.lists(positive, min_size=4, max_size=8))
    grid = list(accumulate(steps[: len(steps) // 2 * 2]))
    mu, lam = grid[0::2], grid[1::2]
    i = draw(st.integers(0, len(lam) - 2))
    v = mu[i + 1] = lam[i]
    spectra = SpectrumPair(tuple((x, 1) for x in mu), tuple((x, 1) for x in lam))
    # the quotient depends on the lengths only through gamma
    gamma = draw(positive) * 2
    cf = cf_expand(build_phi(spectra, F(0), [gamma])[0])
    prefix, cuts = F(0), []
    for k in range(cf.depth):
        prefix += cf.a[k]
        rest = cf_to_ratfun(StieltjesCF((F(0),) + cf.a[k + 1:], cf.b[k:]))
        if rest.den.eval(v) and 0 <= -rest.eval(v) < cf.a[k]:
            cuts.append(prefix + rest.eval(v))
    assume(cuts)
    main_length = cuts[0]
    sub = gamma - main_length  # 1/sub is the sum of the subgraph's 1/l
    lengths = [sub * draw(st.integers(2, 5)) for _ in range(draw(st.integers(1, 2)))]
    last = 1 / sub - sum(1 / l for l in lengths)
    assume(last > 0)
    return spectra, main_length, lengths + [1 / last], v


# only about one tied draw in five has a cut, a share of filtered draws
# that Hypothesis's filter_too_much health check refuses in some runs
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(tied_pendant_data(), st.lists(st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9),
                                     min_size=2, max_size=4, unique=True))
def test_every_subgraph_plan_gives_the_same_main_edge(data, shares):
    """The pendant uniqueness claim: for fixed spectra and main length the
    main edge is the expansion's prefix, whatever plan splits the subgraph.
    Every residue split of the tied pole v, on every pair of edges, realizes
    the spectra with that one main edge and its own subgraph."""
    spectra, main_length, lengths, v = data
    assert validate_pendant(spectra, main_length, lengths).valid
    main = decompose_main(spectra, main_length, lengths).main
    phi, _, _ = build_phi(spectra, main_length, lengths)
    default = reconstruct_pendant(spectra, main_length, lengths).subgraph_plan
    at = [value for value, _ in default.residue_split].index(v)
    pairs, subgraphs = list(combinations(range(len(lengths)), 2)), set()
    for edges in pairs:
        for share in shares:
            partition = default.partition[:at] + (edges,) + default.partition[at + 1:]
            plan = ReconstructionPlan(partition, ((v, (share, 1 - share)),))
            rec = reconstruct_pendant(spectra, main_length, lengths, plan)
            assert rec.graph.main_edge == main
            assert pendant_quotient(rec.graph)[0] == phi
            subgraphs.add(rec.graph.edges)
    assert len(subgraphs) == len(shares) * len(pairs)


def test_reconstruction_does_not_canonicalise(canonical_calls, rng):
    """Subgraph summands and the pole cluster are coprime pairs by construction."""
    reconstruct_pendant(EX_SPECTRA, EX_MAIN_LENGTH, EX_LENGTHS)
    reconstruct_pendant(MIXED_SPECTRA, F(1, 3), [F(3), F(1)])
    for _ in range(10):
        reconstruct_pendant(*random_pendant_spectral_data(rng, q_max=4, n_max=4))
    assert canonical_calls["make"] == 0


# the spectra of a pendant graph whose first two non-main edges are equal:
# the subgraph quotient has the poles 2/3 once and the shared 7/6 twice
TIED_SUBGRAPH_SPECTRA = SpectrumPair(
    ((F(1, 2), 1), (F(53, 66), 1), (F(7, 6), 1)),
    ((F(43, 78), 1), (F(5, 6), 1), (F(7, 6), 1)),
)
TIED_SUBGRAPH_LENGTHS = [F(7, 2), F(7, 2), F(8, 3)]


def test_every_subgraph_plan_realizes_the_spectra():
    """forward(inverse) is the identity under every occurrence partition of
    the subgraph's poles, with equal and with unequal residue shares."""
    data = TIED_SUBGRAPH_SPECTRA, F(3), TIED_SUBGRAPH_LENGTHS
    default = reconstruct_pendant(*data).subgraph_plan
    poles = [(v, len(edges)) for edges, (v, _) in zip(default.partition, default.residue_split)]
    assert poles == [(F(2, 3), 1), (F(7, 6), 2)]
    graphs = set()
    for plan in every_plan(poles, len(TIED_SUBGRAPH_LENGTHS)):
        rec = reconstruct_pendant(*data, plan)
        assert rec.subgraph_plan.partition == plan.partition
        assert realizes(rec.graph, TIED_SUBGRAPH_SPECTRA)
        graphs.add(rec.graph)
    assert len(graphs) == 18


def _break_one_pendant(spectra, q, code):
    """Strictly interlacing simple ``spectra`` for q edges, with the one
    validate_pendant condition ``code`` broken and every other one kept."""
    mu, lam = [v for v, _ in spectra.neumann_sq], [v for v, _ in spectra.dirichlet_sq]
    neumann, dirichlet = dict(spectra.neumann_sq), dict(spectra.dirichlet_sq)
    if code == "count":
        neumann[lam[-1] + 1] = 1
    elif code == "chain":
        # mu_1 moves between lambda_1 and the next value: mu_1 < lambda_1 fails
        del neumann[mu[0]]
        neumann[(lam[0] + (mu[1] if len(mu) > 1 else lam[0] + 2)) / 2] = 1
    elif code == "multiplicity":
        # the two largest values raised to multiplicity q > q - 1, counts kept
        neumann[mu[-1]] = dirichlet[lam[-1]] = q
    else:
        # lambda_1 becomes a shared value, mu_2 in the chain; with one pair a
        # second Dirichlet value keeps the counts equal
        if len(mu) > 1:
            del neumann[mu[1]]
        else:
            dirichlet[lam[0] + 1] = 1
        neumann[lam[0]] = 1
    return SpectrumPair(tuple(neumann.items()), tuple(dirichlet.items()))


def test_broken_conditions_are_not_realized(rng, monkeypatch):
    """The converse for the pendant root: seeded data with exactly one
    validate_pendant condition broken is not realized; reconstruction
    with the validator stubbed out raises or returns a graph of other
    spectra.  A shared value needs q >= 3 (its multiplicity sum 2 exceeds
    the cap 2q - 3 of two strings), so a two-string instance drawn for the
    tail condition is not broken."""
    monkeypatch.setattr(inverse_pendant, "validate_pendant",
                        lambda spectra, main_length, lengths: ValidationReport(True, (), None))
    broken_by = dict.fromkeys(("count", "chain", "multiplicity", "tail"), 0)
    for i in range(80):
        spectra, main_length, lengths = random_pendant_spectral_data(rng)
        q = len(lengths) + 1
        code = list(broken_by)[i % 4]
        if code == "tail" and q == 2:
            continue
        broken = _break_one_pendant(spectra, q, code)
        report = validate_pendant(broken, main_length, lengths)
        assert {issue.code for issue in report.issues} == {code}
        broken_by[code] += 1
        try:
            rec = reconstruct_pendant(broken, main_length, lengths)
        except StarStringError:
            continue
        assert not realizes(rec.graph, broken), (code, broken, main_length, lengths)
    assert min(broken_by.values()) >= 10, broken_by
