"""Shared random-instance generators (seeded, deterministic)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from starstring.model import Edge, Root, SpectrumPair, StarGraph


def rational(rng, lo=1, hi=20):
    """Random positive rational with numerator/denominator <= hi."""
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


def random_edge(rng, max_masses=4):
    n = rng.randint(0, max_masses)
    return Edge(
        tuple(rational(rng) for _ in range(n + 1)),
        tuple(rational(rng) for _ in range(n)),
    )


def random_center_graph(rng, q_max=5, max_masses=4, mass_choices=(0, 0, 1, 2)):
    q = rng.randint(2, q_max)
    m = Fraction(rng.choice(mass_choices))
    return StarGraph(Root.CENTER, m, tuple(random_edge(rng, max_masses) for _ in range(q)))


def random_pendant_graph(rng, q_max=5, max_masses=3, mass_choices=(0, 0, 1)):
    q = rng.randint(2, q_max)
    m = Fraction(rng.choice(mass_choices))
    return StarGraph(
        Root.PENDANT,
        m,
        tuple(random_edge(rng, max_masses) for _ in range(q - 1)),
        random_edge(rng, max_masses),
    )


def duplicated_edge_center_graph(rng, copies=2, extra=1, mass_choices=(0, 1)):
    """Centre graph with a repeated edge, forcing eigenvalue multiplicities."""
    base = random_edge(rng, 2)
    edges = [base] * copies + [random_edge(rng, 2) for _ in range(extra)]
    return StarGraph(Root.CENTER, Fraction(rng.choice(mass_choices)), tuple(edges))


def duplicated_edge_pendant_graph(rng, copies=2, extra=0, mass_choices=(0, 1)):
    base = random_edge(rng, 2)
    edges = [base] * copies + [random_edge(rng, 2) for _ in range(extra)]
    return StarGraph(
        Root.PENDANT,
        Fraction(rng.choice(mass_choices)),
        tuple(edges),
        random_edge(rng, 2),
    )


def increasing_rationals(rng, count, start=Fraction(0)):
    out = []
    x = Fraction(start)
    for _ in range(count):
        x += rational(rng)
        out.append(x)
    return out


def random_center_spectral_data(rng, q_max=5, d_max=4):
    """Valid centre-root data: (spectra, lengths, q, central_mass_positive).

    A strictly increasing grid alternates free Neumann values with distinct
    Dirichlet values; each Dirichlet value of multiplicity m also enters the
    Neumann multiset with multiplicity m-1, which realizes every admissible
    tie pattern.
    """
    q = rng.randint(2, q_max)
    d = rng.randint(1, d_max)
    m_positive = rng.random() < 0.5
    mults = [rng.randint(1, min(q, 3)) for _ in range(d)]
    grid = increasing_rationals(rng, 2 * d + (1 if m_positive else 0))
    frees = grid[0::2]
    distinct = grid[1::2]
    lam = {}
    for f in frees:
        lam[f] = lam.get(f, 0) + 1
    zet = {}
    for v, m in zip(distinct, mults):
        zet[v] = m
        if m > 1:
            lam[v] = lam.get(v, 0) + m - 1
    spectra = SpectrumPair(tuple(sorted(lam.items())), tuple(sorted(zet.items())))
    lengths = [rational(rng) for _ in range(q)]
    return spectra, lengths, q, m_positive


def random_pendant_spectral_data(rng, q_max=5, n_max=5):
    """Strictly interlacing pendant-root data (always admissible)."""
    q = rng.randint(2, q_max)
    n = rng.randint(1, n_max)
    grid = increasing_rationals(rng, 2 * n)
    mu = grid[0::2]
    lam = grid[1::2]
    spectra = SpectrumPair(tuple((v, 1) for v in mu), tuple((v, 1) for v in lam))
    lengths = [rational(rng) for _ in range(q - 1)]
    main_length = rational(rng)
    return spectra, main_length, lengths


def occurrences(roots):
    """Expand a [(RootVal, mult)] list into a flat occurrence list."""
    return [rv for rv, m in roots for _ in range(m)]


@pytest.fixture
def canonical_calls(monkeypatch):
    """Count calls of poly_gcd, at every binding in the package, and of
    RationalFunction.make; returns the {name: count} dict."""
    from starstring import forward, poly, ratfun

    counts = {"poly_gcd": 0, "make": 0}
    real_gcd = poly.poly_gcd
    real_make = ratfun.RationalFunction.make

    def gcd(p, q):
        counts["poly_gcd"] += 1
        return real_gcd(p, q)

    def make(num, den):
        counts["make"] += 1
        return real_make(num, den)

    for module in (forward, poly, ratfun):
        monkeypatch.setattr(module, "poly_gcd", gcd)
    monkeypatch.setattr(ratfun.RationalFunction, "make", staticmethod(make))
    return counts


@pytest.fixture
def rng():
    return random.Random(20260810)


def pytest_configure(config):
    config.acceptance_lines = []


@pytest.fixture
def acceptance_report(request):
    """Record a criterion verdict so it survives output capture."""

    def record(line):
        print(line)
        request.config.acceptance_lines.append(line)

    return record


def pytest_terminal_summary(terminalreporter):
    lines = getattr(terminalreporter.config, "acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
