"""Seeded instances, CLI argument lists and exact output checks per workload.

Every instance is a pure function of (workload, seed, index): its random
stream is seeded with that triple, so the same seed always yields the same
input files.  The instance's *shape* (root, edge count, mass count, how
many eigenvalues of each multiplicity) cycles with the index and does not
depend on the seed; the seed picks the rational values and where the
multiplicities sit.  That keeps the cost mix of a run the same from one
seed to the next.

Checks read the files the CLI wrote and verify them exactly; they run
outside the timed span of a solve.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from starstring.model import (
    Edge, Root, SpectrumPair, StarGraph, parse_graph, serialize_graph, serialize_spectra,
)

REFINE_WIDTH = Fraction(1, 1 << 64)  # the CLI default for forward intervals


class CheckFailed(Exception):
    """An output file is missing, malformed or mathematically wrong."""


@dataclass
class Instance:
    index: int
    files: dict  # input file name -> bytes
    args: list  # CLI argv after the subcommand, with "{d}" for the work dir
    out: str  # primary output file name
    masses: int
    coeff_bits: int
    expect: object = field(repr=False)  # what the check compares against

    def argv(self, workdir):
        return [a.replace("{d}", str(workdir)) for a in self.args]


def _rat(rng, hi):
    return Fraction(rng.randint(1, hi), rng.randint(1, hi))


def _edge(rng, k, hi):
    return Edge(tuple(_rat(rng, hi) for _ in range(k + 1)), tuple(_rat(rng, hi) for _ in range(k)))


def _bits(values):
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _graph_values(graph):
    edges = list(graph.edges) + ([graph.main_edge] if graph.main_edge else [])
    vals = [graph.central_mass]
    for e in edges:
        vals.extend(e.lengths)
        vals.extend(e.masses)
    return vals


def _increasing(rng, count, hi):
    out, x = [], Fraction(0)
    for _ in range(count):
        x += _rat(rng, hi)
        out.append(x)
    return out


def _split(total, parts):
    """Mass counts per edge: ``total`` spread as evenly as possible."""
    return [total // parts + (1 if j < total % parts else 0) for j in range(parts)]


def _rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


# ---------------------------------------------------------------------------
# forward: graph -> spectra


# Each workload keeps one input size: a mix of sizes makes the per-solve
# cost multimodal, and the median of a multimodal sample jumps between
# modes from one seed to the next.

# (root, edge count q, duplicated edge); 9 point masses; a quarter duplicate
FORWARD_SHAPES = (
    ("center", 3, False),
    ("pendant", 4, False),
    ("center", 4, False),
    ("pendant", 3, True),
    ("center", 5, False),
    ("pendant", 5, False),
    ("center", 4, True),
    ("pendant", 4, False),
)


def make_forward(seed, index):
    root, q, dup = FORWARD_SHAPES[index % len(FORWARD_SHAPES)]
    return forward_instance(index, _rng("forward", seed, index), root, q, 9, dup)


def forward_instance(index, rng, root, q, total, dup=False):
    """A ``root``-rooted graph with q edges and ``total`` point masses."""
    counts = _split(total, q)
    edges = [_edge(rng, k, 12) for k in counts]
    if dup:
        # same edge twice forces a repeated eigenvalue of multiplicity >= 2;
        # the last two edges carry equally many masses and are never the main edge
        edges[-1] = edges[-2]
    central = Fraction(rng.choice((0, 1)))
    if root == "center":
        graph = StarGraph(Root.CENTER, central, tuple(edges))
    else:
        graph = StarGraph(Root.PENDANT, central, tuple(edges[1:]), edges[0])
    return Instance(
        index, {f"g{index}.json": serialize_graph(graph)},
        ["forward", "--graph", f"{{d}}/g{index}.json", "--out", f"{{d}}/o{index}.json"],
        f"o{index}.json", graph.point_mass_count, _bits(_graph_values(graph)), graph,
    )


def check_forward(inst, outputs):
    phi_n, phi_d = char_polys(inst.expect)
    data = _load(outputs, inst.out)
    for key, phi in (("neumann_squared", phi_n), ("dirichlet_squared", phi_d)):
        entries = data[key]
        if sum(e["mult"] for e in entries) != len(phi) - 1:
            raise CheckFailed(f"{key}: multiplicities do not sum to the degree")
        part = _squarefree_part(phi)
        for e in entries:
            if "value" in e:
                if _sign_at(phi, Fraction(e["value"])) != 0:
                    raise CheckFailed(f"{key}: {e['value']} is not a root")
            else:
                lo, hi = (Fraction(x) for x in e["interval"])
                if not 0 < hi - lo <= REFINE_WIDTH:
                    raise CheckFailed(f"{key}: interval width out of range")
                if _sign_at(part, lo) * _sign_at(part, hi) >= 0:
                    raise CheckFailed(f"{key}: interval does not bracket a sign change")


# ---------------------------------------------------------------------------
# inverse-center: tied spectra + lengths -> centre-rooted graph


def make_inverse_center(seed, index):
    """q = 4; 12 distinct Dirichlet values, four each of multiplicity 1, 2, 3.

    The seed places the multiplicities, so every instance has 24 Dirichlet
    eigenvalues.  Every other instance has a positive central mass; half
    pass --enumerate.
    """
    rng = _rng("inverse-center", seed, index)
    mults = [1, 2, 3] * 4
    rng.shuffle(mults)
    return inverse_center_instance(index, rng, mults, index % 2 == 0, index % 4 >= 2)


def inverse_center_instance(index, rng, mults, positive, enumerate_):
    """Admissible centre-root data for q = 4 edges, one Dirichlet value per mult.

    A strictly increasing grid alternates free Neumann values with the
    Dirichlet values; a Dirichlet value of multiplicity m also enters the
    Neumann multiset m - 1 times, which is an admissible tie pattern.
    """
    q = 4
    distinct = len(mults)
    grid = _increasing(rng, 2 * distinct + (1 if positive else 0), 6)
    lam = {f: 1 for f in grid[0::2]}
    zet = {}
    for v, m in zip(grid[1::2], mults):
        zet[v] = m
        if m > 1:
            lam[v] = m - 1
    spectra = SpectrumPair(tuple(sorted(lam.items())), tuple(sorted(zet.items())))
    lengths = [_rat(rng, 6) for _ in range(q)]
    args = [
        "inverse-center", "--spectra", f"{{d}}/s{index}.json",
        "--lengths", ",".join(str(x) for x in lengths), "--out", f"{{d}}/o{index}.json",
    ]
    if enumerate_:
        args.append("--enumerate")
    return Instance(
        index, {f"s{index}.json": serialize_spectra(spectra)}, args, f"o{index}.json",
        sum(m for _, m in spectra.dirichlet_sq) + (1 if positive else 0),
        _bits(list(lam) + list(zet) + lengths), (spectra, lengths, None),
    )


# ---------------------------------------------------------------------------
# inverse-pendant: strictly interlacing spectra -> pendant-rooted graph


def make_inverse_pendant(seed, index):
    """Three non-main edges, n = 5 strictly interlacing pairs."""
    return inverse_pendant_instance(index, _rng("inverse-pendant", seed, index), 5)


def inverse_pendant_instance(index, rng, n):
    """n strictly interlacing pairs (always admissible), three non-main edges."""
    grid = _increasing(rng, 2 * n, 6)
    spectra = SpectrumPair(tuple((v, 1) for v in grid[0::2]), tuple((v, 1) for v in grid[1::2]))
    lengths = [_rat(rng, 6) for _ in range(3)]
    main_length = _rat(rng, 6)
    args = [
        "inverse-pendant", "--spectra", f"{{d}}/s{index}.json",
        "--main-length", str(main_length), "--lengths", ",".join(str(x) for x in lengths),
        "--out", f"{{d}}/o{index}.json",
    ]
    return Instance(
        index, {f"s{index}.json": serialize_spectra(spectra)}, args, f"o{index}.json",
        n, _bits(grid + lengths + [main_length]), (spectra, lengths, main_length),
    )


def check_inverse(inst, outputs):
    """The rebuilt graph's characteristic polynomials are the input products."""
    spectra, lengths, main_length = inst.expect
    try:
        graph = parse_graph(outputs[inst.out])
    except Exception as exc:  # any parse failure is a wrong output
        raise CheckFailed(f"output graph does not parse: {exc}") from exc
    if graph.root is not (Root.CENTER if main_length is None else Root.PENDANT):
        raise CheckFailed(f"expected a graph rooted at the {'centre' if main_length is None else 'pendant'}")
    if main_length is not None and graph.main_edge.total_length != main_length:
        raise CheckFailed("main edge length differs from --main-length")
    if [e.total_length for e in graph.edges] != list(lengths):
        raise CheckFailed("edge lengths differ from --lengths")
    for phi, entries in zip(char_polys(graph), (spectra.neumann_sq, spectra.dirichlet_sq)):
        if phi != _monic_product(entries):
            raise CheckFailed("characteristic polynomial differs from the input multiset")


# ---------------------------------------------------------------------------
# matrix: centre graph with positive central mass -> pencil + certificate


def make_matrix(seed, index):
    """16 masses (central one included) on q = 3..5 edges."""
    return matrix_instance(index, _rng("matrix", seed, index), 3 + index % 3, 16)


def matrix_instance(index, rng, q, total):
    """Centre graph with a positive central mass and ``total`` masses in all."""
    edges = [_edge(rng, k, 12) for k in _split(total - 1, q)]
    graph = StarGraph(Root.CENTER, _rat(rng, 12), tuple(edges))
    return Instance(
        index, {f"g{index}.json": serialize_graph(graph)},
        ["matrix", "--graph", f"{{d}}/g{index}.json", "--out", f"{{d}}/o{index}.json"],
        f"o{index}.json", graph.spectral_size, _bits(_graph_values(graph)), graph,
    )


def _expected_pencil(graph):
    """Stiffness matrix and mass diagonal, built independently of the CLI."""
    diag = [graph.central_mass] + [m for e in graph.edges for m in e.masses]
    n = len(diag)
    rows = [[Fraction(0)] * n for _ in range(n)]
    pos = 1
    for e in graph.edges:
        rows[0][0] += 1 / e.lengths[0]
        prev = 0  # the vertex on the centre side of the current interval
        for k in range(e.mass_count):
            cur = pos + k
            w = 1 / e.lengths[k]
            rows[cur][cur] += w + 1 / e.lengths[k + 1]
            rows[prev][cur] -= w
            rows[cur][prev] -= w
            prev = cur
        pos += e.mass_count
    return rows, diag


def check_matrix(inst, outputs):
    pencil = _load(outputs, inst.out)
    cert = _load(outputs, _sibling(inst.out, ".certificate"))
    rows, diag = _expected_pencil(inst.expect)
    n = len(diag)
    if pencil["dim"] != n:
        raise CheckFailed("pencil dimension differs from the mass count")
    if [[Fraction(x) for x in r] for r in pencil["L"]] != rows:
        raise CheckFailed("stiffness matrix differs")
    if [Fraction(x) for x in pencil["M_diag"]] != diag:
        raise CheckFailed("mass diagonal differs")
    if not cert["ok"] or cert["failures"]:
        raise CheckFailed("interlacing certificate is not ok")
    # a certified pencil has as many real roots as its determinant's degree
    if cert["full_count"] != n or cert["sub_count"] != n - 1:
        raise CheckFailed("determinant degree differs from dim")


# ---------------------------------------------------------------------------
# reference characteristic polynomials, independent of the program
#
# A graph's characteristic polynomial is det(L - zM) up to a constant
# factor, for the stiffness matrix L and the mass diagonal M of its springs
# and masses.  Each branch off the centre is a path, whose determinant
# follows the three-term recurrence of a tridiagonal matrix; the centre's row
# joins the branches through a Schur complement.  Nothing here calls the
# program's solvers.
#
# While they are built, polynomials are pairs (c, d): integer coefficients c,
# lowest degree first, over one positive denominator d.  Rebuilt graphs carry
# rationals of hundreds of bits, and integer products are far cheaper than
# Fractions, which reduce by a gcd after every operation.


def _const(x):
    x = Fraction(x)
    return ((x.numerator,) if x else ()), x.denominator


def _linear(k, m):
    """k - m z for rationals k and m."""
    k, m = Fraction(k), Fraction(m)
    d = lcm(k.denominator, m.denominator)
    return _trim((k.numerator * (d // k.denominator), -m.numerator * (d // m.denominator))), d


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    (ca, da), (cb, db) = a, b
    d = lcm(da, db)
    fa, fb = d // da, d // db
    n = max(len(ca), len(cb))
    ca, cb = ca + (0,) * (n - len(ca)), cb + (0,) * (n - len(cb))
    return _trim(x * fa + y * fb for x, y in zip(ca, cb)), d


def _pmul(a, b):
    (ca, da), (cb, db) = a, b
    out = [0] * (len(ca) + len(cb) - 1) if ca and cb else []
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            out[i + j] += x * y
    return tuple(out), da * db


def _scale(a, x):
    """x * a for a rational x, in lowest terms."""
    x = Fraction(x)
    c, d = tuple(v * x.numerator for v in a[0]), a[1] * x.denominator
    g = gcd(*c, d)
    return tuple(v // g for v in c), d // g


def _product(polys):
    out = _const(1)
    for p in polys:
        out = _pmul(out, p)
    return out


def _monic(a):
    """The monic polynomial, as a tuple of Fractions."""
    c, _ = a
    return tuple(Fraction(x, c[-1]) for x in c)


def _branch(lengths, masses, free_end):
    """(1/l0, det B, det B') of one branch B of L - zM, listed from the centre out.

    ``masses[i]`` sits between ``lengths[i]`` and ``lengths[i + 1]``; B' is B
    without its node next to the centre.  A clamped far end is ground; a free
    one is a massless node joined only by the last interval, which scales
    both determinants by one constant.
    """
    nodes = [(m, 1 / lengths[i] + 1 / lengths[i + 1]) for i, m in enumerate(masses)]
    if free_end:
        nodes.append((Fraction(0), 1 / lengths[-1]))
    after, det = _const(0), _const(1)  # determinants of the blocks from node i + 2 and i + 1 on
    for i in reversed(range(len(nodes))):
        mass, stiffness = nodes[i]
        coupling = 1 / lengths[i + 1] ** 2 if i + 1 < len(nodes) else 0
        after, det = det, _padd(_pmul(_linear(stiffness, mass), det), _scale(after, -coupling))
    # one factor for both keeps their ratio, and so the star's roots; this one
    # makes det B a primitive integer polynomial, which keeps the numbers small
    factor = Fraction(det[1], gcd(*det[0]))
    return 1 / lengths[0], _scale(det, factor), _scale(after, factor)


def _star_det(branches, central_mass):
    """det(L - zM) of branches joined at a free centre of the given mass.

    It is (k - m z) prod_j det B_j - sum_j k_j^2 det B_j' prod_{i != j} det B_i
    for centre stiffness k = sum_j k_j, accumulated one branch at a time.
    """
    dets, tied = _const(1), _const(0)
    for k, det, inner in branches:
        tied = _padd(_pmul(tied, det), _pmul(_scale(inner, k * k), dets))
        dets = _pmul(dets, det)
    spring = sum(k for k, _, _ in branches)
    return _padd(_pmul(_linear(spring, central_mass), dets), _scale(tied, -1))


def char_polys(graph):
    """Monic (Neumann, Dirichlet) characteristic polynomials of ``graph``.

    Centre root: Dirichlet clamps the centre, Neumann leaves it free.
    Pendant root: the main edge is one more branch, whose far end, the root,
    is free for Neumann and clamped for Dirichlet.  L is positive definite,
    so z = 0 is never a root.
    """
    branches = [_branch(e.lengths, e.masses, False) for e in graph.edges]
    if graph.root is Root.CENTER:
        neumann = _star_det(branches, graph.central_mass)
        dirichlet = _product(d for _, d, _ in branches)
    else:
        lengths, masses = graph.main_edge.lengths[::-1], graph.main_edge.masses[::-1]
        neumann, dirichlet = (
            _star_det(branches + [_branch(lengths, masses, free)], graph.central_mass)
            for free in (True, False)
        )
    return _monic(neumann), _monic(dirichlet)


def _monic_product(entries):
    """prod (z - v)^m over the multiset, exactly."""
    return _monic(_product(_linear(-v, -1) for v, m in entries for _ in range(m)))


# The forward check works on monic Fraction tuples, which stay small there.


def _pdivmod(a, b):
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = c
        for i, x in enumerate(b):
            rem[shift + i] -= c * x
        rem = list(_trim(rem[:-1]))  # the leading term cancels exactly
    return _trim(quo), _trim(rem)


def _squarefree_part(p):
    """p / gcd(p, p'): the same roots, each of multiplicity one."""
    a, b = p, _trim([i * c for i, c in enumerate(p)][1:])
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pdivmod(p, a)[0]


def _sign_at(p, x):
    """Sign of the polynomial p at the rational x."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


# ---------------------------------------------------------------------------


def _sibling(name, suffix):
    stem, dot, ext = name.rpartition(".")
    return f"{stem}{suffix}{dot}{ext}"


def _load(outputs, name):
    try:
        return json.loads(outputs[name])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"{name}: missing or not JSON") from exc


def digest(outputs):
    """sha256 over every output file, by name, in sorted order."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name] + b"\0")
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (seed, index) -> Instance
    check: object  # (Instance, {file name: bytes}) -> None, raises CheckFailed
    pool: int  # distinct instances per seed; a run solves whole passes over them


# Each pool takes about 10 s per pass on a 2-vCPU Xeon VM: large enough that
# its median solve time hardly depends on the seed, small enough that a run
# ends soon after its deadline.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("forward", make_forward, check_forward, 48),
        Workload("inverse-center", make_inverse_center, check_inverse, 128),
        Workload("inverse-pendant", make_inverse_pendant, check_inverse, 128),
        Workload("matrix", make_matrix, check_matrix, 48),
    )
}
