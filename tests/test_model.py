"""Data model invariants and serialization round trips."""

import json
import random
from fractions import Fraction as F

import pytest

from starstring.errors import InvariantViolation, SchemaError
from starstring.model import (
    Edge,
    ReconstructionPlan,
    Root,
    SpectrumPair,
    StarGraph,
    _dump,
    parse_graph,
    parse_plan,
    parse_spectra,
    serialize_graph,
    serialize_plan,
    serialize_spectra,
)
from starstring.rational import MAX_DECIMAL_EXPONENT, format_rational, parse_rational
from tests.conftest import random_center_graph, random_pendant_graph


def test_edge_count_mismatch():
    with pytest.raises(InvariantViolation):
        Edge((F(1),), (F(1),))


def test_edge_positivity():
    with pytest.raises(InvariantViolation):
        Edge((F(1), F(-1)), (F(1),))


def test_massless_edge():
    e = Edge((F(1),), ())
    assert e.mass_count == 0 and e.total_length == 1


def test_edge_json_roundtrip():
    e = Edge((F(2, 3), F(4, 3)), (F(9, 8),))
    assert Edge.from_json(e.to_json()) == e


def test_graph_requires_two_edges():
    with pytest.raises(InvariantViolation):
        StarGraph(Root.CENTER, F(0), (Edge((F(1),), ()),))


def test_pendant_requires_main():
    with pytest.raises(InvariantViolation):
        StarGraph(Root.PENDANT, F(0), (Edge((F(1),), ()), Edge((F(1),), ())))


def test_example_solution_graph_parses():
    data = {
        "root": "pendant",
        "central_mass": "0",
        "main_edge": {"lengths": ["1", "1"], "masses": ["1"]},
        "edges": [
            {"lengths": ["2/3", "4/3"], "masses": ["9/8"]},
            {"lengths": ["2/3", "1/3"], "masses": ["9/4"]},
        ],
    }
    g = parse_graph(json.dumps(data).encode())
    assert g.main_edge.lengths == (F(1), F(1))
    assert g.main_edge.masses == (F(1),)
    assert g.spectral_size == 3


def test_schema_error_context():
    with pytest.raises(SchemaError) as err:
        parse_graph(b'{"root": "middle", "edges": []}')
    assert "root" in str(err.value)


def test_edge_fields_must_be_arrays():
    # a string iterates like an array: "12" would read as lengths (1, 2)
    with pytest.raises(SchemaError) as err:
        parse_graph(b'{"root": "center", "central_mass": "1", '
                    b'"edges": [{"lengths": "12", "masses": "3"}, '
                    b'{"lengths": ["1"], "masses": []}]}')
    assert "lengths" in str(err.value)


def test_spectra_reject_boolean_multiplicity():
    # JSON true is a Python bool, which isinstance(.., int) accepts as 1
    with pytest.raises(SchemaError) as err:
        parse_spectra(b'{"neumann_squared": [{"value": "1", "mult": true}], '
                      b'"dirichlet_squared": []}')
    assert "mult" in str(err.value)
    with pytest.raises(InvariantViolation):
        SpectrumPair(((F(1), True),), ())
    with pytest.raises(SchemaError):
        parse_spectra(b'{"neumann_squared": [{"value": true}], "dirichlet_squared": []}')


def test_invariant_from_json():
    with pytest.raises(InvariantViolation):
        parse_graph(b'{"root": "center", "central_mass": "0", '
                    b'"edges": [{"lengths": ["1"], "masses": ["1"]}, '
                    b'{"lengths": ["1"], "masses": []}]}')


def test_graph_serialization_roundtrip(rng):
    for _ in range(20):
        g = random_center_graph(rng)
        assert parse_graph(serialize_graph(g)) == g
        h = random_pendant_graph(rng)
        assert parse_graph(serialize_graph(h)) == h


def test_graph_serialization_deterministic(rng):
    g = random_center_graph(rng)
    assert serialize_graph(g) == serialize_graph(g)


def test_spectra_roundtrip():
    s = SpectrumPair(((F(1, 2), 1), (F(2), 2)), ((F(1), 1),))
    assert parse_spectra(serialize_spectra(s)) == s


def test_spectra_decimal_parsing():
    s = parse_spectra(b'{"neumann_squared": [{"value": "0.5", "mult": 1}], '
                      b'"dirichlet_squared": []}')
    assert s.neumann_sq == ((F(1, 2), 1),)


def test_decimal_exponent_is_bounded():
    # unbounded, the exact value would need a billion-digit power of ten
    # "1e\u0661\u0660\u0660\u0662" has the exponent 1002 in Arabic-Indic digits
    for text in ("1e999999999", "1E-999999999", "2.5e+1001", "1e\u0661\u0660\u0660\u0662"):
        with pytest.raises(SchemaError) as err:
            parse_rational(text, "x")
        assert "exponent" in str(err.value)
    # an exponent longer than the bound's digits is refused unconverted;
    # leading zeros do not count
    with pytest.raises(SchemaError, match="exponent"):
        parse_rational("1e" + "9" * 100_000, "x")
    assert parse_rational("1e" + "0" * 5000 + "3") == 1000
    assert parse_rational("1e1000") == 10 ** MAX_DECIMAL_EXPONENT
    assert parse_rational("-25e-1") == F(-5, 2)


def test_exponent_bound_keeps_its_messages():
    """The bound is on the exponent's value: leading zeros do not count."""
    assert parse_rational("1e1000") == parse_rational("1e0001000") == 10 ** 1000
    with pytest.raises(SchemaError) as err:
        parse_rational("1e1001", "x")
    assert str(err.value) == "x: decimal exponent beyond +-1000: '1e1001'"


def test_parse_rational_reads_fractions_grammar():
    """On random strings over the grammar's characters, parse_rational and
    Fraction accept the same strings with the same values, except that only
    parse_rational bounds the exponent."""
    rng = random.Random(24)
    alphabet = "0123456789_/.eE+- "
    accepted = 0
    for _ in range(300_000):
        text = "".join(rng.choices(alphabet, k=rng.randint(1, 8)))
        try:
            got = parse_rational(text, "x")
        except SchemaError as exc:
            if "exponent" in str(exc):
                continue
            assert str(exc) == f"x: not a rational number: {text!r}"
            with pytest.raises((ValueError, ZeroDivisionError)):
                F(text)
        else:
            assert got == F(text), text
            accepted += 1
    assert accepted > 10_000


def _text(rng):
    """A short string of ASCII, escaped, control, non-ASCII and astral characters."""
    return "".join(rng.choices("az\"\\/\n\t\x00\x1f\x7f\u00e9\u2028\ufeff\U0001f600",
                               k=rng.randint(0, 6)))


def _json_value(rng, depth):
    """A random value of the writer's domain, nested at most ``depth`` deep."""
    kind = rng.randrange(8 if depth else 4)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice([rng.randint(-3, 3), rng.randint(-2 ** 200, 2 ** 200)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:  # as the CLI writes them: a list of rational strings
        return [format_rational(F(rng.randint(-99, 99), rng.randint(1, 99)))
                for _ in range(rng.randint(0, 4))]
    items = [_json_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 4:
        return {_text(rng): value for value in items}
    if kind == 5:
        return tuple(items)
    return items


def test_dump_writes_the_bytes_of_json_dumps():
    rng = random.Random(2)
    for _ in range(2000):
        obj = _json_value(rng, 4)
        assert _dump(obj) == (json.dumps(obj, indent=2) + "\n").encode()


@pytest.mark.parametrize("obj", [1.5, {1: "a"}, [{"a": {1, 2}}], b"x"])
def test_dump_refuses_what_it_does_not_write(obj):
    with pytest.raises(TypeError):
        _dump(obj)


def test_rationals_of_any_length_round_trip():
    # past CPython's default 4,300-digit int/str limit, in both directions
    rng = random.Random(4300)
    for digits in (1, 20, 4299, 4301, 9000):
        num = rng.randrange(10 ** (digits - 1), 10 ** digits)
        den = rng.randrange(1, 10 ** digits)
        for value in (F(num, den), F(-num), F(num, 2 ** 20)):
            text = format_rational(value)
            assert parse_rational(text, "x") == value
            if digits < 4300:
                assert text == str(value)
    # a decimal of 5,001 digits: 10**5000 - 1/2, scaled by 10**-3
    assert parse_rational("9" * 5000 + ".5e-3", "x") == F(2 * 10 ** 5000 - 1, 2000)


def test_spectra_reject_nonpositive():
    with pytest.raises(InvariantViolation):
        SpectrumPair(((F(0), 1),), ())


def test_spectra_merge_duplicates():
    s = SpectrumPair(((F(2), 1), (F(2), 1)), ())
    assert s.neumann_sq == ((F(2), 2),)


def test_plan_roundtrip():
    p = ReconstructionPlan(
        partition=((0,), (0, 1)),
        residue_split=((F(2), (F(2, 3), F(1, 3))),),
    )
    assert parse_plan(serialize_plan(p)) == p


def test_plan_split_lookup():
    p = parse_plan(b'{"residue_split": {"2": ["2/3", "1/3"]}}')
    assert p.split_for(F(2)) == (F(2, 3), F(1, 3))
    assert p.split_for(F(3)) is None


def test_mass_counts(rng):
    g = random_pendant_graph(rng)
    n = g.main_edge.mass_count + sum(e.mass_count for e in g.edges)
    assert g.point_mass_count == n
    assert g.spectral_size == n + (1 if g.central_mass > 0 else 0)


@pytest.mark.parametrize("root, mass, edges, main, message", [
    (Root.CENTER, F(-1), 2, None, "central mass must be >= 0"),
    (Root.CENTER, F(0), 2, Edge((F(1),), ()), "centre-rooted graph has no main edge"),
    (Root.PENDANT, F(0), 0, Edge((F(1),), ()), "pendant-rooted graph needs a non-main edge"),
])
def test_graph_shape_is_checked(root, mass, edges, main, message):
    with pytest.raises(InvariantViolation, match=message):
        StarGraph(root, mass, (Edge((F(1),), ()),) * edges, main)
