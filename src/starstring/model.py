"""Domain model: edges, star graphs, spectra, reconstruction plans.

Conventions
-----------
A star graph has q strings joined at a central vertex carrying a mass
M >= 0.  The root (where the Neumann/Dirichlet condition is toggled) is
either the centre or one pendant vertex; in the latter case the string
incident to the root is the main edge.

Each edge stores its intervals and point masses in the order of its own
driving-point continued fraction:

* non-main edges: ``lengths[0]`` abuts the central vertex, the last
  interval ends at the clamped pendant;
* the main edge: ``lengths[0]`` abuts the root, the last interval ends at
  the centre.

In both cases ``masses[k]`` sits between ``lengths[k]`` and
``lengths[k+1]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InvariantViolation, SchemaError
from .rational import as_fractions, format_rational, parse_rational

# the C string escaper json.dumps itself uses (ensure_ascii)
_quote = json.encoder.encode_basestring_ascii


class Root(Enum):
    CENTER = "center"
    PENDANT = "pendant"


@dataclass(frozen=True)
class Edge:
    """One Stieltjes string: n+1 intervals separated by n point masses."""

    lengths: tuple
    masses: tuple

    def __post_init__(self):
        lengths = as_fractions(self.lengths)
        masses = as_fractions(self.masses)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "masses", masses)
        if len(lengths) != len(masses) + 1:
            raise InvariantViolation(
                f"edge needs one more interval than masses, got {len(lengths)} vs {len(masses)}"
            )
        # a Fraction's sign is its numerator's: no comparison with 0 to convert
        if any(x.numerator <= 0 for x in lengths) or any(x.numerator <= 0 for x in masses):
            raise InvariantViolation("edge intervals and masses must be positive")

    @property
    def mass_count(self):
        return len(self.masses)

    @property
    def total_length(self):
        return sum(self.lengths, Fraction(0))

    def to_json(self):
        return {
            "lengths": [format_rational(x) for x in self.lengths],
            "masses": [format_rational(x) for x in self.masses],
        }

    @staticmethod
    def from_json(obj, context="edge"):
        if not isinstance(obj, dict):
            raise SchemaError(f"{context}: expected object")
        fields = []
        for key in ("lengths", "masses"):
            if key not in obj:
                raise SchemaError(f"{context}: missing field {key!r}")
            if not isinstance(obj[key], list):
                raise SchemaError(f"{context}.{key}: expected array")
            fields.append(tuple(parse_rational(x, f"{context}.{key}") for x in obj[key]))
        return Edge(*fields)


@dataclass(frozen=True)
class StarGraph:
    root: Root
    central_mass: Fraction
    edges: tuple  # non-main edges
    main_edge: Edge | None = None

    def __post_init__(self):
        if type(self.central_mass) is not Fraction:
            object.__setattr__(self, "central_mass", Fraction(self.central_mass))
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.central_mass < 0:
            raise InvariantViolation("central mass must be >= 0")
        if self.root is Root.CENTER:
            if self.main_edge is not None:
                raise InvariantViolation("centre-rooted graph has no main edge")
            if len(self.edges) < 2:
                raise InvariantViolation("centre-rooted graph needs at least 2 edges")
        else:
            if self.main_edge is None:
                raise InvariantViolation("pendant-rooted graph needs a main edge")
            if len(self.edges) < 1:
                raise InvariantViolation("pendant-rooted graph needs a non-main edge")

    @property
    def point_mass_count(self):
        n = sum(e.mass_count for e in self.edges)
        if self.main_edge is not None:
            n += self.main_edge.mass_count
        return n

    @property
    def spectral_size(self):
        """Total number of masses counting the central one when present."""
        return self.point_mass_count + (1 if self.central_mass > 0 else 0)

    def to_json(self):
        obj = {
            "root": self.root.value,
            "central_mass": format_rational(self.central_mass),
        }
        if self.main_edge is not None:
            obj["main_edge"] = self.main_edge.to_json()
        obj["edges"] = [e.to_json() for e in self.edges]
        return obj

    @staticmethod
    def from_json(obj, context="graph"):
        if not isinstance(obj, dict):
            raise SchemaError(f"{context}: expected object")
        root_raw = obj.get("root")
        if root_raw not in ("center", "pendant"):
            raise SchemaError(f"{context}.root: expected 'center' or 'pendant', got {root_raw!r}")
        root = Root(root_raw)
        central = parse_rational(obj.get("central_mass", "0"), f"{context}.central_mass")
        edges_raw = obj.get("edges")
        if not isinstance(edges_raw, list):
            raise SchemaError(f"{context}.edges: expected array")
        edges = tuple(
            Edge.from_json(e, f"{context}.edges[{i}]") for i, e in enumerate(edges_raw)
        )
        main = None
        if root is Root.PENDANT:
            if "main_edge" not in obj:
                raise SchemaError(f"{context}.main_edge: required for pendant root")
            main = Edge.from_json(obj["main_edge"], f"{context}.main_edge")
        elif "main_edge" in obj:
            raise SchemaError(f"{context}.main_edge: not allowed for centre root")
        return StarGraph(root, central, edges, main)


@dataclass(frozen=True)
class SpectrumPair:
    """Two multisets of positive squared eigenvalues, stored sorted."""

    neumann_sq: tuple  # ((value, mult), ...)
    dirichlet_sq: tuple

    def __post_init__(self):
        object.__setattr__(self, "neumann_sq", _canonical_multiset(self.neumann_sq, "neumann"))
        object.__setattr__(self, "dirichlet_sq", _canonical_multiset(self.dirichlet_sq, "dirichlet"))

    def neumann_values(self):
        return [v for v, m in self.neumann_sq for _ in range(m)]

    def dirichlet_values(self):
        return [v for v, m in self.dirichlet_sq for _ in range(m)]

    def to_json(self):
        return {
            "neumann_squared": _multiset_json(self.neumann_sq),
            "dirichlet_squared": _multiset_json(self.dirichlet_sq),
        }

    @staticmethod
    def from_json(obj, context="spectra"):
        if not isinstance(obj, dict):
            raise SchemaError(f"{context}: expected object")
        for key in ("neumann_squared", "dirichlet_squared"):
            if key not in obj:
                raise SchemaError(f"{context}.{key}: missing")
        return SpectrumPair(
            _multiset_from_json(obj["neumann_squared"], f"{context}.neumann_squared"),
            _multiset_from_json(obj["dirichlet_squared"], f"{context}.dirichlet_squared"),
        )


def _canonical_multiset(entries, name):
    merged = {}
    for value, mult in entries:
        v = value if type(value) is Fraction else Fraction(value)
        if v <= 0:
            raise InvariantViolation(
                f"{name}: squared eigenvalues must be positive, got {format_rational(v)}")
        if not _is_count(mult):
            raise InvariantViolation(f"{name}: multiplicity must be a positive integer")
        merged[v] = merged.get(v, 0) + mult
    return tuple(sorted(merged.items()))


def _is_count(mult):
    """A positive int; JSON true and false are bools, which Python counts as ints."""
    return isinstance(mult, int) and not isinstance(mult, bool) and mult >= 1


def _multiset_json(entries):
    return [{"value": format_rational(v), "mult": m} for v, m in entries]


def _multiset_from_json(arr, context):
    if not isinstance(arr, list):
        raise SchemaError(f"{context}: expected array")
    out = []
    for i, item in enumerate(arr):
        if not isinstance(item, dict):
            raise SchemaError(f"{context}[{i}]: expected object")
        if "value" not in item:
            raise SchemaError(f"{context}[{i}].value: missing (exact input required)")
        value = parse_rational(item["value"], f"{context}[{i}].value")
        mult = item.get("mult", 1)
        if not _is_count(mult):
            raise SchemaError(f"{context}[{i}].mult: expected positive integer")
        out.append((value, mult))
    return tuple(out)


@dataclass(frozen=True)
class ReconstructionPlan:
    """Explicit control of the reconstruction's non-uniqueness.

    ``partition`` lists, for each distinct Dirichlet value in ascending
    order, the edge indices receiving its occurrences (one index per
    occurrence, all distinct).  ``residue_split`` maps a pole value to the
    positive fractions of its residue given to the holding edges, in the
    same order; the fractions must sum to 1.
    """

    partition: tuple | None = None  # ((edge_idx, ...) per sorted distinct value)
    residue_split: tuple | None = None  # ((value, (share, ...)), ...)

    def split_for(self, value):
        if self.residue_split is None:
            return None
        for v, shares in self.residue_split:
            if v == value:
                return shares
        return None

    def to_json(self):
        obj = {}
        if self.partition is not None:
            obj["partition"] = [list(t) for t in self.partition]
        if self.residue_split is not None:
            obj["residue_split"] = {
                format_rational(v): [format_rational(s) for s in shares]
                for v, shares in self.residue_split
            }
        return obj

    @staticmethod
    def from_json(obj, context="plan"):
        if not isinstance(obj, dict):
            raise SchemaError(f"{context}: expected object")
        partition = None
        if "partition" in obj and obj["partition"] is not None:
            raw = obj["partition"]
            if not isinstance(raw, list):
                raise SchemaError(f"{context}.partition: expected array of arrays")
            partition = []
            for i, entry in enumerate(raw):
                # JSON true and false are bools, which Python counts as ints
                if not isinstance(entry, list) or not all(type(e) is int for e in entry):
                    raise SchemaError(f"{context}.partition[{i}]: expected array of edge indices")
                partition.append(tuple(entry))
            partition = tuple(partition)
        split = None
        if "residue_split" in obj and obj["residue_split"] is not None:
            raw = obj["residue_split"]
            if not isinstance(raw, dict):
                raise SchemaError(f"{context}.residue_split: expected object")
            split = {}
            for k, v in raw.items():
                value = parse_rational(k, f"{context}.residue_split key")
                if not isinstance(v, list):
                    raise SchemaError(f"{context}.residue_split[{k}]: expected array of shares")
                if value in split:
                    raise SchemaError(
                        f"{context}.residue_split: two keys name the pole {format_rational(value)}"
                    )
                split[value] = tuple(parse_rational(s, f"{context}.residue_split[{k}]") for s in v)
            split = tuple(sorted(split.items()))
        return ReconstructionPlan(partition, split)


# ---------------------------------------------------------------------------
# byte-level serialization (lossless, deterministic)


def _dump(obj):
    """The bytes of ``json.dumps(obj, indent=2) + "\n"``, written directly.

    ``obj`` is built of dicts with string keys, lists, tuples, strings,
    ints, bools and None; anything else raises TypeError, as ``json`` does
    for an object it cannot serialize.  With ``indent`` set, ``json.dumps``
    runs its pure-Python encoder; this writer appends each piece to one
    list, escapes strings with the encoder's own C function, and writes a
    list of strings with one join.
    """
    out = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out).encode()


def _write_json(obj, newline, out):
    """Append the indent-2 JSON text of ``obj``, nested after ``newline``."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        try:  # a list of strings, in one join
            out.append(f"[{inner}{(',' + inner).join(map(_quote, obj))}{newline}]")
            return
        except TypeError:  # _quote takes strings only: item by item
            pass
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{sep}{_quote(key)}: ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _load(data, context):
    try:
        if isinstance(data, bytes):
            data = data.decode()
        return json.loads(data)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{context}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{context}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # CPython's int/str digit limit, reading a JSON integer
        raise SchemaError(f"{context}: JSON integer too long to read") from exc
    except RecursionError as exc:
        raise SchemaError(f"{context}: JSON nested too deeply") from exc


def serialize_graph(graph):
    return _dump(graph.to_json())


def parse_graph(data):
    return StarGraph.from_json(_load(data, "graph"))


def serialize_spectra(spectra):
    return _dump(spectra.to_json())


def parse_spectra(data):
    return SpectrumPair.from_json(_load(data, "spectra"))


def serialize_plan(plan):
    return _dump(plan.to_json())


def parse_plan(data):
    return ReconstructionPlan.from_json(_load(data, "plan"))
