"""Command-line front end.

Subcommands: forward, inverse-center, inverse-pendant, validate,
verify-roundtrip, matrix.  Inputs and outputs are the JSON formats of the
model module; all values are exact rationals unless a decimal output mode
is requested (decimal output is explicitly labelled approximate).  Output
is deterministic: identical inputs produce byte-identical files.  Each
file is renamed into place whole; after a run that exits 0 or 2, the
files named after --out are exactly those the run wrote.

Exit status: 0 success, 2 validation failure, 1 any other error.  Every
error is one JSON line on stderr; an unexpected exception is E_INTERNAL.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from math import isqrt
from pathlib import Path

from . import forward as fwd
from . import inverse_center as ic
from . import inverse_pendant as ip
from . import matrixize as mx
from .errors import (
    InvalidSpectra, InvariantViolation, PlanInfeasible, RangeError, SchemaError, StarStringError,
)
from .model import (
    Root,
    _dump,
    parse_graph,
    parse_plan,
    parse_spectra,
    serialize_graph,
)
from .poly import ONE, Poly, poly_gcd
from .rational import format_rational, parse_rational

DEFAULT_REFINE_WIDTH = Fraction(1, 1 << 64)
# --digits bound: a fractional part converts under CPython's 4,300-digit int-to-str limit
MAX_DIGITS = 4000


# the siblings <stem><suffix><ext> of --out that each subcommand can write
_SIBLINGS = {
    "forward": (".polys",),
    "inverse-center": (".report", ".plan", ".constraints"),
    "inverse-pendant": (".report", ".plan", ".constraints"),
    "matrix": (".certificate",),
}


def _out_path(out, suffix):
    base = Path(out)
    return base.with_name(base.stem + suffix + base.suffix)


def _write(args, suffix, data):
    """Write one output: to stdout without --out, else to the --out file or
    its ``suffix`` sibling through a dot-prefixed temporary renamed into
    place, so no reader sees a partial file."""
    if args.out is None:
        sys.stdout.buffer.write(data)
        return
    path = _out_path(args.out, suffix)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    args.written.add(suffix)


def _remove_stale(args):
    """Remove the outputs of an earlier run that this run did not rewrite,
    except any file this run read."""
    if args.out is None:
        return
    unwritten = (_out_path(args.out, suffix) for suffix in ("", *_SIBLINGS.get(args.command, ()))
                 if suffix not in args.written)
    stale = [path for path in unwritten if os.path.lexists(path)]
    if not stale:  # the usual case: no input path needs resolving
        return
    names = (getattr(args, k, None) for k in ("graph", "spectra", "plan"))
    inputs = {Path(name).resolve() for name in names if name}
    for path in stale:
        if path.resolve() not in inputs:
            path.unlink(missing_ok=True)


def _read(path, what):
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read {what} file {path}: {exc}") from exc


def _parse_length(text, flag):
    value = parse_rational(text, flag)
    if value <= 0:
        raise RangeError(f"{flag} must be > 0, got {format_rational(value)}")
    return value


def _pendant_main_length(args):
    if args.main_length is None:
        raise SchemaError("--main-length is required for pendant validation")
    return _parse_length(args.main_length, "--main-length")


def _parse_lengths(text):
    items = [s.strip() for s in text.split(",")]
    if not all(items):
        raise SchemaError("--lengths: expected a comma-separated list of rationals")
    return [_parse_length(s, "--lengths") for s in items]


# ---------------------------------------------------------------------------
# spectra formatting


def _fixed(n, digits):
    """n / 10**digits as a decimal string; the fraction part, of at most
    MAX_DIGITS digits, is within CPython's int-to-str digit limit."""
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10 ** digits)
    return sign + format_rational(whole) + (f".{frac:0{digits}}" if digits else "")


def _floor_of(value, digits):
    """Floor of value * 10**digits."""
    return value.numerator * 10 ** digits // value.denominator


def _floor_of_sqrt(value, digits):
    """Floor of sqrt(value) * 10**digits."""
    return isqrt(_floor_of(value, 2 * digits))


def _decimal(rv, digits, floor):
    """The root's exact ``floor`` at ``digits`` places, as a decimal string.

    The interval is refined until both its ends lie in one decimal cell;
    that ends, because a root that classification leaves irrational, and
    its square root, are never decimals.  A root close to a cell's edge
    takes as many more bits as its distance needs, doubling the step.
    """
    width, step = Fraction(1, 10 ** digits), 1
    while (cell := floor(rv.bounds()[0], digits)) != floor(rv.bounds()[1], digits):
        rv.refine_to_width(width)
        width, step = width / (1 << step), 2 * step
    return _fixed(cell, digits)


def _root_entry(rv, mult, width):
    if rv.is_rational:
        return {"value": format_rational(rv.rat), "mult": mult}
    rv.refine_to_width(width)
    lo, hi = rv.bounds()
    return {"interval": [format_rational(lo), format_rational(hi)], "mult": mult}


def _spectra_json(neumann, dirichlet, args):
    if args.as_frequencies:
        digits = 12 if args.digits is None else args.digits
        out = {"approximate": True, "digits": digits}
        for key, roots in (("neumann_frequencies", neumann), ("dirichlet_frequencies", dirichlet)):
            freqs = [(_decimal(rv, digits, _floor_of_sqrt), m) for rv, m in roots]
            out[key] = ([f"-{r}" for r, m in reversed(freqs) for _ in range(m)]
                        + [r for r, m in freqs for _ in range(m)])
        return out
    if args.digits is not None:
        return {
            "approximate": True,
            "digits": args.digits,
            "neumann_squared": [
                {"value": _decimal(rv, args.digits, _floor_of), "mult": m} for rv, m in neumann
            ],
            "dirichlet_squared": [
                {"value": _decimal(rv, args.digits, _floor_of), "mult": m} for rv, m in dirichlet
            ],
        }
    width = args.refine_width
    return {
        "neumann_squared": [_root_entry(rv, m, width) for rv, m in neumann],
        "dirichlet_squared": [_root_entry(rv, m, width) for rv, m in dirichlet],
    }


def _poly_json(p):
    return [format_rational(c) for c in p.coeffs]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_forward(args):
    args.refine_width = parse_rational(args.refine_width, "--refine-width")
    if args.refine_width <= 0:
        raise RangeError(f"--refine-width must be > 0, got {format_rational(args.refine_width)}")
    if args.digits is not None and not 0 <= args.digits <= MAX_DIGITS:
        raise RangeError(f"--digits must be in [0, {MAX_DIGITS}], got {args.digits}")
    graph = parse_graph(_read(args.graph, "graph"))
    phi_n, phi_d = fwd.char_polys(graph)
    neumann, dirichlet = fwd.spectrum_of(phi_n), fwd.spectrum_of(phi_d)
    _write(args, "", _dump(_spectra_json(neumann, dirichlet, args)))
    if args.emit_polys:
        _write(args, ".polys", _dump({
            "phi_neumann": _poly_json(phi_n),
            "phi_dirichlet": _poly_json(phi_d),
        }))
    return 0


def _plan_json(plan):
    """The ``.plan`` block of a resolved plan: each pole's edges and residue
    shares, then the plan again as a ``--plan`` input."""
    assignments = [
        {"value": format_rational(v), "edges": list(e), "shares": [format_rational(s) for s in sh]}
        for e, (v, sh) in zip(plan.partition, plan.residue_split)
    ]
    return {"assignments": assignments, "reusable_plan": plan.to_json()}


def _cmd_inverse_center(args):
    spectra = parse_spectra(_read(args.spectra, "spectra"))
    lengths = _parse_lengths(args.lengths)
    plan = parse_plan(_read(args.plan, "plan")) if args.plan else None
    try:
        rec = ic.reconstruct_center(spectra, lengths, plan)
    except InvalidSpectra as exc:
        _write(args, ".report", _dump(exc.report.to_json()))
        return 2
    _write(args, "", serialize_graph(rec.graph))
    _write(args, ".plan", _dump(_plan_json(rec.plan_used)))
    if args.enumerate:
        _write(args, ".constraints", _dump(ic.enumerate_constraints(spectra, lengths, rec)))
    return 0


def _cmd_inverse_pendant(args):
    spectra = parse_spectra(_read(args.spectra, "spectra"))
    lengths = _parse_lengths(args.lengths)
    main_length = _parse_length(args.main_length, "--main-length")
    plan = parse_plan(_read(args.plan, "plan")) if args.plan else None
    try:
        rec = ip.reconstruct_pendant(spectra, main_length, lengths, plan)
    except InvalidSpectra as exc:
        _write(args, ".report", _dump(exc.report.to_json()))
        return 2
    _write(args, "", serialize_graph(rec.graph))
    details = {
        "gamma": format_rational(rec.decomposition.gamma),
        "cf": rec.decomposition.cf.to_json(),
        "main_mass_count": rec.decomposition.main_mass_count,
        "tail_constant": format_rational(rec.decomposition.tail_constant),
        "central_mass": format_rational(rec.graph.central_mass),
        "common_zeros": [
            {"value": format_rational(v), "mult": m}
            for v, m in rec.decomposition.common_zeros
        ],
    }
    if rec.subgraph_plan is not None:
        details["subgraph_plan"] = _plan_json(rec.subgraph_plan)
    _write(args, ".plan", _dump(details))
    if args.enumerate:
        sub = ip.validate_subgraph_data(rec.decomposition, lengths)
        details_out = {"subgraph_report": None if sub is None else sub.to_json()}
        _write(args, ".constraints", _dump(details_out))
    return 0


def _cmd_validate(args):
    spectra = parse_spectra(_read(args.spectra, "spectra"))
    lengths = _parse_lengths(args.lengths)
    if args.root == "center":
        report = ic.validate_center(spectra, len(lengths))
        if len(lengths) < 2:
            # the realizer refuses a single centre string whatever the spectra
            issues = (ic.Issue("count", ic.FEW_LENGTHS), *report.issues)
            report = ic.ValidationReport(False, issues, report.central_mass_positive)
    else:
        report = ip.validate_pendant(spectra, _pendant_main_length(args), lengths)
    _write(args, "", _dump(report.to_json()))
    return 0 if report.valid else 2


def _roundtrip_graph(graph):
    if graph.root is Root.CENTER:
        quotient, _ = fwd.center_quotient(graph)
        # a value shared by k edges is a pole of the reduced quotient once,
        # so each edge keeps only what the earlier edges have not taken; an
        # edge left with factor 1 comes back massless
        factors, taken = [], ONE
        for e in graph.edges:
            f = fwd.edge_cauer_polys(e)[0].monic()
            f = f.divexact(poly_gcd(f, taken))
            factors.append(f)
            taken = taken * f
        lengths = [e.total_length for e in graph.edges]
        psi = quotient.inverse()
        rebuilt = ic.reconstruct_center_grouped(psi, factors, lengths)
        # quotient is canonical and phi_N is nonzero, so cross-multiplying needs no gcd
        phi_n, phi_d = fwd.char_polys(rebuilt)
        return {
            "mode": "center",
            "pass": phi_d * quotient.den == phi_n * quotient.num,
            "detail": "canonical phi_D/phi_N compared exactly",
        }
    quotient, _ = fwd.pendant_quotient(graph)
    dec = ip.decompose_main_from_quotient(quotient, graph.main_edge.total_length)
    return {
        "mode": "pendant",
        "pass": dec.main == graph.main_edge,
        "detail": "main edge recovered from the spectral quotient",
    }


def _roundtrip_spectra(args, spectra, lengths):
    if args.root == "pendant":
        rec = ip.reconstruct_pendant(spectra, _pendant_main_length(args), lengths)
    else:
        rec = ic.reconstruct_center(spectra, lengths)
    phi_n, phi_d = fwd.char_polys(rec.graph)
    ok = all(
        phi.monic() == Poly.from_linear_roots(values)
        for phi, values in ((phi_n, spectra.neumann_values()), (phi_d, spectra.dirichlet_values()))
    )
    return {"mode": f"spectra-{args.root}", "pass": ok,
            "detail": "reconstructed graph's spectra compared to the input multisets"}


def _cmd_verify_roundtrip(args):
    if args.graph:
        graph = parse_graph(_read(args.graph, "graph"))
        verdict = _roundtrip_graph(graph)
    else:
        if not args.spectra or not args.lengths:
            raise SchemaError("verify-roundtrip needs --graph or --spectra with --lengths")
        spectra = parse_spectra(_read(args.spectra, "spectra"))
        lengths = _parse_lengths(args.lengths)
        verdict = _roundtrip_spectra(args, spectra, lengths)
    _write(args, "", _dump(verdict))
    return 0 if verdict["pass"] else 2


def _cmd_matrix(args):
    graph = parse_graph(_read(args.graph, "graph"))
    L, diag = mx.build_pencil(graph)
    _write(args, "", _dump(mx.pencil_to_json(L, diag)))
    cert = mx.interlacing_certificate(L, diag)
    _write(args, ".certificate", _dump(cert.to_json()))
    return 0 if cert.ok else 2


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as E_SCHEMA, like any other input error."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


@cache
def _build_parser():
    parser = _Parser(
        prog="starstring",
        description="Direct and inverse Dirichlet/Neumann spectral problems "
                    "for star graphs of Stieltjes strings (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_output(p):
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("forward", help="graph -> spectra")
    p.add_argument("--graph", required=True)
    p.add_argument("--emit-polys", action="store_true",
                   help="also write the characteristic polynomials")
    p.add_argument("--as-frequencies", action="store_true",
                   help="emit +-sqrt(z) decimals instead of exact squared values")
    p.add_argument("--digits", type=int,
                   help=f"decimal places, 0-{MAX_DIGITS} (approximate; 12 with --as-frequencies)")
    p.add_argument("--refine-width", default=DEFAULT_REFINE_WIDTH,
                   help="interval refinement width for irrational roots, > 0")
    common_output(p)

    p = sub.add_parser("inverse-center", help="spectra + lengths -> centre-rooted graph")
    p.add_argument("--spectra", required=True)
    p.add_argument("--lengths", required=True, help="comma-separated string lengths")
    p.add_argument("--plan", help="reconstruction plan JSON")
    p.add_argument("--enumerate", action="store_true",
                   help="export the non-uniqueness constraint set")
    common_output(p)

    p = sub.add_parser("inverse-pendant", help="spectra + lengths -> pendant-rooted graph")
    p.add_argument("--spectra", required=True)
    p.add_argument("--main-length", required=True)
    p.add_argument("--lengths", required=True, help="comma-separated non-main lengths")
    p.add_argument("--plan", help="reconstruction plan JSON (subgraph stage)")
    p.add_argument("--enumerate", action="store_true")
    common_output(p)

    p = sub.add_parser("validate", help="check spectral data against the solvability conditions")
    p.add_argument("--spectra", required=True)
    p.add_argument("--root", choices=("center", "pendant"), default="center")
    p.add_argument("--lengths", required=True)
    p.add_argument("--main-length")
    common_output(p)

    p = sub.add_parser("verify-roundtrip", help="inverse(forward) or forward(inverse) identity")
    p.add_argument("--graph")
    p.add_argument("--spectra")
    p.add_argument("--lengths")
    p.add_argument("--root", choices=("center", "pendant"), default="center")
    p.add_argument("--main-length")
    common_output(p)

    p = sub.add_parser("matrix", help="stiffness/mass pencil and interlacing certificate")
    p.add_argument("--graph", required=True)
    common_output(p)

    return parser


def _error(code, message):
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        args.written = set()
        # looked up on every call, so the subcommand is always this module's current one
        command = globals()["_cmd_" + args.command.replace("-", "_")]
        try:
            status = command(args)
        except (InvariantViolation, PlanInfeasible) as exc:
            _error(exc.code, exc.message)
            status = 2
        _remove_stale(args)
        return status
    except StarStringError as exc:
        _error(exc.code, exc.message)
        return 1
    except Exception as exc:  # a defect, not a user error: still one line, no traceback
        _error("E_INTERNAL", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
