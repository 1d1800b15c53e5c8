"""The README's CLI contract as a property of every run.

Hypothesis draws a subcommand, its argv and its graph, spectra and plan
files: valid data from the generators of ``conftest`` (their ranges), then
often one value replaced by junk, one key deleted, or bytes that are not
JSON at all.  Each case runs ``cli.main`` in this process, with a timer
and an address-space limit, and checks:

- the exit status is 0, 1 or 2;
- an error is one JSON line on stderr with a code ``errors.py`` defines,
  never E_INTERNAL (exit 1 always has one; exit 0 has none);
- after exit 0 or 2 no stale file named after ``--out`` is left; after
  exit 1 none is removed; no input file is ever removed.

Seeded data for either root, valid or with one condition broken, also
checks that ``validate`` and the inverse commands give one verdict.
"""

import copy
import io
import json
import random
import resource
import signal
import tempfile
from contextlib import contextmanager, redirect_stderr
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings, strategies as st

from starstring import cli, errors
from starstring.inverse_center import FEW_LENGTHS
from starstring.model import ReconstructionPlan, SpectrumPair
from tests.conftest import (
    random_center_graph,
    random_center_spectral_data,
    random_pendant_graph,
    random_pendant_spectral_data,
    rational,
)
from tests.test_inverse_center import _break_one
from tests.test_inverse_pendant import _break_one_pendant

# each subcommand's (required, optional) flags
FLAGS = {
    "forward": (("--graph",), ("--emit-polys", "--as-frequencies", "--digits", "--refine-width")),
    "inverse-center": (("--spectra", "--lengths"), ("--plan", "--enumerate")),
    "inverse-pendant": (("--spectra", "--main-length", "--lengths"), ("--plan", "--enumerate")),
    "validate": (("--spectra", "--lengths"), ("--root", "--main-length")),
    "verify-roundtrip": ((), ("--graph", "--spectra", "--lengths", "--root", "--main-length")),
    "matrix": (("--graph",), ()),
}
SWITCHES = {"--emit-polys", "--as-frequencies", "--enumerate"}
FILES = {"--graph": "graph.json", "--spectra": "spectra.json", "--plan": "plan.json"}
# the siblings of --out each subcommand can write, as the README lists them
SIBLINGS = {
    "forward": (".polys",),
    "inverse-center": (".report", ".plan", ".constraints"),
    "inverse-pendant": (".report", ".plan", ".constraints"),
    "matrix": (".certificate",),
}
CODES = {
    cls.code for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.StarStringError)
}
JUNK = (None, True, 0, -1, 1.5, "", "0", "-1", "1/0", "abc", "1e999999999", "1e-30",
        "1000000000000", 10 ** 12, [], {}, [[]], ["1"])
NOT_JSON = (b"", b"{", b"null", b"\xff\xfe{}", b"[" * 100000)
STALE = b"stale output of an earlier run"
SECONDS = 20


def _paths(obj, path=()):
    """Every key or index path into a JSON value, the root first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def json_file(draw, obj, faulty):
    """``obj`` as file bytes; if ``faulty``, often with one value replaced
    or one key deleted, or not JSON at all."""
    kind = draw(st.sampled_from(("valid", "valid", "replace", "delete", "bytes"))) if faulty else "valid"
    if kind == "bytes":
        return draw(st.sampled_from(NOT_JSON))
    obj = copy.deepcopy(obj)
    paths = list(_paths(obj))[1:]
    if kind != "valid" and paths:
        *parents, key = draw(st.sampled_from(paths))
        parent = obj
        for step in parents:
            parent = parent[step]
        if kind == "delete":
            del parent[key]
        else:
            parent[key] = draw(st.sampled_from(JUNK))
    return json.dumps(obj).encode()


def _plan(rng, spectra, edges):
    """A plan over the Dirichlet values: each value's occurrences on random
    distinct edges, and equal residue shares for some of them."""
    values = spectra.dirichlet_sq
    partition = tuple(tuple(rng.sample(range(edges), min(m, edges))) for _, m in values)
    split = tuple((v, (Fraction(1, m),) * m) for v, m in values if rng.random() < 0.5)
    return ReconstructionPlan(partition if rng.random() < 0.5 else None, split).to_json()


@st.composite
def cli_cases(draw):
    """(argv without --out, {file name: bytes}) for one run: about half the
    runs have valid values and files and every required flag; in the
    others each may be junk or missing."""
    # the conftest generators and the rare faults take a seeded Random, so
    # they keep their own distributions
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    faulty = draw(st.booleans())

    def value(valid, junk):
        return draw(junk) if faulty and rng.random() < 0.25 else draw(valid)

    command = draw(st.sampled_from(sorted(FLAGS)))
    if draw(st.booleans()):
        graph = random_pendant_graph(rng)
        spectra, main_length, lengths = random_pendant_spectral_data(rng)
    else:
        graph = random_center_graph(rng)
        spectra, lengths, _, _ = random_center_spectral_data(rng)
        main_length = rational(rng)
    plan = _plan(rng, spectra, len(lengths))
    lengths = ",".join(str(x) for x in lengths)
    text = st.sampled_from(("", "0", "-1", "abc", "1/0", "1e-30", ",2", "2,,1"))
    values = {
        "--lengths": value(st.just(lengths), text),
        "--main-length": value(st.just(str(main_length)), text),
        "--digits": value(st.integers(0, 40).map(str), st.sampled_from(("-1", "4001", "x"))),
        "--refine-width": value(st.sampled_from(("1/1024", "1e-30")),
                                st.sampled_from(("0", "-1/2", "abc"))),
        "--root": value(st.sampled_from(("center", "pendant")), st.just("sideways")),
    }
    files = {
        FILES["--graph"]: draw(json_file(graph.to_json(), faulty)),
        FILES["--spectra"]: draw(json_file(spectra.to_json(), faulty)),
        FILES["--plan"]: draw(json_file(plan, faulty)),
    }
    required, optional = FLAGS[command]
    argv = [command]
    for flag in required + optional:
        if draw(st.booleans()) or flag in required and not (faulty and rng.random() < 0.1):
            argv += [flag] if flag in SWITCHES else [flag, FILES.get(flag) or values[flag]]
    if faulty and rng.random() < 0.1:
        argv.append("--bogus")
    return argv, files


class _Timeout(BaseException):
    """Not an ``Exception``, so ``cli.main`` cannot report it as E_INTERNAL."""


@contextmanager
def _bounded():
    """Hold the body to SECONDS of wall time and 2 GiB more address space."""
    def expire(signum, frame):
        raise _Timeout(f"no exit after {SECONDS} s")

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as f:
        used = int(f.read().split()[0]) * resource.getpagesize()
    limit = used + (2 << 30)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    previous = signal.signal(signal.SIGALRM, expire)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_cases())
def test_every_run_keeps_the_cli_contract(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in files.items():
            (tmp / name).write_bytes(data)
        out = tmp / "o.json"
        outputs = [out.with_name(f"o{suffix}.json") for suffix in ("", *SIBLINGS.get(argv[0], ()))]
        for path in outputs:
            path.write_bytes(STALE)
        err = io.StringIO()
        with redirect_stderr(err), _bounded():
            status = cli.main([str(tmp / a) if a in files else a for a in argv] + ["--out", str(out)])
        lines = err.getvalue().splitlines()
        event(f"{argv[0]}: exit {status}")
        assert status in (0, 1, 2), status
        if status == 1 or lines:
            assert status != 0 and len(lines) == 1, lines
            code = json.loads(lines[0])["error"]
            assert code in CODES and code != "E_INTERNAL", lines[0]
        if status == 1:
            assert all(path.exists() for path in outputs)
        else:
            assert [p.name for p in outputs if p.exists() and p.read_bytes() == STALE] == []
        assert all((tmp / name).exists() for name in files)


def _run(argv):
    """(exit status, stderr lines) of one ``cli.main`` run in this process."""
    err = io.StringIO()
    with redirect_stderr(err):
        status = cli.main(argv)
    return status, err.getvalue().splitlines()


def _issue_codes(path):
    return [issue["code"] for issue in json.loads(path.read_text())["issues"]]


def _verdict_cases(rng):
    """(root, spectra, lengths, main length) from the generators of
    ``conftest``, valid or with one condition broken."""
    for i in range(40):
        spectra, lengths, q, _ = random_center_spectral_data(rng)
        code = (None, "count", "chain", "multiplicity")[i % 4]
        yield "center", spectra if code is None else _break_one(spectra, q, code), lengths, None
        spectra, main_length, lengths = random_pendant_spectral_data(rng)
        code = (None, "count", "chain", "multiplicity", "tail")[i % 5]
        if code is not None:
            spectra = _break_one_pendant(spectra, len(lengths) + 1, code)
        yield "pendant", spectra, lengths, main_length


def test_validate_and_the_inverse_commands_agree(rng, tmp_path):
    """``validate`` exits 0 exactly when the inverse command for its root
    does; otherwise the inverse command writes a ``.report`` with the same
    issue codes and nothing on stderr."""
    spectra_file, report, out = tmp_path / "s.json", tmp_path / "r.json", tmp_path / "g.json"
    verdicts = dict.fromkeys([(root, ok) for root in ("center", "pendant") for ok in (True, False)], 0)
    for root, spectra, lengths, main_length in _verdict_cases(rng):
        spectra_file.write_text(json.dumps(spectra.to_json()))
        data = ["--spectra", str(spectra_file), "--lengths", ",".join(map(str, lengths))]
        if main_length is not None:
            data += ["--main-length", str(main_length)]
        status, _ = _run(["validate", "--root", root, *data, "--out", str(report)])
        inverse, err = _run([f"inverse-{root}", *data, "--out", str(out)])
        case = (root, spectra, lengths, main_length, err)
        assert (status == 0) == (inverse == 0), case
        if status:
            assert (inverse, err) == (2, []), case
            assert _issue_codes(out.with_name("g.report.json")) == _issue_codes(report), case
        verdicts[root, status == 0] += 1
    assert min(verdicts.values()) >= 5, verdicts


def test_one_centre_length_is_refused_with_validates_first_issue(rng, tmp_path):
    """With one centre length ``validate`` lists ``count`` first, and
    ``inverse-center`` and ``verify-roundtrip --spectra`` print its message
    as their one E_INVARIANT line, whether or not the data also fail the
    single-string conditions (N = D = {10/3, 6} fails them), and write no
    report."""
    tied = SpectrumPair(((Fraction(10, 3), 1), (Fraction(6), 1)),
                        ((Fraction(10, 3), 1), (Fraction(6), 1)))
    spectra_file, out = tmp_path / "s.json", tmp_path / "g.json"
    for spectra in [tied] + [random_center_spectral_data(rng)[0] for _ in range(5)]:
        spectra_file.write_text(json.dumps(spectra.to_json()))
        data = ["--spectra", str(spectra_file), "--lengths", "2", "--out", str(out)]
        assert _run(["validate", "--root", "center", *data])[0] == 2
        first = json.loads(out.read_text())["issues"][0]
        assert first == {"code": "count", "message": FEW_LENGTHS}
        out.unlink()
        for command in ("inverse-center", "verify-roundtrip"):
            status, err = _run([command, *data])
            assert status == 2 and [json.loads(line) for line in err] == [
                {"error": "E_INVARIANT", "message": FEW_LENGTHS}], (command, spectra, err)
            assert sorted(tmp_path.iterdir()) == [spectra_file], command
