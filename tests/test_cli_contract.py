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
from starstring.model import ReconstructionPlan
from tests.conftest import (
    random_center_graph,
    random_center_spectral_data,
    random_pendant_graph,
    random_pendant_spectral_data,
    rational,
)

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
