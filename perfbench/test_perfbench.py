"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They solve only a handful of small instances, so they take seconds.
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from starstring import cli  # noqa: E402
from starstring.model import Edge, Root, StarGraph  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _pool(name, seed, count=8):
    wl = workloads.WORKLOADS[name]
    return [wl.make(seed, i) for i in range(count)]


def _solve(tmp_path, name, index=0, seed=run.DEFAULT_SEED):
    wl = workloads.WORKLOADS[name]
    inst = wl.make(seed, index)
    for fname, data in inst.files.items():
        (tmp_path / fname).write_bytes(data)
    _, rc, outputs = run.solve(cli, inst, tmp_path)
    return wl, inst, rc, outputs


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = run.input_hash(_pool(name, 7))
    assert run.input_hash(_pool(name, 7)) == first
    assert run.input_hash(_pool(name, 8)) != first


def test_manifest_matches_default_seed_inputs():
    manifest = json.loads(run.MANIFEST.read_text())
    for name, wl in workloads.WORKLOADS.items():
        pool = [wl.make(manifest["seed"], i) for i in range(wl.pool)]
        assert manifest["workloads"][name]["input_sha256"] == run.input_hash(pool)
        assert len(manifest["workloads"][name]["output_sha256"]) == wl.pool


def test_reference_char_polys_worked_by_hand():
    """det(L - zM), made monic, for two three-node graphs."""
    one = Edge((1, 1), (1,))
    star = StarGraph(Root.CENTER, 1, (one, one))
    # free centre: (2 - z)((2 - z)^2 - 2); clamped centre: (2 - z)^2
    assert workloads.char_polys(star) == ((-4, 10, -6, 1), (4, -4, 1))
    pendant = StarGraph(Root.PENDANT, 0, (one,), one)
    # free root: 2z^2 - 4z + 1; clamped root: 2(2 - z)(1 - z)
    assert workloads.char_polys(pendant) == ((Fraction(1, 2), -2, 1), (2, -3, 1))


def test_runs_cover_whole_passes():
    assert list(run.passes([1, 2, 3], 0)) == [1, 2, 3]


def test_setup_round_runs_in_a_fresh_interpreter():
    args = run.argparse.Namespace(workload="inverse-pendant", seed=2)
    assert run.setup_seconds(args) > 0


@pytest.mark.parametrize("name", NAMES)
def test_correct_output_passes_and_corrupted_output_fails(tmp_path, name):
    wl, inst, rc, outputs = _solve(tmp_path, name)
    golden = json.loads(run.MANIFEST.read_text())["workloads"][name]["output_sha256"]
    assert run.verdict(workloads, wl, inst, rc, outputs, golden) is None

    # a changed number in the primary output breaks the exact check
    text = outputs[inst.out].decode()
    digit = next(i for i, ch in enumerate(text) if ch in "123456789")
    bad = dict(outputs)
    bad[inst.out] = (text[:digit] + str(int(text[digit]) % 9 + 1) + text[digit + 1:]).encode()
    assert run.verdict(workloads, wl, inst, rc, bad, None) is not None

    # a byte change that keeps the values is caught by the recorded digest
    padded = dict(outputs)
    padded[inst.out] = outputs[inst.out] + b"\n"
    assert run.verdict(workloads, wl, inst, rc, padded, golden) is not None

    # a missing file or a nonzero exit status is a failure too
    assert run.verdict(workloads, wl, inst, rc, {}, None) is not None
    assert run.verdict(workloads, wl, inst, 2, outputs, None) is not None


def _bindings():
    """Every function and method binding the tracer may replace."""
    seen = {}
    for mod_name in ["starstring"] + [f"starstring.{layer}" for layer in tracing.LAYERS]:
        mod = importlib.import_module(mod_name)
        for attr, val in vars(mod).items():
            if inspect.isfunction(val):
                seen[(mod_name, attr)] = val
    for layer, cls_name, meth, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"starstring.{layer}"), cls_name)
        seen[(cls_name, meth)] = cls.__dict__[meth]
    return seen


def test_traced_run_restores_every_wrapped_function(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        replaced = {key for key in before if during[key] is not before[key]}
        # names imported into several modules are wrapped at every binding
        for mod in ("forward", "ratfun", "inverse_pendant", "matrixize"):
            assert (f"starstring.{mod}", "isolate_real_roots") in replaced
        assert ("RationalFunction", "make") in replaced
        tracer.solve = 0
        _solve(tmp_path, "forward")
        tracer.solve = None
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert tracer.spans and tracer.spans[0][0] == "cli.main"


def test_tracing_keeps_outputs_byte_identical(tmp_path):
    _, _, _, plain = _solve(tmp_path, "inverse-pendant")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.solve = 0
        _, _, rc, traced = _solve(tmp_path, "inverse-pendant")
    finally:
        tracer.uninstall()
    assert rc == 0 and traced == plain
    metrics = tracer.layer_metrics(1, tracer.classify_seconds())
    assert metrics["roots.classify_s"] > 0
    assert metrics["inverse_pendant.decompose_main.calls"] == 2


def test_per_layer_metric_names_exist():
    """Every per-layer metric in BENCHMARK.json names a traced span or counter."""
    tracer = tracing.Tracer()
    spans = set(tracer._targets().values()) | {m[3] for m in tracing.METHODS}
    counters = {
        "roots.classify_s", "roots.roots_found", "roots.irrational_share", "roots.refine_steps",
        "poly.max_coeff_bits", "ratfun.cf_expand.max_depth", "forward.charpoly_degree",
        "forward.charpoly_coeff_bits", "inverse_pendant.cut_index", "matrixize.dim",
        "trace.overhead",
    }
    for m in run.spec()["per_layer"]:
        name = m["name"]
        base, _, suffix = name.rpartition(".")
        assert name in counters or (suffix in ("self_s", "calls") and base in spans), name


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark exits nonzero and prints no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forward", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
