"""starstring benchmark: one workload, closed loop with one client.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's instances are generated
from ``--seed`` into ``.perfbench_work/`` and solved one after another
through ``starstring.cli.main(argv)``, in this process and without threads:
the next solve starts when the previous one returns.  A run solves whole
passes over the pool, in index order, and stops after the pass during which
``--seconds`` ran out; so every instance is solved equally often, and two
commits measured at one seed time the same instances in the same
proportions.  Each solve's output files are checked exactly after it
returns, outside its timed span; at the default seed their sha256 must also
equal the digest recorded in ``perfbench/manifest.json``.

``setup_s`` is the median over fresh interpreters, each running this script
with ``--setup-only``: start, import, generate and write the pool, exit.
One starts before every SETUP_ROUNDS_PER_PASS-th of a pass, outside the
timed spans, so that the rounds see the machine over the whole run, as the
solves do, rather than in one moment.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` solves each
instance twice in a row, untraced and then with every layer function
wrapped (see tracing.py), checks that both solves wrote byte-identical
files, and reports the per-layer metrics and the tracing overhead.  Metric
names and units are read from BENCHMARK.json.  Human readable details go to
earlier stdout lines; the last line is the result object.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

DEFAULT_SEED = 1
SETUP_ROUNDS_PER_PASS = 4
# --trace 1 alternates untraced and traced solves for this share of --seconds;
# re-running the classifying isolate calls afterwards takes about half as long
TRACE_LOOP_SHARE = 0.5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
WORK = Path(".perfbench_work")
MANIFEST = HERE / "manifest.json"


def load_program():
    """The workload module and starstring.cli, which must come from this checkout."""
    workloads = importlib.import_module("workloads")
    cli = importlib.import_module("starstring.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"starstring comes from {cli.__file__}, not from this checkout")
    return workloads, cli


def setup(workload, seed, workdir):
    """Import, generate every instance of the pool, write its input files."""
    workloads, cli = load_program()
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}")
    wl = workloads.WORKLOADS[workload]
    instances = [wl.make(seed, i) for i in range(wl.pool)]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for inst in instances:
        for name, data in inst.files.items():
            (workdir / name).write_bytes(data)
    return workloads, cli, wl, instances


def setup_seconds(args):
    """Wall time of one fresh interpreter that sets up the run and exits."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-only"]
    t0 = perf_counter()
    subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - t0


def input_hash(instances):
    h = hashlib.sha256()
    for inst in instances:
        h.update(json.dumps(inst.args).encode() + b"\0")
        for name in sorted(inst.files):
            h.update(name.encode() + b"\0" + inst.files[name] + b"\0")
    return h.hexdigest()


def output_files(workdir, inst):
    """The primary output and its siblings (o7.json, o7.plan.json, ...)."""
    return workdir.glob(f"{inst.out.rpartition('.')[0]}.*")


def solve(cli, inst, workdir):
    """One timed CLI call; returns (seconds, exit code or error text, outputs)."""
    for p in output_files(workdir, inst):
        p.unlink()
    argv = inst.argv(workdir)
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed solve, not a benchmark crash
        rc = f"{type(exc).__name__}: {exc}"
    except SystemExit as exc:  # argparse rejected the arguments
        rc = f"SystemExit({exc.code})"
    dt = perf_counter() - t0
    return dt, rc, {p.name: p.read_bytes() for p in output_files(workdir, inst)}


def verdict(workloads, wl, inst, rc, outputs, golden):
    """None when the solve is correct, else the reason it is not."""
    if rc != 0:
        return f"exit status {rc}"
    try:
        wl.check(inst, outputs)
    except Exception as exc:  # malformed output can fail anywhere in the check
        return f"check: {type(exc).__name__}: {exc}"
    if golden is not None and workloads.digest(outputs) != golden[inst.index]:
        return "output digest differs from the recorded one"
    return None


def tail(samples):
    """(value, percentile): highest order statistic with TAIL_BEYOND samples above it."""
    xs = sorted(samples)
    k = max(len(xs) - TAIL_BEYOND, 1)
    return xs[k - 1], 100.0 * k / len(xs)


def machine():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # a set-up round writes beside the run's files, not over them
    workdir = WORK / (f"{args.workload}.setup" if args.setup_only else args.workload)
    try:
        workloads, cli, wl, instances = setup(args.workload, args.seed, workdir)
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import the program: {exc}\n")
        return 3
    if args.setup_only:
        return 0

    golden = None
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    recorded = manifest.get("workloads", {}).get(args.workload)
    digest_in = input_hash(instances)
    if args.seed == DEFAULT_SEED and recorded:
        if recorded["input_sha256"] != digest_in:
            sys.stderr.write("perfbench: default-seed inputs differ from manifest.json\n")
            return 4
        golden = recorded["output_sha256"]

    info = {
        "workload": args.workload, "seed": args.seed, "input_sha256": digest_in,
        "masses": [min(i.masses for i in instances), max(i.masses for i in instances)],
        "max_coeff_bits": max(i.coeff_bits for i in instances),
        **machine(),
    }
    if args.trace:
        result = traced_run(args, workloads, cli, wl, instances, workdir, golden, info)
    else:
        result = timed_run(args, workloads, cli, wl, instances, workdir, golden, info)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def passes(instances, seconds):
    """Yield the pool's instances in whole passes until ``seconds`` have run out."""
    deadline = perf_counter() + seconds
    while True:
        yield from instances
        if perf_counter() >= deadline:
            return


def timed_run(args, workloads, cli, wl, instances, workdir, golden, info):
    durations, failures, setups = [], [], []
    setup_every = max(len(instances) // SETUP_ROUNDS_PER_PASS, 1)
    for n, inst in enumerate(passes(instances, args.seconds)):
        if n % setup_every == 0:
            setups.append(setup_seconds(args))
        dt, rc, outputs = solve(cli, inst, workdir)
        durations.append(dt)
        why = verdict(workloads, wl, inst, rc, outputs, golden)
        if why:
            failures.append(f"instance {inst.index}: {why}")
    value, pct = tail(durations)
    info.update(solves=len(durations), passes=len(durations) // len(instances), tail_percentile=pct,
                failed_frac=len(failures) / len(durations), failures=failures[:20], setup_rounds_s=setups)
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    values = {
        "solve_s_p50": statistics.median(durations),
        "solve_s_tail": value,
        "solves_per_s": len(durations) / sum(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    return {
        "correct": not failures, "attempted": len(durations), "failed": len(failures),
        "metrics": {name: metric(values[name], unit) for name, unit in units.items()},
    }


def traced_run(args, workloads, cli, wl, instances, workdir, golden, info):
    """Each instance is solved untraced, then traced; the pairs share machine state."""
    import tracing

    tracer = tracing.Tracer()
    failures, untraced, traced = [], [], []
    for n, inst in enumerate(passes(instances, args.seconds * TRACE_LOOP_SHARE)):
        dt, rc, outputs = solve(cli, inst, workdir)
        untraced.append(dt)
        why = verdict(workloads, wl, inst, rc, outputs, golden)
        if why:
            failures.append(f"instance {inst.index}: {why}")
        tracer.install()
        tracer.solve = n
        try:
            dt, _, again = solve(cli, inst, workdir)
        finally:
            tracer.solve = None
            tracer.uninstall()
        traced.append(dt)
        if again != outputs:
            failures.append(f"instance {inst.index}: traced output differs")
    classify_s = tracer.classify_seconds()

    n = len(untraced)
    layers = tracer.layer_metrics(n, classify_s)
    layers["trace.overhead"] = sum(traced) / sum(untraced) - 1
    info.update(solves=n, failed_frac=len(failures) / n, failures=failures[:20],
                untraced_s=sum(untraced), traced_s=sum(traced),
                spans=len(tracer.spans), layers=dict(sorted(layers.items())))
    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    return {
        "correct": not failures, "attempted": n, "failed": len(failures),
        "metrics": {name: metric(float(layers.get(name, 0.0)), unit) for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
