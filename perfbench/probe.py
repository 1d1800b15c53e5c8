"""Size-ceiling probe: the largest mass count each subcommand solves in ~1 s.

    python3 perfbench/probe.py

Information only; no bound applies to it.  For each subcommand it climbs a
fixed ladder of mass counts, solving one instance per rung, made from SEED, through
``starstring.cli.main``, and stops after the first solve slower than
``LIMIT_SECONDS``, so its cost stays bounded.  A solve that runs past
``CAP_SECONDS`` is interrupted and reported as such.  The ladder holds the
ROADMAP baseline points (9, 17 and 33 masses; n = 8 and 16 for the
inverse problems), which are re-measured whenever they fit under the stop.
Prints one JSON line per solve and a summary line with the ceilings.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from starstring import cli  # noqa: E402

LADDER = (5, 8, 9, 11, 13, 15, 16, 17, 20, 24, 28, 33, 40, 48, 57, 65)
SEED = 1
LIMIT_SECONDS = 1.0  # the ceiling is the largest mass count solved within this
CAP_SECONDS = 60


def _verify_roundtrip(index, rng, total):
    inst = wl.forward_instance(index, rng, "center", 4, total)
    inst.args[0] = "verify-roundtrip"
    return inst


# subcommand -> instance of a given mass count, shaped as in the ROADMAP baseline
SUBCOMMANDS = {
    "forward": lambda i, rng, n: wl.forward_instance(i, rng, "center", 4, n),
    "inverse-center": lambda i, rng, n: wl.inverse_center_instance(i, rng, [1] * n, False, False),
    "inverse-pendant": wl.inverse_pendant_instance,
    "matrix": lambda i, rng, n: wl.matrix_instance(i, rng, 4, n),
    "verify-roundtrip": _verify_roundtrip,
}


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def probe(name, workdir):
    """Solve up the ladder; returns the largest mass count solved within LIMIT_SECONDS."""
    build = SUBCOMMANDS[name]
    ceiling = None
    for i, masses in enumerate(LADDER):
        inst = build(i, random.Random(f"probe/{name}/{SEED}/{masses}"), masses)
        for fname, data in inst.files.items():
            (workdir / fname).write_bytes(data)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CAP_SECONDS)
        t0 = perf_counter()
        try:
            rc = cli.main(inst.argv(workdir))
            dt = perf_counter() - t0
        except _Timeout:
            rc, dt = None, None
        finally:
            signal.alarm(0)
        print(json.dumps({"subcommand": name, "masses": inst.masses, "seconds": dt, "exit": rc}), flush=True)
        if dt is None or dt > LIMIT_SECONDS or rc != 0:
            break
        ceiling = inst.masses
    return ceiling


def main():
    workdir = Path(".perfbench_work") / "probe"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ceilings = {}
    for name in SUBCOMMANDS:
        ceilings[name] = probe(name, workdir)
    print(json.dumps({"limit_s": LIMIT_SECONDS, "ceiling_masses": ceilings}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
