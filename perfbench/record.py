"""Record the instance manifest and golden output digests at the default seed.

    python3 perfbench/record.py

Writes ``perfbench/manifest.json``: for every workload, the sha256 of its
generated inputs, the mass-count range and the largest input coefficient
bit length, plus the sha256 of each instance's output files; and the
Python version, ``nproc`` and CPU model of the recording machine.  run.py
refuses to measure the default seed when its inputs no longer hash to the
recorded value, and counts a solve whose output digest differs as failed.
Every instance is solved and checked once; nothing is recorded if any
check fails.  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys

import run  # puts src/ and perfbench/ on sys.path
import workloads


def main():
    manifest = {"seed": run.DEFAULT_SEED, "machine": run.machine(), "workloads": {}}
    for name in sorted(workloads.WORKLOADS):
        workdir = run.WORK / "record" / name
        fresh, cli, wl, instances = run.setup(name, run.DEFAULT_SEED, workdir)
        digests = []
        for inst in instances:
            _, rc, outputs = run.solve(cli, inst, workdir)
            why = run.verdict(fresh, wl, inst, rc, outputs, None)
            if why:
                sys.stderr.write(f"{name} instance {inst.index}: {why}\n")
                return 1
            digests.append(fresh.digest(outputs))
        manifest["workloads"][name] = {
            "pool": len(instances),
            "input_sha256": run.input_hash(instances),
            "masses": [min(i.masses for i in instances), max(i.masses for i in instances)],
            "max_coeff_bits": max(i.coeff_bits for i in instances),
            "output_sha256": digests,
        }
        print(name, "recorded", len(digests), "instances", flush=True)
    run.MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
