#!/usr/bin/env python3
"""Pins the output digests of every workload for the given seeds.

    python3 perfbench/pin.py 1 2 3

Builds the benchmark, runs one repetition of each workload per seed and
writes the digests into perfbench/digests.json, keeping pins of other seeds.
Re-pin only when a change is meant to alter the simulated or trained output.
"""
import json
import subprocess
import sys

import run


def main():
    seeds = [int(s) for s in sys.argv[1:]]
    if not seeds:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    run.build()
    run.OUT.mkdir(exist_ok=True)
    pins = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for workload in sorted(run.WORKLOADS):
        for seed in seeds:
            proc = subprocess.run(
                [str(run.BINARY), "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", "0", "--workdir", str(run.OUT)],
                stdout=subprocess.PIPE, text=True, check=True)
            rep = json.loads(proc.stdout.strip().splitlines()[-1])["reps"][0]
            if rep["error"]:
                raise SystemExit(f"{workload} seed {seed}: {rep['error']}")
            pins.setdefault(workload, {})[str(seed)] = rep["digest"]
            print(workload, seed, rep["digest"])
    run.DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
