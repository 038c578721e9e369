#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload train_qos_8x8 --seed 1 --seconds 50 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, Release) into .bench_build,
runs the benchmark binary for the workload in its own process, checks every
repetition's output digest, and prints as the last line of standard output
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See perfbench/README.md.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "drlnoc_perfbench"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 150

# Mesh nodes per workload, for noc.node_ns.
WORKLOADS = {"train_qos_8x8": 64, "train_fine_4x4": 16, "fleet_16x16": 256}

END_TO_END_UNITS = {"decisions_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "noc.step_ns": "ns",
    "noc.node_ns": "ns",
    "noc.steps": "count",
    "noc.useful_share": "ratio",
    "noc.busy_share": "ratio",
    "core.env_overhead_ns": "ns",
    "core.setup_env_s": "s",
    "core.worker_busy": "ratio",
    "rl.act_ns": "ns",
    "rl.learn_ns": "ns",
    "rl.learn_steps": "count",
    "rl.sample_ns": "ns",
    "rl.learn_share": "ratio",
    "fleet.scenario_s": "s",
    "fleet.score_ms": "ms",
    "fleet.points": "count",
    "fault.rerouted_hops": "count",
    "fault.retries": "count",
    "fault.flits_dropped": "count",
    "trace.decisions_per_s": "1/s",
    "trace.overhead_decisions_per_s": "1/s",
}
# Counters that are a pure function of the workload and seed: every traced
# repetition must report the same value.
EXACT_REP_KEYS = ("learn_steps", "points", "rerouted_hops", "retries", "flits_dropped")


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "3"], check=True, stdout=sys.stderr)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(run):
    reps = run["reps"]
    return {
        "decisions_per_s": statistics.median(r["decisions"] / r["call_s"] for r in reps),
        "setup_s": statistics.median(s for r in reps for s in r["setup_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run, workload):
    reps = run["reps"]
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    n = len(traced)
    threads = run["stamp"]["threads"]
    ns = {p: sum(r["phases"][p][0] for r in traced) for p in traced[0]["phases"]}
    count = {p: sum(r["phases"][p][1] for r in traced) for p in traced[0]["phases"]}
    call_ns = sum(r["call_s"] for r in traced) * 1e9
    decision_cycles = sum(r["decision_cycles"] for r in traced)
    learn_steps = sum(r["learn_steps"] for r in traced)
    step_ns = ratio(ns["net_step"], count["net_step"])
    busy_phase = "evaluate" if workload == "fleet_16x16" else "env_step"
    rate = lambda rs: statistics.median(r["decisions"] / r["call_s"] for r in rs)
    env_setup = [r["env_setup_s"] for r in reps]
    return {
        "noc.step_ns": step_ns,
        "noc.node_ns": step_ns / WORKLOADS[workload],
        "noc.steps": count["net_step"] / n,
        "noc.useful_share": ratio(decision_cycles, count["net_step"]),
        "noc.busy_share": ratio(ns["net_step"], call_ns * threads),
        # Env-step time not spent stepping the fabric during decision epochs.
        "core.env_overhead_ns": ratio(ns["env_step"] - step_ns * decision_cycles,
                                      count["env_step"]) if count["env_step"] else 0.0,
        "core.setup_env_s": statistics.median(env_setup),
        "core.worker_busy": ratio(ns[busy_phase], call_ns * threads),
        "rl.act_ns": ratio(ns["rollout"], count["rollout"]),
        "rl.learn_ns": ratio(ns["learn"], learn_steps),
        "rl.learn_steps": learn_steps / n,
        "rl.sample_ns": ratio(ns["replay_sample"], count["replay_sample"]),
        "rl.learn_share": ratio(ns["learn"], call_ns),
        "fleet.scenario_s": ratio(ns["evaluate"], count["evaluate"]) / 1e9,
        "fleet.score_ms": statistics.median(r["score_s"] for r in reps) * 1e3,
        "fleet.points": sum(r["points"] for r in traced) / n,
        "fault.rerouted_hops": sum(r["rerouted_hops"] for r in traced) / n,
        "fault.retries": sum(r["retries"] for r in traced) / n,
        "fault.flits_dropped": sum(r["flits_dropped"] for r in traced) / n,
        "trace.decisions_per_s": rate(traced),
        "trace.overhead_decisions_per_s": rate(traced) - rate(untraced),
    }


def check(run, workload, seed, trace):
    """Returns a list of problems; empty when every repetition is correct."""
    reps = run["reps"]
    problems = [f"rep {i}: {r['error']}" for i, r in enumerate(reps) if r["error"]]
    if problems:
        return problems
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        problems.append(f"repetitions disagree: digests {sorted(digests)}")
    pinned = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if pinned is None:
        print(f"perfbench: no pinned digest for seed {seed}; checked repeatability only")
    elif digests != {pinned}:
        problems.append(f"digest {sorted(digests)} != pinned {pinned}")
    if trace:
        traced = [r for r in reps if r["traced"]]
        for key in EXACT_REP_KEYS:
            if len({r[key] for r in traced}) != 1:
                problems.append(f"exact counter {key} differs across repetitions")
        if len({r["phases"]["net_step"][1] for r in traced}) != 1:
            problems.append("exact counter noc.steps differs across repetitions")
    return problems


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    })


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(OUT), "--spans", str(spans)]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{BINARY.name} exited with code {proc.returncode}")
        run = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as e:
        print(f"perfbench: {e}")
        print(result_line(False, 1, 1, {}, units))
        return 0

    print(json.dumps({"stamp": run["stamp"]}))
    print(json.dumps({"call_s": [r["call_s"] for r in run["reps"]],
                      "setup_s": [s for r in run["reps"] for s in r["setup_s"]]}))
    attempted = max(1, sum(r["ops"] for r in run["reps"]))
    problems = check(run, args.workload, args.seed, args.trace)
    for p in problems:
        print(f"perfbench: FAILED {p}")
    # Wrong output still has its timings; a repetition that threw has none.
    metrics = {}
    if not any(r["error"] for r in run["reps"]):
        metrics = per_layer(run, args.workload) if args.trace else end_to_end(run)
    failed = attempted if problems else 0
    print(result_line(not problems, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
