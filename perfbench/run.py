#!/usr/bin/env python3
"""Host cost per membership event: the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (CMake, into .bench_build/perfbench) from the library
sources under src/, then runs one workload:

  --trace 0  untraced. Set-up is timed in several fresh processes and the
             median reported; the workload then runs for --seconds in one
             more process. Prints the end-to-end metrics.
  --trace 1  the build whose layer entry points are wrapped at link time.
             Prints the per-layer metrics.

Every run checks the program's outputs: each measured event must leave all
members of each component with the same key (single-group workloads), and
every hosted group must converge (server workloads). With the default seed
the digest of rep 0's virtual outputs must also equal the one recorded in
expected_digests.json.

The last line of stdout is the result as one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DEFAULT_SEED = 1
SETUP_PROCESSES = 5
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds both binaries; False on any failure."""
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "2"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_binary(name, args):
    """Runs one benchmark process and returns its last stdout line as JSON."""
    proc = subprocess.run([os.path.join(BUILD, name)] + args,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{name} printed nothing")
    return json.loads(lines[-1])


def expected_digest(workload):
    with open(os.path.join(HERE, "expected_digests.json")) as f:
        return json.load(f)[workload]


def check(out, workload, seed):
    """Correctness verdict for one process's output, with reasons."""
    problems = []
    if out["failed"] > 0:
        problems.append(f"{out['failed']} of {out['attempted']} failed")
    if seed == DEFAULT_SEED and out["digest_rep0"] != expected_digest(workload):
        problems.append(f"virtual-output digest {out['digest_rep0']} != "
                        f"expected {expected_digest(workload)}")
    return problems


def metric_specs(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[kind]


def end_to_end(args):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [run_binary("perfbench_e2e", common + ["--seconds", "1",
                                                    "--setup-only"])
              for _ in range(SETUP_PROCESSES)]
    out = run_binary("perfbench_e2e",
                     common + ["--seconds", str(args.seconds)])
    setups.append(out)
    out["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    setup_raw_s = statistics.median(s["setup_s_raw"] for s in setups)
    print(f"{args.workload} seed={args.seed}: {out['reps']} reps, "
          f"{out['events']} events, {out['step_samples']} timed steps; "
          f"unscaled: {out['events_per_host_s_raw']:.6g} events/s, "
          f"set-up {setup_raw_s:.6g} s; speed factor "
          f"{out['speed_factor']:.4g}")
    metrics = {}
    for spec in metric_specs("end_to_end"):
        metrics[spec["name"]] = {"value": out[spec["name"]],
                                 "unit": spec["unit"]}
    return out, metrics


def per_layer(args):
    out = run_binary("perfbench_trace",
                     ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds)])
    layers = out["layers"]
    metrics = {}
    for spec in metric_specs("per_layer"):
        metrics[spec["name"]] = {"value": layers[spec["name"]],
                                 "unit": spec["unit"]}
    return out, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    try:
        out, metrics = per_layer(args) if args.trace else end_to_end(args)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        return 1

    problems = check(out, args.workload, args.seed)
    for problem in problems:
        print(f"INCORRECT: {problem}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems,
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
