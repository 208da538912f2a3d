#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds into
.bench_build (the library from source, then the benchmark programs); later
runs only rebuild what changed. Build output goes to stderr, and the last
line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (vit_bench);
--trace 1 reports its per-layer metrics (vit_trace's stage replay, plus
vit_bench's serve-side figures on serve_two_models). Every VITALITY_*
variable is removed from the programs' environment; they pin each knob
themselves.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
SERVE = "serve_two_models"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run(program, args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("VITALITY_")}
    cmd = [os.path.join(BUILD, program)] + args
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{program} did not finish in {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        fail(f"{program} exited with {p.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds)]

    if a.trace:
        wanted = spec["per_layer"]
        programs = ["vit_trace"] + (["vit_bench"] if a.workload == SERVE else [])
        build(programs)
        parts = [run("vit_trace", common)]
        if a.workload == SERVE:
            parts.append(run("vit_bench", common + ["--trace", "1"]))
    else:
        wanted = spec["end_to_end"]
        build(["vit_bench"])
        parts = [run("vit_bench", common)]

    got = {}
    for p in parts:
        got.update(p["metrics"])
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in got and a.workload != SERVE and \
                name.startswith(("serve.", "loadgen.")):
            got[name] = {"value": 0.0, "unit": m["unit"]}  # no server here
        value = got.get(name, {}).get("value")
        if not isinstance(value, (int, float)):
            fail(f"metric {name} missing or not a number")
        if got[name]["unit"] != m["unit"]:
            fail(f"metric {name} in {got[name]['unit']}, expected {m['unit']}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
