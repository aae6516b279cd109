#!/usr/bin/env python3
"""Builds the ORB benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds
perfbench/ (with the library sources from src/) into .bench_build, or into
$CARGO_TARGET_DIR when that is set; later runs reuse the build.  Build
output goes to stderr.  The last line of stdout is one JSON object with
exactly the keys correct, attempted, failed and metrics; the lines before
it print every metric by name and unit, then the full result (seed, run
conditions, checks, per-round figures).  --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ping_shm", "rpc_glue_tcp", "pipeline_glue_tcp", "migrate_nexus")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              cwd=ROOT, check=False)
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    binary = os.path.join(out, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    result = json.loads(lines[-1])

    expected = declared_metrics(args.trace)
    got = result["metrics"]
    if set(got) != set(expected):
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    for name, unit in expected.items():
        if got[name]["unit"] != unit:
            fail("unit of %s is %s, BENCHMARK.json says %s" % (name, got[name]["unit"], unit))

    print("workload %s  seed %d  trace %d  correct %s  attempted %d  failed %d"
          % (args.workload, args.seed, args.trace, result["correct"],
             result["attempted"], result["failed"]))
    for name in expected:
        print("  %-34s %16.6g %s" % (name, got[name]["value"], got[name]["unit"]))
    print(json.dumps(result))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": got}))


if __name__ == "__main__":
    main()
