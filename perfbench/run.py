#!/usr/bin/env python3
"""Served end-to-end benchmark entry point (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package (perfbench/
CMakeLists.txt: the parhc library, parhc_netserver and the client) into
.bench_build, runs the client, and prints as the last stdout line one JSON
object with the metrics BENCHMARK.json declares: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Exits non-zero
without a result line if the sources are missing, the build fails, the
client fails or times out, or a declared metric is missing.

--n overrides the points per dataset (the reference run of
results/cold_build_n1000000.json used --n 1000000).
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

CLIENT_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_revision(root):
    """git HEAD when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(os.cpu_count() or 1)
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench_client"],
                   check=True, stdout=log, stderr=log)


def self_times(trace_path, out_path):
    """Per-name self time of a Chrome trace dump: each span's duration minus
    the part its nested spans on the same thread cover."""
    with open(trace_path) as fh:
        events = json.load(fh)["traceEvents"]
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    totals = {}
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, name, self]
        def close(entry):
            t = totals.setdefault(entry[1], {"count": 0, "self_us": 0.0})
            t["count"] += 1
            t["self_us"] += entry[2]
        for e in evs:
            end = e["ts"] + e["dur"]
            while stack and stack[-1][0] <= e["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][2] -= min(e["dur"], stack[-1][0] - e["ts"])
            stack.append([end, e["name"], e["dur"]])
        while stack:
            close(stack.pop())
    with open(out_path, "w") as fh:
        json.dump(totals, fh, indent=1, sort_keys=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--n", type=int, default=100000)
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    for need in ("CMakeLists.txt", "src", "examples/parhc_netserver.cpp",
                 "perfbench/CMakeLists.txt", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the repository root: %s is missing" % need)
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(root, ".bench_build")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench_client"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--n", str(args.n),
           "--server", os.path.join(build_dir, "parhc", "parhc_netserver"),
           "--work-dir", work, "--commit", source_revision(root)]
    # Own session, so a timeout takes the spawned server down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # The default scale must finish within the run limit; larger --n runs
    # (the 1M reference) get proportionally longer.
    timeout = CLIENT_TIMEOUT_S * max(1, args.n // 100000)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("client timed out after %d s" % timeout)
    if proc.returncode != 0:
        fail("client exited with %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        fail("client printed no result")
    result = json.loads(lines[-1])

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or in the wrong unit" % m["name"])
        metrics[m["name"]] = got
    result["metrics"] = metrics
    if args.trace:
        self_times(os.path.join(work, "layers_trace.json"),
                   os.path.join(work, "layers_selftime.json"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
