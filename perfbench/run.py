#!/usr/bin/env python3
"""End-to-end benchmark of ImmerSim: build, run one workload, check, report.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --scaling [--seed N] [--seconds S]

Run from the root of a source checkout. The first call configures and
builds perfbench/ (a CMake package that compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable
is unset; later calls only rebuild what changed. A workload run prints
the binary's report and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
of BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
A traced run also writes its span profile (imsim.profile/1) next to the
binary.

--scaling is the report-only thread sweep: fleet-perserver at
--sim-threads 1, 2 and 4, one table, digests compared. It is not a
gated workload. --smoke shrinks every horizon for quick checks.

Exit status is 0 only when the build worked, the benchmark binary exited cleanly
and its result names exactly the metrics BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-perserver", "fleet-rackagg", "control-crisis",
             "autoscale-ramp")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, **kwargs):
    """Run cmd to completion; kill it and wait if it outlives timeout."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a source checkout"
             % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = os.path.join(build_dir, "imsim_perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc, _ = run_checked(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    rc, _ = run_checked(
        ["cmake", "--build", build_dir, "--target", "imsim_perfbench",
         "-j", jobs], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0 or not os.path.isfile(binary):
        fail("build failed")
    return binary, build_dir


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, args):
    """Run the benchmark binary; return its stdout lines and result."""
    rc, out = run_checked([binary] + args, RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if rc != 0 or not lines:
        sys.stdout.write(out)
        fail("benchmark binary exited with status %d" % rc)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("benchmark binary's last line is not JSON")
    return lines, result


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    want = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(n for n in want if n in got
                                  and got[n] != want[n])))


def digest_of(lines):
    for line in lines:
        words = line.split()
        if len(words) >= 8 and words[0] == "workload" and words[6] == "digest":
            return words[7]
    fail("benchmark binary printed no digest")


def scaling(binary, args):
    """Report-only sweep of fleet-perserver over --sim-threads 1/2/4."""
    rows = []
    for threads in (1, 2, 4):
        lines, result = run_binary(
            binary, ["--workload", "fleet-perserver", "--seed",
                     str(args.seed), "--seconds", str(args.seconds),
                     "--trace", "0", "--sim-threads", str(threads)]
            + (["--smoke"] if args.smoke else []))
        m = {k: v["value"] for k, v in result["metrics"].items()}
        rows.append((threads, m, digest_of(lines), result["correct"]))
    base = rows[0][1]["server_minutes_per_s"]
    print("%-8s %14s %8s %10s %8s  %s" % (
        "threads", "server-min/s", "speedup", "step p50", "cpu_s", "digest"))
    for threads, m, digest, _ in rows:
        print("%-8d %14.0f %7.2fx %8.3fms %7.3fs  %s" % (
            threads, m["server_minutes_per_s"],
            m["server_minutes_per_s"] / base, m["step_ms_p50"], m["cpu_s"],
            digest))
    same = len({r[2] for r in rows}) == 1 and all(r[3] for r in rows)
    print("digests %s across --sim-threads 1/2/4"
          % ("identical" if same else "DIFFER"))
    return 0 if same else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--sim-threads", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--scaling", action="store_true")
    args = parser.parse_args()
    if args.scaling:
        args.seed = 1 if args.seed is None else args.seed
        args.seconds = 10 if args.seconds is None else args.seconds
    elif None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is not None and not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    binary, build_dir = build()
    if args.scaling:
        return scaling(binary, args)

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.sim_threads is not None:
        cmd += ["--sim-threads", str(args.sim_threads)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace-%s.json" % args.workload)]
    lines, result = run_binary(binary, cmd)
    check_result(result, args.trace == 1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
