#!/usr/bin/env python3
"""Build and run the serelin end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (an optimized CMake build of the library
from ../src plus serelin_perfbench) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset, then runs one workload.
Its standard output ends with one JSON line: {"correct", "attempted",
"failed", "metrics"}. Options after the known ones (such as --threads) are passed
to the binary unchanged.

--smoke runs every workload on one small circuit, with and without the
traced pass, and checks that each prints every metric BENCHMARK.json names,
with its unit.

Exit status: 0 when every check passed; 1 when a check failed (the JSON
line is still printed); 2 when the build or the run broke, with no JSON.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds incrementally; returns the binary's path."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "--target",
                 "serelin_perfbench", "-j", jobs]):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "serelin_perfbench")


def run_binary(binary, args):
    """Runs one workload; returns (exit code, stdout lines, result)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        raise RuntimeError(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"serelin_perfbench exited {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError("malformed result line: " + lines[-1])
    return proc.returncode, lines, result


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            _, _, result = run_binary(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--smoke"])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace == "1" else "end_to_end"]}
            problems = []
            if got != want:
                problems.append(f"metrics {sorted(got.items())} != "
                                f"{sorted(want.items())}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("outputs not correct")
            status = "FAIL " + "; ".join(problems) if problems else "ok"
            print(f"smoke {workload} trace={trace}: {status}")
            bad += bool(problems)
    return 1 if bad else 0


def main(argv):
    try:
        binary = build()
        if argv == ["--smoke"]:
            return smoke(binary)
        code, lines, _ = run_binary(binary, argv)
    except (RuntimeError, OSError, ValueError) as e:
        log(str(e))
        return 2
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
