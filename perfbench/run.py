#!/usr/bin/env python3
"""End-to-end capture benchmark: build, run one workload, check the result.

    python3 perfbench/run.py --workload stream_delivery --seed 1 \\
        --seconds 10 --trace 0

Builds perfbench/ (which compiles the scap sources in ../src) as a Release
build into perfbench/build, runs the benchmark binary and passes its output
through. The last line of stdout is the JSON result. The run fails (nonzero
exit, no result) when the build fails, when the binary fails or reports a
failed output check, or when its metric set does not match spec.py.

    python3 perfbench/run.py --write-spec   # regenerate BENCHMARK.json
    python3 perfbench/run.py --self-test    # build and run the helper tests
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BUILD_TIMEOUT_S = 700  # with RUN_TIMEOUT_S, inside a first run's 900 s
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import spec  # noqa: E402


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return False


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("scap sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    ok = run_logged(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    ok = ok and run_logged(["cmake", "--build", BUILD, "--target", target,
                            "-j", jobs], BUILD_TIMEOUT_S)
    if not ok:
        fail("build failed")
    return os.path.join(BUILD, target)


def commit_id():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10,
                           check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def check_result(line, trace):
    """Problems with the binary's JSON result line (empty list when fine)."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
        return problems
    want = spec.expected_units(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"metric set differs from spec.py: missing {missing} "
                        f"extra {extra} wrong units {wrong}")
    if not res["correct"]:
        problems.append("output check failed")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from spec.py and exit")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the helper unit tests and exit")
    args = ap.parse_args()

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec.benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.self_test:
        return subprocess.run([build("perfbench_tests")],
                              check=False).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(OUT, f"{args.workload}.spans.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {proc.returncode})")
    problems = check_result(lines[-1], args.trace)
    if proc.returncode != 0:
        problems.append(f"benchmark exited with {proc.returncode}")
    print("\n".join(lines[:-1]))
    if problems:
        fail("; ".join(problems))
    print(lines[-1])
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
