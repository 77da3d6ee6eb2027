#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the afp library.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --check

Run from the repository root. The first call configures and builds a
Release copy of the library plus the benchmark binary under .bench_build/e2ebench
(build output goes to stderr); later calls only rebuild what changed.

Each run is one benchmark process running the named workload alone: its
set-up, a warm-up of a tenth of --seconds, then the measured loop. An
untraced run (--trace 0) prints the end-to-end metrics of the workload; a
traced run (--trace 1) prints the per-layer metrics and writes its spans
to .bench_build/e2ebench/spans/. The last stdout line is the result
object; the line before it holds the seeds, program shape and environment
stamp.

--check is the benchmark's own test: every workload at its tiny size on a
second seed, untraced and traced, with every oracle passing and every
metric of BENCHMARK.json present.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(opts):
    """Runs the named workload in one process; returns (code, info, result)."""
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--graph-seed", str(opts.graph_seed), "--size", opts.size,
            "--git-rev", opts.git_rev]
    if opts.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans-out", os.path.join(
            spans_dir, "%s-%s.tsv" % (opts.workload, opts.seed))]
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out after %d s" % RUN_TIMEOUT_S)
        return 3, None, None
    lines = proc.stdout.splitlines()
    try:
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no result from the benchmark binary (exit %d)" % proc.returncode)
        return 3, None, None
    return proc.returncode, info, result


def check(spec):
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            opts = argparse.Namespace(workload=w["name"], seed=2,
                                      graph_seed=2, seconds=1.0, trace=trace,
                                      size="tiny", git_rev="unknown")
            code, info, result = run(opts)
            problems = []
            result = result or {}
            if code != 0 or not result.get("correct"):
                problems.append("oracle or status failure (exit %d)" % code)
            got = result.get("metrics", {})
            if sorted(got) != sorted(names[trace]):
                problems.append("metric names differ from BENCHMARK.json")
            for name, m in got.items():
                if units.get(name) != m.get("unit"):
                    problems.append("unit of %s differs" % name)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            log("check %s trace=%d: %s" % (w["name"], trace, status))
            if problems:
                failures += 1
                log(json.dumps(info))
    return 1 if failures else 0


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("library sources (src/) not found next to e2ebench/")
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--graph-seed", type=int, default=1)
    opts = parser.parse_args(argv)
    opts.size = "full"
    if not opts.check and None in (opts.workload, opts.seed, opts.seconds,
                                   opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    spec = load_spec()
    if not opts.check and opts.workload not in [w["name"]
                                                for w in spec["workloads"]]:
        parser.error("unknown workload %r" % opts.workload)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2
    if opts.check:
        return check(spec)
    opts.git_rev = git_rev()
    code, info, result = run(opts)
    if result is None:
        return code or 3
    print(json.dumps(info))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
