#!/usr/bin/env python3
"""Builds and runs the JANUS end-to-end training benchmark.

    python3 e2ebench/run.py --workload <cnn|rnn|churn> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
the e2ebench package (Release) into .bench_build/e2ebench; later runs only
re-check the build. The benchmark's output is passed through; its last line
is the result JSON. Logs and traced-run Chrome traces are kept under
.bench_build/e2ebench/results. A traced run's trace is checked with the
repository's tools/trace_validate.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "e2ebench"
BUILD = ROOT / ".bench_build" / "e2ebench"
RESULTS = BUILD / "results"
RUN_TIMEOUT_S = 170
# Events every traced run's Chrome trace must contain.
REQUIRED_EVENTS = ["setup", "step", "run", "probes", "compile",
                   "plan_build", "optimize_graph"]


def parse_args(argv):
    args = {}
    it = iter(argv)
    for key in it:
        if not key.startswith("--"):
            raise ValueError(f"unexpected argument {key!r}")
        args[key[2:]] = next(it)
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in args:
            raise ValueError(f"missing --{key}")
    return args


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "e2ebench", "trace_validate"],
                   check=True, stdout=sys.stderr)


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main(argv):
    try:
        args = parse_args(argv)
    except (ValueError, StopIteration) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: JANUS sources not found under {ROOT}", file=sys.stderr)
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD / "e2ebench"),
               "--workload", args["workload"], "--seed", args["seed"],
               "--seconds", args["seconds"], "--trace", args["trace"],
               "--out-dir", str(RESULTS), "--git-sha", git_sha()]
    # The benchmark's imperative-twin process dies with it (PDEATHSIG), so
    # killing the benchmark on a timeout stops both.
    bench = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        bench.kill()
        bench.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = bench.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        bench.kill()
        bench.communicate()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    log = RESULTS / (f"{args['workload']}-seed{args['seed']}"
                     f"-trace{args['trace']}.log")
    log.write_text(stdout)
    code = bench.returncode
    if code == 0 and args["trace"] == "1":
        trace = RESULTS / f"{args['workload']}-seed{args['seed']}.trace.json"
        check = subprocess.run([str(BUILD / "trace_validate"), str(trace)]
                               + REQUIRED_EVENTS, stdout=sys.stderr)
        if check.returncode != 0:
            print("run.py: the traced run's Chrome trace failed validation",
                  file=sys.stderr)
            code = 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
