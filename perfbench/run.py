#!/usr/bin/env python3
"""Repository benchmark: three wire workloads across all four languages.

Run from the repository root:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

It builds the library, the product's `mlds_server` and the load driver
from source (perfbench/CMakeLists.txt) into .bench_build/, then sets up a
server several times -- start it over a fresh data directory, grow the demo
databases through the wire -- and drives the workload against the last one.
The last line of standard output is one JSON object: the end-to-end
metrics with --trace 0, the per-layer attribution with --trace 1. See
perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

SETUP_REPS = 3
POOL_PAGES = 256
# Server and client share one CPU. On a shared host the cross-CPU wakeups
# of a one-client round trip varied most from run to run; one CPU removes
# them and makes the figures independent of the machine's core count.
BENCH_CPU = {max(os.sched_getaffinity(0))}
WORKLOADS = ("lookup", "walk", "ingest")
END_TO_END = {"round_p90_ms": "ms"}
PER_LAYER = {
    "wire_ms": "ms",
    "server_ms": "ms",
    "sql_ms": "ms",
    "codasyl_ms": "ms",
    "daplex_ms": "ms",
    "dli_ms": "ms",
    "abdl_ms": "ms",
    "requests_per_op": "ratio",
    "server_requests": "count",
    "kms_cache_hits": "count",
    "kms_cache_misses": "count",
    "kms_cache_hit_ratio": "ratio",
    "kds_pool_hits": "count",
    "kds_pool_misses": "count",
    "kds_pool_hit_ratio": "ratio",
    "kds_pool_evictions": "count",
    "kds_joins": "count",
    "kds_histogram_builds": "count",
}


def pin_to_bench_cpu():
    os.sched_setaffinity(0, BENCH_CPU)


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


class Server:
    """One mlds_server process over its own data directory."""

    def __init__(self, binary, data_dir):
        self.proc = subprocess.Popen(
            [binary, "--port", "0", "--data-dir", data_dir,
             "--pool-pages", str(POOL_PAGES), "--max-sessions", "16"],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            preexec_fn=pin_to_bench_cpu)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError("server did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def drive(driver, *args, timeout):
    result = subprocess.run([driver] + [str(a) for a in args],
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, timeout=timeout,
                            preexec_fn=pin_to_bench_cpu)
    if result.returncode != 0:
        raise RuntimeError("driver %s exited %d" % (args[0], result.returncode))
    return result.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/mlds_server.cc"):
        if not os.path.isfile(needed):
            log("run from the repository root: %s is missing" % needed)
            return 2
    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out_dir, "perfbench")
    try:
        build(build_dir)
    except subprocess.CalledProcessError as error:
        log("build failed: %s" % error)
        return 1
    server_bin = os.path.join(build_dir, "mlds_server")
    driver = os.path.join(build_dir, "perfbench_driver")
    work_dir = os.path.join(out_dir, "perfbench-run-%d" % os.getpid())

    setups = []
    server = None
    try:
        for rep in range(SETUP_REPS):
            if server is not None:
                server.stop()
            data_dir = os.path.join(work_dir, "data%d" % rep)
            os.makedirs(data_dir)
            start = time.perf_counter()
            server = Server(server_bin, data_dir)
            drive(driver, "load", "--port", server.port, "--seed", args.seed,
                  timeout=120)
            setups.append(time.perf_counter() - start)
        output = drive(driver, "run", "--port", server.port, "--seed",
                       args.seed, "--workload", args.workload, "--seconds",
                       args.seconds, timeout=args.seconds + 120)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        log(str(error))
        return 1
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    measured = json.loads(output.strip().splitlines()[-1])
    measured["setup_s"] = statistics.median(setups)
    units = dict(PER_LAYER) if args.trace else dict(END_TO_END, setup_s="s")
    print(json.dumps({
        "correct": measured["correct"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
