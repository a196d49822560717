#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

  python3 perfbench/run.py --workload churn-k6 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds first (see build.py), then runs
perfbench.Bench in one JVM with a fixed heap. JVM stderr (Spark's log) goes
to .bench_build/perfbench/logs; a traced run writes its spans to
.bench_build/traces.
"""
import argparse
import json
import os
import subprocess
import sys

import build

HEAP = "4g"
YOUNG = "1g"
JAVA_TIMEOUT_S = 170


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    classes, digest = build.build()
    logs = os.path.join(build.OUT, "logs")
    os.makedirs(logs, exist_ok=True)
    log_path = os.path.join(logs, f"{a.workload}-seed{a.seed}-trace{a.trace}.log")
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Xmn{YOUNG}", "-XX:+UseParallelGC",
           "-XX:+UseTransparentHugePages", "-XX:+AlwaysPreTouch", "-Xss16m",
           "-cp", os.pathsep.join([classes, os.path.join(build.spark_jars(), "*")]),
           "perfbench.Bench", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log, text=True, timeout=JAVA_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit(f"run: no result within {JAVA_TIMEOUT_S} s (log: {log_path})")

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("REPORT "):
            report = json.loads(line[len("REPORT "):])
            report.update(git_sha=git_sha(), source_sha256=digest[:16], java_heap=HEAP)
            print("report: " + json.dumps(report))
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        with open(log_path) as fh:
            sys.stderr.write("".join(fh.readlines()[-40:]))
        sys.exit(f"run: benchmark exited with {proc.returncode} (log: {log_path})")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
