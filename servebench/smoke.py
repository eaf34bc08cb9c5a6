"""Smoke test of the benchmark at about 10^2 rows.

Run from the repository root:

    python3 servebench/smoke.py

It runs the benchmark's unit tests, then every workload in `--smoke`
mode with `--trace 0` (end-to-end path) and `--trace 1` (traced
replay), and checks that each run exits 0, reports correct with no
failed ops, and prints exactly the metrics BENCHMARK.json declares,
with their units. Finally it serves one workload from a fake server
that answers every request wrongly, and checks that the benchmark
counts those answers as failed ops.
"""

import json
import os
import stat
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def result_of(args):
    run = subprocess.run(
        ["bash", "servebench/run.sh", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if run.returncode != 0:
        sys.exit(f"FAIL {args}: exit {run.returncode}\n{run.stderr[-3000:]}")
    return json.loads(run.stdout.strip().splitlines()[-1]), run.stderr


def main():
    subprocess.run(
        ["cargo", "test", "--offline", "--quiet", "--release",
         "--manifest-path", "servebench/Cargo.toml"],
        cwd=ROOT, check=True, env={**os.environ, "CARGO_TARGET_DIR": TARGET},
    )
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--smoke"]
            result, stderr = result_of(args)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                sys.exit(f"FAIL {workload} trace {trace}: {result}\n{stderr[-3000:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                sys.exit(f"FAIL {workload} trace {trace}: metrics {got} != {declared[trace]}")
            print(f"ok {workload} trace {trace}: {result['attempted']} requests")

    # A server that greets, then answers every request wrongly.
    fake = os.path.join(ROOT, TARGET, "servebench", "wrong-fdi.sh")
    os.makedirs(os.path.dirname(fake), exist_ok=True)
    with open(fake, "w") as f:
        f.write("#!/usr/bin/env bash\necho 'serving epoch 0 (0 row(s))'\n"
                "while read -r line; do echo 'rejected: wrong'; "
                "[ \"$line\" = quit ] && exit 0; done\n")
    os.chmod(fake, os.stat(fake).st_mode | stat.S_IXUSR)
    run = subprocess.run(
        [os.path.join(ROOT, TARGET, "release", "servebench"), "--fdi", fake,
         "--workload", "ingest", "--seed", "3", "--trace", "0", "--smoke",
         "--workdir", os.path.join(ROOT, TARGET, "servebench")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    os.remove(fake)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if run.returncode != 0 or result["correct"] or result["failed"] != result["attempted"]:
        sys.exit(f"FAIL wrong answers were not all counted as failed: {result}")
    print(f"ok wrong answers: {result['failed']} failed of {result['attempted']}")


if __name__ == "__main__":
    main()
