#!/usr/bin/env python3
"""Build the amsvp benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vp_table3 --seed 1 --seconds 25 --trace 0

The program, the bench harness (bench/main.exe) and the benchmark
(perfbench/amsvpbench.exe) are built with dune into .bench_build/;
sockets and scratch files go to .bench_run/. The last line of
standard output is the result object (see perfbench/README.md); it
must hold exactly the metrics BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1), each in its
unit. Any failure exits non-zero without a result.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
WORKLOADS = ("vp_table3", "sweep_mc", "serve_mix", "abstract_flow")
TARGETS = ("perfbench/amsvpbench.exe", "bin/amsvp.exe", "bench/main.exe")
# A first run (cold build plus run) stays under 15 minutes, a later run
# under 3.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    die("dune not found")


def build():
    for required in ("dune-project", "lib", "bin", "bench"):
        if not os.path.exists(required):
            die(f"not the root of an amsvp checkout: {required} is missing")
    cmd = [find_dune(), "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", "--display", "quiet"]
    cmd += ["./" + t for t in TARGETS]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        die("build failed")


def check_result(text, trace):
    """The result line, if it holds every metric of the manifest for
    this mode in its unit and nothing else."""
    lines = text.strip().splitlines()
    if not lines:
        die("no result line")
    try:
        result = json.loads(lines[-1])
        with open("BENCHMARK.json") as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        die(f"result or manifest unreadable: {e}")
    want = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        die(f"result metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, unit mismatch {units}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die(f"result keys {sorted(result)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    exe = os.path.join(BUILD_DIR, "default")
    cmd = [os.path.join(exe, TARGETS[0]),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--amsvp", os.path.join(exe, TARGETS[1]),
           "--bench-main", os.path.join(exe, TARGETS[2]),
           "--work-dir", RUN_DIR]
    # Own process group, so a timeout also stops the daemon and its
    # workers that the serve workload starts.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("run timed out")
    if proc.returncode != 0:
        die(f"benchmark exited with status {proc.returncode}")
    check_result(out.decode(), args.trace)
    sys.stdout.write(out.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
