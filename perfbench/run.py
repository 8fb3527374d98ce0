#!/usr/bin/env python3
"""Builds and runs the S4D-Cache reproduction benchmark.

    python3 perfbench/run.py --workload ior16k-mix --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run compiles perfbench/ (which
builds the simulator from ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset. Each run prints a human-readable report, a host manifest
and a digest of the simulated results, then one JSON result as the last line
of stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. The exit code is non-zero if the build, the run or any check fails.
See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "s4d_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr so stdout carries only the report.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    binary = build_dir / "s4d_perfbench"
    if not binary.is_file():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def source_digest():
    """sha256 over the simulator and benchmark sources; it identifies the
    code when the tree was copied without its git history."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ior16k-mix", "ior4m-seq", "hpio-stages"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny shrinks the data for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        wanted = expected_metrics(args.trace)
        build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        binary = build(build_dir.resolve())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        log(f"perfbench: {err}")
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(done.stdout + done.stderr)
        log(f"perfbench: run exited {done.returncode} without a result")
        return 3
    sys.stderr.write(done.stderr)
    for line in lines[:-1]:
        print(line)

    build_info = raw["build"]
    manifest = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "scale": args.scale,
        "reps": raw["reps"],
    }
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    sim_text = json.dumps(raw["sim"], sort_keys=True)
    print("sim_digest: " + hashlib.sha256(sim_text.encode()).hexdigest())

    correct = bool(raw["correct"]) and done.returncode == 0
    metrics = {}
    for entry in wanted:
        got = raw["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            log(f"perfbench: metric {entry['name']} missing or not in "
                f"{entry['unit']}")
            correct = False
            continue
        metrics[entry["name"]] = got
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
