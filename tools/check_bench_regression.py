#!/usr/bin/env python3
"""Gate fresh bench JSON against committed baselines.

Two modes:

Single file (the original interface): compare every metric whose name
matches --metric (default: events_per_sec, higher-is-better) between two
BENCH_*.json files, pairing samples by (name, labels). Exits nonzero if
any current value falls more than --tolerance (default 20%) below its
baseline.

  check_bench_regression.py --baseline BENCH_engine.json \
      --current build/BENCH_engine.json [--metric events_per_sec] \
      [--tolerance 0.2]

Auto-discovery: find every committed BENCH_*.json baseline under
--baseline-dir, pair it with the same-named file under --current-dir, and
gate every known higher-is-better metric the baseline contains
(events_per_sec, throughput_mbps; wall-clock-noisy metrics like
rows_per_sec are never auto-gated). A baseline whose current file is
missing is a failure — a bench silently dropped from CI must not silently
drop its gate.

  check_bench_regression.py --auto --baseline-dir . \
      --current-dir build-release [--tolerance 0.2]
"""
import argparse
import glob
import json
import os
import sys

# Metrics that are deterministic (simulated) or stable enough to gate in
# auto mode. Anything else in a bench JSON is informational.
AUTO_GATED_METRICS = ("events_per_sec", "throughput_mbps")


def load_samples(path, metric):
    with open(path) as f:
        doc = json.load(f)
    samples = {}
    for m in doc.get("metrics", []):
        if m["name"] != metric:
            continue
        key = (m["name"], tuple(sorted(m.get("labels", {}).items())))
        samples[key] = m["value"]
    return samples


def check_one(baseline_path, current_path, metric, tolerance):
    """Returns (failures, compared) for one metric of one file pair."""
    baseline = load_samples(baseline_path, metric)
    current = load_samples(current_path, metric)
    failures = 0
    for key, base_value in sorted(baseline.items()):
        label = ", ".join(f"{k}={v}" for k, v in key[1]) or "(no labels)"
        if key not in current:
            print(f"MISSING  {metric} {label}: baseline {base_value:.3g}, "
                  "not in current run")
            failures += 1
            continue
        value = current[key]
        floor = base_value * (1.0 - tolerance)
        ratio = value / base_value if base_value else float("inf")
        status = "ok" if value >= floor else "REGRESSED"
        print(f"{status:10s}{metric} {label}: {value:.3g} vs baseline "
              f"{base_value:.3g} ({ratio:.2f}x, floor {floor:.3g})")
        if value < floor:
            failures += 1
    return failures, len(baseline)


def run_auto(baseline_dir, current_dir, tolerance):
    baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not baselines:
        print(f"no BENCH_*.json baselines under {baseline_dir}")
        return 2
    failures = 0
    compared = 0
    for baseline_path in baselines:
        name = os.path.basename(baseline_path)
        current_path = os.path.join(current_dir, name)
        print(f"== {name} ==")
        if not os.path.exists(current_path):
            print(f"MISSING  current file {current_path} "
                  "(bench not built/run?)")
            failures += 1
            continue
        gated = 0
        for metric in AUTO_GATED_METRICS:
            f, n = check_one(baseline_path, current_path, metric, tolerance)
            failures += f
            compared += n
            gated += n
        if gated == 0:
            print(f"note: no auto-gated metrics "
                  f"({', '.join(AUTO_GATED_METRICS)}) in {name}")
    if failures:
        print(f"\n{failures} failure(s) across {len(baselines)} baseline(s) "
              f"(tolerance {tolerance:.0%})")
        return 1
    print(f"\nall {compared} metric(s) across {len(baselines)} baseline(s) "
          f"within {tolerance:.0%}")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline")
    parser.add_argument("--current")
    parser.add_argument("--metric", default="events_per_sec")
    parser.add_argument("--tolerance", type=float, default=0.2)
    parser.add_argument("--auto", action="store_true",
                        help="discover BENCH_*.json baselines and gate "
                             "every known metric in each")
    parser.add_argument("--baseline-dir", default=".")
    parser.add_argument("--current-dir", default="build-release")
    args = parser.parse_args()

    if args.auto:
        if args.baseline or args.current:
            parser.error("--auto uses --baseline-dir/--current-dir, "
                         "not --baseline/--current")
        return run_auto(args.baseline_dir, args.current_dir, args.tolerance)

    if not args.baseline or not args.current:
        parser.error("need --baseline and --current (or --auto)")
    failures, compared = check_one(args.baseline, args.current, args.metric,
                                   args.tolerance)
    if not compared:
        print(f"no '{args.metric}' samples in baseline {args.baseline}")
        return 2
    if failures:
        print(f"\n{failures} metric(s) regressed more than "
              f"{args.tolerance:.0%} below baseline")
        return 1
    print(f"\nall {compared} metric(s) within {args.tolerance:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
