// Shared plumbing for the per-figure/table bench binaries.
//
// Every bench accepts:
//   --full       paper-scale parameters (slow); default is a reduced scale
//                with identical shapes (same request sizes, same server
//                counts, smaller files)
//   --seed=N     RNG seed, a whole non-negative decimal (default 42)
//   --jobs=N     worker threads for benches that sweep independent points,
//                a whole positive decimal (the simulated results are
//                byte-identical for any N)
//   --json=PATH  where to write the machine-readable result
//                (default BENCH_<name>.json in the current directory)
//   --no-json    skip writing the JSON result
//
// A malformed --seed/--jobs value or an unknown flag exits 1.
//
// Output convention: each bench prints the table/series the corresponding
// paper figure or table reports (plus the scale it ran at) for humans, and
// records every headline number through BenchReporter::Add so the same run
// lands in BENCH_<name>.json for EXPERIMENTS.md and the CI regression gate.
#pragma once

#include <cstdio>
#include <cstring>
#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/s4d_cache.h"
#include "harness/driver.h"
#include "harness/sweep_runner.h"
#include "harness/testbed.h"
#include "workloads/ior.h"

namespace s4d::bench {

struct BenchArgs {
  bool full = false;
  std::uint64_t seed = 42;
  int jobs = 1;
  std::string json_path;  // empty = default BENCH_<name>.json
  bool write_json = true;
};

inline BenchArgs ParseArgs(int argc, char** argv) {
  auto usage = [argv](std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [--full] [--seed=N] [--jobs=N] [--json=PATH] "
                 "[--no-json]\n",
                 argv[0]);
  };
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      args.full = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      const auto seed = harness::ParseWholeDecimal(argv[i] + 7);
      if (!seed) {
        std::fprintf(stderr, "--seed wants a non-negative integer, got '%s'\n",
                     argv[i] + 7);
        std::exit(1);
      }
      args.seed = *seed;
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      if (!harness::ParsePositiveFlag("--jobs", argv[i] + 7, args.jobs)) {
        std::exit(1);
      }
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      args.json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      args.write_json = false;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(stderr);
      std::exit(1);
    }
  }
  return args;
}

// Collects a bench run's headline numbers and writes them as JSON.
//
// Usage:
//   BenchReporter report("fig6", args);
//   report.Scale(args, "10-instance IOR mix, ...");
//   report.Add("throughput_mbps", value, {{"request", "16K"}, ...});
//   ...
//   report.Finish();   // prints wall time, writes BENCH_fig6.json
class BenchReporter {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  BenchReporter(std::string name, const BenchArgs& args);

  // Prints the scale banner (replaces the old PrintScale) and records the
  // detail string in the JSON output.
  void Scale(const std::string& detail);

  void Add(const std::string& metric, double value, Labels labels = {});

  // Writes the JSON file (unless --no-json) and prints the wall time.
  // Returns false if the file could not be written.
  bool Finish();

  const std::string& name() const { return name_; }

 private:
  struct Sample {
    std::string metric;
    double value;
    Labels labels;
  };

  std::string name_;
  BenchArgs args_;
  std::string detail_;
  std::vector<Sample> samples_;
  std::chrono::steady_clock::time_point start_;
  bool finished_ = false;
};

// Which instances of the IOR mix issue random requests: the paper creates
// the instances one by one with different parameters; we alternate so that
// every i-th instance with i % 2 == 1 up to 2*random_instances is random
// (6 sequential + 4 random for the default mix, interleaved).
inline bool IsRandomInstance(int i, int instances = 10,
                             int random_instances = 4) {
  (void)instances;
  return i % 2 == 1 && i < 2 * random_instances;
}

// The paper's IOR experiment (§V-B): 10 instances created one by one,
// 6 sequential + 4 random, each against its own shared file. Runs every
// instance through the given middleware and returns aggregate throughput
// (total bytes / total elapsed time).
struct IorMixResult {
  double throughput_mbps = 0.0;
  byte_count bytes = 0;
  SimTime elapsed = 0;
};

inline IorMixResult RunIorMix(mpiio::MpiIoLayer& layer, int ranks,
                              byte_count file_size, byte_count request_size,
                              device::IoKind kind, std::uint64_t seed,
                              int instances = 10, int random_instances = 4) {
  IorMixResult total;
  const SimTime start = layer.engine().now();
  for (int i = 0; i < instances; ++i) {
    workloads::IorConfig cfg;
    cfg.file = "ior." + std::to_string(i);
    cfg.ranks = ranks;
    cfg.file_size = file_size;
    cfg.request_size = request_size;
    cfg.random = IsRandomInstance(i, instances, random_instances);
    cfg.kind = kind;
    cfg.seed = seed + static_cast<std::uint64_t>(i);
    workloads::IorWorkload wl(cfg);
    const auto result = harness::RunClosedLoop(layer, wl);
    total.bytes += result.bytes;
  }
  total.elapsed = layer.engine().now() - start;
  total.throughput_mbps = ThroughputMBps(total.bytes, total.elapsed);
  return total;
}

}  // namespace s4d::bench
