// Parallel sweep runner: N independent simulations on a fixed thread pool.
//
// A sweep (seed sweep, ablation grid, figure point set) is embarrassingly
// parallel: every run owns its entire world — Engine, testbed, middleware,
// workload, RNG, observability — so runs never share mutable state and the
// simulated timelines are unaffected by wall-clock interleaving. The
// runner exploits that: a fixed pool of `jobs` threads pulls run indices
// from an atomic counter, each result lands in its index's slot, and the
// returned vector is therefore byte-identical for any `jobs` value
// (including 1, which runs inline on the calling thread with no pool).
//
// Determinism contract (see DESIGN.md): the `run` callable must derive all
// randomness from the SweepJob it is handed and must not touch global
// mutable state. Everything in src/ satisfies this — the only process-wide
// mutable state is the log level.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace s4d::harness {

struct SweepJob {
  int index = 0;           // 0-based position in the sweep
  std::uint64_t seed = 0;  // seed assigned to this run
};

// Runs body(0..count-1) on `jobs` pool threads (inline when jobs <= 1 or
// count <= 1). Blocks until all complete; rethrows the first exception.
void RunIndexedParallel(int count, int jobs,
                        const std::function<void(int)>& body);

// Runs `count` jobs with seeds base_seed + index and returns the results
// in index order.
template <typename R, typename F>
std::vector<R> RunSweep(int count, int jobs, std::uint64_t base_seed,
                        F&& run) {
  std::vector<R> results(static_cast<std::size_t>(count > 0 ? count : 0));
  RunIndexedParallel(count, jobs, [&](int i) {
    results[static_cast<std::size_t>(i)] =
        run(SweepJob{i, base_seed + static_cast<std::uint64_t>(i)});
  });
  return results;
}

// Parses `text` as a whole decimal: ASCII digits only, so "abc", "-1",
// "+3", "3x" and "" are rejected instead of truncated. The sweep flags of
// s4dsim and the benches (--sweep-seeds, --jobs, --seed) all read through
// it.
std::optional<std::uint64_t> ParseWholeDecimal(const std::string& text);

// Parses a count flag's value ("4"; not "abc", "0", "-2" or "3x") into
// `out`. On anything else prints an error naming the flag and the value
// and returns false.
bool ParsePositiveFlag(const char* flag, const std::string& text, int& out);

}  // namespace s4d::harness
