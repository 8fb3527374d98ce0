// Callback log for the file-server lifetime tests: every job callback
// appends one entry in firing order, and a test pins the whole sequence
// (ids, simulated times, outcomes) through an order-sensitive digest.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/sim_time.h"

namespace s4d::testing {

struct Fired {
  int id = 0;
  SimTime time = 0;
  bool ok = true;  // on_complete (true) or on_failure (false)
};

// FNV-1a over every entry's fields, in order.
inline std::uint64_t Digest(const std::vector<Fired>& log) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const Fired& f : log) {
    mix(static_cast<std::uint64_t>(f.id));
    mix(static_cast<std::uint64_t>(f.time));
    mix(f.ok ? 1 : 0);
  }
  return h;
}

// Every job id in [0, jobs) resolved exactly once.
inline void ExpectEachFiredOnce(const std::vector<Fired>& log, int jobs) {
  std::vector<int> count(static_cast<std::size_t>(jobs), 0);
  for (const Fired& f : log) {
    ASSERT_GE(f.id, 0);
    ASSERT_LT(f.id, jobs);
    ++count[static_cast<std::size_t>(f.id)];
  }
  for (int id = 0; id < jobs; ++id) {
    EXPECT_EQ(count[static_cast<std::size_t>(id)], 1) << "job " << id;
  }
}

}  // namespace s4d::testing
