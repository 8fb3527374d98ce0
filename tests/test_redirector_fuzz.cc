// Pure (simulation-free) randomized invariants over the Redirector + DMT +
// allocator triple: thousands of arbitrary PlanWrite/PlanRead calls with
// overlapping unaligned ranges, interleaved with Rebuilder-style cleaning
// and version checks. After every single operation the structural
// invariants must hold; a reference interval model checks the routing.
#include <gtest/gtest.h>

#include <map>

#include "common/interval_map.h"
#include "common/rng.h"
#include "core/redirector.h"

namespace s4d::core {
namespace {

struct FuzzCase {
  std::uint64_t seed;
  byte_count capacity;
  AdmissionPolicy policy;
  double critical_probability;
};

class RedirectorFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(RedirectorFuzz, InvariantsHoldAfterEveryOperation) {
  const FuzzCase param = GetParam();
  CriticalDataTable cdt;
  DataMappingTable dmt;
  CacheSpaceAllocator space(param.capacity, 64 * KiB);
  Redirector redirector(cdt, dmt, space, param.policy);

  Rng rng(param.seed);
  constexpr byte_count kSpace = 4 * MiB;
  const std::vector<std::string> files = {"x", "y", "z"};

  for (int op = 0; op < 3000; ++op) {
    const std::string& file = files[rng.NextBelow(files.size())];
    const byte_count size = rng.NextInRange(1, 128 * KiB);
    const byte_count offset = rng.NextInRange(0, kSpace - size);
    const bool critical = rng.NextBool(param.critical_probability);

    const int action = static_cast<int>(rng.NextBelow(10));
    if (action < 5) {
      const RoutingPlan plan =
          redirector.PlanWrite(file, offset, size, critical);
      // Plan covers the request exactly, with no overlaps.
      byte_count covered = 0;
      for (const IoSegment& seg : plan.segments) {
        ASSERT_GT(seg.size, 0);
        covered += seg.size;
        if (seg.target == IoSegment::Target::kDServers) {
          ASSERT_EQ(seg.offset, seg.orig_offset);
        }
      }
      ASSERT_EQ(covered, size) << "plan must cover the write exactly";
      // A write served by the cache leaves the whole range mapped+dirty;
      // one served by DServers leaves the range unmapped.
      if (plan.served_fully_by_cache) {
        ASSERT_TRUE(dmt.Lookup(file, offset, size).fully_mapped());
      } else {
        ASSERT_TRUE(dmt.Lookup(file, offset, size).fully_unmapped());
      }
    } else if (action < 8) {
      const RoutingPlan plan = redirector.PlanRead(file, offset, size, critical);
      byte_count covered = 0;
      for (const IoSegment& seg : plan.segments) covered += seg.size;
      ASSERT_EQ(covered, size) << "plan must cover the read exactly";
      // Reads never change what is mapped.
      const byte_count mapped_before = dmt.mapped_bytes();
      const auto lookup = dmt.Lookup(file, offset, size);
      (void)lookup;
      ASSERT_EQ(dmt.mapped_bytes(), mapped_before);
    } else if (action == 8) {
      // Rebuilder-style cleaning of a random dirty snapshot.
      for (const DirtyRun& run : dmt.CollectDirtyRuns(1 * MiB, 128 * KiB)) {
        for (const DirtyRange& range : run.segments) {
          if (rng.NextBool(0.5)) {
            dmt.MarkCleanIfVersion(range.file, range.orig_begin,
                                   range.orig_end, range.version);
          }
        }
      }
    } else {
      // Spontaneous eviction pressure.
      if (auto victim = dmt.EvictLruClean()) {
        space.Free(victim->cache_offset, victim->length());
      }
    }

    // --- global invariants, every step --------------------------------
    ASSERT_EQ(space.used_bytes(), dmt.mapped_bytes())
        << "allocator and DMT disagree at op " << op;
    ASSERT_LE(dmt.dirty_bytes(), dmt.mapped_bytes());
    ASSERT_GE(space.free_bytes(), 0);
    ASSERT_LE(dmt.mapped_bytes(), param.capacity);
  }

  // Cache-extent disjointness: collect all extents and check pairwise
  // non-overlap in cache space.
  const auto extents = dmt.AllExtents();
  std::map<byte_count, byte_count> cache_ranges;  // begin -> end
  for (const auto& ext : extents) {
    const byte_count begin = ext.cache_offset;
    const byte_count end = ext.cache_offset + ext.length();
    auto next = cache_ranges.lower_bound(begin);
    if (next != cache_ranges.end()) {
      ASSERT_LE(end, next->first) << "cache extents overlap";
    }
    if (next != cache_ranges.begin()) {
      ASSERT_LE(std::prev(next)->second, begin) << "cache extents overlap";
    }
    cache_ranges.emplace(begin, end);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Storm, RedirectorFuzz,
    ::testing::Values(
        FuzzCase{11, 1 * MiB, AdmissionPolicy::kCostModel, 0.5},
        FuzzCase{12, 256 * KiB, AdmissionPolicy::kCostModel, 0.9},
        FuzzCase{13, 4 * MiB, AdmissionPolicy::kAlways, 0.0},
        FuzzCase{14, 64 * KiB, AdmissionPolicy::kAlways, 0.5},
        FuzzCase{15, 2 * MiB, AdmissionPolicy::kNever, 1.0},
        FuzzCase{16, 512 * KiB, AdmissionPolicy::kCostModel, 0.2}),
    [](const auto& info) { return "seed" + std::to_string(info.param.seed); });

}  // namespace
}  // namespace s4d::core
