// Data Identifier (§III-C): computes the cost-model benefit of every
// incoming request and records performance-critical ones in the CDT.
//
// The request distance d (Table I) is the logical gap between a request's
// offset and the end of the previous request in the *same process's stream
// on the same file* — the per-process randomness signal the selection
// algorithm is derived from.
//
// Refinement: the identifier additionally keeps a bounded table of recent
// stream tails per file across *all* ranks (the middleware sees the global
// request stream — the paper's stated advantage of sitting at this layer).
// Interleaved dense patterns (HPIO with small spacing, MPI-Tile-IO rows)
// look random per rank but continue each other globally, and the buffered
// file servers serve them as streams; a request continuing any recent tail
// within the readahead window is measured by that small forward gap
// instead of its per-rank jump.
//
// The tail table is a position-sorted vector of (tail, recency) pairs, at
// most kMaxTailsPerFile per file. Most requests continue a tail, and a
// continuation rewrites that tail in place (sliding any tails it passes),
// so the table neither allocates nor rebalances per request.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cache_extension.h"
#include "core/cdt.h"
#include "core/cost_model.h"
#include "core/tier_signals.h"

namespace s4d::core {

// The Identifier's verdict on one request and the costs behind it.
struct Decision {
  bool critical = false;  // after the health veto and the admission stages
  SimTime benefit = 0;       // health-scaled B
  SimTime dserver_cost = 0;  // model's T_D
  SimTime cserver_cost = 0;  // model's health-scaled T_C
};

struct IdentifierStats {
  std::int64_t requests = 0;
  std::int64_t critical = 0;
  std::int64_t cdt_inserts = 0;
  // Health-aware admission: requests whose verdict changed (or was vetoed)
  // because the cache tier is currently degraded.
  std::int64_t health_rejections = 0;
};

class DataIdentifier {
 public:
  // Health-aware admission (ROADMAP): the cache tier's slowdown factor
  // (worst DeviceModel::degrade() across CServers, read from `tier`; 1.0
  // = healthy) scales T_C in the benefit computation, and at or beyond
  // `unhealthy_threshold` the tier is treated as unattractive outright:
  // the per-request model compares latencies but is blind to queueing,
  // and a tier running several times slow loses far more aggregate
  // bandwidth than the latency comparison can see (the LBICA-style load
  // argument).
  DataIdentifier(const CostModel& model, CriticalDataTable& cdt,
                 TierSignals tier = {}, double unhealthy_threshold = 2.0)
      : model_(model),
        cdt_(cdt),
        tier_(tier),
        unhealthy_threshold_(unhealthy_threshold) {}

  // Evaluates one request and returns the decision; adds the request to
  // the CDT when it is critical (and not already present). Always advances
  // the (file, rank) stream position. The model's verdict (B > 0 after the
  // health veto) passes through each extension's Admit stage in order.
  Decision Identify(const std::string& file, int rank, device::IoKind kind,
                    byte_count offset, byte_count size,
                    std::span<CacheExtension* const> extensions = {});

  // Current *signed* stream distance a request at `offset` would have
  // (negative = backward jump). Exposed for tests.
  byte_count DistanceFor(const std::string& file, int rank,
                         byte_count offset) const;

  const IdentifierStats& stats() const { return stats_; }

 private:
  struct StreamKey {
    std::string file;
    int rank;
    friend bool operator==(const StreamKey&, const StreamKey&) = default;
  };
  struct StreamKeyHash {
    std::size_t operator()(const StreamKey& k) const {
      return std::hash<std::string>{}(k.file) * 31 +
             std::hash<int>{}(k.rank);
    }
  };

  const CostModel& model_;
  CriticalDataTable& cdt_;
  std::unordered_map<StreamKey, byte_count, StreamKeyHash> last_end_;
  // Per file: recent stream tails across all ranks as (position, recency
  // sequence number) pairs, sorted by position for a binary-searched
  // nearest-preceding-tail lookup; the smallest sequence number is the LRU
  // victim. Sized like the servers' aggregate stream capacity (max_streams
  // per disk x M disks).
  using TailTable = std::vector<std::pair<byte_count, std::uint64_t>>;
  std::unordered_map<std::string, TailTable> global_tails_;
  std::uint64_t tail_seq_ = 0;
  IdentifierStats stats_;
  TierSignals tier_;
  double unhealthy_threshold_;

  static constexpr std::size_t kMaxTailsPerFile = 512;
};

}  // namespace s4d::core
