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
//
// Each file also keeps one record per rank: where the rank's last request
// ended and the table slot its tail went to. A rank that continues its own
// stream finds its place in the table from that slot, without a search;
// the slot is checked against the offset first, because other ranks'
// requests insert and erase tails around it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
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
  // The partition an extension's OnRequestStart named for the request's
  // allocations and lazy-fetch marks (-1: none). Set by the cache.
  int owner = -1;
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
  Decision Identify(FileIndex file, int rank, device::IoKind kind,
                    byte_count offset, byte_count size,
                    std::span<CacheExtension* const> extensions = {});

  // Current *signed* stream distance a request at `offset` would have
  // (negative = backward jump): the distance Identify would use. Exposed
  // for tests.
  byte_count DistanceFor(FileIndex file, int rank, byte_count offset) const;

  const IdentifierStats& stats() const { return stats_; }

 private:
  // Recent stream tails across all ranks as (position, recency sequence
  // number) pairs, sorted by position for a binary-searched
  // nearest-preceding-tail lookup; positions are distinct, and the
  // smallest sequence number is the LRU victim. Sized like the servers'
  // aggregate stream capacity (max_streams per disk x M disks).
  using Tail = std::pair<byte_count, std::uint64_t>;
  using TailTable = std::vector<Tail>;

  // One rank's stream on one file.
  struct RankStream {
    static constexpr byte_count kNone = std::numeric_limits<byte_count>::min();
    byte_count end = kNone;  // where the rank's last request ended
    // The slot of the tail that request left. Other ranks' requests move
    // tails, so it is a hint, checked before use.
    std::uint32_t tail = 0;
  };

  struct FileStreams {
    TailTable tails;
    std::vector<RankStream> ranks;  // by rank, for ranks >= 0
  };

  // One (file, rank) stream of a negative rank: the file id in the high
  // half, the rank's bits in the low half.
  static std::uint64_t StreamKey(FileIndex file, int rank) {
    return (std::uint64_t{file} << 32) | static_cast<std::uint32_t>(rank);
  }

  // The upper bound of `offset` in `tails`: the slot past the greatest tail
  // at or before it.
  static std::size_t TailAfter(const TailTable& tails, std::uint32_t hint,
                               byte_count offset);
  // The distance of a request at `offset` whose upper bound is `next`, on
  // a rank whose last request ended at `rank_end`.
  byte_count Distance(const TailTable& tails, std::size_t next,
                      byte_count offset, byte_count rank_end) const;
  // Records the tail [offset, tail) leaves; `next` is the upper bound of
  // `offset`. Returns the tail's slot.
  std::uint32_t AdvanceTails(TailTable& tails, std::size_t next,
                             byte_count offset, byte_count tail);
  // The readahead reach of the servers in file space: one local window
  // spread over the M servers of the layout.
  byte_count Reach() const {
    return model_.params().hdd.readahead_window * model_.params().hdd_servers;
  }

  const CostModel& model_;
  CriticalDataTable& cdt_;
  std::vector<FileStreams> files_;  // by file id
  std::unordered_map<std::uint64_t, RankStream> negative_ranks_;
  std::uint64_t tail_seq_ = 0;
  IdentifierStats stats_;
  TierSignals tier_;
  double unhealthy_threshold_;

  static constexpr std::size_t kMaxTailsPerFile = 512;
};

}  // namespace s4d::core
