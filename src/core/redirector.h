// Redirector (§III-E, Algorithm 1): decides, per request, which servers
// serve which bytes, and performs cache admission / eviction bookkeeping.
//
// The Redirector produces a RoutingPlan — a list of segments, each aimed at
// either the DServers (original file, original offsets) or the CServers
// (cache file, cache offsets). Algorithm 1 covers full-hit and full-miss
// requests; this implementation additionally handles *partial* overlaps
// (a request straddling a cached range) in the only consistency-preserving
// ways available:
//   * partial write, admittable  -> admit the gaps, dirty the cached parts,
//     serve everything from CServers;
//   * partial write, not admittable -> write the whole request to DServers
//     and invalidate every overlapping mapping (a stale dirty extent must
//     not be flushed over newer data);
//   * partial read  -> read mapped parts from CServers, gaps from DServers.
//
// Degraded mode (fault subsystem): when the tier signals report the cache
// tier unreachable (a CServer crashed or is partitioned), the
// Redirector routes around it — writes go to DServers with overlapping
// mappings invalidated (the new data supersedes the clipped overlap, so no
// acknowledged write is lost), and reads are planned against DServers.
// A read overlapping a *dirty* mapping has its only up-to-date copy on the
// unreachable tier; the plan is flagged `blocked_on_cache` and the caller
// decides whether to queue it until recovery or serve the stale DServer
// copy (reporting the dirty-data-loss window).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/inline_vector.h"
#include "core/cache_extension.h"
#include "core/cache_space.h"
#include "core/cdt.h"
#include "core/dmt.h"
#include "core/tier_signals.h"
#include "device/device_model.h"

namespace s4d::core {

// Admission policy — kCostModel is the paper's scheme; the others exist for
// the ablation benches.
enum class AdmissionPolicy {
  kCostModel,  // admit iff the Data Identifier found the request critical
  kAlways,     // admit every miss (classic cache-everything)
  kNever,      // never admit (cache serves only pre-existing mappings)
};

struct IoSegment {
  enum class Target { kDServers, kCServers };
  Target target = Target::kDServers;
  byte_count offset = 0;       // offset within the target file
  byte_count orig_offset = 0;  // corresponding original-file offset
  byte_count size = 0;
};

struct RoutingPlan {
  // Inline up to four segments (a partial hit with a few gaps), so a plan
  // allocates nothing on the request path.
  InlineVector<IoSegment, 4> segments;
  bool served_fully_by_cache = false;
  bool admitted = false;     // a new mapping was created for this request
  bool lazy_fetch_marked = false;  // C_flag set for a critical read miss
  // The plan changed DMT state (admission, dirty-marking, invalidation,
  // eviction) — such changes are persisted synchronously (§III-D) and pay
  // the serialized metadata-update latency.
  bool dmt_mutated = false;
  // Degraded mode only: the range overlaps dirty mappings whose sole copy
  // is on the unreachable cache tier. The plan's segments are the stale
  // DServer fallback; the caller chooses queue-until-recovery or
  // serve-stale.
  bool blocked_on_cache = false;

  byte_count cache_bytes() const {
    byte_count n = 0;
    for (const auto& s : segments) {
      if (s.target == IoSegment::Target::kCServers) n += s.size;
    }
    return n;
  }
  byte_count dserver_bytes() const {
    byte_count n = 0;
    for (const auto& s : segments) {
      if (s.target == IoSegment::Target::kDServers) n += s.size;
    }
    return n;
  }
};

struct RedirectorStats {
  std::int64_t write_requests = 0;
  std::int64_t write_cache_hits = 0;    // fully mapped writes
  std::int64_t write_admissions = 0;    // new space allocated for a write
  std::int64_t write_to_dservers = 0;   // writes routed (fully) to DServers
  std::int64_t read_requests = 0;
  std::int64_t read_cache_hits = 0;     // fully mapped reads
  std::int64_t read_partial_hits = 0;
  std::int64_t read_misses = 0;
  // Clean hits served by DServers because the model scored B <= 0.
  std::int64_t read_clean_bypasses = 0;
  std::int64_t lazy_fetch_marks = 0;
  std::int64_t evictions = 0;
  std::int64_t admission_failures = 0;  // wanted to admit, no space
  std::int64_t invalidated_extents = 0;
  // Degraded-mode routing (cache tier unreachable).
  std::int64_t degraded_writes = 0;
  std::int64_t degraded_reads = 0;
  std::int64_t degraded_dirty_reads = 0;  // plans flagged blocked_on_cache
  // Saturation load-shedding (calibration subsystem's signal).
  std::int64_t saturation_write_bypasses = 0;   // admissions skipped
  std::int64_t saturation_read_bypasses = 0;    // critical clean hits bypassed
  std::int64_t saturation_fetch_suppressions = 0;  // C_flag marks suppressed
};

class Redirector {
 public:
  // `on_release` fires whenever a mapping's cache extent is released back
  // to the allocator (eviction or invalidation) with the *original* file
  // name and the cache-file range — the facade uses it to scrub recycled
  // space so a later tenant never observes a previous tenant's bytes.
  using ReleaseHook = std::function<void(const std::string& orig_file,
                                         byte_count cache_offset,
                                         byte_count length)>;

  // `tier` reports reachability and saturation. Every allocation and
  // release consults `extensions` (not owned; null = none): their gates,
  // the victim selector (else clean-LRU) and their removal stages.
  Redirector(CriticalDataTable& cdt, DataMappingTable& dmt,
             CacheSpaceAllocator& space,
             AdmissionPolicy policy = AdmissionPolicy::kCostModel,
             ReleaseHook on_release = nullptr, TierSignals tier = {},
             const ExtensionList* extensions = nullptr)
      : cdt_(cdt),
        dmt_(dmt),
        space_(space),
        policy_(policy),
        on_release_(std::move(on_release)),
        tier_(tier),
        extensions_(extensions) {}

  // Tags subsequent allocations (and lazy-fetch C_flag marks) with the
  // tenant to charge. Forwards to the allocator; a no-op when partition
  // tracking is off.
  void set_charge_owner(int owner) {
    space_.set_charge_owner(owner);
    charge_owner_ = owner;
  }
  int charge_owner() const { return charge_owner_; }

  // `critical` is the Data Identifier's verdict for this request (ignored
  // under kAlways / kNever policies).
  RoutingPlan PlanWrite(const std::string& file, byte_count offset,
                        byte_count size, bool critical);
  RoutingPlan PlanRead(const std::string& file, byte_count offset,
                       byte_count size, bool critical);

  // Allocates cache space, evicting clean LRU mappings as needed
  // (Algorithm 1 lines 4–10). Exposed for the Rebuilder's fetch path.
  std::optional<byte_count> AllocateCacheSpace(byte_count size);

  // Allocation from free space only — no eviction (speculative fetches).
  std::optional<byte_count> AllocateFreeOnly(byte_count size) {
    if (!FreeAllocationAllowed(size)) return std::nullopt;
    return space_.Allocate(size);
  }

  // Drops every mapping overlapping [offset, offset+size) (clipped at the
  // boundaries) and returns its cache space to the allocator. Returns the
  // removed extents so the caller can account for dirty data among them.
  std::vector<RemovedExtent> InvalidateAndRelease(const std::string& file,
                                                  byte_count offset,
                                                  byte_count size);

  // Like InvalidateAndRelease but leaves dirty segments mapped — used when
  // aborting a failed background fetch whose clean placeholder mapping may
  // have been dirtied by a racing foreground write (that dirty data is
  // real and must survive).
  void InvalidateCleanAndRelease(const std::string& file, byte_count offset,
                                 byte_count size);

  const RedirectorStats& stats() const { return stats_; }
  AdmissionPolicy policy() const { return policy_; }
  const CacheSpaceAllocator& space() const { return space_; }

 private:
  bool ShouldAdmit(bool critical) const {
    switch (policy_) {
      case AdmissionPolicy::kCostModel: return critical;
      case AdmissionPolicy::kAlways: return true;
      case AdmissionPolicy::kNever: return false;
    }
    return false;
  }

  // True when every extension's free-space gate passes.
  bool FreeAllocationAllowed(byte_count size) const;
  void Release(const RemovedExtent& extent, bool evicted);
  RoutingPlan PlanDegradedWrite(const std::string& file, byte_count offset,
                                byte_count size);
  RoutingPlan PlanDegradedRead(const std::string& file, byte_count offset,
                               byte_count size);

  CriticalDataTable& cdt_;
  DataMappingTable& dmt_;
  CacheSpaceAllocator& space_;
  AdmissionPolicy policy_;
  ReleaseHook on_release_;
  TierSignals tier_;
  const ExtensionList* extensions_;
  int charge_owner_ = -1;
  RedirectorStats stats_;
};

}  // namespace s4d::core
