// TenantManager: the multi-tenant partitioning subsystem's front door.
//
// Takes part in an S4DCache's decisions as a core::CacheExtension (the
// core never depends on this library):
//
//   attribution — OnRequestStart maps the issuing rank to its tenant and
//                 returns it as the request's partition, which the
//                 Decision carries into every allocation the plan makes —
//                 including the Rebuilder's later background fetch of a
//                 C_flagged range, whose mark records it — so every byte
//                 is charged to that tenant and its DMT extent records it.
//   partitions  — CacheSpaceAllocator partition tracking gives per-tenant
//                 used-byte accounting; in enforce mode the free-space gate
//                 caps each tenant at its quota (with borrowable slack
//                 above other tenants' hard floors) and the manager is the
//                 cache's victim selector: over-quota partitions are
//                 reclaimed first (largest excess first, from a fresh
//                 scan of the few tenants), then the requester's own, then
//                 any partition still above its floor. Floors are never
//                 breached by another tenant's allocation.
//   sizing      — an online PartitionSizer periodically re-divides the
//                 capacity above the floors in proportion to each tenant's
//                 EWMA *useful* (reuse) hit ratio — ECI-Cache's division
//                 rule.
//   endurance   — with `endurance = on`, the Admit stage adds a write-cost
//                 check to the verdict it receives: SSD end-of-life (wear
//                 fraction 1.0) vetoes globally, and a tenant near its
//                 cache-write budget must clear a benefit bar that rises
//                 with its budget utilization — over budget, admissions
//                 stop outright. Cache-tier load is the policy engine's
//                 veto (policy.pressure_max_queue), not this stage's.
//
// With one catch-all tenant in enforce mode and endurance off, every
// decision reduces to the unpartitioned behaviour (the gate always passes,
// the victim scan degenerates to global clean-LRU) — pinned byte-identical
// by the equivalence test. When a PolicyEngine is also attached, attach
// the TenantManager after it: extensions run in attach order, so the
// endurance stage then sees the policy's verdict. In enforce mode the
// manager is the cache's one victim selector (partition containment is a
// hard guarantee; within a partition the order is clean-LRU), and the
// cache refuses a second one.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/s4d_cache.h"
#include "obs/observability.h"
#include "sim/engine.h"
#include "tenant/registry.h"

namespace s4d::tenant {

struct TenantStats {
  std::int64_t requests = 0;
  std::int64_t read_requests = 0;
  // Requests served (at least partly) from the cache tier.
  std::int64_t hits = 0;
  // Hits against a pre-existing mapping — reuse, not first-touch admission.
  std::int64_t useful_hits = 0;
  // Foreground bytes written to the cache tier (SSD wear attribution).
  byte_count cache_write_bytes = 0;
  // Endurance admission vetoes: over or near the write budget, and at the
  // SSD's end of life.
  std::int64_t endurance_vetoes = 0;
  std::int64_t wear_vetoes = 0;
  // Always 0: the stage has no load veto. perfbench sums it into
  // tenant.vetoes.
  std::int64_t pressure_vetoes = 0;

  double hit_ratio() const {
    return requests > 0
               ? static_cast<double>(hits) / static_cast<double>(requests)
               : 0.0;
  }
};

class TenantManager final : public core::CacheExtension {
 public:
  TenantManager(sim::Engine& engine, TenantRegistry registry,
                obs::Observability* obs = nullptr);
  ~TenantManager() override;

  // Enables partition tracking on `cache` and attaches the manager as an
  // extension (and, in enforce mode, as its one victim selector: the cache
  // must have none yet). Call once, before traffic — and after a
  // PolicyEngine::Attach when one is present.
  void Attach(core::S4DCache& cache);

  // --- core::CacheExtension ----------------------------------------------
  int OnRequestStart(const mpiio::FileRequest& request,
                     device::IoKind kind) override;
  bool Admit(const core::AdmissionContext& ctx, bool verdict) override;
  bool AllowFreeAllocation(byte_count size, int owner) override;
  std::optional<core::RemovedExtent> SelectVictim(core::DataMappingTable& dmt,
                                                  int owner) override;
  void OnOutcome(const core::RequestOutcome& outcome) override;
  // S4D_CHECKs the partition bookkeeping: quotas respect floors and sum to
  // the capacity, and per-tenant counters are mutually consistent. Runs
  // with the cache's audits, so it also rides the paranoid-build periodic
  // audits.
  void AuditInvariants() const override;

  const TenantRegistry& registry() const { return registry_; }
  int count() const { return registry_.count(); }
  const TenantStats& stats(int t) const {
    return stats_.at(static_cast<std::size_t>(t));
  }
  byte_count quota(int t) const {
    return quota_.at(static_cast<std::size_t>(t));
  }
  byte_count floor(int t) const {
    return floor_.at(static_cast<std::size_t>(t));
  }
  byte_count used(int t) const;
  std::int64_t resizes() const { return resizes_; }
  // EWMA of the useful-hit ratio the sizer divides capacity by.
  double useful_ewma(int t) const {
    return useful_ewma_.at(static_cast<std::size_t>(t));
  }

  // One formatted per-tenant summary table (used by s4dsim's report).
  void PrintReport() const;

 private:
  int TenantOfRank(int rank) const { return registry_.TenantOf(rank); }

  // Folds the open rate window into the per-tenant write-rate EWMAs.
  void FoldRateWindow();
  void SizerTick();
  void ScheduleSizer();
  void SetupObservability();

  sim::Engine& engine_;
  TenantRegistry registry_;
  core::S4DCache* cache_ = nullptr;

  std::vector<byte_count> quota_;
  std::vector<byte_count> floor_;
  std::vector<TenantStats> stats_;
  bool enforce_ = false;  // the gate and victim selection are live
  // SelectVictim's (excess, tenant) scratch, sized at Attach so a victim
  // scan never allocates.
  std::vector<std::pair<byte_count, int>> over_quota_;

  // Sizer state: per-tenant EWMA useful-hit ratio and the open window's
  // deltas (reset every tick).
  std::vector<double> useful_ewma_;
  std::vector<std::int64_t> window_requests_;
  std::vector<std::int64_t> window_useful_;
  // Completions this window — the audit bound for window_useful_ (requests
  // are counted at issue, so a request can complete into a later window).
  std::vector<std::int64_t> window_outcomes_;
  std::int64_t resizes_ = 0;

  // Endurance state: per-tenant cache-write rate (bytes/sec EWMA) folded
  // from fixed windows of simulated time.
  std::vector<double> write_rate_bps_;
  std::vector<byte_count> rate_window_bytes_;
  SimTime rate_window_start_ = 0;
  SimTime rate_window_len_ = 0;

  sim::EventId sizer_tick_ = sim::kInvalidEvent;

  obs::Observability* obs_ = nullptr;
  std::uint32_t lane_ = 0;
};

}  // namespace s4d::tenant
