// S4D-Cache facade: the paper's middleware module, wired together.
//
// Implements mpiio::IoDispatch — the interception point §IV-B installs in
// MPI_File_open/read/write/seek/close — on top of:
//   DataIdentifier  (cost model + CDT, §III-C)
//   Redirector      (Algorithm 1 over DMT + cache space, §III-E)
//   Rebuilder       (background flush/fetch, §III-F)
//   DataMappingTable(persistent via kvstore, §III-D / §IV-A)
//
// Two parallel file systems are referenced, never owned: the HDD-backed
// OPFS ("DServers") and the SSD-backed CPFS ("CServers"). Each original
// file gets a companion cache file (<name>.s4d) in the CPFS; cache-file
// offsets come from one global allocator sized by `cache_capacity`
// (the paper sets it to 20% of the application's data size).
//
// Optional subsystems join each request's decision as CacheExtensions
// (policy, tenants) or through TierSignals, which every component reads
// the cache tier through (calibration, via the cost model).
//
// Once warm, a request that leaves the mapping unchanged (a DServer bypass
// or a cache hit) runs from Read/Write to its completion without a heap
// allocation: plans and lookups keep their segments inline, each request's
// join comes from a free list, and every callback captures at most 16
// bytes (tests/test_io_path_alloc.cc holds it to that).
#pragma once

#include <memory>
#include <string>
#include <unordered_set>

#include "core/cache_extension.h"
#include "core/cdt.h"
#include "core/cost_model.h"
#include "core/data_identifier.h"
#include "core/dmt.h"
#include "core/rebuilder.h"
#include "core/redirector.h"
#include "core/tier_signals.h"
#include "kvstore/kvstore.h"
#include "mpiio/io_dispatch.h"
#include "obs/observability.h"
#include "pfs/file_system.h"

namespace s4d::core {

// What Read() does, while the cache tier is unreachable, with a request
// that overlaps dirty mappings (whose only up-to-date copy is on the down
// tier):
//   kQueue      — hold the request and re-issue it when the tier recovers
//                 (no stale data is ever delivered; the rank stalls).
//   kServeStale — serve the DServer copy immediately and report the range
//                 through the dirty-loss hook (availability over freshness).
enum class DegradedReadMode { kQueue, kServeStale };

struct S4DConfig {
  byte_count cache_capacity = 2 * GiB;
  AdmissionPolicy policy = AdmissionPolicy::kCostModel;
  RebuilderConfig rebuilder;
  bool enable_rebuilder = true;
  // Per-operation cost of the Identifier/Redirector bookkeeping (cost-model
  // evaluation, CDT/DMT lookups — all in-memory). §V-E.2 measures this
  // overhead as "almost unobservable"; it is modelled as a fixed pre-I/O
  // delay.
  SimTime metadata_overhead_per_op = FromMicros(3);
  // Cost of synchronously persisting a DMT change (§III-D: "changes to the
  // mapping table are synchronously written to the storage"). Updates to
  // one metadata shard serialize across processes — the lock the paper
  // handles via BDB. Requests that do not change the mapping (read hits,
  // plain misses) skip this path, which is why Fig. 11's all-miss overhead
  // test sees nothing.
  SimTime dmt_update_latency = FromMicros(100);
  // Number of independent metadata shards (§III-D suggests distributing
  // the metadata "so that the communication contention for accessing
  // metadata can be minimized"). Updates to different file regions hash to
  // different shards and proceed in parallel.
  int dmt_shards = 4;
  std::size_t cdt_max_entries = 1 << 20;
  std::string cache_file_suffix = ".s4d";
  DegradedReadMode degraded_read_mode = DegradedReadMode::kQueue;
  // kQueue mode only: a read held for the down cache tier is promoted to
  // a stale DServer read after this long without a recovery — a rank must
  // not block forever when no restart ever comes. The promoted read's
  // bypassed dirty ranges are reported through the dirty-loss hook, as in
  // kServeStale. 0 (the default) preserves queue-forever semantics.
  SimTime queue_stale_timeout = 0;
  // Health-aware admission: a cache tier degraded by at least this factor
  // (worst DeviceModel::degrade() across CServers) stops attracting new
  // admissions; see the DataIdentifier constructor. Values <= 1 disable the
  // veto (the scaled benefit still applies).
  double cache_unhealthy_degrade = 2.0;
  // Shared observability bundle (metrics + tracer); null = not observed.
  // Not owned; must outlive the cache.
  obs::Observability* obs = nullptr;
};

struct S4DCounters {
  // Foreground request routing (Table III's request distribution).
  std::int64_t dserver_requests = 0;
  std::int64_t cserver_requests = 0;
  std::int64_t split_requests = 0;  // partial hits served by both sides
  byte_count dserver_bytes = 0;
  byte_count cserver_bytes = 0;
  // Fault handling.
  std::int64_t failed_requests = 0;        // a sub-I/O failed under the op
  std::int64_t queued_degraded_reads = 0;  // held until tier recovery
  std::int64_t stale_dirty_reads = 0;      // served stale (kServeStale)
  std::int64_t promoted_stale_reads = 0;   // queued reads timed out to stale
  std::int64_t wiped_extents = 0;          // mappings lost to a media wipe
  byte_count lost_dirty_bytes = 0;         // the dirty-data-loss window
};

class S4DCache final : public mpiio::IoDispatch {
 public:
  // `dmt_store` may be null: the DMT is then volatile (still exercised, not
  // persisted). With a store, an existing DMT is recovered on construction.
  S4DCache(sim::Engine& engine, pfs::FileSystem& dservers,
           pfs::FileSystem& cservers, CostModel cost_model, S4DConfig config,
           kv::KvStore* dmt_store = nullptr);
  ~S4DCache() override;

  // --- mpiio::IoDispatch -------------------------------------------------
  void Open(const std::string& file) override;
  void Close(const std::string& file) override;
  void Read(const mpiio::FileRequest& request, mpiio::IoCompletion done) override;
  void Write(const mpiio::FileRequest& request, mpiio::IoCompletion done) override;
  std::vector<mpiio::ContentEntry> ReadContent(const std::string& file,
                                               byte_count offset,
                                               byte_count size) override;
  // Stamps through the current mapping: mapped parts into the cache file,
  // gaps into the original file — the write-location decision Write() just
  // made for the same range.
  void StampContent(const std::string& file, byte_count offset,
                    byte_count size, std::uint64_t token) override;
  std::string Name() const override { return "s4d-cache"; }

  // --- introspection -----------------------------------------------------
  const S4DCounters& counters() const { return counters_; }
  const RedirectorStats& redirector_stats() const { return redirector_.stats(); }
  const IdentifierStats& identifier_stats() const { return identifier_.stats(); }
  const RebuilderStats& rebuilder_stats() const { return rebuilder_.stats(); }
  DataMappingTable& dmt() { return dmt_; }
  CriticalDataTable& cdt() { return cdt_; }
  CacheSpaceAllocator& cache_space() { return space_; }
  Rebuilder& rebuilder() { return rebuilder_; }
  Redirector& redirector() { return redirector_; }
  const CostModel& cost_model() const { return cost_model_; }
  const S4DConfig& config() const { return config_; }
  // Request joins made so far: the most foreground requests that were ever
  // in flight at once, since finished requests return theirs for reuse.
  std::size_t join_pool_size() const { return join_pool_.size(); }

  std::string CacheFileName(const std::string& file) const {
    return file + config_.cache_file_suffix;
  }

  // Current simulated time (the engine the cache runs on).
  SimTime now() const { return engine_.now(); }

  // --- fault handling ----------------------------------------------------
  // Reports every original-file range whose only up-to-date copy was lost
  // or knowingly bypassed (media wipe, stale degraded reads). The harness
  // wires this to ContentChecker::MarkMaybeLost so verification *reports*
  // the dirty-data-loss window instead of failing on it.
  using DirtyLossHook = std::function<void(
      const std::string& file, byte_count offset, byte_count length)>;
  void SetDirtyLossHook(DirtyLossHook hook) {
    dirty_loss_hook_ = std::move(hook);
  }

  // The cache tier's state, as every middleware component reads it.
  const TierSignals& tier() const { return tier_; }

  // Installs (or clears) the live cost-calibration provider on the owned
  // CostModel (calibration subsystem). The DataIdentifier reads the model
  // by reference, so fitted estimates flow into every admission decision,
  // and TierSignals reads the provider's load signals. Not owned.
  void SetCostCalibration(const CostCalibration* calibration) {
    cost_model_.SetCalibration(calibration);
  }

  // Attaches `extension` (not owned; it must outlive the cache's traffic).
  // Attach before traffic: a request already in flight reports no outcome
  // to a later extension. Extensions run in attach order: admission folds
  // through them from the model's verdict, and every fan-out visits them
  // in turn. Attach the policy engine before the tenant manager, so the
  // policy's admission stage stays ahead of the tenants' endurance stage;
  // s4dsim and perfbench attach policy, then tenants, then calibration.
  // With `selects_victims` the extension becomes the cache's one victim
  // selector (tenant enforce mode is the only one); a second selector is
  // an S4D_CHECK failure. Without one, eviction is the paper's clean-LRU.
  void Attach(CacheExtension& extension, bool selects_victims = false);

  // Called (by the FaultInjector) once the last down CServer restarted:
  // runs the Rebuilder's crash-recovery pass over the persisted DMT, then
  // re-plans the reads queued in kQueue mode from their kept decisions.
  void OnCacheTierRestored();

  // Called when CServer `server` lost its media contents (crash-wipe).
  // Every cache extent striped onto that server is dropped; dirty ones are
  // reported as lost through the dirty-loss hook.
  void HandleCacheServerWiped(int server);

  // True when the background machinery has nothing left to do: no dirty
  // data awaiting flush, no lazy fetches marked, nothing in flight.
  bool BackgroundQuiescent() const {
    return dmt_.dirty_bytes() == 0 && !cdt_.AnyPendingFetch() &&
           rebuilder_.idle();
  }

  // Cross-structure audit: runs the DMT / cache-space / CDT audits, then
  // S4D_CHECKs that the structures agree — every DMT extent's cache range
  // is allocated and pairwise disjoint from the others, and the allocator's
  // used bytes cover the mapped bytes. In-flight Rebuilder work (space
  // allocated for a fetch whose mapping lands on I/O completion) keeps
  // used > mapped transiently, so the exact used == mapped equality is only
  // enforced with `expect_quiescent` (no foreground ops in flight and
  // BackgroundQuiescent()). O(extents log extents). Paranoid builds run the
  // non-quiescent form every 64 foreground requests.
  void AuditInvariants(bool expect_quiescent = false) const;

 private:
  // Paranoid-build hook for the foreground entry points.
#ifdef S4D_PARANOID
  void MaybeAudit() const {
    if ((++audit_tick_ & 63) == 0) AuditInvariants();
  }
  mutable std::uint64_t audit_tick_ = 0;
#else
  void MaybeAudit() const {}
#endif

  // Failure-aware join for one foreground request: it resolves (once)
  // when its last segment does. A failed segment (a server crashed
  // mid-request) still resolves it, as the application would see an I/O
  // error, and is counted. Joins come from a free list and go back to it
  // before `done` runs, so the delayed dispatch and every segment
  // completion capture only {S4DCache*, ExecJoin*}, which std::function
  // stores inline.
  struct ExecJoin {
    device::IoKind kind = device::IoKind::kRead;
    pfs::FileId orig_id = pfs::kInvalidFile;
    pfs::FileId cache_id = pfs::kInvalidFile;
    int remaining = 0;
    bool failed = false;
    SimTime last = 0;
    SimTime issued_at = 0;
    obs::SpanId span = obs::kNoSpan;
    // The plan's segments, issued by the delayed dispatch.
    InlineVector<IoSegment, 4> segments;
    // Decision/outcome record for the extensions; filled in only when one
    // is attached.
    bool report_outcome = false;
    RequestOutcome outcome;
    mpiio::IoCompletion done;
  };

  // Runs the extensions' start stages, then the Identifier.
  Decision Decide(const mpiio::FileRequest& request, device::IoKind kind);
  void Execute(device::IoKind kind, const mpiio::FileRequest& request,
               const Decision& decision, const RoutingPlan& plan,
               mpiio::IoCompletion done);
  ExecJoin* AcquireJoin();
  // Submits the join's segments (after the metadata delay).
  void DispatchSegments(ExecJoin* join);
  // One segment resolved; the last one resolves the request.
  void JoinArrive(ExecJoin* join, SimTime t, bool ok);
  void StampPlanContent(const mpiio::FileRequest& request,
                        const RoutingPlan& plan);
  void SetupObservability();
  std::uint32_t RankLane(int rank);
  // Promotes queued read `id` (if still queued) to a stale DServer read.
  void PromoteQueuedRead(std::uint64_t id);
  // Serves a dirty-blocked read from the stale DServer copy, reporting the
  // bypassed dirty ranges through the loss hook.
  void ServeStale(const mpiio::FileRequest& request, const Decision& decision,
                  const RoutingPlan& plan, mpiio::IoCompletion done);

  sim::Engine& engine_;
  pfs::FileSystem& dservers_;
  pfs::FileSystem& cservers_;
  CostModel cost_model_;
  S4DConfig config_;
  TierSignals tier_;
  ExtensionList extensions_;

  CriticalDataTable cdt_;
  DataMappingTable dmt_;
  CacheSpaceAllocator space_;
  DataIdentifier identifier_;
  Redirector redirector_;
  Rebuilder rebuilder_;

  std::unordered_set<std::string> open_files_;
  S4DCounters counters_;
  // Busy-until times of the sharded metadata-persistence path.
  std::vector<SimTime> metadata_shard_free_at_;
  // Reads held while the cache tier is down (kQueue mode), re-planned in
  // arrival order on recovery — or promoted to stale after
  // queue_stale_timeout. A held read keeps the decision it was made with
  // and the tenant its allocations are charged to, so it is decided once.
  struct PendingRead {
    std::uint64_t id = 0;
    mpiio::FileRequest request;
    Decision decision;
    int charge_owner = -1;
    mpiio::IoCompletion done;
  };
  std::vector<PendingRead> queued_reads_;
  // Every join made so far, and the idle ones. The pool grows on demand,
  // never in the constructor.
  std::vector<std::unique_ptr<ExecJoin>> join_pool_;
  std::vector<ExecJoin*> join_free_;
  std::uint64_t next_pending_id_ = 1;
  DirtyLossHook dirty_loss_hook_;

  // Observability (null = not observed). Handles resolved once.
  obs::Observability* obs_ = nullptr;
  std::uint32_t metadata_lane_ = 0;
  std::uint32_t middleware_lane_ = 0;
  std::vector<std::uint32_t> rank_lanes_;
  obs::Counter* obs_reads_ = nullptr;
  obs::Counter* obs_writes_ = nullptr;
  obs::Counter* obs_cserver_bytes_ = nullptr;
  obs::Counter* obs_dserver_bytes_ = nullptr;
  obs::Histogram* obs_read_latency_ns_ = nullptr;
  obs::Histogram* obs_write_latency_ns_ = nullptr;
  obs::Histogram* obs_benefit_ns_ = nullptr;  // positive B values only
  obs::Counter* obs_noncritical_ = nullptr;   // decisions with B <= 0
};

}  // namespace s4d::core
