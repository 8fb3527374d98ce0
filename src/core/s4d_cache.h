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
#pragma once

#include <memory>
#include <string>
#include <unordered_set>

#include "core/cdt.h"
#include "core/cost_model.h"
#include "core/data_identifier.h"
#include "core/dmt.h"
#include "core/rebuilder.h"
#include "core/redirector.h"
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
  // admissions; see DataIdentifier::SetHealthProbe. Values <= 1 disable
  // the veto (the scaled benefit still applies).
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

// Per-request completion record handed to the policy subsystem's observer:
// everything needed to compare the cost model's promise against what the
// routed request actually experienced.
struct RequestOutcome {
  std::string file;
  int rank = -1;  // issuing MPI rank (tenant attribution)
  device::IoKind kind = device::IoKind::kRead;
  byte_count offset = 0;
  byte_count size = 0;
  SimTime benefit = 0;            // health-scaled B at decision time
  SimTime predicted_dserver = 0;  // model's T_D at decision time
  SimTime predicted_cserver = 0;  // model's health-scaled T_C at decision time
  bool admitted = false;          // the plan created a new mapping
  byte_count cache_bytes = 0;
  byte_count dserver_bytes = 0;
  SimTime issued_at = 0;
  SimTime latency = 0;
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
  DataIdentifier& identifier() { return identifier_; }
  const CostModel& cost_model() const { return cost_model_; }
  const S4DConfig& config() const { return config_; }

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

  // True while every CServer is up and reachable; foreground routing and
  // the Rebuilder poll this on every decision.
  bool CacheTierAvailable() const { return cservers_.AllServersReachable(); }

  // Worst per-device degradation factor across the cache tier (1.0 =
  // healthy). Fed into the Data Identifier so degraded SSDs stop
  // attracting admissions (health-aware admission, ROADMAP).
  double CacheTierSlowdown() const;

  // Mean per-server queue depth across the cache tier right now — the
  // pressure signal the policy subsystem's LBICA-style admission veto
  // consults. With a queue-pressure probe installed (calibration
  // subsystem), the probe's client-side outstanding-sub-request counters
  // replace the servers' internal queue lengths.
  double CacheTierMeanQueueDepth() const;

  // --- calibration subsystem hooks ---------------------------------------
  // Installs (or clears) the live cost-calibration provider on the owned
  // CostModel; the DataIdentifier reads the model by reference, so fitted
  // estimates flow into every admission decision. Not owned.
  void SetCostCalibration(const CostCalibration* calibration) {
    cost_model_.SetCalibration(calibration);
  }
  // Replaces CacheTierMeanQueueDepth's server-side reading with a
  // client-side one (see above).
  void SetQueuePressureProbe(std::function<double()> probe) {
    queue_pressure_probe_ = std::move(probe);
  }
  // Fitted mean queue delay across the cache tier; 0 without a probe. The
  // policy subsystem's time-unit pressure veto consults this.
  void SetQueueDelayProbe(std::function<SimTime()> probe) {
    queue_delay_probe_ = std::move(probe);
  }
  SimTime CacheTierQueueDelayEstimate() const {
    return queue_delay_probe_ ? queue_delay_probe_() : 0;
  }

  // --- policy subsystem hooks --------------------------------------------
  // Fires once per foreground request, at completion time, with the full
  // decision/outcome record. Null (the default) costs nothing.
  using RequestObserver = std::function<void(const RequestOutcome&)>;
  void SetRequestObserver(RequestObserver observer) {
    request_observer_ = std::move(observer);
  }
  const RequestObserver& request_observer() const { return request_observer_; }

  // Extra audit run at the end of AuditInvariants() — lets an attached
  // policy engine's invariants ride the paranoid-build and test audits.
  void SetExtraAudit(std::function<void()> audit) {
    extra_audit_ = std::move(audit);
  }
  const std::function<void()>& extra_audit() const { return extra_audit_; }

  // --- tenant subsystem hooks --------------------------------------------
  // Fires at the top of every foreground Read/Write, before the Identifier
  // runs — the tenant subsystem uses it to tag the request's partition
  // (Redirector::set_charge_owner) so every allocation the plan makes is
  // charged to the right tenant. Null (the default) costs nothing.
  using RequestStartHook =
      std::function<void(const mpiio::FileRequest&, device::IoKind)>;
  void SetRequestStartHook(RequestStartHook hook) {
    request_start_ = std::move(hook);
  }

  // Worst wear fraction (cumulative NAND writes / lifetime P/E budget)
  // across the cache tier's SSDs; 0.0 when no wear budget is configured.
  double CacheTierWearFraction() const;

  // Called (by the FaultInjector) once the last down CServer restarted:
  // re-issues reads queued in kQueue mode and runs the Rebuilder's
  // crash-recovery pass over the persisted DMT.
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

  void Execute(device::IoKind kind, const mpiio::FileRequest& request,
               RoutingPlan plan, mpiio::IoCompletion done);
  void StampPlanContent(const mpiio::FileRequest& request,
                        const RoutingPlan& plan);
  void SetupObservability();
  std::uint32_t RankLane(int rank);
  // Promotes queued read `id` (if still queued) to a stale DServer read.
  void PromoteQueuedRead(std::uint64_t id);
  // Serves a dirty-blocked read from the stale DServer copy, reporting the
  // bypassed dirty ranges through the loss hook.
  void ServeStale(const mpiio::FileRequest& request, RoutingPlan plan,
                  mpiio::IoCompletion done);

  sim::Engine& engine_;
  pfs::FileSystem& dservers_;
  pfs::FileSystem& cservers_;
  CostModel cost_model_;
  S4DConfig config_;

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
  // Reads held while the cache tier is down (kQueue mode), re-issued in
  // arrival order on recovery — or promoted to stale after
  // queue_stale_timeout.
  struct PendingRead {
    std::uint64_t id = 0;
    mpiio::FileRequest request;
    mpiio::IoCompletion done;
  };
  std::vector<PendingRead> queued_reads_;
  std::uint64_t next_pending_id_ = 1;
  DirtyLossHook dirty_loss_hook_;
  RequestObserver request_observer_;
  std::function<double()> queue_pressure_probe_;
  std::function<SimTime()> queue_delay_probe_;
  RequestStartHook request_start_;
  std::function<void()> extra_audit_;

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
