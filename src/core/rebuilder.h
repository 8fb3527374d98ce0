// Rebuilder (§III-F): the background data-reorganization component.
//
// Triggered periodically, it performs the paper's two operations with
// low-priority (background) I/O so it does not interfere with foreground
// requests:
//   1. Flush — write dirty cached extents back to DServers, then clear
//      their D_flag. A flush is a read from the cache file followed by a
//      write to the original file; the D_flag is cleared only if the extent
//      was not re-dirtied while the flush was in flight (version check).
//   2. Fetch — bring CDT entries whose C_flag is set ("lazy" critical read
//      data, Algorithm 1 line 18) into CServers: allocate cache space, copy
//      DServers -> CServers, insert a clean DMT mapping, clear C_flag. The
//      space is charged to, and the mapping records, the owner the C_flag
//      mark recorded (the tenant whose read marked it).
//
// The DMT mapping for a fetch is inserted at fetch-issue time so that
// foreground writes arriving mid-fetch route to the cache copy and dirty
// it (content tokens are stamped at issue time throughout the simulator,
// so this linearizes consistently); the cost is only a slight timing
// optimism for reads that hit during the fetch's flight time.
//
// Each tick costs the work it does, not the size of the tables: the flush
// pass walks the DMT's dirty-extent index, which reaches each entry without
// a search and reads its flush mark (DataMappingTable::BeginFlush) to skip
// runs already in flight, and a fetch pass that failed every candidate for
// want of free bytes *parks* (see FetchCritical).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/cdt.h"
#include "core/dmt.h"
#include "core/file_table.h"
#include "core/redirector.h"
#include "core/tier_signals.h"
#include "obs/observability.h"
#include "pfs/file_system.h"
#include "sim/engine.h"

namespace s4d::core {

struct RebuilderConfig {
  SimTime interval = FromMillis(100);
  // Flushes are collected in file order and coalesced: extents adjacent in
  // the original file flush as one sequential DServer write (scattered SSD
  // reads feeding one streaming HDD write). Per tick, up to
  // flush_batch_bytes are issued, in runs of at most flush_run_bytes.
  byte_count flush_batch_bytes = 32 * MiB;
  byte_count flush_run_bytes = 4 * MiB;
  std::size_t fetch_batch_ranges = 256;
  // Fault handling. After a failed flush or fetch, no new reorganization
  // I/O is issued until `retry_backoff` has elapsed (the periodic tick is
  // the retry loop; the backoff keeps it from hammering a down tier).
  SimTime retry_backoff = FromMillis(200);
  // Watchdog for in-flight flush runs: a run that has not resolved within
  // this window (e.g. its reads are stalled behind a network partition) is
  // abandoned — the extents stay dirty and are re-collected later. 0
  // disables the watchdog (the default: fault-free runs need no events
  // spent on it).
  SimTime io_timeout = 0;
};

struct RebuilderStats {
  std::int64_t ticks = 0;
  std::int64_t flush_runs_started = 0;  // coalesced write-back runs
  std::int64_t flushes_started = 0;     // individual extents covered
  std::int64_t flushes_cleaned = 0;     // D_flag cleared
  std::int64_t flush_races = 0;         // extent changed mid-flight
  byte_count flushed_bytes = 0;
  std::int64_t fetches_started = 0;
  std::int64_t fetches_completed = 0;
  byte_count fetched_bytes = 0;
  // Fetch attempts that found no cache space. A parked pass makes no
  // attempts, so it adds nothing here.
  std::int64_t fetch_space_failures = 0;
  // Fault handling.
  std::int64_t flush_failures = 0;   // runs aborted by a failed sub-I/O
  std::int64_t flush_timeouts = 0;   // runs abandoned by the watchdog
  std::int64_t fetch_failures = 0;   // fetches aborted by a failed sub-I/O
  std::int64_t degraded_skips = 0;   // ticks skipped: cache tier down
  std::int64_t recovery_passes = 0;
  std::int64_t recovered_dirty_extents = 0;  // re-discovered after restart
  byte_count recovered_dirty_bytes = 0;
};

class Rebuilder {
 public:
  // `files` names the DMT's and the CDT's file ids and holds their files
  // on both tiers. While `tier` reports the cache tier unreachable, ticks
  // do no work (reorganization I/O against a down tier would only fail).
  Rebuilder(sim::Engine& engine, pfs::FileSystem& dservers,
            pfs::FileSystem& cservers, FileTable& files, DataMappingTable& dmt,
            CriticalDataTable& cdt, Redirector& redirector, TierSignals tier,
            RebuilderConfig config);

  // Starts the periodic ticks (idempotent).
  void Start();
  // Stops scheduling further ticks; in-flight I/O still completes.
  void Stop();

  // One reorganization pass; exposed for deterministic tests.
  void Tick();

  // Attaches the shared observability bundle (null detaches): destage runs
  // and fetches appear on the "rebuilder" trace lane and feed
  // rebuilder.* metrics.
  void SetObservability(obs::Observability* obs);

  // Crash-recovery pass, invoked after the cache tier comes back: replays
  // the (persisted) DMT image to re-discover dirty extents that were
  // awaiting flush when the CServer went down, clears the retry backoff,
  // and starts flushing them immediately. The write-back durability window
  // closes as soon as this pass's flushes complete.
  void RecoverAfterRestart();

  const RebuilderStats& stats() const { return stats_; }
  bool running() const { return running_; }

  // Flush runs issued and not yet resolved (written back, aborted by a
  // failed sub-I/O or abandoned by the watchdog).
  std::int64_t flush_runs_in_flight() const { return flush_runs_in_flight_; }

  // No flushes or fetches currently in flight.
  bool idle() const {
    return flush_runs_in_flight_ == 0 &&
           stats_.fetches_started == stats_.fetches_completed;
  }

 private:
  struct FlushRun;

  void ScheduleNext();
  void FlushDirty();
  void FetchCritical();
  void AbortFlushRun(const std::shared_ptr<FlushRun>& run);
  void FailFetch(const CdtKey& key);
  void Backoff() { retry_at_ = engine_.now() + config_.retry_backoff; }

  sim::Engine& engine_;
  pfs::FileSystem& dservers_;
  pfs::FileSystem& cservers_;
  FileTable& files_;
  DataMappingTable& dmt_;
  CriticalDataTable& cdt_;
  Redirector& redirector_;
  TierSignals tier_;
  RebuilderConfig config_;

  bool running_ = false;
  sim::EventId pending_tick_ = sim::kInvalidEvent;
  // Each run resolves exactly once (FlushRun::resolved). Which extents a
  // pass skips comes from the DMT's flush marks.
  std::int64_t flush_runs_in_flight_ = 0;
  // No reorganization I/O is issued before this time (failure backoff).
  SimTime retry_at_ = 0;
  RebuilderStats stats_;

  // A fetch pass that started nothing, cleared no flag, and failed every
  // candidate with key.length > free_bytes() is a pure function of the
  // free list, the DMT's mapped coverage and the CDT. Until one of their
  // epochs moves, a rerun fails the same way, so FetchCritical skips it.
  struct ParkedFetchPass {
    std::uint64_t free_epoch = 0;
    std::uint64_t coverage_epoch = 0;
    std::uint64_t cdt_epoch = 0;
  };
  std::optional<ParkedFetchPass> parked_;

  // Observability (null = not observed).
  obs::Observability* obs_ = nullptr;
  std::uint32_t lane_ = 0;
  obs::Counter* obs_flush_runs_ = nullptr;
  obs::Counter* obs_flushed_bytes_ = nullptr;
  obs::Counter* obs_flush_aborts_ = nullptr;
  obs::Counter* obs_fetches_ = nullptr;
  obs::Counter* obs_fetched_bytes_ = nullptr;
  obs::Counter* obs_fetch_failures_ = nullptr;
  obs::Histogram* obs_flush_run_ns_ = nullptr;
};

}  // namespace s4d::core
