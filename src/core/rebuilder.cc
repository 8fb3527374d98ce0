#include "core/rebuilder.h"

#include <utility>

#include "common/check.h"

namespace s4d::core {

// In-flight state of one coalesced write-back run. `resolved` flips exactly
// once — on success, on the first failed sub-I/O, or on watchdog timeout —
// and every later callback for the run becomes a no-op, so a stalled read
// completing long after the timeout cannot mark extents clean spuriously.
struct Rebuilder::FlushRun {
  DirtyRun run;
  pfs::FileId cache_id = pfs::kInvalidFile;
  pfs::FileId orig_id = pfs::kInvalidFile;
  int reads_left = 0;
  bool read_failed = false;
  bool resolved = false;
  sim::EventId timeout_event = sim::kInvalidEvent;
  SimTime started_at = 0;
  obs::SpanId span = obs::kNoSpan;
};

void Rebuilder::SetObservability(obs::Observability* obs) {
  obs_ = obs;
  if (obs_ == nullptr) return;
  lane_ = obs_->tracer.Lane("rebuilder");
  obs_flush_runs_ = obs_->metrics.GetCounter("rebuilder.flush_runs");
  obs_flushed_bytes_ = obs_->metrics.GetCounter("rebuilder.flushed_bytes");
  obs_flush_aborts_ = obs_->metrics.GetCounter("rebuilder.flush_aborts");
  obs_fetches_ = obs_->metrics.GetCounter("rebuilder.fetches");
  obs_fetched_bytes_ = obs_->metrics.GetCounter("rebuilder.fetched_bytes");
  obs_fetch_failures_ = obs_->metrics.GetCounter("rebuilder.fetch_failures");
  obs_flush_run_ns_ = obs_->metrics.GetHistogram("rebuilder.flush_run_ns");
}

Rebuilder::Rebuilder(
    sim::Engine& engine, pfs::FileSystem& dservers, pfs::FileSystem& cservers,
    DataMappingTable& dmt, CriticalDataTable& cdt, Redirector& redirector,
    TierSignals tier, std::string cache_file_suffix, RebuilderConfig config)
    : engine_(engine),
      dservers_(dservers),
      cservers_(cservers),
      dmt_(dmt),
      cdt_(cdt),
      redirector_(redirector),
      tier_(tier),
      cache_file_suffix_(std::move(cache_file_suffix)),
      config_(config) {}

void Rebuilder::Start() {
  if (running_) return;
  running_ = true;
  ScheduleNext();
}

void Rebuilder::Stop() {
  running_ = false;
  if (pending_tick_ != sim::kInvalidEvent) {
    engine_.Cancel(pending_tick_);
    pending_tick_ = sim::kInvalidEvent;
  }
}

void Rebuilder::ScheduleNext() {
  if (!running_) return;
  pending_tick_ = engine_.ScheduleAfter(config_.interval, [this]() {
    pending_tick_ = sim::kInvalidEvent;
    Tick();
    ScheduleNext();
  });
}

void Rebuilder::Tick() {
  ++stats_.ticks;
  if (!tier_.Reachable()) {
    // Cache tier down or partitioned: any flush read / fetch write issued
    // now would fail or stall. The periodic tick doubles as the retry loop.
    ++stats_.degraded_skips;
    return;
  }
  if (engine_.now() < retry_at_) return;  // failure backoff window
  FlushDirty();
  FetchCritical();
}

void Rebuilder::RecoverAfterRestart() {
  ++stats_.recovery_passes;
  retry_at_ = 0;
  if (obs_ != nullptr && obs_->tracing()) {
    obs_->tracer.Instant(lane_, "recovery_pass", "rebuilder", engine_.now());
  }
  // Replay the persisted DMT image: every mutation is written through to
  // the store, so the in-memory table *is* the persisted state. Dirty
  // extents found here survived the crash on the CServers' non-volatile
  // SSDs and only lost their flush progress.
  for (const RemovedExtent& ext : dmt_.AllExtents()) {
    if (!ext.dirty) continue;
    ++stats_.recovered_dirty_extents;
    stats_.recovered_dirty_bytes += ext.length();
  }
  if (running_) Tick();  // start flushing the backlog immediately
}

void Rebuilder::AbortFlushRun(const std::shared_ptr<FlushRun>& state) {
  if (state->resolved) return;
  state->resolved = true;
  if (state->timeout_event != sim::kInvalidEvent) {
    engine_.Cancel(state->timeout_event);
    state->timeout_event = sim::kInvalidEvent;
  }
  for (const DirtyRange& seg : state->run.segments) {
    inflight_flush_.erase(seg.key());
  }
  if (obs_ != nullptr) {
    obs_flush_aborts_->Inc();
    if (state->span != obs::kNoSpan) {
      obs_->tracer.End(state->span, engine_.now());
      obs_->tracer.AddArg(state->span, "aborted", 1);
    }
  }
  Backoff();
}

void Rebuilder::FlushDirty() {
  // Dirty extents in file order, coalesced into runs. A run holding an
  // extent whose flush is still in flight is skipped; its bytes still count
  // toward the tick's budget.
  for (DirtyRun& collected :
       dmt_.CollectDirtyRuns(config_.flush_batch_bytes,
                             config_.flush_run_bytes, &inflight_flush_)) {
    auto state = std::make_shared<FlushRun>();
    state->run = std::move(collected);
    const DirtyRun& run = state->run;
    ++stats_.flush_runs_started;
    stats_.flushes_started += static_cast<std::int64_t>(run.segments.size());
    stats_.flushed_bytes += run.length();

    state->cache_id = cservers_.OpenOrCreate(run.file + cache_file_suffix_);
    state->orig_id = dservers_.OpenOrCreate(run.file);
    state->reads_left = static_cast<int>(run.segments.size());
    state->started_at = engine_.now();
    if (obs_ != nullptr) {
      obs_flush_runs_->Inc();
      obs_flushed_bytes_->Add(run.length());
      if (obs_->tracing()) {
        state->span =
            obs_->tracer.Begin(lane_, "flush_run", "rebuilder", engine_.now());
        obs_->tracer.AddArg(state->span, "bytes", run.length());
        obs_->tracer.AddArg(state->span, "segments",
                            static_cast<std::int64_t>(run.segments.size()));
      }
    }

    for (const DirtyRange& seg : run.segments) {
      const bool fresh = inflight_flush_.insert(seg.key()).second;
      S4D_DCHECK(fresh) << "flush issued twice for " << seg.file << " at "
                        << seg.orig_begin;
      // Copy the cached tokens to the original file at issue time — the
      // simulator's linearization point for content effects.
      for (const auto& entry : cservers_.ReadContent(
               state->cache_id, seg.cache_offset, seg.orig_end - seg.orig_begin)) {
        const byte_count orig_pos =
            seg.orig_begin + (entry.begin - seg.cache_offset);
        dservers_.StampContent(state->orig_id, orig_pos, entry.length(),
                               entry.value);
      }
    }

    if (config_.io_timeout > 0) {
      state->timeout_event =
          engine_.ScheduleAfter(config_.io_timeout, [this, state]() {
            state->timeout_event = sim::kInvalidEvent;
            if (state->resolved) return;
            ++stats_.flush_timeouts;
            AbortFlushRun(state);
          });
    }

    // Gather the scattered cache extents (cheap SSD reads), then write the
    // whole run back as one sequential DServer write.
    auto read_arrived = [this, state](bool ok) {
      if (!ok) state->read_failed = true;
      if (--state->reads_left > 0 || state->resolved) return;
      if (state->read_failed) {
        ++stats_.flush_failures;
        AbortFlushRun(state);
        return;
      }
      dservers_.Submit(
          state->orig_id, device::IoKind::kWrite, state->run.orig_begin,
          state->run.length(), pfs::Priority::kBackground,
          [this, state](SimTime) {
            if (state->resolved) return;
            state->resolved = true;
            if (state->timeout_event != sim::kInvalidEvent) {
              engine_.Cancel(state->timeout_event);
              state->timeout_event = sim::kInvalidEvent;
            }
            if (obs_ != nullptr) {
              obs_flush_run_ns_->Record(engine_.now() - state->started_at);
              if (state->span != obs::kNoSpan) {
                obs_->tracer.End(state->span, engine_.now());
              }
            }
            for (const DirtyRange& seg : state->run.segments) {
              inflight_flush_.erase(seg.key());
              if (dmt_.MarkCleanIfVersion(seg.file, seg.orig_begin,
                                          seg.orig_end, seg.version)) {
                ++stats_.flushes_cleaned;
              } else {
                ++stats_.flush_races;
              }
            }
          },
          [this, state](SimTime) {
            // Write-back failed (DServer crash / injected error). The
            // DServer content tokens were stamped at issue time, but the
            // extents stay dirty and will be re-flushed — re-stamping the
            // same tokens is idempotent.
            ++stats_.flush_failures;
            AbortFlushRun(state);
          },
          state->span);
    };
    for (const DirtyRange& seg : run.segments) {
      cservers_.Submit(
          state->cache_id, device::IoKind::kRead, seg.cache_offset,
          seg.orig_end - seg.orig_begin, pfs::Priority::kBackground,
          [read_arrived](SimTime) { read_arrived(true); },
          [read_arrived](SimTime) { read_arrived(false); }, state->span);
    }
  }
}

void Rebuilder::FailFetch(const CdtKey& key) {
  ++stats_.fetch_failures;
  ++stats_.fetches_completed;  // resolves idle() accounting
  if (obs_ != nullptr) {
    obs_fetch_failures_->Inc();
    if (obs_->tracing()) {
      obs_->tracer.Instant(lane_, "fetch_failed", "rebuilder", engine_.now());
    }
  }
  // Drop the placeholder mapping inserted at fetch-issue time — but only
  // its still-clean parts: a foreground write that raced the fetch has
  // dirtied (and now owns) its portion, and that data is real.
  redirector_.InvalidateCleanAndRelease(key.file, key.offset, key.length);
  Backoff();
}

void Rebuilder::FetchCritical() {
  const CacheSpaceAllocator& space = redirector_.space();
  if (parked_ && parked_->free_epoch == space.free_epoch() &&
      parked_->coverage_epoch == dmt_.coverage_epoch() &&
      parked_->cdt_epoch == cdt_.mutation_epoch()) {
    redirector_.set_charge_owner(parked_->charge_owner);
    return;
  }
  parked_.reset();

  // Parking is exact only when every failure is a no-free-bytes failure:
  // the tenant gate has no side effects and can only veto, so such a
  // failure happens whatever the gate says. A failure with enough free
  // bytes (fragmentation, or a gate veto whose quota moves with the sizer
  // clock) retries every tick, and an evicting fetch depends on the dirty
  // state too, so it never parks.
  bool parkable = !config_.fetch_may_evict;
  bool failed_any = false;
  for (const PendingFetch& pending :
       cdt_.PendingFetches(config_.fetch_batch_ranges)) {
    const CdtKey& key = pending.key;
    // Skip ranges that got (partially) cached since the mark: a foreground
    // admission may have raced the lazy fetch.
    const DmtLookup lookup = dmt_.Lookup(key.file, key.offset, key.length);
    if (!lookup.gaps.empty() && !lookup.mapped.empty()) {
      // Partially cached: fetching the gaps piecemeal would fragment the
      // allocation; just clear the flag and let future misses re-mark.
      cdt_.ClearCacheFlag(key);
      parkable = false;
      continue;
    }
    if (lookup.fully_mapped()) {
      cdt_.ClearCacheFlag(key);
      parkable = false;
      continue;
    }

    // Charge the fetched space (and apply the partition gate) to the tenant
    // whose read marked this C_flag; a no-op without partition tracking.
    redirector_.set_charge_owner(pending.owner);
    auto cache_offset = config_.fetch_may_evict
                            ? redirector_.AllocateCacheSpace(key.length)
                            : redirector_.AllocateFreeOnly(key.length);
    if (!cache_offset) {
      ++stats_.fetch_space_failures;
      failed_any = true;
      if (key.length <= space.free_bytes()) parkable = false;
      // Leave the flag set — space may free up by the next tick.
      continue;
    }

    parkable = false;
    ++stats_.fetches_started;
    stats_.fetched_bytes += key.length;
    cdt_.ClearCacheFlag(key);

    const SimTime fetch_start = engine_.now();
    const obs::SpanId fetch_span =
        (obs_ != nullptr && obs_->tracing())
            ? obs_->tracer.Begin(lane_, "fetch", "rebuilder", fetch_start)
            : obs::kNoSpan;
    if (obs_ != nullptr) {
      obs_fetches_->Inc();
      obs_fetched_bytes_->Add(key.length);
      if (fetch_span != obs::kNoSpan) {
        obs_->tracer.AddArg(fetch_span, "bytes", key.length);
      }
    }

    const std::string cache_file = key.file + cache_file_suffix_;
    const pfs::FileId cache_id = cservers_.OpenOrCreate(cache_file);
    const pfs::FileId orig_id = dservers_.OpenOrCreate(key.file);

    // Mapping inserted at issue time (clean): see header comment.
    dmt_.Insert(key.file, key.offset, key.length, *cache_offset,
                /*dirty=*/false);

    // The allocated cache range may be recycled space still carrying a
    // previous tenant's content; clear it so holes in the original file
    // stay holes in the cache copy.
    cservers_.EraseContent(cache_id, *cache_offset, key.length);
    for (const auto& entry :
         dservers_.ReadContent(orig_id, key.offset, key.length)) {
      const byte_count cache_pos = *cache_offset + (entry.begin - key.offset);
      cservers_.StampContent(cache_id, cache_pos, entry.length(), entry.value);
    }

    dservers_.Submit(
        orig_id, device::IoKind::kRead, key.offset, key.length,
        pfs::Priority::kBackground,
        [this, key, cache_id, cache_offset, fetch_span](SimTime) {
          cservers_.Submit(
              cache_id, device::IoKind::kWrite, *cache_offset, key.length,
              pfs::Priority::kBackground,
              [this, fetch_span](SimTime t) {
                ++stats_.fetches_completed;
                if (fetch_span != obs::kNoSpan) obs_->tracer.End(fetch_span, t);
              },
              [this, key, fetch_span](SimTime t) {
                if (fetch_span != obs::kNoSpan) obs_->tracer.End(fetch_span, t);
                FailFetch(key);
              },
              fetch_span);
        },
        [this, key, fetch_span](SimTime t) {
          if (fetch_span != obs::kNoSpan) obs_->tracer.End(fetch_span, t);
          FailFetch(key);
        },
        fetch_span);
  }
  if (parkable && failed_any) {
    parked_ = ParkedFetchPass{space.free_epoch(), dmt_.coverage_epoch(),
                              cdt_.mutation_epoch(),
                              redirector_.charge_owner()};
  }
}

}  // namespace s4d::core
