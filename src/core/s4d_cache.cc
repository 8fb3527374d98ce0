#include "core/s4d_cache.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"

namespace s4d::core {

S4DCache::S4DCache(sim::Engine& engine, pfs::FileSystem& dservers,
                   pfs::FileSystem& cservers, CostModel cost_model,
                   S4DConfig config, kv::KvStore* dmt_store)
    : engine_(engine),
      dservers_(dservers),
      cservers_(cservers),
      cost_model_(std::move(cost_model)),
      config_(std::move(config)),
      tier_(cservers_, cost_model_),
      files_(dservers_, cservers_),
      dmt_(dmt_store, &files_),
      space_(config_.cache_capacity, cservers.config().stripe.stripe_size),
      identifier_(cost_model_, cdt_, tier_, config_.cache_unhealthy_degrade),
      redirector_(
          cdt_, dmt_, space_, config_.policy,
          [this](FileIndex orig_file, byte_count cache_offset,
                 byte_count length) {
            // Scrub recycled cache space (verification content).
            cservers_.EraseContent(files_.CServerFile(orig_file), cache_offset,
                                   length);
          },
          tier_, &extensions_),
      rebuilder_(engine_, dservers_, cservers_, files_, dmt_, cdt_,
                 redirector_, tier_, config_.rebuilder) {
  // Dirty-age accounting: stamp clean→dirty transitions with sim time.
  dmt_.SetClock([this] { return engine_.now(); });
  if (dmt_store != nullptr) {
    const Status s = dmt_.LoadFromStore();
    if (!s.ok()) {
      S4D_WARN("DMT recovery failed, starting empty: " + s.ToString());
    } else {
      // Recovered mappings re-claim their exact prior cache-file offsets.
      // A mapping that no longer fits (e.g. the configured capacity shrank)
      // is dropped — safe for clean data; a dropped *dirty* mapping is a
      // real loss, so it is logged loudly.
      for (const RemovedExtent& ext : dmt_.AllExtents()) {
        if (space_.Reserve(ext.cache_offset, ext.length())) continue;
        if (ext.dirty) {
          S4D_ERROR("dropping unrecoverable dirty mapping for " +
                    files_.name(ext.file));
        }
        (void)dmt_.Invalidate(ext.file, ext.orig_begin, ext.length());
      }
    }
  }
  metadata_shard_free_at_.assign(
      static_cast<std::size_t>(std::max(1, config_.dmt_shards)), 0);
  SetupObservability();
  if (config_.enable_rebuilder) rebuilder_.Start();
}

void S4DCache::SetupObservability() {
  obs_ = config_.obs;
  if (obs_ == nullptr) return;
  metadata_lane_ = obs_->tracer.Lane("metadata");
  middleware_lane_ = obs_->tracer.Lane("middleware");
  obs::MetricsRegistry& m = obs_->metrics;
  obs_reads_ = m.GetCounter("s4d.read.requests");
  obs_writes_ = m.GetCounter("s4d.write.requests");
  obs_cserver_bytes_ = m.GetCounter("s4d.cserver_bytes");
  obs_dserver_bytes_ = m.GetCounter("s4d.dserver_bytes");
  obs_read_latency_ns_ = m.GetHistogram("s4d.read.latency_ns");
  obs_write_latency_ns_ = m.GetHistogram("s4d.write.latency_ns");
  obs_benefit_ns_ = m.GetHistogram("core.benefit_ns");
  obs_noncritical_ = m.GetCounter("core.noncritical_decisions");
  // Aggregate middleware state, evaluated lazily at sample/export time so
  // the hot paths that maintain it are untouched.
  m.SetGaugeFn("s4d.dirty_bytes",
               [this] { return static_cast<double>(dmt_.dirty_bytes()); });
  m.SetGaugeFn("s4d.cache_used_bytes",
               [this] { return static_cast<double>(space_.used_bytes()); });
  m.SetGaugeFn("s4d.cache_occupancy", [this] { return space_.occupancy(); });
  m.SetGaugeFn("s4d.cache_fragmentation",
               [this] { return space_.fragmentation(); });
  m.SetGaugeFn("s4d.cache_tier_slowdown", [this] { return tier_.Slowdown(); });
  m.SetGaugeFn("s4d.read_hit_ratio", [this] {
    const RedirectorStats& s = redirector_.stats();
    return s.read_requests > 0
               ? static_cast<double>(s.read_cache_hits + s.read_partial_hits) /
                     static_cast<double>(s.read_requests)
               : 0.0;
  });
  m.SetGaugeFn("core.redirector.admissions", [this] {
    return static_cast<double>(redirector_.stats().write_admissions);
  });
  m.SetGaugeFn("core.redirector.evictions", [this] {
    return static_cast<double>(redirector_.stats().evictions);
  });
  m.SetGaugeFn("core.identifier.critical", [this] {
    return static_cast<double>(identifier_.stats().critical);
  });
  m.SetGaugeFn("core.identifier.health_rejections", [this] {
    return static_cast<double>(identifier_.stats().health_rejections);
  });
  rebuilder_.SetObservability(obs_);
}

std::uint32_t S4DCache::RankLane(int rank) {
  if (rank < 0) return middleware_lane_;
  const auto idx = static_cast<std::size_t>(rank);
  constexpr std::uint32_t kUnset = 0xffffffffu;
  if (idx >= rank_lanes_.size()) rank_lanes_.resize(idx + 1, kUnset);
  if (rank_lanes_[idx] == kUnset) {
    rank_lanes_[idx] = obs_->tracer.Lane("rank" + std::to_string(rank));
  }
  return rank_lanes_[idx];
}

S4DCache::~S4DCache() { rebuilder_.Stop(); }

void S4DCache::Attach(CacheExtension& extension, bool selects_victims) {
  extensions_.attached.push_back(&extension);
  if (!selects_victims) return;
  S4D_CHECK(extensions_.victim_selector == nullptr)
      << "a second extension asked to select victims";
  extensions_.victim_selector = &extension;
}

void S4DCache::Open(const std::string& file) {
  // §IV-B MPI_File_open: resolve the file's id, open the original file and
  // its companion cache file (and make sure the DMT is resident — ours
  // always is).
  const FileIndex id = files_.Intern(file);
  files_.DServerFile(id);
  files_.CServerFile(id);
}

// The id and both files stay resolved: a reopen finds them.
void S4DCache::Close(const std::string& /*file*/) {}

void S4DCache::StampPlanContent(const mpiio::FileRequest& request,
                                FileIndex file, const RoutingPlan& plan) {
  if (request.content_token == 0) return;
  for (const IoSegment& seg : plan.segments) {
    if (seg.target == IoSegment::Target::kCServers) {
      cservers_.StampContent(files_.CServerFile(file), seg.offset, seg.size,
                             request.content_token);
    } else {
      dservers_.StampContent(files_.DServerFile(file), seg.offset, seg.size,
                             request.content_token);
    }
  }
}

S4DCache::ExecJoin* S4DCache::AcquireJoin() {
  if (join_free_.empty()) {
    join_pool_.push_back(std::make_unique<ExecJoin>());
    join_free_.push_back(join_pool_.back().get());
  }
  ExecJoin* join = join_free_.back();
  join_free_.pop_back();
  return join;
}

void S4DCache::Execute(device::IoKind kind, const mpiio::FileRequest& request,
                       FileIndex file, const Decision& decision,
                       const RoutingPlan& plan, mpiio::IoCompletion done) {
  S4D_DCHECK(!plan.segments.empty());

  // Routing accounting (Table III): a request counts toward the side that
  // serves it; split requests count toward both plus the split counter.
  const byte_count c_bytes = plan.cache_bytes();
  const byte_count d_bytes = plan.dserver_bytes();
  if (c_bytes > 0 && d_bytes > 0) ++counters_.split_requests;
  if (c_bytes > 0) ++counters_.cserver_requests;
  if (d_bytes > 0) ++counters_.dserver_requests;
  counters_.cserver_bytes += c_bytes;
  counters_.dserver_bytes += d_bytes;

  const SimTime issued_at = engine_.now();
  obs::SpanId span = obs::kNoSpan;
  if (obs_ != nullptr) {
    const bool is_read = kind == device::IoKind::kRead;
    (is_read ? obs_reads_ : obs_writes_)->Inc();
    obs_cserver_bytes_->Add(c_bytes);
    obs_dserver_bytes_->Add(d_bytes);
    if (decision.benefit > 0) {
      obs_benefit_ns_->Record(decision.benefit);
    } else {
      obs_noncritical_->Inc();
    }
    if (obs_->tracing()) {
      span = obs_->tracer.Begin(RankLane(request.rank),
                                device::IoKindName(kind), "s4d", issued_at);
      obs_->tracer.AddArg(span, "offset", request.offset);
      obs_->tracer.AddArg(span, "size", request.size);
      obs_->tracer.AddArg(
          span, "route",
          std::string(c_bytes > 0 && d_bytes > 0 ? "split"
                      : c_bytes > 0              ? "cservers"
                                                 : "dservers"));
      obs_->tracer.AddArg(span, "B_ns", decision.benefit);
      if (plan.admitted) obs_->tracer.AddArg(span, "admitted", 1);
      if (plan.blocked_on_cache) obs_->tracer.AddArg(span, "stale", 1);
    }
  }

  ExecJoin* join = AcquireJoin();
  join->kind = kind;
  join->orig_id = files_.DServerFile(file);
  join->cache_id =
      c_bytes > 0 ? files_.CServerFile(file) : pfs::kInvalidFile;
  join->remaining = static_cast<int>(plan.segments.size());
  join->failed = false;
  join->last = 0;
  join->issued_at = issued_at;
  join->span = span;
  join->segments = plan.segments;
  join->report_outcome = !extensions_.attached.empty();
  if (join->report_outcome) {
    RequestOutcome& outcome = join->outcome;
    outcome.rank = request.rank;
    outcome.kind = kind;
    outcome.offset = request.offset;
    outcome.size = request.size;
    outcome.benefit = decision.benefit;
    outcome.predicted_dserver = decision.dserver_cost;
    outcome.predicted_cserver = decision.cserver_cost;
    outcome.admitted = plan.admitted;
    outcome.cache_bytes = c_bytes;
    outcome.dserver_bytes = d_bytes;
    outcome.issued_at = issued_at;
  }
  join->done = std::move(done);

  // The in-memory bookkeeping (cost model, CDT/DMT lookups) delays the
  // physical I/O by a small constant (§V-E.2); a plan that changed the
  // mapping additionally waits for the synchronous DMT persist (§III-D) —
  // one writer at a time per metadata shard.
  SimTime delay = config_.metadata_overhead_per_op;
  if (plan.dmt_mutated && config_.dmt_update_latency > 0) {
    const std::size_t shard =
        (files_.name_hash(file) ^
         static_cast<std::size_t>(request.offset / MiB)) %
        metadata_shard_free_at_.size();
    SimTime& free_at = metadata_shard_free_at_[shard];
    const SimTime start = std::max(engine_.now(), free_at);
    free_at = start + config_.dmt_update_latency;
    delay += free_at - engine_.now();
    if (span != obs::kNoSpan) {
      const obs::SpanId persist = obs_->tracer.Complete(
          metadata_lane_, "dmt_persist", "metadata", start,
          config_.dmt_update_latency, span);
      obs_->tracer.AddArg(persist, "shard", static_cast<std::int64_t>(shard));
    }
  }
  engine_.ScheduleAfter(delay, [this, join]() { DispatchSegments(join); });
}

void S4DCache::DispatchSegments(ExecJoin* join) {
  // {this, join}: 16 bytes, so each std::function stores it inline.
  for (const IoSegment& seg : join->segments) {
    auto on_complete = [this, join](SimTime t) { JoinArrive(join, t, true); };
    auto on_failure = [this, join](SimTime t) { JoinArrive(join, t, false); };
    if (seg.target == IoSegment::Target::kCServers) {
      cservers_.Submit(join->cache_id, join->kind, seg.offset, seg.size,
                       pfs::Priority::kNormal, on_complete, on_failure,
                       join->span);
    } else {
      dservers_.Submit(join->orig_id, join->kind, seg.offset, seg.size,
                       pfs::Priority::kNormal, on_complete, on_failure,
                       join->span);
    }
  }
}

void S4DCache::JoinArrive(ExecJoin* join, SimTime t, bool ok) {
  join->last = std::max(join->last, t);
  if (!ok) join->failed = true;
  if (--join->remaining > 0) return;
  if (join->failed) ++counters_.failed_requests;
  if (obs_ != nullptr) {
    (join->kind == device::IoKind::kRead ? obs_read_latency_ns_
                                         : obs_write_latency_ns_)
        ->Record(join->last - join->issued_at);
    if (join->span != obs::kNoSpan) {
      obs_->tracer.End(join->span, join->last);
      if (join->failed) obs_->tracer.AddArg(join->span, "failed", 1);
    }
  }
  if (join->report_outcome) {
    join->outcome.latency = join->last - join->issued_at;
    for (CacheExtension* extension : extensions_.attached) {
      extension->OnOutcome(join->outcome);
    }
  }
  // Recycle before completing: `done` may issue the rank's next request,
  // which takes a join from the free list (maybe this one).
  mpiio::IoCompletion done = std::move(join->done);
  join->done = nullptr;
  const SimTime last = join->last;
  join_free_.push_back(join);
  if (done) done(last);
}

Decision S4DCache::Decide(const mpiio::FileRequest& request, FileIndex file,
                          device::IoKind kind) {
  MaybeAudit();
  int owner = -1;
  for (CacheExtension* extension : extensions_.attached) {
    owner = std::max(owner, extension->OnRequestStart(request, kind));
  }
  Decision decision =
      identifier_.Identify(file, request.rank, kind, request.offset,
                           request.size, extensions_.attached);
  decision.owner = owner;
  return decision;
}

void S4DCache::Write(const mpiio::FileRequest& request,
                     mpiio::IoCompletion done) {
  S4D_CHECK(request.size > 0) << "zero-size write on " << request.file;
  const FileIndex file = files_.Intern(request.file);
  const Decision decision = Decide(request, file, device::IoKind::kWrite);
  RoutingPlan plan = redirector_.PlanWrite(file, request.offset, request.size,
                                           decision.critical, decision.owner);
  StampPlanContent(request, file, plan);
  Execute(device::IoKind::kWrite, request, file, decision, plan,
          std::move(done));
}

void S4DCache::Read(const mpiio::FileRequest& request,
                    mpiio::IoCompletion done) {
  S4D_CHECK(request.size > 0) << "zero-size read on " << request.file;
  const FileIndex file = files_.Intern(request.file);
  const Decision decision = Decide(request, file, device::IoKind::kRead);
  RoutingPlan plan = redirector_.PlanRead(file, request.offset, request.size,
                                          decision.critical, decision.owner);
  if (plan.blocked_on_cache) {
    // Degraded mode, dirty overlap: the only up-to-date copy is on the
    // unreachable cache tier.
    if (config_.degraded_read_mode == DegradedReadMode::kQueue) {
      ++counters_.queued_degraded_reads;
      const std::uint64_t id = next_pending_id_++;
      queued_reads_.push_back(
          PendingRead{id, request, file, decision, std::move(done)});
      if (obs_ != nullptr && obs_->tracing()) {
        const obs::SpanId i = obs_->tracer.Instant(
            RankLane(request.rank), "read_queued", "s4d", engine_.now());
        obs_->tracer.AddArg(i, "offset", request.offset);
        obs_->tracer.AddArg(i, "size", request.size);
      }
      // A rank must not block forever when no recovery ever comes: after
      // the timeout the read is promoted to a stale DServer read.
      if (config_.queue_stale_timeout > 0) {
        engine_.ScheduleAfter(config_.queue_stale_timeout,
                              [this, id]() { PromoteQueuedRead(id); });
      }
      return;
    }
    // kServeStale: deliver the DServer copy now; the dirty ranges we are
    // bypassing are part of the reported loss window.
    ++counters_.stale_dirty_reads;
    ServeStale(request, file, decision, plan, std::move(done));
    return;
  }
  Execute(device::IoKind::kRead, request, file, decision, plan,
          std::move(done));
}

void S4DCache::ServeStale(const mpiio::FileRequest& request, FileIndex file,
                          const Decision& decision, const RoutingPlan& plan,
                          mpiio::IoCompletion done) {
  if (dirty_loss_hook_) {
    const DmtLookup lookup = dmt_.Lookup(file, request.offset, request.size);
    for (const MappedSegment& seg : lookup.mapped) {
      if (seg.dirty) {
        dirty_loss_hook_(request.file, seg.orig_begin,
                         seg.orig_end - seg.orig_begin);
      }
    }
  }
  Execute(device::IoKind::kRead, request, file, decision, plan,
          std::move(done));
}

void S4DCache::PromoteQueuedRead(std::uint64_t id) {
  auto it = queued_reads_.begin();
  while (it != queued_reads_.end() && it->id != id) ++it;
  // Already drained by a tier recovery — nothing to promote.
  if (it == queued_reads_.end()) return;
  PendingRead pending = std::move(*it);
  queued_reads_.erase(it);
  ++counters_.promoted_stale_reads;
  ++counters_.stale_dirty_reads;
  if (obs_ != nullptr && obs_->tracing()) {
    const obs::SpanId i =
        obs_->tracer.Instant(RankLane(pending.request.rank), "promoted_stale",
                             "s4d", engine_.now());
    obs_->tracer.AddArg(i, "offset", pending.request.offset);
    obs_->tracer.AddArg(i, "size", pending.request.size);
  }
  // Re-plan as non-critical: the tier is still down, so the plan routes to
  // the DServers; the dirty ranges it bypasses are reported as the loss.
  RoutingPlan plan =
      redirector_.PlanRead(pending.file, pending.request.offset,
                           pending.request.size, false, pending.decision.owner);
  ServeStale(pending.request, pending.file, pending.decision, plan,
             std::move(pending.done));
}

void S4DCache::OnCacheTierRestored() {
  if (!tier_.Reachable()) return;  // another CServer is still down
  rebuilder_.RecoverAfterRestart();
  // Re-plan held reads in arrival order from the decisions they were made
  // with: the mapping survived the crash (non-volatile SSDs + persistent
  // DMT), so they now plan against the recovered cache tier.
  std::vector<PendingRead> pending;
  pending.swap(queued_reads_);
  for (PendingRead& p : pending) {
    RoutingPlan plan =
        redirector_.PlanRead(p.file, p.request.offset, p.request.size,
                             p.decision.critical, p.decision.owner);
    S4D_DCHECK(!plan.blocked_on_cache);
    Execute(device::IoKind::kRead, p.request, p.file, p.decision, plan,
            std::move(p.done));
  }
}

void S4DCache::HandleCacheServerWiped(int server) {
  // Media loss on one CServer: every cache extent with bytes striped onto
  // it lost those bytes. The extent granularity is what the DMT tracks, so
  // any touched extent is dropped whole; for dirty extents that is real
  // data loss — the write-back durability window the paper trades for
  // performance — and is reported, not asserted.
  const pfs::StripeConfig& stripe = cservers_.config().stripe;
  for (const RemovedExtent& ext : dmt_.AllExtents()) {
    bool touches = false;
    for (const pfs::SubRequest& sub :
         pfs::SplitRequest(stripe, ext.cache_offset, ext.length())) {
      if (sub.server == server) {
        touches = true;
        break;
      }
    }
    if (!touches) continue;
    ++counters_.wiped_extents;
    if (ext.dirty) {
      const std::string& name = files_.name(ext.file);
      counters_.lost_dirty_bytes += ext.length();
      if (dirty_loss_hook_) {
        dirty_loss_hook_(name, ext.orig_begin, ext.length());
      }
      S4D_WARN("wiped dirty extent " + name + " [" +
               std::to_string(ext.orig_begin) + ", " +
               std::to_string(ext.orig_end) + ")");
    }
    (void)redirector_.InvalidateAndRelease(ext.file, ext.orig_begin,
                                           ext.length());
  }
}

void S4DCache::StampContent(const std::string& file, byte_count offset,
                            byte_count size, std::uint64_t token) {
  if (size <= 0 || token == 0) return;
  const FileIndex id = files_.Intern(file);
  const DmtLookup lookup = dmt_.Lookup(id, offset, size);
  const pfs::FileId orig_id = files_.DServerFile(id);
  const pfs::FileId cache_id = files_.CServerFile(id);
  for (const MappedSegment& seg : lookup.mapped) {
    cservers_.StampContent(cache_id, seg.cache_offset,
                           seg.orig_end - seg.orig_begin, token);
  }
  for (const auto& [gap_begin, gap_end] : lookup.gaps) {
    dservers_.StampContent(orig_id, gap_begin, gap_end - gap_begin, token);
  }
}

std::vector<mpiio::ContentEntry> S4DCache::ReadContent(const std::string& file,
                                                       byte_count offset,
                                                       byte_count size) {
  // Assemble what an application read would observe right now: mapped
  // ranges come from the cache file, gaps from the original file. Entries
  // are reported in original-file coordinates.
  std::vector<mpiio::ContentEntry> out;
  const FileIndex id = files_.Intern(file);
  const DmtLookup lookup = dmt_.Lookup(id, offset, size);

  const pfs::FileId orig_id = files_.DServerFile(id);
  const pfs::FileId cache_id = files_.CServerFile(id);

  for (const MappedSegment& seg : lookup.mapped) {
    for (const auto& entry : cservers_.ReadContent(
             cache_id, seg.cache_offset, seg.orig_end - seg.orig_begin)) {
      mpiio::ContentEntry translated = entry;
      translated.begin = seg.orig_begin + (entry.begin - seg.cache_offset);
      translated.end = translated.begin + entry.length();
      out.push_back(translated);
    }
  }
  for (const auto& [gap_begin, gap_end] : lookup.gaps) {
    for (const auto& entry :
         dservers_.ReadContent(orig_id, gap_begin, gap_end - gap_begin)) {
      out.push_back(entry);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const mpiio::ContentEntry& a, const mpiio::ContentEntry& b) {
              return a.begin < b.begin;
            });
  return out;
}

void S4DCache::AuditInvariants(bool expect_quiescent) const {
  dmt_.AuditInvariants();
  space_.AuditInvariants();
  cdt_.AuditInvariants();

  // Every mapping owns its cache bytes, and no two mappings share any.
  std::vector<RemovedExtent> extents = dmt_.AllExtents();
  for (const RemovedExtent& ext : extents) {
    S4D_CHECK(space_.IsAllocated(ext.cache_offset, ext.length()))
        << "DMT extent " << files_.name(ext.file) << " [" << ext.orig_begin
        << ", " << ext.orig_end << ") maps cache range [" << ext.cache_offset
        << ", " << ext.cache_offset + ext.length()
        << ") that is (partly) free";
  }
  // Each extent's bytes are charged to the partition it records, so no
  // partition maps more than it is charged for.
  if (space_.partition_tracking()) {
    std::vector<byte_count> mapped_by(
        static_cast<std::size_t>(space_.owner_count()), 0);
    for (const RemovedExtent& ext : extents) {
      mapped_by[static_cast<std::size_t>(space_.PartitionOf(ext.owner))] +=
          ext.length();
    }
    for (int o = 0; o < space_.owner_count(); ++o) {
      const byte_count mapped = mapped_by[static_cast<std::size_t>(o)];
      S4D_CHECK(expect_quiescent ? mapped == space_.used_by(o)
                                 : mapped <= space_.used_by(o))
          << "partition " << o << " maps " << mapped << " bytes but is charged "
          << space_.used_by(o);
    }
  }
  std::sort(extents.begin(), extents.end(),
            [](const RemovedExtent& a, const RemovedExtent& b) {
              return a.cache_offset < b.cache_offset;
            });
  for (std::size_t i = 1; i < extents.size(); ++i) {
    const RemovedExtent& prev = extents[i - 1];
    const RemovedExtent& cur = extents[i];
    S4D_CHECK(prev.cache_offset + prev.length() <= cur.cache_offset)
        << "DMT extents share cache bytes: " << files_.name(prev.file)
        << " [" << prev.orig_begin << ", " << prev.orig_end << ") and "
        << files_.name(cur.file) << " [" << cur.orig_begin << ", "
        << cur.orig_end << ") overlap at " << cur.cache_offset;
  }

  // The allocator covers at least the mapped bytes; the slack is space
  // allocated for in-flight Rebuilder fetches whose mappings land on I/O
  // completion, which a quiescent cache must have none of.
  S4D_CHECK(space_.used_bytes() >= dmt_.mapped_bytes())
      << "allocator used " << space_.used_bytes()
      << " bytes < mapped " << dmt_.mapped_bytes();
  if (expect_quiescent) {
    S4D_CHECK(space_.used_bytes() == dmt_.mapped_bytes())
        << "quiescent cache leaks space: used " << space_.used_bytes()
        << " != mapped " << dmt_.mapped_bytes();
  }

  const IdentifierStats& ident = identifier_.stats();
  S4D_CHECK(ident.critical <= ident.requests)
      << ident.critical << " critical of " << ident.requests << " requests";
  S4D_CHECK(ident.cdt_inserts <= ident.critical)
      << ident.cdt_inserts << " CDT inserts of " << ident.critical
      << " critical decisions";

  // Attached extension state (admission counters, tenant partitions)
  // audits together with the core structures.
  for (const CacheExtension* extension : extensions_.attached) {
    extension->AuditInvariants();
  }
}

}  // namespace s4d::core
