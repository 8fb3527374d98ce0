#include "fault/fault_injector.h"

#include <algorithm>
#include <cstdio>

#include "core/s4d_cache.h"

namespace s4d::fault {

FaultInjector::FaultInjector(sim::Engine& engine, pfs::FileSystem& dservers,
                             pfs::FileSystem& cservers,
                             core::S4DCache* cache)
    : engine_(engine),
      dservers_(dservers),
      cservers_(cservers),
      cache_(cache) {}

void FaultInjector::Arm(const FaultSchedule& schedule) {
  for (const FaultEvent& event : schedule.events()) {
    const SimTime at = std::max(event.time, engine_.now());
    armed_.push_back(
        engine_.ScheduleAt(at, [this, event]() { Apply(event); }));
  }
}

int FaultInjector::Disarm() {
  int cancelled = 0;
  for (sim::EventId id : armed_) {
    if (engine_.Cancel(id)) ++cancelled;
  }
  armed_.clear();
  return cancelled;
}

void FaultInjector::ApplyToServer(const FaultEvent& event, pfs::FileSystem& fs,
                                  int server) {
  pfs::FileServer& target = fs.server(server);
  switch (event.kind) {
    case FaultKind::kCrash:
    case FaultKind::kCrashWipe:
      if (target.up()) {
        target.Crash();
        ++stats_.crashes;
      }
      if (event.kind == FaultKind::kCrashWipe) {
        ++stats_.wipes;
        if (cache_ && event.tier == FaultTier::kCServers) {
          cache_->HandleCacheServerWiped(server);
        }
      }
      break;
    case FaultKind::kRestart:
      if (!target.up()) {
        target.Restart();
        ++stats_.restarts;
      }
      break;
    case FaultKind::kDeviceDegrade:
      target.device().SetDegrade(event.value);
      ++stats_.degrades;
      break;
    case FaultKind::kLinkDegrade:
      target.mutable_link().SetDegrade(event.value);
      ++stats_.degrades;
      break;
    case FaultKind::kPartition:
      target.SetPartitioned(true);
      ++stats_.partitions;
      break;
    case FaultKind::kHeal:
      target.SetPartitioned(false);
      ++stats_.partitions;
      break;
    case FaultKind::kBgErrorRate:
      // Seed derived from the server index so every server draws an
      // independent — but reproducible — error sequence.
      target.SetBackgroundErrorRate(
          event.value,
          0x5eedULL * 2654435761ULL + static_cast<std::uint64_t>(server + 1));
      ++stats_.bg_error_sets;
      break;
  }
}

void FaultInjector::SetObservability(obs::Observability* obs) {
  obs_ = obs;
  if (obs_ == nullptr) return;
  lane_ = obs_->tracer.Lane("faults");
  obs_events_ = obs_->metrics.GetCounter("fault.events");
}

void FaultInjector::Apply(const FaultEvent& event) {
  pfs::FileSystem& fs = tier(event.tier);
  ++stats_.events_applied;
  if (obs_ != nullptr) {
    obs_events_->Inc();
    if (obs_->tracing()) {
      const obs::SpanId i = obs_->tracer.Instant(
          lane_, FaultKindName(event.kind), "fault", engine_.now());
      obs_->tracer.AddArg(i, "tier", std::string(FaultTierName(event.tier)));
      obs_->tracer.AddArg(i, "server",
                          static_cast<std::int64_t>(event.server));
      if (event.kind == FaultKind::kDeviceDegrade ||
          event.kind == FaultKind::kLinkDegrade ||
          event.kind == FaultKind::kBgErrorRate) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.12g", event.value);
        obs_->tracer.AddArg(i, "value", std::string(buf));
      }
    }
  }
  if (event.server == kAllServers) {
    for (int i = 0; i < fs.server_count(); ++i) ApplyToServer(event, fs, i);
  } else if (event.server < fs.server_count()) {
    ApplyToServer(event, fs, event.server);
  }
  // Recovery notification: once the cache tier is fully reachable again
  // (last restart or heal just landed), let the middleware re-issue queued
  // reads and replay the persisted DMT.
  if (cache_ && event.tier == FaultTier::kCServers &&
      (event.kind == FaultKind::kRestart || event.kind == FaultKind::kHeal) &&
      cservers_.AllServersReachable()) {
    cache_->OnCacheTierRestored();
  }
}

}  // namespace s4d::fault
