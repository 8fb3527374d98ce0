#include "core/data_identifier.h"

#include <cstdlib>

namespace s4d::core {

byte_count DataIdentifier::DistanceFor(const std::string& file, int rank,
                                       byte_count offset) const {
  // Global stream table first: a request continuing any rank's recent tail
  // within the servers' readahead reach is a stream continuation, however
  // far the issuing rank itself jumped. The reach in file space is one
  // local window spread over the M servers of the layout.
  const byte_count reach =
      model_.params().hdd.readahead_window * model_.params().hdd_servers;
  if (auto git = global_tails_.find(file); git != global_tails_.end()) {
    const auto& tails = git->second;
    // Greatest tail at or before `offset` = smallest forward gap.
    auto it = tails.upper_bound(offset);
    if (it != tails.begin()) {
      auto prev = std::prev(it);
      const byte_count gap = offset - prev->first;
      if (gap >= 0 && gap < reach) return gap;
    }
    // A request just *behind* a tail touches data that stream recently
    // passed — still resident in the servers' caches; report the negative
    // in-cache gap so the cost model scores it as a stream access.
    if (it != tails.end()) {
      const byte_count back_gap = offset - it->first;  // negative
      if (-back_gap <= reach) return back_gap;
    }
  }

  auto it = last_end_.find(StreamKey{file, rank});
  // The first request of a stream has no predecessor; treat it as fully
  // random (maximum uncertainty), which is also what a cold disk head sees.
  if (it == last_end_.end()) return model_.params().hdd.capacity;
  // Signed: negative means the stream jumped backward, which server-side
  // readahead cannot absorb.
  return offset - it->second;
}

Decision DataIdentifier::Identify(const std::string& file, int rank,
                                  device::IoKind kind, byte_count offset,
                                  byte_count size,
                                  std::span<CacheExtension* const> extensions) {
  ++stats_.requests;
  const byte_count distance = DistanceFor(file, rank, offset);
  last_end_[StreamKey{file, rank}] = offset + size;

  // Maintain the global tail table: a continuation replaces the tail it
  // extends; anything else opens a new stream, evicting the least recently
  // used tail when the table is full.
  const byte_count reach =
      model_.params().hdd.readahead_window * model_.params().hdd_servers;
  auto& tails = global_tails_[file];
  auto it = tails.upper_bound(offset);
  if (it != tails.begin()) {
    auto prev = std::prev(it);
    if (offset - prev->first >= 0 && offset - prev->first < reach) {
      tails.erase(prev);
    }
  }
  tails[offset + size] = ++tail_seq_;
  if (tails.size() > kMaxTailsPerFile) {
    auto victim = tails.begin();
    for (auto scan = tails.begin(); scan != tails.end(); ++scan) {
      if (scan->second < victim->second) victim = scan;
    }
    tails.erase(victim);
  }

  // Health-aware admission: T_C stretches by the tier's current slowdown,
  // and a tier degraded past the threshold is vetoed outright — the
  // latency model is blind to the aggregate-bandwidth loss of a slow tier.
  const double scale = tier_.Slowdown();
  Decision decision;
  decision.dserver_cost = model_.DServerCost(distance, offset, size);
  decision.cserver_cost = model_.CServerCost(kind, offset, size, scale);
  decision.benefit = decision.dserver_cost - decision.cserver_cost;  // Eq. 8
  decision.critical = decision.benefit > 0;
  if (decision.critical && unhealthy_threshold_ > 1.0 &&
      scale >= unhealthy_threshold_) {
    decision.critical = false;
    ++stats_.health_rejections;
  } else if (!decision.critical && scale > 1.0 &&
             model_.IsCritical(kind, distance, offset, size)) {
    // Would have been admitted against the healthy profile.
    ++stats_.health_rejections;
  }
  // Extension admission stages see every request and may override the
  // verdict — ghost-assisted admission raises it, feedback thresholds,
  // pressure and endurance vetoes lower it.
  if (!extensions.empty()) {
    const AdmissionContext ctx{file,   rank, kind,
                               offset, size, distance,
                               decision.benefit, decision.dserver_cost,
                               decision.cserver_cost};
    for (CacheExtension* extension : extensions) {
      decision.critical = extension->Admit(ctx, decision.critical);
    }
  }
  if (decision.critical) {
    ++stats_.critical;
    if (cdt_.Add(CdtKey{file, offset, size})) ++stats_.cdt_inserts;
  }
  return decision;
}

}  // namespace s4d::core
