#include "core/data_identifier.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"

namespace s4d::core {

namespace {

using Tail = std::pair<byte_count, std::uint64_t>;

// First tail past `pos` / at or past `pos`.
template <typename It>
It TailAfter(It first, It last, byte_count pos) {
  return std::upper_bound(
      first, last, pos, [](byte_count p, const Tail& t) { return p < t.first; });
}
template <typename It>
It TailAtOrAfter(It first, It last, byte_count pos) {
  return std::lower_bound(
      first, last, pos, [](const Tail& t, byte_count p) { return t.first < p; });
}

}  // namespace

byte_count DataIdentifier::DistanceFor(FileIndex file, int rank,
                                       byte_count offset) const {
  // Global stream table first: a request continuing any rank's recent tail
  // within the servers' readahead reach is a stream continuation, however
  // far the issuing rank itself jumped. The reach in file space is one
  // local window spread over the M servers of the layout.
  const byte_count reach =
      model_.params().hdd.readahead_window * model_.params().hdd_servers;
  if (file < global_tails_.size()) {
    const TailTable& tails = global_tails_[file];
    // Greatest tail at or before `offset` = smallest forward gap.
    auto it = TailAfter(tails.begin(), tails.end(), offset);
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

  auto it = last_end_.find(StreamKey(file, rank));
  // The first request of a stream has no predecessor; treat it as fully
  // random (maximum uncertainty), which is also what a cold disk head sees.
  if (it == last_end_.end()) return model_.params().hdd.capacity;
  // Signed: negative means the stream jumped backward, which server-side
  // readahead cannot absorb.
  return offset - it->second;
}

Decision DataIdentifier::Identify(FileIndex file, int rank,
                                  device::IoKind kind, byte_count offset,
                                  byte_count size,
                                  std::span<CacheExtension* const> extensions) {
  ++stats_.requests;
  const byte_count distance = DistanceFor(file, rank, offset);
  last_end_[StreamKey(file, rank)] = offset + size;

  // Maintain the global tail table: a continuation replaces the tail it
  // extends; anything else opens a new stream, evicting the least recently
  // used tail when the table is full.
  const byte_count reach =
      model_.params().hdd.readahead_window * model_.params().hdd_servers;
  S4D_DCHECK(size >= 0) << "negative request size " << size;
  if (file >= global_tails_.size()) global_tails_.resize(std::size_t{file} + 1);
  TailTable& tails = global_tails_[file];
  const byte_count tail = offset + size;
  const std::uint64_t seq = ++tail_seq_;
  auto next = TailAfter(tails.begin(), tails.end(), offset);
  // Every tail before `next` is at or before `offset`, so `tail` sorts at
  // or after `next`.
  auto pos = TailAtOrAfter(next, tails.end(), tail);
  const bool known = pos != tails.end() && pos->first == tail;
  if (next != tails.begin() && offset - std::prev(next)->first < reach) {
    // The greatest tail at or before `offset` is continued: it moves
    // forward to `tail`, and the tails it passes (usually none) slide down
    // one slot over its old place, so nothing is inserted.
    const auto prev = std::prev(next);
    if (known) {
      pos->second = seq;
      tails.erase(prev);
    } else {
      *std::move(next, pos, prev) = Tail{tail, seq};
    }
  } else if (known) {
    pos->second = seq;
  } else {
    tails.insert(pos, Tail{tail, seq});
  }
  if (tails.size() > kMaxTailsPerFile) {
    // The least recently used tail: the smallest sequence number.
    tails.erase(std::min_element(
        tails.begin(), tails.end(),
        [](const Tail& a, const Tail& b) { return a.second < b.second; }));
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
  // verdict — feedback thresholds, pressure and endurance vetoes lower it.
  if (!extensions.empty()) {
    const AdmissionContext ctx{rank, kind, offset, size, distance,
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
