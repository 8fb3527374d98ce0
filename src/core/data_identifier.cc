#include "core/data_identifier.h"

#include <algorithm>
#include <cstddef>
#include <iterator>

#include "common/check.h"

namespace s4d::core {

std::size_t DataIdentifier::TailAfter(const TailTable& tails,
                                      std::uint32_t hint, byte_count offset) {
  // Positions are sorted and distinct, so when the hinted tail is at or
  // before `offset` and the one after it past `offset`, the slot after the
  // hint is the upper bound. Any other hint costs one binary search.
  const std::size_t h = hint;
  if (h < tails.size() && tails[h].first <= offset &&
      (h + 1 == tails.size() || offset < tails[h + 1].first)) {
    return h + 1;
  }
  return static_cast<std::size_t>(
      std::upper_bound(
          tails.begin(), tails.end(), offset,
          [](byte_count p, const Tail& t) { return p < t.first; }) -
      tails.begin());
}

byte_count DataIdentifier::Distance(const TailTable& tails, std::size_t next,
                                    byte_count offset,
                                    byte_count rank_end) const {
  // Global stream table first: a request continuing any rank's recent tail
  // within the servers' readahead reach is a stream continuation, however
  // far the issuing rank itself jumped.
  const byte_count reach = Reach();
  // Greatest tail at or before `offset` = smallest forward gap.
  if (next > 0) {
    const byte_count gap = offset - tails[next - 1].first;
    if (gap < reach) return gap;
  }
  // A request just *behind* a tail touches data that stream recently
  // passed — still resident in the servers' caches; report the negative
  // in-cache gap so the cost model scores it as a stream access.
  if (next < tails.size()) {
    const byte_count back_gap = offset - tails[next].first;  // negative
    if (-back_gap <= reach) return back_gap;
  }
  // The first request of a stream has no predecessor; treat it as fully
  // random (maximum uncertainty), which is also what a cold disk head sees.
  if (rank_end == RankStream::kNone) return model_.params().hdd.capacity;
  // Signed: negative means the stream jumped backward, which server-side
  // readahead cannot absorb.
  return offset - rank_end;
}

std::uint32_t DataIdentifier::AdvanceTails(TailTable& tails, std::size_t next,
                                           byte_count offset,
                                           byte_count tail) {
  // A continuation replaces the tail it extends; anything else opens a new
  // stream, evicting the least recently used tail when the table is full.
  const std::uint64_t seq = ++tail_seq_;
  const auto first_after = tails.begin() + static_cast<std::ptrdiff_t>(next);
  // Every tail before `next` is at or before `offset`, so `tail` sorts at
  // or after `next`, and exactly there unless the request passes the tail
  // at `next` (usually it does not).
  auto pos = first_after;
  if (pos != tails.end() && pos->first < tail) {
    pos = std::lower_bound(
        pos, tails.end(), tail,
        [](const Tail& t, byte_count p) { return t.first < p; });
  }
  const bool known = pos != tails.end() && pos->first == tail;
  auto slot = static_cast<std::size_t>(pos - tails.begin());
  if (next > 0 && offset - tails[next - 1].first < Reach()) {
    // The greatest tail at or before `offset` is continued: it moves
    // forward to `tail`, and the tails it passes (usually none) slide down
    // one slot over its old place, so nothing is inserted.
    const auto prev = std::prev(first_after);
    --slot;
    if (known) {
      pos->second = seq;
      tails.erase(prev);
    } else {
      *std::move(first_after, pos, prev) = Tail{tail, seq};
    }
  } else if (known) {
    pos->second = seq;
  } else {
    tails.insert(pos, Tail{tail, seq});
  }
  if (tails.size() > kMaxTailsPerFile) {
    // The least recently used tail: the smallest sequence number. It is
    // never the tail just written, the most recent one.
    const auto victim = std::min_element(
        tails.begin(), tails.end(),
        [](const Tail& a, const Tail& b) { return a.second < b.second; });
    if (static_cast<std::size_t>(victim - tails.begin()) < slot) --slot;
    tails.erase(victim);
  }
  return static_cast<std::uint32_t>(slot);
}

byte_count DataIdentifier::DistanceFor(FileIndex file, int rank,
                                       byte_count offset) const {
  static const FileStreams kUnseenFile;
  const FileStreams& streams =
      file < files_.size() ? files_[file] : kUnseenFile;
  RankStream stream;  // as Identify would create it
  if (rank < 0) {
    if (auto it = negative_ranks_.find(StreamKey(file, rank));
        it != negative_ranks_.end()) {
      stream = it->second;
    }
  } else if (static_cast<std::size_t>(rank) < streams.ranks.size()) {
    stream = streams.ranks[static_cast<std::size_t>(rank)];
  }
  return Distance(streams.tails, TailAfter(streams.tails, stream.tail, offset),
                  offset, stream.end);
}

Decision DataIdentifier::Identify(FileIndex file, int rank,
                                  device::IoKind kind, byte_count offset,
                                  byte_count size,
                                  std::span<CacheExtension* const> extensions) {
  ++stats_.requests;
  S4D_DCHECK(size >= 0) << "negative request size " << size;
  if (file >= files_.size()) files_.resize(std::size_t{file} + 1);
  FileStreams& streams = files_[file];
  RankStream* stream;
  if (rank >= 0) {
    const auto r = static_cast<std::size_t>(rank);
    if (r >= streams.ranks.size()) streams.ranks.resize(r + 1);
    stream = &streams.ranks[r];
  } else {
    stream = &negative_ranks_[StreamKey(file, rank)];
  }
  // One search serves the distance and the update.
  const std::size_t next = TailAfter(streams.tails, stream->tail, offset);
  const byte_count distance =
      Distance(streams.tails, next, offset, stream->end);
  stream->end = offset + size;
  stream->tail = AdvanceTails(streams.tails, next, offset, offset + size);

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
