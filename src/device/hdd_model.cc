#include "device/hdd_model.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace s4d::device {

HddProfile SeagateST32502NS() {
  HddProfile p;
  p.name = "Seagate-ST32502NS-250GB";
  p.capacity = 250 * GiB;
  p.rpm = 7200.0;
  p.track_to_track_seek = FromMillis(0.8);
  p.average_seek = FromMillis(8.5);
  p.max_seek = FromMillis(17.0);
  p.transfer_bps = 78.0e6;
  p.command_overhead = FromMicros(200);
  return p;
}

HddModel::HddModel(HddProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)), rng_(seed) {
  chains_.fill(-1);
}

SimTime HddModel::SeekTime(byte_count distance) const {
  return SeekTimeForProfile(profile_, distance);
}

SimTime SeekTimeForProfile(const HddProfile& profile, byte_count distance) {
  if (distance <= 0) return 0;
  const double frac =
      std::min(1.0, static_cast<double>(distance) /
                        static_cast<double>(profile.capacity));
  const double t2t = static_cast<double>(profile.track_to_track_seek);
  const double avg = static_cast<double>(profile.average_seek);
  const double max = static_cast<double>(profile.max_seek);
  // Short seeks follow a sqrt law up to the "average seek" at 1/3 stroke;
  // beyond that, seek time grows linearly to the full-stroke maximum.
  constexpr double kAvgStrokeFrac = 1.0 / 3.0;
  double seek;
  if (frac <= kAvgStrokeFrac) {
    seek = t2t + (avg - t2t) * std::sqrt(frac / kAvgStrokeFrac);
  } else {
    const double t = (frac - kAvgStrokeFrac) / (1.0 - kAvgStrokeFrac);
    seek = avg + (max - avg) * t;
  }
  return static_cast<SimTime>(seek);
}

byte_count HddModel::BucketOf(byte_count x) const {
  // Floor division, so that a matching tail is always in bucket b-1, b or
  // b+1 of the offset's bucket b, negative offsets included.
  const byte_count window = profile_.readahead_window;
  return x / window - (x % window < 0 ? 1 : 0);
}

std::uint32_t HddModel::ChainOf(byte_count tail) const {
  // With no window nothing ever matches, and one chain will do.
  return profile_.readahead_window > 0 ? HashBucket(BucketOf(tail)) : 0;
}

std::int32_t HddModel::FindStream(byte_count offset) const {
  const byte_count window = profile_.readahead_window;
  if (window <= 0 || streams_.empty()) return -1;
  // A stream continues `offset` iff offset - W < tail <= offset + W, so its
  // tail lies within one bucket of the offset's. Chains can collide, and
  // then one is walked twice, so every candidate is tested exactly.
  const byte_count bucket = BucketOf(offset);
  std::int32_t best = -1;
  std::uint64_t best_stamp = 0;
  for (byte_count b = bucket - 1; b <= bucket + 1; ++b) {
    for (std::int32_t i = chains_[HashBucket(b)]; i >= 0;
         i = streams_[static_cast<std::size_t>(i)].next) {
      const Stream& s = streams_[static_cast<std::size_t>(i)];
      const byte_count gap = offset - s.tail;
      if (gap < window && -gap <= window && s.stamp > best_stamp) {
        best = i;
        best_stamp = s.stamp;
      }
    }
  }
  return best;
}

void HddModel::Link(std::int32_t slot, std::uint32_t chain) {
  Stream& s = streams_[static_cast<std::size_t>(slot)];
  s.chain = chain;
  s.next = chains_[chain];
  chains_[chain] = slot;
}

void HddModel::Unlink(std::int32_t slot) {
  const Stream& s = streams_[static_cast<std::size_t>(slot)];
  std::int32_t* link = &chains_[s.chain];
  while (*link != slot) link = &streams_[static_cast<std::size_t>(*link)].next;
  *link = s.next;
}

void HddModel::AddStream(byte_count tail) {
  const auto limit = static_cast<std::size_t>(profile_.max_streams);
  if (limit == 0) return;
  std::int32_t slot;
  if (streams_.size() < limit) {
    slot = static_cast<std::int32_t>(streams_.size());
    streams_.emplace_back();
  } else {
    // Full: the least recently used stream makes room.
    slot = 0;
    for (std::size_t i = 1; i < streams_.size(); ++i) {
      if (streams_[i].stamp < streams_[static_cast<std::size_t>(slot)].stamp) {
        slot = static_cast<std::int32_t>(i);
      }
    }
    Unlink(slot);
  }
  Stream& s = streams_[static_cast<std::size_t>(slot)];
  s.tail = tail;
  s.stamp = ++clock_;
  Link(slot, ChainOf(tail));
}

AccessCosts HddModel::Access(IoKind kind, byte_count offset, byte_count size) {
  (void)kind;  // readahead (reads) and writeback coalescing (writes) are
               // modelled symmetrically at this level.
  AccessCosts costs;

  // Stream continuation: served by readahead / coalesced writeback without
  // repositioning. A forward gap within the window costs media transfer for
  // the skipped bytes plus the payload (the page cache read that data ahead
  // anyway). A small *backward* gap is data the stream just passed, still
  // resident in the page cache: the device does no media work and is
  // charged nothing (the network transfer still gates the request in the
  // server loop), and the stream's tail does not move back. When several
  // streams match, the most recently used one continues.
  const std::int32_t hit = FindStream(offset);
  if (hit >= 0) {
    Stream& s = streams_[static_cast<std::size_t>(hit)];
    const byte_count gap = offset - s.tail;
    costs.positioning = 0;
    costs.transfer =
        gap >= 0 ? static_cast<SimTime>(static_cast<double>(gap + size) /
                                        profile_.transfer_bps * 1e9)
                 : 0;
    const byte_count next = std::max(s.tail, offset + size);
    if (next != s.tail) {
      const std::uint32_t chain = ChainOf(next);
      if (chain != s.chain) {
        Unlink(hit);
        Link(hit, chain);
      }
      s.tail = next;
    }
    s.stamp = ++clock_;
    head_position_ = next;
    return costs;
  }

  // New stream: position the head (unless it happens to sit exactly there).
  const byte_count distance = std::llabs(offset - head_position_);
  if (distance == 0) {
    costs.positioning = 0;
  } else {
    const SimTime rotation =
        static_cast<SimTime>(rng_.NextBelow(
            static_cast<std::uint64_t>(profile_.full_rotation())));
    costs.positioning = profile_.command_overhead + SeekTime(distance) + rotation;
  }
  costs.transfer = static_cast<SimTime>(
      static_cast<double>(size) / profile_.transfer_bps * 1e9);
  head_position_ = offset + size;
  AddStream(head_position_);
  return costs;
}

void HddModel::Reset() {
  head_position_ = 0;
  streams_.clear();
  clock_ = 0;
  chains_.fill(-1);
}

std::string HddModel::Describe() const {
  return "HDD(" + profile_.name + ")";
}

}  // namespace s4d::device
