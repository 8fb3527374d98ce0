#include "device/hdd_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"

namespace s4d::device {
namespace {

TEST(HddProfile, SeagateRotation) {
  const HddProfile p = SeagateST32502NS();
  // 7200 rpm -> 8.33 ms per revolution, R ~ 4.17 ms.
  EXPECT_NEAR(ToMillis(p.full_rotation()), 8.333, 0.01);
  EXPECT_NEAR(ToMillis(p.average_rotation_delay()), 4.167, 0.01);
}

TEST(HddSeek, ZeroDistanceIsFree) {
  const HddProfile p = SeagateST32502NS();
  EXPECT_EQ(SeekTimeForProfile(p, 0), 0);
  EXPECT_EQ(SeekTimeForProfile(p, -5), 0);
}

TEST(HddSeek, MonotonicInDistance) {
  const HddProfile p = SeagateST32502NS();
  SimTime last = 0;
  for (byte_count d = 1; d <= p.capacity; d *= 4) {
    const SimTime t = SeekTimeForProfile(p, d);
    EXPECT_GE(t, last) << "distance " << d;
    last = t;
  }
}

TEST(HddSeek, BoundedByProfile) {
  const HddProfile p = SeagateST32502NS();
  EXPECT_GE(SeekTimeForProfile(p, 1), p.track_to_track_seek);
  EXPECT_LE(SeekTimeForProfile(p, p.capacity), p.max_seek);
  // Past-capacity distances clamp to the full stroke.
  EXPECT_EQ(SeekTimeForProfile(p, 10 * p.capacity), p.max_seek);
  // One-third stroke is the "average seek" anchor point.
  EXPECT_NEAR(static_cast<double>(SeekTimeForProfile(p, p.capacity / 3)),
              static_cast<double>(p.average_seek),
              static_cast<double>(p.average_seek) * 0.01);
}

TEST(HddModel, SequentialAccessSkipsPositioning) {
  HddModel hdd(SeagateST32502NS(), 1);
  const auto first = hdd.Access(IoKind::kWrite, 0, 64 * KiB);
  // First access from LBA 0 at offset 0: head is already there.
  EXPECT_EQ(first.positioning, 0);
  const auto second = hdd.Access(IoKind::kWrite, 64 * KiB, 64 * KiB);
  EXPECT_EQ(second.positioning, 0) << "streaming continuation must be free";
  const auto random = hdd.Access(IoKind::kWrite, 10 * GiB, 64 * KiB);
  EXPECT_GT(random.positioning, FromMillis(1));
}

TEST(HddModel, TransferTimeProportionalToSize) {
  HddModel hdd(SeagateST32502NS(), 1);
  const auto small = hdd.Access(IoKind::kRead, 0, 1 * MiB);
  hdd.Reset();
  const auto large = hdd.Access(IoKind::kRead, 0, 4 * MiB);
  EXPECT_NEAR(static_cast<double>(large.transfer),
              4.0 * static_cast<double>(small.transfer),
              static_cast<double>(small.transfer) * 0.01);
  // 78 MB/s -> 1 MiB in ~13.4 ms.
  EXPECT_NEAR(ToMillis(small.transfer), 13.44, 0.2);
}

TEST(HddModel, RandomAccessPositioningWithinBounds) {
  HddModel hdd(SeagateST32502NS(), 7);
  const HddProfile& p = hdd.profile();
  byte_count offset = 0;
  for (int i = 0; i < 200; ++i) {
    offset = (offset + 37 * MiB) % (p.capacity / 2);
    const auto costs = hdd.Access(IoKind::kRead, offset, 4 * KiB);
    if (costs.positioning == 0) continue;  // exact head hit
    EXPECT_GE(costs.positioning, p.command_overhead);
    EXPECT_LE(costs.positioning,
              p.command_overhead + p.max_seek + p.full_rotation());
  }
}

TEST(HddModel, DeterministicForSeed) {
  HddModel a(SeagateST32502NS(), 42);
  HddModel b(SeagateST32502NS(), 42);
  for (int i = 0; i < 100; ++i) {
    const byte_count off = (i * 131) % 1000 * MiB;
    const auto ca = a.Access(IoKind::kWrite, off, 16 * KiB);
    const auto cb = b.Access(IoKind::kWrite, off, 16 * KiB);
    EXPECT_EQ(ca.positioning, cb.positioning);
    EXPECT_EQ(ca.transfer, cb.transfer);
  }
}

TEST(HddModel, HeadPositionTracksAccesses) {
  HddModel hdd(SeagateST32502NS(), 1);
  hdd.Access(IoKind::kWrite, 100 * MiB, 1 * MiB);
  EXPECT_EQ(hdd.head_position(), 101 * MiB);
  hdd.Reset();
  EXPECT_EQ(hdd.head_position(), 0);
}

TEST(HddModel, InterleavedStreamsServedByReadahead) {
  HddModel hdd(SeagateST32502NS(), 1);
  // Two far-apart sequential streams, interleaved request by request: after
  // each stream's first access, continuations must be positioning-free.
  byte_count a = 0, b = 100 * GiB;
  hdd.Access(IoKind::kRead, a, 16 * KiB);
  hdd.Access(IoKind::kRead, b, 16 * KiB);
  for (int i = 1; i < 20; ++i) {
    a += 16 * KiB;
    b += 16 * KiB;
    EXPECT_EQ(hdd.Access(IoKind::kRead, a, 16 * KiB).positioning, 0)
        << "stream A iteration " << i;
    EXPECT_EQ(hdd.Access(IoKind::kRead, b, 16 * KiB).positioning, 0)
        << "stream B iteration " << i;
  }
  EXPECT_EQ(hdd.active_streams(), 2);
}

TEST(HddModel, SmallForwardGapCostsGapTransferOnly) {
  HddProfile p = SeagateST32502NS();
  HddModel hdd(p, 1);
  hdd.Access(IoKind::kRead, 0, 16 * KiB);
  // Skip 16 KiB forward (within the readahead window): no seek, but the
  // skipped bytes were read too.
  const auto costs = hdd.Access(IoKind::kRead, 48 * KiB, 16 * KiB);
  EXPECT_EQ(costs.positioning, 0);
  const auto direct = static_cast<SimTime>(16 * KiB / p.transfer_bps * 1e9);
  EXPECT_NEAR(static_cast<double>(costs.transfer),
              3.0 * static_cast<double>(direct), 10.0);
}

TEST(HddModel, BeyondWindowGapPaysSeek) {
  HddProfile p = SeagateST32502NS();
  HddModel hdd(p, 1);
  hdd.Access(IoKind::kRead, 0, 16 * KiB);
  const auto costs =
      hdd.Access(IoKind::kRead, 16 * KiB + p.readahead_window, 16 * KiB);
  EXPECT_GT(costs.positioning, 0);
}

TEST(HddModel, SmallBackwardGapServedFromPageCache) {
  HddProfile p = SeagateST32502NS();
  HddModel hdd(p, 1);
  hdd.Access(IoKind::kRead, 10 * MiB, 64 * KiB);
  // Re-reading data the stream just passed: still in the page cache.
  const auto costs = hdd.Access(IoKind::kRead, 10 * MiB - 64 * KiB, 64 * KiB);
  EXPECT_EQ(costs.positioning, 0);
  // The stream tail does not move backward.
  const auto forward = hdd.Access(IoKind::kRead, 10 * MiB + 64 * KiB, 64 * KiB);
  EXPECT_EQ(forward.positioning, 0) << "tail preserved across backward hit";
}

TEST(HddModel, FarBackwardAccessIsNotAStreamHit) {
  HddProfile p = SeagateST32502NS();
  HddModel hdd(p, 1);
  hdd.Access(IoKind::kRead, 100 * MiB, 64 * KiB);
  const auto costs = hdd.Access(
      IoKind::kRead, 100 * MiB - p.readahead_window - 1 * MiB, 64 * KiB);
  EXPECT_GT(costs.positioning, 0);
}

TEST(HddModel, StreamTableIsBounded) {
  HddProfile p = SeagateST32502NS();
  p.max_streams = 4;
  HddModel hdd(p, 1);
  // Open 8 streams; only the 4 most recent survive.
  for (int s = 0; s < 8; ++s) {
    hdd.Access(IoKind::kWrite, static_cast<byte_count>(s) * 10 * GiB, 4 * KiB);
  }
  EXPECT_EQ(hdd.active_streams(), 4);
  // Stream 0 was evicted: continuing it pays positioning again.
  EXPECT_GT(hdd.Access(IoKind::kWrite, 4 * KiB, 4 * KiB).positioning, 0);
  // Stream 7 survived.
  EXPECT_GT(hdd.active_streams(), 0);
}

// The motivating property behind Fig. 1: small random accesses are an order
// of magnitude slower than small sequential ones; large accesses converge.
TEST(HddModel, RandomVsSequentialGapShrinksWithSize) {
  const HddProfile p = SeagateST32502NS();
  auto total_time = [&](byte_count request, bool random) {
    HddModel hdd(p, 3);
    SimTime total = 0;
    byte_count offset = 0;
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
      if (random) {
        offset = static_cast<byte_count>(
                     rng.NextBelow(static_cast<std::uint64_t>(p.capacity / request))) *
                 request;
      }
      const auto c = hdd.Access(IoKind::kRead, offset, request);
      total += c.total();
      offset += request;
    }
    return total;
  };

  const double small_ratio =
      static_cast<double>(total_time(16 * KiB, true)) /
      static_cast<double>(total_time(16 * KiB, false));
  const double large_ratio =
      static_cast<double>(total_time(16 * MiB, true)) /
      static_cast<double>(total_time(16 * MiB, false));
  EXPECT_GT(small_ratio, 10.0);
  EXPECT_LT(large_ratio, 1.3);
}

// Differential check of the bucketed stream index against the model it
// replaced: the most-recently-used vector scan, kept here verbatim as the
// oracle. Both see the same seeded access mixes; after every access the
// costs, the head position and the stream count must agree exactly.
class MruVectorHdd {
 public:
  MruVectorHdd(HddProfile profile, std::uint64_t seed)
      : profile_(std::move(profile)), rng_(seed) {}

  AccessCosts Access(byte_count offset, byte_count size) {
    AccessCosts costs;
    for (auto it = streams_.rbegin(); it != streams_.rend(); ++it) {
      const byte_count gap = offset - *it;
      if (gap >= profile_.readahead_window ||
          -gap > profile_.readahead_window) {
        continue;
      }
      costs.positioning = 0;
      costs.transfer =
          gap >= 0 ? static_cast<SimTime>(static_cast<double>(gap + size) /
                                          profile_.transfer_bps * 1e9)
                   : 0;
      const byte_count next = std::max(*it, offset + size);
      streams_.erase(std::next(it).base());
      streams_.push_back(next);
      head_position_ = next;
      return costs;
    }
    const byte_count distance = std::llabs(offset - head_position_);
    if (distance == 0) {
      costs.positioning = 0;
    } else {
      const auto rotation = static_cast<SimTime>(rng_.NextBelow(
          static_cast<std::uint64_t>(profile_.full_rotation())));
      costs.positioning = profile_.command_overhead +
                          SeekTimeForProfile(profile_, distance) + rotation;
    }
    costs.transfer = static_cast<SimTime>(static_cast<double>(size) /
                                          profile_.transfer_bps * 1e9);
    head_position_ = offset + size;
    streams_.push_back(head_position_);
    if (streams_.size() > static_cast<std::size_t>(profile_.max_streams)) {
      streams_.erase(streams_.begin());
    }
    return costs;
  }

  void Reset() {
    head_position_ = 0;
    streams_.clear();
  }
  byte_count head_position() const { return head_position_; }
  int active_streams() const { return static_cast<int>(streams_.size()); }

 private:
  HddProfile profile_;
  Rng rng_;
  byte_count head_position_ = 0;
  std::vector<byte_count> streams_;  // most recently used last
};

enum class Mix {
  kInterleaved,  // 32 sequential streams, 64 MiB apart, random order
  kRandom,       // uniform offsets over the disk
  kNearTail,     // one stream with small forward and backward gaps
  kSameTail,     // pairs of accesses that end at the same tail
  kBucketEdges,  // offsets at k*W - 1, k*W, k*W + 1, around zero too
  kDense,        // offsets within a few windows: many streams match
};

// Drives both models through `ops` accesses of `mix`, resetting both
// halfway, and returns a description of the first disagreement.
std::string FirstMismatch(Mix mix, byte_count window, int max_streams,
                          std::uint64_t seed, int ops) {
  HddProfile p = SeagateST32502NS();
  p.readahead_window = window;
  p.max_streams = max_streams;
  HddModel index(p, seed);
  MruVectorHdd oracle(p, seed);
  Rng rng(seed * 7919 + 1);
  const byte_count scale = std::max<byte_count>(window, 4 * KiB);
  auto below = [&rng](byte_count bound) {
    return static_cast<byte_count>(rng.NextBelow(
        static_cast<std::uint64_t>(std::max<byte_count>(bound, 1))));
  };
  std::vector<byte_count> tails(32);
  for (std::size_t r = 0; r < tails.size(); ++r) {
    tails[r] = static_cast<byte_count>(r) * 64 * MiB;
  }
  byte_count tail = 10 * GiB;
  byte_count pending = -1;  // kSameTail: the tail the next access must end at

  for (int i = 0; i < ops; ++i) {
    if (i == ops / 2) {
      index.Reset();
      oracle.Reset();
    }
    byte_count offset = 0;
    byte_count size = 1 + below(2 * scale);
    switch (mix) {
      case Mix::kInterleaved: {
        byte_count& t = tails[static_cast<std::size_t>(below(32))];
        size = 512 * KiB;
        offset = t;
        t += size;
        break;
      }
      case Mix::kRandom:
        offset = below(p.capacity);
        break;
      case Mix::kNearTail:
        offset = std::max<byte_count>(0, tail + below(4 * window + 3) -
                                             2 * window - 1);
        tail = std::max(tail, offset + size);
        break;
      case Mix::kSameTail:
        if (pending < 0) {
          offset = below(64 * scale);
          pending = offset + size;
        } else {
          size = 1 + below(pending);
          offset = pending - size;
          pending = -1;
        }
        break;
      case Mix::kBucketEdges:
        offset = (below(16) - 4) * std::max<byte_count>(window, 1) +
                 below(3) - 1;
        size = 1 + below(std::max<byte_count>(window, 2));
        break;
      case Mix::kDense:
        offset = below(8 * scale);
        break;
    }
    const AccessCosts got = index.Access(IoKind::kRead, offset, size);
    const AccessCosts want = oracle.Access(offset, size);
    if (got.positioning != want.positioning || got.transfer != want.transfer ||
        index.head_position() != oracle.head_position() ||
        index.active_streams() != oracle.active_streams()) {
      return "access " + std::to_string(i) + " (offset " +
             std::to_string(offset) + ", size " + std::to_string(size) +
             "): positioning " + std::to_string(got.positioning) + " vs " +
             std::to_string(want.positioning) + ", transfer " +
             std::to_string(got.transfer) + " vs " +
             std::to_string(want.transfer) + ", head " +
             std::to_string(index.head_position()) + " vs " +
             std::to_string(oracle.head_position()) + ", streams " +
             std::to_string(index.active_streams()) + " vs " +
             std::to_string(oracle.active_streams());
    }
  }
  return "";
}

TEST(HddModel, StreamIndexMatchesMruVectorModel) {
  const Mix mixes[] = {Mix::kInterleaved, Mix::kRandom,      Mix::kNearTail,
                       Mix::kSameTail,    Mix::kBucketEdges, Mix::kDense};
  const byte_count windows[] = {0, 1, 4 * KiB, 512 * KiB, 1 * GiB};
  const int limits[] = {0, 1, 4, 64};
  std::uint64_t seed = 1;
  for (const Mix mix : mixes) {
    for (const byte_count window : windows) {
      for (const int max_streams : limits) {
        const std::string mismatch =
            FirstMismatch(mix, window, max_streams, seed++, 3000);
        EXPECT_EQ(mismatch, "")
            << "mix " << static_cast<int>(mix) << ", window " << window
            << ", max_streams " << max_streams;
      }
    }
  }
}

}  // namespace
}  // namespace s4d::device
