#include "core/data_identifier.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "common/rng.h"

namespace s4d::core {
namespace {

CostModel PaperModel() {
  return CostModel(CostModelParams::FromProfiles(
      8, 4, 64 * KiB, device::SeagateST32502NS(), device::OczRevoDriveX2Effective(),
      net::GigabitEthernet()));
}

class DataIdentifierTest : public ::testing::Test {
 protected:
  CostModel model_ = PaperModel();
  CriticalDataTable cdt_;
  DataIdentifier identifier_{model_, cdt_};
};

TEST_F(DataIdentifierTest, FirstRequestTreatedAsRandom) {
  EXPECT_EQ(identifier_.DistanceFor("f", 0, 0),
            model_.params().hdd.capacity);
}

TEST_F(DataIdentifierTest, DistanceTracksStreamEnd) {
  identifier_.Identify("f", 0, device::IoKind::kWrite, 0, 16 * KiB);
  EXPECT_EQ(identifier_.DistanceFor("f", 0, 16 * KiB), 0);
  EXPECT_EQ(identifier_.DistanceFor("f", 0, 48 * KiB), 32 * KiB);
  EXPECT_EQ(identifier_.DistanceFor("f", 0, 0), -16 * KiB)
      << "backward jumps carry their sign";
}

TEST_F(DataIdentifierTest, StreamsPerFileAndRank) {
  identifier_.Identify("f", 0, device::IoKind::kWrite, 0, 16 * KiB);
  // Another rank continuing rank 0's stream is a *global* continuation —
  // the buffered servers serve it from readahead no matter who issues it.
  EXPECT_EQ(identifier_.DistanceFor("f", 1, 16 * KiB), 0);
  // A different file shares nothing.
  EXPECT_EQ(identifier_.DistanceFor("g", 0, 16 * KiB),
            model_.params().hdd.capacity);
  // A far-away offset on the same file falls back to the rank stream.
  EXPECT_EQ(identifier_.DistanceFor("f", 1, 10 * GiB),
            model_.params().hdd.capacity);
}

TEST_F(DataIdentifierTest, GlobalTailsAbsorbInterleavedDensePatterns) {
  // Tile-like lockstep: 4 ranks write consecutive chunks of one dataset
  // row; each rank's own stride is huge, but globally the stream is dense.
  const byte_count chunk = 80 * KiB;
  for (int row = 0; row < 5; ++row) {
    for (int r = 0; r < 4; ++r) {
      const byte_count offset = (row * 4 + r) * chunk;
      if (row + r > 0) {
        // Every request after the very first continues the global stream.
        EXPECT_EQ(identifier_.DistanceFor("tile", r, offset), 0)
            << "row " << row << " rank " << r;
      }
      identifier_.Identify("tile", r, device::IoKind::kWrite, offset, chunk);
    }
  }
  // Dense interleaved writes must not flood the CDT: at most the cold
  // first request (no predecessor anywhere) counts as critical.
  EXPECT_LE(identifier_.stats().critical, 1)
      << "only truly random requests are critical";
}

TEST_F(DataIdentifierTest, SmallRandomRequestsEnterCdt) {
  // Jumping far each time: all critical.
  for (int i = 0; i < 10; ++i) {
    const byte_count offset = static_cast<byte_count>(i) * 1 * GiB;
    EXPECT_TRUE(identifier_
                    .Identify("f", 0, device::IoKind::kWrite, offset, 16 * KiB)
                    .critical);
    EXPECT_TRUE(cdt_.Contains(CdtKey{"f", offset, 16 * KiB}));
  }
  EXPECT_EQ(identifier_.stats().critical, 10);
  EXPECT_EQ(identifier_.stats().cdt_inserts, 10);
}

TEST_F(DataIdentifierTest, LargeSequentialRequestsStayOut) {
  // A long sequential scan of 4 MiB requests: after the first (cold)
  // request, none should be critical.
  byte_count offset = 0;
  identifier_.Identify("f", 0, device::IoKind::kWrite, offset, 4 * MiB);
  for (int i = 1; i < 10; ++i) {
    offset += 4 * MiB;
    EXPECT_FALSE(
        identifier_.Identify("f", 0, device::IoKind::kWrite, offset, 4 * MiB)
            .critical)
        << "sequential 4 MiB request " << i << " wrongly critical";
  }
  EXPECT_EQ(identifier_.stats().requests, 10);
}

TEST_F(DataIdentifierTest, RepeatedRequestInsertsOnce) {
  identifier_.Identify("f", 0, device::IoKind::kRead, 1 * GiB, 16 * KiB);
  identifier_.Identify("f", 0, device::IoKind::kRead, 5 * GiB, 16 * KiB);
  // The immediate repeat touches data just read — resident in the server
  // caches (a stream tail sits 16 KiB ahead), so it is not critical again.
  identifier_.Identify("f", 0, device::IoKind::kRead, 1 * GiB, 16 * KiB);
  EXPECT_EQ(identifier_.stats().critical, 2);
  EXPECT_EQ(identifier_.stats().cdt_inserts, 2);
  EXPECT_EQ(cdt_.size(), 2u);
}

// A calibration provider that declines every estimate and counts the calls.
class CountingCalibration : public CostCalibration {
 public:
  SimTime DServerEstimate(SimTime, byte_count, byte_count) const override {
    ++dserver_calls;
    return -1;
  }
  SimTime CServerEstimate(device::IoKind, byte_count,
                          byte_count) const override {
    ++cserver_calls;
    return -1;
  }
  double MeanCServerDepth() const override { return 0.0; }
  SimTime CServerQueueDelayEstimate() const override { return 0; }
  bool CacheTierSaturated() const override { return false; }
  mutable int dserver_calls = 0;
  mutable int cserver_calls = 0;
};

TEST_F(DataIdentifierTest, EvaluatesEachCostOncePerRequest) {
  CountingCalibration calibration;
  model_.SetCalibration(&calibration);
  const Decision decision =
      identifier_.Identify("f", 0, device::IoKind::kWrite, 3 * GiB, 16 * KiB);
  EXPECT_EQ(calibration.dserver_calls, 1);
  EXPECT_EQ(calibration.cserver_calls, 1);
  // Eq. 8: the benefit is the difference of the two costs it reports.
  EXPECT_EQ(decision.benefit, decision.dserver_cost - decision.cserver_cost);
  model_.SetCalibration(nullptr);
}

// The stream-distance bookkeeping as it was before the tail table became a
// sorted vector: a std::map of tails per file, the LRU victim found by a
// scan. Kept as the oracle the flat table must match.
class MapTailOracle {
 public:
  explicit MapTailOracle(const CostModel& model)
      : reach_(model.params().hdd.readahead_window *
               model.params().hdd_servers),
        no_stream_(model.params().hdd.capacity) {}

  byte_count DistanceFor(const std::string& file, int rank,
                         byte_count offset) const {
    if (auto git = tails_.find(file); git != tails_.end()) {
      const auto& tails = git->second;
      auto it = tails.upper_bound(offset);
      if (it != tails.begin()) {
        auto prev = std::prev(it);
        const byte_count gap = offset - prev->first;
        if (gap >= 0 && gap < reach_) return gap;
      }
      if (it != tails.end()) {
        const byte_count back_gap = offset - it->first;
        if (-back_gap <= reach_) return back_gap;
      }
    }
    auto it = last_end_.find({file, rank});
    return it == last_end_.end() ? no_stream_ : offset - it->second;
  }

  void Identify(const std::string& file, int rank, byte_count offset,
                byte_count size) {
    last_end_[{file, rank}] = offset + size;
    auto& tails = tails_[file];
    auto it = tails.upper_bound(offset);
    if (it != tails.begin()) {
      auto prev = std::prev(it);
      if (offset - prev->first >= 0 && offset - prev->first < reach_) {
        tails.erase(prev);
      }
    }
    tails[offset + size] = ++seq_;
    if (tails.size() > kMaxTails) {
      auto victim = tails.begin();
      for (auto scan = tails.begin(); scan != tails.end(); ++scan) {
        if (scan->second < victim->second) victim = scan;
      }
      tails.erase(victim);
    }
  }

  std::size_t tails(const std::string& file) const {
    auto it = tails_.find(file);
    return it == tails_.end() ? 0 : it->second.size();
  }

 private:
  static constexpr std::size_t kMaxTails = 512;
  byte_count reach_;
  byte_count no_stream_;
  std::map<std::pair<std::string, int>, byte_count> last_end_;
  std::map<std::string, std::map<byte_count, std::uint64_t>> tails_;
  std::uint64_t seq_ = 0;
};

// Seeded mixes of sequential streams, HPIO-strided regions (16 KiB regions,
// 16 KiB spacing), random requests and repeats over three files, so long that
// every file's tail table overflows its 512 slots many times. After every
// request the identifier must report the oracle's distance at the request's
// own offset and at a probe offset near it.
TEST_F(DataIdentifierTest, FlatTailTableMatchesMapOracle) {
  const std::string files[] = {"a", "b", "c"};
  constexpr int kRanks = 8;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    CriticalDataTable cdt;
    DataIdentifier identifier(model_, cdt);
    MapTailOracle oracle(model_);
    Rng rng(seed);
    // Per file and rank: the next sequential offset and the next HPIO
    // region index.
    std::map<std::pair<int, int>, byte_count> seq_next;
    std::map<std::pair<int, int>, std::int64_t> hpio_next;
    // Per file: the last request, which a repeat re-issues (its tail is
    // then already in the table).
    std::pair<byte_count, byte_count> last[3] = {
        {0, 16 * KiB}, {0, 16 * KiB}, {0, 16 * KiB}};
    int full_steps[3] = {};  // requests after which the table was full
    for (int step = 0; step < 12000; ++step) {
      const int f = static_cast<int>(rng.NextBelow(3));
      const std::string& file = files[f];
      const int rank = static_cast<int>(rng.NextBelow(kRanks));
      byte_count offset = 0;
      byte_count size = 16 * KiB;
      switch (rng.NextBelow(4)) {
        case 0: {  // sequential: rank r streams through its own GiB
          byte_count& next = seq_next[{f, rank}];
          if (next == 0) next = rank * GiB + 1;
          size = (1 + static_cast<byte_count>(rng.NextBelow(4))) * 16 * KiB;
          offset = next;
          next += size;
          break;
        }
        case 1: {  // HPIO strided: region k of rank r at (k * ranks + r)
          std::int64_t& k = hpio_next[{f, rank}];
          offset = 16 * GiB + (k++ * kRanks + rank) * 32 * KiB;
          break;
        }
        case 2:  // random, scattered over 64 GiB
          offset = static_cast<byte_count>(rng.NextBelow(64 * GiB / KiB)) * KiB;
          size = (1 + static_cast<byte_count>(rng.NextBelow(64))) * 4 * KiB;
          break;
        default:  // a repeat of the file's last request
          offset = last[f].first;
          size = last[f].second;
          break;
      }
      last[f] = {offset, size};
      const int probe_rank = static_cast<int>(rng.NextBelow(kRanks));
      const byte_count probe =
          std::max<byte_count>(0, offset + rng.NextInRange(-8 * MiB, 8 * MiB));
      ASSERT_EQ(identifier.DistanceFor(file, rank, offset),
                oracle.DistanceFor(file, rank, offset))
          << "seed " << seed << " step " << step << " file " << file
          << " offset " << offset;
      identifier.Identify(file, rank, device::IoKind::kWrite, offset, size);
      oracle.Identify(file, rank, offset, size);
      if (oracle.tails(file) == 512) ++full_steps[f];
      ASSERT_EQ(identifier.DistanceFor(file, probe_rank, probe),
                oracle.DistanceFor(file, probe_rank, probe))
          << "seed " << seed << " step " << step << " file " << file
          << " probe " << probe;
    }
    for (int f = 0; f < 3; ++f) {
      EXPECT_GT(full_steps[f], 1000) << "table rarely full: " << files[f];
    }
  }
}

}  // namespace
}  // namespace s4d::core
