#include "core/data_identifier.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace s4d::core
