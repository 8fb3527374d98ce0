#include "core/cost_model.h"

#include <gtest/gtest.h>

namespace s4d::core {
namespace {

CostModelParams PaperParams() {
  return CostModelParams::FromProfiles(
      /*hdd_servers=*/8, /*ssd_servers=*/4, /*stripe_size=*/64 * KiB,
      device::SeagateST32502NS(), device::OczRevoDriveX2Effective(),
      net::GigabitEthernet());
}

TEST(CostModelParams, EffectiveRatesCappedByLink) {
  const CostModelParams p = PaperParams();
  // HDD 78 MB/s < link 125 MB/s -> disk-bound.
  EXPECT_NEAR(p.beta_d_ns_per_byte, 1e9 / 78.0e6, 1e-6);
  // Effective SSD reads 200 MB/s > link 125 MB/s -> wire-bound; effective
  // writes 36 MB/s < link -> device-bound.
  EXPECT_NEAR(p.beta_c_read_ns_per_byte, 1e9 / 125.0e6, 1e-6);
  EXPECT_NEAR(p.beta_c_write_ns_per_byte, 1e9 / 36.0e6, 1e-6);
}

TEST(CostModel, ExpectedMaxStartupEquation4) {
  // m = 1: E[max] = a + (b-a)/2 — the plain uniform mean.
  EXPECT_EQ(CostModel::ExpectedMaxStartup(0, 100, 1), 50);
  // m -> large: approaches b.
  EXPECT_EQ(CostModel::ExpectedMaxStartup(0, 100, 99), 99);
  // Degenerate interval.
  EXPECT_EQ(CostModel::ExpectedMaxStartup(70, 70, 4), 70);
  // General: a + m/(m+1)(b-a).
  EXPECT_EQ(CostModel::ExpectedMaxStartup(10, 110, 3), 10 + 75);
}

TEST(CostModel, StartupGrowsWithServerCount) {
  // More servers => higher expected *maximum* startup (Eq. 3-4's point).
  for (int m = 1; m < 8; ++m) {
    EXPECT_LT(CostModel::ExpectedMaxStartup(0, 1000, m),
              CostModel::ExpectedMaxStartup(0, 1000, m + 1));
  }
}

TEST(CostModel, SmallRandomRequestIsCritical) {
  CostModel model(PaperParams());
  // 16 KiB at a random distance of 1 GiB: seek+rotation dominate on HDD,
  // SSD serves it in ~0.2 ms.
  const SimTime benefit = model.Benefit(device::IoKind::kWrite, 1 * GiB,
                                        0, 16 * KiB);
  EXPECT_GT(benefit, FromMillis(5));
  EXPECT_TRUE(model.IsCritical(device::IoKind::kWrite, 1 * GiB, 0, 16 * KiB));
}

TEST(CostModel, LargeSequentialRequestIsNotCritical) {
  CostModel model(PaperParams());
  // 4 MiB sequential: 8 HDD servers each move 512 KiB (~6.6 ms disk-bound),
  // while 4 CServers each push 1 MiB over the gigabit wire (~8.4 ms).
  EXPECT_FALSE(model.IsCritical(device::IoKind::kWrite, 0, 0, 4 * MiB));
  EXPECT_FALSE(model.IsCritical(device::IoKind::kRead, 0, 0, 4 * MiB));
}

TEST(CostModel, BenefitDecreasesWithRequestSize) {
  CostModel model(PaperParams());
  SimTime last = std::numeric_limits<SimTime>::max();
  // Relative benefit per byte should shrink as requests grow.
  for (byte_count size : {8 * KiB, 64 * KiB, 512 * KiB, 4 * MiB}) {
    const SimTime b = model.Benefit(device::IoKind::kWrite, 1 * GiB, 0, size);
    const auto per_byte = static_cast<SimTime>(
        static_cast<double>(b) / static_cast<double>(size) * 1024.0);
    EXPECT_LT(per_byte, last) << "size " << size;
    last = per_byte;
  }
}

TEST(CostModel, BenefitGrowsWithDistance) {
  CostModel model(PaperParams());
  SimTime last = std::numeric_limits<SimTime>::min();
  for (byte_count d : {byte_count{0}, 1 * MiB, 100 * MiB, 10 * GiB}) {
    const SimTime b = model.Benefit(device::IoKind::kWrite, d, 0, 16 * KiB);
    EXPECT_GE(b, last) << "distance " << d;
    last = b;
  }
}

TEST(CostModel, DServerCostUsesParallelism) {
  CostModel model(PaperParams());
  // Same total size; the one spread across all 8 servers transfers faster.
  // Compare pure transfer by using distance 0 (no seek variance).
  const SimTime narrow = model.DServerCost(0, 0, 64 * KiB);   // 1 server
  const SimTime wide = model.DServerCost(0, 0, 8 * 64 * KiB);  // 8 servers
  // 8x the data, but only ~1x per-server share: far less than 8x the cost.
  EXPECT_LT(wide, 3 * narrow);
}

TEST(CostModel, CServerCostIgnoresDistance) {
  CostModel model(PaperParams());
  EXPECT_EQ(model.CServerCost(device::IoKind::kRead, 0, 16 * KiB),
            model.CServerCost(device::IoKind::kRead, 77 * GiB, 16 * KiB));
}

TEST(CostModel, CServerReadsCheaperThanWrites) {
  CostModel model(PaperParams());
  EXPECT_LT(model.CServerCost(device::IoKind::kRead, 0, 16 * KiB),
            model.CServerCost(device::IoKind::kWrite, 0, 16 * KiB));
}

TEST(CostModel, ZeroSizeIsFree) {
  CostModel model(PaperParams());
  EXPECT_EQ(model.DServerCost(0, 0, 0), 0);
  EXPECT_EQ(model.CServerCost(device::IoKind::kRead, 0, 0), 0);
}

// Parameterized crossover sweep: for every distance, there must be a
// request size below which CServers win and above which they do not —
// and the crossover must move downward as accesses get more sequential.
class CostModelCrossover : public ::testing::TestWithParam<byte_count> {};

TEST_P(CostModelCrossover, CrossoverExists) {
  CostModel model(PaperParams());
  const byte_count distance = GetParam();
  EXPECT_TRUE(
      model.IsCritical(device::IoKind::kWrite, distance, 0, 4 * KiB))
      << "4 KiB random should always prefer SSD at distance " << distance;
  EXPECT_FALSE(
      model.IsCritical(device::IoKind::kWrite, distance, 0, 64 * MiB))
      << "64 MiB should always prefer the wider HDD array";
}

INSTANTIATE_TEST_SUITE_P(Distances, CostModelCrossover,
                         ::testing::Values(1 * MiB, 64 * MiB, 1 * GiB,
                                           50 * GiB),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param / MiB) +
                                  "MiB";
                         });

// --- Calibration provider hook ---------------------------------------------

// Scriptable provider: returns the configured values (negative = decline)
// and records what the model handed it.
class FakeCalibration : public CostCalibration {
 public:
  SimTime DServerEstimate(SimTime static_startup, byte_count offset,
                          byte_count size) const override {
    last_startup = static_startup;
    last_d_size = size;
    (void)offset;
    return d_return;
  }
  SimTime CServerEstimate(device::IoKind kind, byte_count offset,
                          byte_count size) const override {
    (void)kind;
    (void)offset;
    last_c_size = size;
    return c_return;
  }
  double MeanCServerDepth() const override { return 0.0; }
  bool CacheTierSaturated() const override { return false; }

  SimTime d_return = -1;
  SimTime c_return = -1;
  mutable SimTime last_startup = -1;
  mutable byte_count last_d_size = -1;
  mutable byte_count last_c_size = -1;
};

TEST(CostModelCalibration, ZeroSizeNeverConsultsTheProvider) {
  CostModel model(PaperParams());
  FakeCalibration fake;
  fake.d_return = FromMillis(9);
  fake.c_return = FromMillis(9);
  model.SetCalibration(&fake);
  // The size guard fires before the provider: zero-size requests stay free
  // even under a provider that would report a huge cost.
  EXPECT_EQ(model.DServerCost(1 * GiB, 0, 0), 0);
  EXPECT_EQ(model.CServerCost(device::IoKind::kWrite, 0, 0), 0);
  EXPECT_EQ(fake.last_d_size, -1);
  EXPECT_EQ(fake.last_c_size, -1);
}

TEST(CostModelCalibration, DecliningProviderMatchesStaticByteForByte) {
  CostModel plain(PaperParams());
  CostModel calibrated(PaperParams());
  FakeCalibration fake;  // declines everything (returns -1)
  calibrated.SetCalibration(&fake);
  // Grid including cross-stripe requests (offset+size spanning several
  // 64 KiB stripes) — the paper-default path must be bit-identical.
  for (const byte_count offset : {0L, 32 * KiB, 96 * KiB}) {
    for (const byte_count size : {4 * KiB, 64 * KiB, 192 * KiB, 4 * MiB}) {
      for (const byte_count distance : {0L, 1 * MiB, 1 * GiB}) {
        EXPECT_EQ(plain.DServerCost(distance, offset, size),
                  calibrated.DServerCost(distance, offset, size));
        EXPECT_EQ(plain.CServerCost(device::IoKind::kWrite, offset, size),
                  calibrated.CServerCost(device::IoKind::kWrite, offset, size));
        EXPECT_EQ(plain.Benefit(device::IoKind::kRead, distance, offset, size),
                  calibrated.Benefit(device::IoKind::kRead, distance, offset,
                                     size));
      }
    }
  }
}

TEST(CostModelCalibration, CrossStripeRequestUsesProviderEstimate) {
  CostModel model(PaperParams());
  FakeCalibration fake;
  fake.d_return = FromMillis(7);
  fake.c_return = FromMillis(2);
  model.SetCalibration(&fake);
  // 192 KiB at offset 32 KiB spans four 64 KiB stripes on both tiers.
  const byte_count offset = 32 * KiB;
  const byte_count size = 192 * KiB;
  EXPECT_EQ(model.DServerCost(1 * GiB, offset, size), FromMillis(7));
  EXPECT_EQ(model.CServerCost(device::IoKind::kWrite, offset, size),
            FromMillis(2));
  // The provider saw the whole request and the model's structural startup
  // (positive for a random-distance request).
  EXPECT_EQ(fake.last_d_size, size);
  EXPECT_EQ(fake.last_c_size, size);
  EXPECT_GT(fake.last_startup, 0);
  // Fitted parameters already embody degradation: the health scale must
  // NOT be re-applied on top of a calibrated T_C.
  EXPECT_EQ(model.CServerCost(device::IoKind::kWrite, offset, size, 4.0),
            FromMillis(2));
}

}  // namespace
}  // namespace s4d::core
