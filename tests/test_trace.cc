#include "trace/trace.h"

#include <gtest/gtest.h>

#include <memory>

#include "device/ssd_model.h"

namespace s4d::trace {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() {
    pfs::FsConfig cfg;
    cfg.stripe = pfs::StripeConfig{2, 64 * KiB};
    cfg.link = net::GigabitEthernet();
    fs_ = std::make_unique<pfs::FileSystem>(engine_, cfg, [](int) {
      return std::make_unique<device::SsdModel>(device::OczRevoDriveX2());
    });
    collector_.Attach(*fs_, "DServers");
  }

  sim::Engine engine_;
  std::unique_ptr<pfs::FileSystem> fs_;
  TraceCollector collector_;
};

TEST_F(TraceTest, RecordsRequests) {
  const pfs::FileId f = fs_->OpenOrCreate("f");
  fs_->Submit(f, device::IoKind::kWrite, 0, 16 * KiB, pfs::Priority::kNormal,
              nullptr);
  fs_->Submit(f, device::IoKind::kRead, 0, 4 * KiB, pfs::Priority::kNormal,
              nullptr);
  engine_.Run();
  EXPECT_EQ(collector_.event_count(), 2u);
  EXPECT_EQ(collector_.events()[0].system, "DServers");
  EXPECT_EQ(collector_.events()[0].record.size, 16 * KiB);
}

TEST_F(TraceTest, DistributionWindowed) {
  const pfs::FileId f = fs_->OpenOrCreate("f");
  // Two requests now, one much later.
  fs_->Submit(f, device::IoKind::kWrite, 0, 1 * KiB, pfs::Priority::kNormal,
              nullptr);
  fs_->Submit(f, device::IoKind::kWrite, 0, 1 * KiB, pfs::Priority::kNormal,
              nullptr);
  engine_.RunUntil(FromSeconds(10));
  fs_->Submit(f, device::IoKind::kWrite, 0, 1 * KiB, pfs::Priority::kNormal,
              nullptr);
  engine_.Run();

  const Distribution early =
      collector_.RequestDistribution(0, FromSeconds(5));
  EXPECT_EQ(early.requests.at("DServers"), 2);
  EXPECT_EQ(early.bytes.at("DServers"), 2 * KiB);
  const Distribution late =
      collector_.RequestDistribution(FromSeconds(5), FromSeconds(20));
  EXPECT_EQ(late.requests.at("DServers"), 1);
  EXPECT_DOUBLE_EQ(early.RequestPercent("DServers"), 100.0);
  EXPECT_DOUBLE_EQ(early.RequestPercent("CServers"), 0.0);
}

TEST_F(TraceTest, BackgroundRequestsExcludedFromDistribution) {
  const pfs::FileId f = fs_->OpenOrCreate("f");
  fs_->Submit(f, device::IoKind::kWrite, 0, 1 * KiB, pfs::Priority::kNormal,
              nullptr);
  fs_->Submit(f, device::IoKind::kWrite, 0, 1 * KiB,
              pfs::Priority::kBackground, nullptr);
  engine_.Run();
  const Distribution dist =
      collector_.RequestDistribution(0, FromSeconds(100));
  EXPECT_EQ(dist.total_requests(), 1);
}

TEST_F(TraceTest, SequentialFraction) {
  const pfs::FileId f = fs_->OpenOrCreate("f");
  // Three perfectly sequential, then one jump.
  byte_count off = 0;
  for (int i = 0; i < 3; ++i) {
    fs_->Submit(f, device::IoKind::kWrite, off, 16 * KiB,
                pfs::Priority::kNormal, nullptr);
    off += 16 * KiB;
  }
  fs_->Submit(f, device::IoKind::kWrite, 10 * MiB, 16 * KiB,
              pfs::Priority::kNormal, nullptr);
  engine_.Run();
  // Of the 3 requests with a predecessor, 2 were sequential.
  EXPECT_NEAR(collector_.SequentialFraction("DServers", 0, FromSeconds(100)),
              2.0 / 3.0, 1e-9);
}

TEST_F(TraceTest, PerFileStreamsForSequentiality) {
  const pfs::FileId a = fs_->OpenOrCreate("a");
  const pfs::FileId b = fs_->OpenOrCreate("b");
  // Interleaved but each file individually sequential.
  fs_->Submit(a, device::IoKind::kWrite, 0, 4 * KiB, pfs::Priority::kNormal,
              nullptr);
  fs_->Submit(b, device::IoKind::kWrite, 0, 4 * KiB, pfs::Priority::kNormal,
              nullptr);
  fs_->Submit(a, device::IoKind::kWrite, 4 * KiB, 4 * KiB,
              pfs::Priority::kNormal, nullptr);
  fs_->Submit(b, device::IoKind::kWrite, 4 * KiB, 4 * KiB,
              pfs::Priority::kNormal, nullptr);
  engine_.Run();
  EXPECT_DOUBLE_EQ(
      collector_.SequentialFraction("DServers", 0, FromSeconds(100)), 1.0);
}

TEST(TraceMultiFs, TwoSystemsDistribution) {
  sim::Engine engine;
  pfs::FsConfig cfg;
  cfg.stripe = pfs::StripeConfig{1, 64 * KiB};
  auto factory = [](int) {
    return std::make_unique<device::SsdModel>(device::OczRevoDriveX2());
  };
  pfs::FileSystem d(engine, cfg, factory);
  pfs::FileSystem c(engine, cfg, factory);
  TraceCollector collector;
  collector.Attach(d, "DServers");
  collector.Attach(c, "CServers");
  const pfs::FileId fd = d.OpenOrCreate("f");
  const pfs::FileId fc = c.OpenOrCreate("f.s4d");
  d.Submit(fd, device::IoKind::kWrite, 0, 1 * KiB, pfs::Priority::kNormal,
           nullptr);
  for (int i = 0; i < 3; ++i) {
    c.Submit(fc, device::IoKind::kWrite, 0, 1 * KiB, pfs::Priority::kNormal,
             nullptr);
  }
  engine.Run();
  const Distribution dist = collector.RequestDistribution(0, FromSeconds(10));
  EXPECT_EQ(dist.total_requests(), 4);
  EXPECT_DOUBLE_EQ(dist.RequestPercent("DServers"), 25.0);
  EXPECT_DOUBLE_EQ(dist.RequestPercent("CServers"), 75.0);
}

}  // namespace
}  // namespace s4d::trace
