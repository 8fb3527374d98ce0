#include "harness/driver.h"

#include <gtest/gtest.h>

#include "common/config_parser.h"
#include "harness/testbed.h"
#include "workloads/ior.h"

namespace s4d::harness {
namespace {

TEST(Testbed, BuildsPaperDeployment) {
  Testbed bed{TestbedConfig{}};
  EXPECT_EQ(bed.dservers().server_count(), 8);
  EXPECT_EQ(bed.cservers().server_count(), 4);
  EXPECT_EQ(bed.dservers().config().stripe.stripe_size, 64 * KiB);
  EXPECT_EQ(bed.stock().Name(), "stock");
}

TEST(Testbed, MakeS4DWiresCostModel) {
  Testbed bed{TestbedConfig{}};
  auto s4d = bed.MakeS4D(core::S4DConfig{});
  EXPECT_EQ(s4d->cost_model().params().hdd_servers, 8);
  EXPECT_EQ(s4d->cost_model().params().ssd_servers, 4);
  s4d->rebuilder().Stop();
}

TEST(ClusterOverrides, PresentKeysOverrideTheProfiles) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("[cluster]\n"
                         "hdd_rpm = 10000\n"
                         "hdd_avg_seek = 4ms\n"
                         "hdd_readahead = 1m\n"
                         "link_bps = 5e8\n")
                  .ok());
  TestbedConfig bed;
  const TestbedConfig defaults;
  ASSERT_TRUE(ApplyClusterOverrides(config, bed).ok());
  EXPECT_EQ(bed.hdd.rpm, 10000.0);
  EXPECT_EQ(bed.hdd.average_seek, FromMillis(4));
  EXPECT_EQ(bed.hdd.readahead_window, 1 * MiB);
  EXPECT_EQ(bed.link.bandwidth_bps, 5e8);
  EXPECT_EQ(bed.hdd.max_seek, defaults.hdd.max_seek);
  EXPECT_EQ(bed.ssd.read_bps, defaults.ssd.read_bps);
}

// A present value that does not parse is an error naming the key, never a
// silent fallback to the paper's profile.
class ClusterOverridesMalformed
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ClusterOverridesMalformed, RejectsNamingTheKey) {
  const std::string key = GetParam();
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[cluster]\n" + key + " = 3x\n").ok());
  TestbedConfig bed;
  const Status status = ApplyClusterOverrides(config, bed);
  ASSERT_FALSE(status.ok()) << key << " = 3x applied";
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("cluster." + key + ": cannot parse '3x'"),
            std::string::npos)
      << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    EveryKey, ClusterOverridesMalformed,
    ::testing::Values("hdd_transfer_bps", "hdd_rpm", "hdd_avg_seek",
                      "hdd_max_seek", "hdd_track_seek", "hdd_command_overhead",
                      "hdd_readahead", "ssd_read_bps", "ssd_write_bps",
                      "ssd_read_latency", "ssd_write_latency", "link_bps",
                      "link_latency"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(Driver, RunsIorToCompletion) {
  Testbed bed{TestbedConfig{}};
  mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
  workloads::IorConfig cfg;
  cfg.ranks = 4;
  cfg.file_size = 16 * MiB;
  cfg.request_size = 1 * MiB;
  workloads::IorWorkload wl(cfg);

  const RunResult result = RunClosedLoop(layer, wl);
  EXPECT_EQ(result.requests, 16);
  EXPECT_EQ(result.bytes, 16 * MiB);
  EXPECT_GT(result.elapsed(), 0);
  EXPECT_GT(result.throughput_mbps, 0.0);
  EXPECT_GT(result.mean_latency_us, 0.0);
  EXPECT_GE(result.max_latency_us, result.mean_latency_us);
}

TEST(Driver, SequentialBeatsRandomOnStockHdd) {
  auto run = [](bool random) {
    Testbed bed{TestbedConfig{}};
    mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
    workloads::IorConfig cfg;
    cfg.ranks = 4;
    cfg.file_size = 32 * MiB;
    cfg.request_size = 16 * KiB;
    cfg.random = random;
    workloads::IorWorkload wl(cfg);
    return RunClosedLoop(layer, wl).throughput_mbps;
  };
  const double seq = run(false);
  const double rnd = run(true);
  EXPECT_GT(seq, 2.0 * rnd) << "seq=" << seq << " rnd=" << rnd;
}

TEST(Driver, OnIssueHookSeesEveryRequest) {
  Testbed bed{TestbedConfig{}};
  mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
  workloads::IorConfig cfg;
  cfg.ranks = 2;
  cfg.file_size = 4 * MiB;
  cfg.request_size = 1 * MiB;
  workloads::IorWorkload wl(cfg);
  int issued = 0;
  DriverOptions options;
  options.on_issue = [&](int, const workloads::Request&) { ++issued; };
  const RunResult result = RunClosedLoop(layer, wl, options);
  EXPECT_EQ(issued, result.requests);
}

TEST(Driver, ContentCheckerVerifiesStockReads) {
  TestbedConfig bed_cfg;
  bed_cfg.track_content = true;
  Testbed bed{bed_cfg};
  mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
  ContentChecker checker;
  DriverOptions options;
  options.checker = &checker;

  workloads::IorConfig cfg;
  cfg.ranks = 2;
  cfg.file_size = 8 * MiB;
  cfg.request_size = 512 * KiB;
  cfg.kind = device::IoKind::kWrite;
  workloads::IorWorkload writes(cfg);
  RunClosedLoop(layer, writes, options);

  cfg.kind = device::IoKind::kRead;
  workloads::IorWorkload reads(cfg);
  RunClosedLoop(layer, reads, options);
  EXPECT_GT(checker.checks(), 0);
  EXPECT_EQ(checker.failures(), 0) << checker.first_failure();
}

TEST(Driver, DrainUntilReachesQuiescence) {
  Testbed bed{TestbedConfig{}};
  bool flag = false;
  bed.engine().ScheduleAfter(FromMillis(30), [&] { flag = true; });
  EXPECT_TRUE(DrainUntil(bed.engine(), [&] { return flag; },
                         FromSeconds(1)));
  EXPECT_TRUE(flag);
}

TEST(Driver, DrainUntilTimesOut) {
  Testbed bed{TestbedConfig{}};
  const SimTime start = bed.engine().now();
  EXPECT_FALSE(DrainUntil(bed.engine(), [] { return false; },
                          FromMillis(200)));
  EXPECT_EQ(bed.engine().now(), start + FromMillis(200));
}

TEST(ContentChecker, DetectsMismatch) {
  TestbedConfig bed_cfg;
  bed_cfg.track_content = true;
  Testbed bed{bed_cfg};
  ContentChecker checker;
  // Register a write in the reference but never perform it.
  checker.OnWrite("ghost", 0, 100);
  EXPECT_FALSE(checker.CheckRead(bed.stock(), "ghost", 0, 100));
  EXPECT_EQ(checker.failures(), 1);
  EXPECT_FALSE(checker.first_failure().empty());
}

}  // namespace
}  // namespace s4d::harness
