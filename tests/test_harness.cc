#include "harness/driver.h"

#include <gtest/gtest.h>

#include <functional>

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

// A drain scenario: a clock that starts off the slice grid, a periodic tick
// that re-arms itself every `period` until `ticks` have fired, and a
// predicate that holds once `quiet_after` ticks have fired (never when
// negative).
struct DrainScenario {
  SimTime start = FromMillis(7) + 3;
  SimTime period = FromMillis(1730);
  int ticks = 12;
  int quiet_after = -1;
  bool cancelled_head = false;
  SimTime max_duration = FromSeconds(60);
  SimTime slice = FromMillis(50);
};

struct DrainOutcome {
  bool quiescent;
  SimTime now;
  int ticks;
};

DrainOutcome RunDrain(const DrainScenario& scenario) {
  sim::Engine engine;
  engine.RunUntil(scenario.start);
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < scenario.ticks) {
      engine.ScheduleAfter(scenario.period, [&] { tick(); });
    }
  };
  if (scenario.ticks > 0) {
    engine.ScheduleAfter(scenario.period, [&] { tick(); });
  }
  if (scenario.cancelled_head) {
    // Scheduled after the first tick, so its heap entry is not the last
    // one and stays behind, cancelled, at the heap top.
    const sim::EventId early = engine.ScheduleAfter(FromMillis(1), [] {});
    engine.ScheduleAfter(scenario.period * 3, [] {});
    engine.Cancel(early);
  }
  auto quiescent = [&] {
    return scenario.quiet_after >= 0 && fired >= scenario.quiet_after;
  };
  const bool reached = DrainUntil(engine, quiescent, scenario.max_duration,
                                  scenario.slice);
  return {reached, engine.now(), fired};
}

// The predicate is polled once per slice, counted from the call's start:
// a drain ends at the end of the slice in which the predicate came to
// hold, or at the deadline, whichever is first.
TEST(Driver, DrainUntilPollsOncePerSlice) {
  DrainScenario deadline_hit;  // the ticks stop, the predicate never holds
  const DrainOutcome hit = RunDrain(deadline_hit);
  EXPECT_FALSE(hit.quiescent);
  EXPECT_EQ(hit.now, deadline_hit.start + deadline_hit.max_duration);
  EXPECT_EQ(hit.ticks, deadline_hit.ticks);

  DrainScenario mid_drain;
  mid_drain.quiet_after = 5;
  const DrainOutcome mid = RunDrain(mid_drain);
  EXPECT_TRUE(mid.quiescent);
  EXPECT_EQ(mid.ticks, 5);
  // The slice that holds the fifth tick ends on the grid from the start.
  EXPECT_EQ((mid.now - mid_drain.start) % mid_drain.slice, 0);
  EXPECT_LT(mid.now, mid_drain.start + 5 * mid_drain.period + mid_drain.slice);

  DrainScenario ragged;  // the deadline is not a whole number of slices
  ragged.max_duration = FromMillis(12345) + 678;
  const DrainOutcome ragged_hit = RunDrain(ragged);
  EXPECT_FALSE(ragged_hit.quiescent);
  EXPECT_EQ(ragged_hit.now, ragged.start + ragged.max_duration);
  ragged.quiet_after = 7;  // ... and the last tick before it
  ragged.period = FromMillis(1763);
  const DrainOutcome ragged_quiet = RunDrain(ragged);
  EXPECT_TRUE(ragged_quiet.quiescent);
  EXPECT_EQ(ragged_quiet.ticks, 7);
  EXPECT_EQ(ragged_quiet.now, ragged.start + ragged.max_duration)
      << "the last slice is cut at the deadline";

  DrainScenario idle;
  idle.ticks = 0;
  EXPECT_EQ(RunDrain(idle).now, idle.start + idle.max_duration);
  idle.quiet_after = 0;
  const DrainOutcome already = RunDrain(idle);
  EXPECT_TRUE(already.quiescent);
  EXPECT_EQ(already.now, idle.start);

  DrainScenario cancelled;
  cancelled.cancelled_head = true;
  cancelled.quiet_after = 2;
  const DrainOutcome after_cancel = RunDrain(cancelled);
  EXPECT_TRUE(after_cancel.quiescent);
  EXPECT_EQ(after_cancel.ticks, 2);
  EXPECT_EQ((after_cancel.now - cancelled.start) % cancelled.slice, 0);
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
