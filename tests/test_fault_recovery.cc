// Degraded-mode routing and crash recovery, end to end over a Testbed:
// writes bypass a down cache tier, dirty reads queue (or serve stale with a
// reported loss window), media wipes drop mappings and report lost dirty
// bytes, and the Rebuilder's recovery pass flushes the surviving backlog so
// no acknowledged write is lost.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/s4d_cache.h"
#include "fault/fault_injector.h"
#include "fault/fault_schedule.h"
#include "harness/content_checker.h"
#include "harness/driver.h"
#include "harness/testbed.h"

namespace s4d {
namespace {

constexpr const char* kFile = "data";

struct Rig {
  explicit Rig(core::S4DConfig cfg) : bed(MakeBedConfig()) {
    s4d = bed.MakeS4D(cfg);
    s4d->SetDirtyLossHook([this](const std::string& file, byte_count offset,
                                 byte_count length) {
      checker.MarkMaybeLost(file, offset, length);
    });
    injector = std::make_unique<fault::FaultInjector>(
        bed.engine(), bed.dservers(), bed.cservers(), s4d.get());
    s4d->Open(kFile);
  }

  static harness::TestbedConfig MakeBedConfig() {
    harness::TestbedConfig cfg;
    cfg.track_content = true;
    return cfg;
  }

  static core::S4DConfig CacheAllConfig(bool rebuilder = false) {
    core::S4DConfig cfg;
    cfg.cache_capacity = 8 * MiB;
    cfg.policy = core::AdmissionPolicy::kAlways;
    cfg.enable_rebuilder = rebuilder;
    cfg.rebuilder.interval = FromMillis(10);
    cfg.rebuilder.retry_backoff = FromMillis(20);
    return cfg;
  }

  // Issues one write and runs it to completion.
  void Write(byte_count offset, byte_count size) {
    mpiio::FileRequest request;
    request.file = kFile;
    request.offset = offset;
    request.size = size;
    request.content_token = checker.OnWrite(kFile, offset, size);
    bool done = false;
    s4d->Write(request, [&done](SimTime) { done = true; });
    // Step just until completion — not further, so an enabled Rebuilder
    // gets no chance to flush the write before the test injects its fault.
    while (!done) ASSERT_TRUE(bed.engine().Step());
  }

  void Inject(const char* line) {
    injector->Apply(*fault::FaultSchedule::ParseEvent(line));
  }

  bool Drain(SimTime budget = FromSeconds(60)) {
    return harness::DrainUntil(bed.engine(),
                               [this] { return s4d->BackgroundQuiescent(); },
                               budget);
  }

  harness::Testbed bed;
  std::unique_ptr<core::S4DCache> s4d;
  std::unique_ptr<fault::FaultInjector> injector;
  harness::ContentChecker checker;
};

// Records what each request went through: request starts, the decision
// the admission stage saw, and the completion record.
struct Recorder final : core::CacheExtension {
  struct Seen {
    device::IoKind kind;
    byte_count distance;
    SimTime benefit;
    SimTime dserver_cost;
    SimTime cserver_cost;
  };
  void OnRequestStart(const mpiio::FileRequest&,
                      device::IoKind kind) override {
    starts.push_back(kind);
  }
  bool Admit(const core::AdmissionContext& ctx, bool verdict) override {
    decisions.push_back(Seen{ctx.kind, ctx.distance, ctx.benefit,
                             ctx.dserver_cost, ctx.cserver_cost});
    return verdict;
  }
  void OnOutcome(const core::RequestOutcome& outcome) override {
    outcomes.push_back(outcome);
  }
  std::vector<device::IoKind> starts;
  std::vector<Seen> decisions;
  std::vector<core::RequestOutcome> outcomes;
};

TEST(FaultRecovery, FailedSegmentOfSplitReadResolvesOnce) {
  Rig rig(Rig::CacheAllConfig());
  rig.Write(0, 64 * KiB);  // admitted: [0, 64 KiB) is dirty in the cache
  ASSERT_EQ(rig.s4d->join_pool_size(), 1u);

  // [0, 128 KiB) is a partial hit: the mapped half from the CServers, the
  // gap (stripe 1, on DServer 1) from the DServers.
  mpiio::FileRequest request;
  request.file = kFile;
  request.offset = 0;
  request.size = 128 * KiB;
  int completions = 0;
  rig.s4d->Read(request, [&completions](SimTime) { ++completions; });
  ASSERT_EQ(rig.s4d->counters().split_requests, 1);
  // Past the metadata delay both segments are submitted; the DServer
  // segment fails with its server.
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromMicros(10));
  rig.bed.dservers().server(1).Crash();
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromSeconds(2));
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(rig.s4d->counters().failed_requests, 1);
  EXPECT_EQ(rig.bed.dservers().stats().failed_requests, 1);
  EXPECT_EQ(rig.bed.cservers().stats().failed_requests, 0);

  // The next request runs on the recycled join.
  request.size = 64 * KiB;
  rig.s4d->Read(request, [&completions](SimTime) { ++completions; });
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromSeconds(2));
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(rig.s4d->counters().failed_requests, 1);
  EXPECT_EQ(rig.s4d->join_pool_size(), 1u);
}

TEST(FaultRecovery, DegradedWriteBypassesDownCacheTier) {
  Rig rig(Rig::CacheAllConfig());
  rig.Write(0, 256 * KiB);  // admitted: dirty in the cache
  ASSERT_GT(rig.s4d->dmt().dirty_bytes(), 0);
  ASSERT_TRUE(rig.s4d->tier().Reachable());

  rig.Inject("0ms crash cservers all");
  EXPECT_FALSE(rig.s4d->tier().Reachable());

  // Overwrite part of the cached range while the tier is down: the write
  // must land on the DServers and supersede the overlapping dirty mapping.
  rig.Write(64 * KiB, 128 * KiB);
  EXPECT_EQ(rig.s4d->redirector_stats().degraded_writes, 1);
  EXPECT_EQ(rig.s4d->counters().failed_requests, 0);

  // Every acknowledged byte is still observable: the overwrite from the
  // DServers, the untouched remainder through the (intact) mapping.
  EXPECT_EQ(rig.checker.CheckAll(*rig.s4d), 0);
  EXPECT_EQ(rig.checker.failures(), 0);
}

TEST(FaultRecovery, CleanDegradedReadServedFromDServers) {
  Rig rig(Rig::CacheAllConfig());
  rig.Inject("0ms crash cservers all");

  // Unmapped range: nothing dirty at stake; the read completes from the
  // DServers while the cache tier is down.
  mpiio::FileRequest request;
  request.file = kFile;
  request.offset = 0;
  request.size = 64 * KiB;
  bool done = false;
  rig.s4d->Read(request, [&done](SimTime) { done = true; });
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromSeconds(2));
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.s4d->redirector_stats().degraded_reads, 1);
  EXPECT_EQ(rig.s4d->counters().queued_degraded_reads, 0);
}

TEST(FaultRecovery, DirtyReadQueuesUntilTierRestored) {
  Rig rig(Rig::CacheAllConfig());
  rig.Write(0, 128 * KiB);
  rig.Inject("0ms crash cservers all");

  mpiio::FileRequest request;
  request.file = kFile;
  request.offset = 0;
  request.size = 64 * KiB;
  bool done = false;
  rig.s4d->Read(request, [&done](SimTime) { done = true; });
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromSeconds(2));
  EXPECT_FALSE(done) << "dirty read must hold while the tier is down";
  EXPECT_EQ(rig.s4d->counters().queued_degraded_reads, 1);

  rig.Inject("0ms restart cservers all");  // triggers OnCacheTierRestored
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromSeconds(2));
  EXPECT_TRUE(done) << "queued read must be re-issued on recovery";
  EXPECT_EQ(rig.checker.failures(), 0);
}

TEST(FaultRecovery, DirtyReadPromotesToStaleAfterTimeout) {
  // kQueue with a timeout: no restart ever comes, so the held read must
  // promote itself to a stale DServer read instead of stalling forever.
  auto cfg = Rig::CacheAllConfig();
  cfg.queue_stale_timeout = FromMillis(500);
  Rig rig(cfg);
  rig.Write(0, 128 * KiB);
  rig.Inject("0ms crash cservers all");

  mpiio::FileRequest request;
  request.file = kFile;
  request.offset = 0;
  request.size = 64 * KiB;
  bool done = false;
  rig.s4d->Read(request, [&done](SimTime) { done = true; });
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromMillis(100));
  EXPECT_FALSE(done) << "read must still be held before the timeout";
  EXPECT_EQ(rig.s4d->counters().queued_degraded_reads, 1);

  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromSeconds(2));
  EXPECT_TRUE(done) << "timed-out read must complete from the DServers";
  EXPECT_EQ(rig.s4d->counters().promoted_stale_reads, 1);
  EXPECT_EQ(rig.s4d->counters().stale_dirty_reads, 1);
  // The bypassed dirty range went through the loss hook.
  EXPECT_GE(rig.checker.lost_bytes(), 64 * KiB);
}

TEST(FaultRecovery, RecoveryBeforeTimeoutLeavesNothingToPromote) {
  auto cfg = Rig::CacheAllConfig();
  cfg.queue_stale_timeout = FromMillis(500);
  Rig rig(cfg);
  rig.Write(0, 128 * KiB);
  rig.Inject("0ms crash cservers all");

  mpiio::FileRequest request;
  request.file = kFile;
  request.offset = 0;
  request.size = 64 * KiB;
  bool done = false;
  rig.s4d->Read(request, [&done](SimTime) { done = true; });
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromMillis(100));
  ASSERT_FALSE(done);

  // Tier restored well before the timeout: the read drains through the
  // normal recovery path and the later timer must find nothing to promote.
  rig.Inject("0ms restart cservers all");
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromSeconds(2));
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.s4d->counters().promoted_stale_reads, 0);
  EXPECT_EQ(rig.s4d->counters().stale_dirty_reads, 0);
  EXPECT_EQ(rig.checker.failures(), 0);
}

TEST(FaultRecovery, HeldReadIsDecidedOnce) {
  // A read held across an outage keeps its decision: recovery re-plans it
  // without rerunning the start stage, the Identifier or admission.
  Rig rig(Rig::CacheAllConfig());
  Recorder recorder;
  rig.s4d->Attach(recorder);
  rig.Write(0, 128 * KiB);
  rig.Inject("0ms crash cservers all");

  mpiio::FileRequest request;
  request.file = kFile;
  request.offset = 0;
  request.size = 64 * KiB;
  bool done = false;
  rig.s4d->Read(request, [&done](SimTime) { done = true; });
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromSeconds(2));
  ASSERT_FALSE(done);
  rig.Inject("0ms restart cservers all");
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromSeconds(2));
  ASSERT_TRUE(done);

  EXPECT_EQ(recorder.starts.size(), 2u) << "one write and one read started";
  EXPECT_EQ(rig.s4d->identifier_stats().requests, 2);
  ASSERT_EQ(recorder.decisions.size(), 2u);
  // The read's stream distance is measured once, behind the write's tail —
  // not against the read's own tail, as a second evaluation would.
  EXPECT_EQ(recorder.decisions[1].distance, -128 * KiB);
  ASSERT_EQ(recorder.outcomes.size(), 2u);
  EXPECT_EQ(recorder.outcomes[1].kind, device::IoKind::kRead);
  EXPECT_EQ(recorder.outcomes[1].benefit, recorder.decisions[1].benefit);
  EXPECT_EQ(rig.checker.failures(), 0);
}

TEST(FaultRecovery, PromotedStaleReadReportsItsOwnDecision) {
  auto cfg = Rig::CacheAllConfig();
  cfg.queue_stale_timeout = FromMillis(500);
  Rig rig(cfg);
  Recorder recorder;
  rig.s4d->Attach(recorder);
  rig.Write(0, 128 * KiB);
  rig.Inject("0ms crash cservers all");

  mpiio::FileRequest request;
  request.file = kFile;
  request.offset = 0;
  request.size = 64 * KiB;
  bool done = false;
  rig.s4d->Read(request, [&done](SimTime) { done = true; });
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromMillis(100));
  ASSERT_FALSE(done);
  // Another request is decided while the read is held.
  rig.Write(8 * MiB, 4 * MiB);
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromSeconds(2));
  ASSERT_TRUE(done);
  ASSERT_EQ(rig.s4d->counters().promoted_stale_reads, 1);

  ASSERT_EQ(recorder.decisions.size(), 3u);
  const Recorder::Seen& read = recorder.decisions[1];
  const Recorder::Seen& later_write = recorder.decisions[2];
  ASSERT_EQ(read.kind, device::IoKind::kRead);
  ASSERT_NE(read.benefit, later_write.benefit);
  ASSERT_EQ(recorder.outcomes.size(), 3u);
  const core::RequestOutcome& outcome = recorder.outcomes[2];
  ASSERT_EQ(outcome.kind, device::IoKind::kRead);
  EXPECT_EQ(outcome.benefit, read.benefit);
  EXPECT_EQ(outcome.predicted_dserver, read.dserver_cost);
  EXPECT_EQ(outcome.predicted_cserver, read.cserver_cost);
}

TEST(FaultRecovery, ServeStaleCompletesAndReportsLossWindow) {
  auto cfg = Rig::CacheAllConfig();
  cfg.degraded_read_mode = core::DegradedReadMode::kServeStale;
  Rig rig(cfg);
  rig.Write(0, 128 * KiB);
  rig.Inject("0ms crash cservers all");

  mpiio::FileRequest request;
  request.file = kFile;
  request.offset = 0;
  request.size = 64 * KiB;
  bool done = false;
  rig.s4d->Read(request, [&done](SimTime) { done = true; });
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromSeconds(2));
  EXPECT_TRUE(done) << "kServeStale must not stall the rank";
  EXPECT_EQ(rig.s4d->counters().stale_dirty_reads, 1);
  // The bypassed dirty range was reported through the loss hook.
  EXPECT_GE(rig.checker.lost_bytes(), 64 * KiB);
}

TEST(FaultRecovery, WipeDropsMappingsAndReportsDirtyLoss) {
  Rig rig(Rig::CacheAllConfig());
  rig.Write(0, 512 * KiB);  // striped across all four CServers
  ASSERT_GT(rig.s4d->dmt().dirty_bytes(), 0);

  rig.Inject("0ms crash-wipe cservers 0");
  EXPECT_GT(rig.s4d->counters().wiped_extents, 0);
  EXPECT_GT(rig.s4d->counters().lost_dirty_bytes, 0);
  EXPECT_GT(rig.checker.lost_bytes(), 0);

  // The final image diverges only inside the reported loss window: the
  // checker classifies it, not fails on it.
  rig.checker.CheckAll(*rig.s4d);
  EXPECT_EQ(rig.checker.failures(), 0);
  EXPECT_GT(rig.checker.loss_window_reads(), 0);
}

TEST(FaultRecovery, RecoveryPassFlushesSurvivingDirtyData) {
  Rig rig(Rig::CacheAllConfig(/*rebuilder=*/true));
  rig.Write(0, 256 * KiB);
  rig.Write(256 * KiB, 256 * KiB);
  const byte_count dirty_before = rig.s4d->dmt().dirty_bytes();
  ASSERT_GT(dirty_before, 0);

  // Crash before the Rebuilder gets a chance to flush; the SSD media — and
  // with it every dirty extent — survives the crash.
  rig.Inject("0ms crash cservers all");
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromMillis(100));
  EXPECT_GT(rig.s4d->rebuilder_stats().degraded_skips, 0);
  EXPECT_EQ(rig.s4d->dmt().dirty_bytes(), dirty_before);

  rig.Inject("0ms restart cservers all");
  ASSERT_TRUE(rig.Drain());
  EXPECT_EQ(rig.s4d->dmt().dirty_bytes(), 0);
  EXPECT_EQ(rig.s4d->rebuilder_stats().recovery_passes, 1);
  EXPECT_GT(rig.s4d->rebuilder_stats().recovered_dirty_extents, 0);

  // Zero acknowledged-write loss: faults only touched clean availability.
  EXPECT_EQ(rig.checker.CheckAll(*rig.s4d), 0);
  EXPECT_EQ(rig.checker.failures(), 0);
}

TEST(FaultRecovery, FlushRetriesAfterTransientBackgroundErrors) {
  Rig rig(Rig::CacheAllConfig(/*rebuilder=*/true));
  // Every DServer write-back fails while the error rate is 1.
  for (int i = 0; i < rig.bed.dservers().server_count(); ++i) {
    rig.bed.dservers().server(i).SetBackgroundErrorRate(1.0, 11);
  }
  rig.Write(0, 128 * KiB);
  rig.bed.engine().RunUntil(rig.bed.engine().now() + FromMillis(300));
  EXPECT_GT(rig.s4d->rebuilder_stats().flush_failures, 0);
  EXPECT_GT(rig.s4d->dmt().dirty_bytes(), 0) << "failed flushes stay dirty";

  for (int i = 0; i < rig.bed.dservers().server_count(); ++i) {
    rig.bed.dservers().server(i).SetBackgroundErrorRate(0.0, 11);
  }
  ASSERT_TRUE(rig.Drain());
  EXPECT_EQ(rig.s4d->dmt().dirty_bytes(), 0);
  EXPECT_GT(rig.s4d->rebuilder_stats().flushes_cleaned, 0);
  EXPECT_EQ(rig.checker.CheckAll(*rig.s4d), 0);
  EXPECT_EQ(rig.checker.failures(), 0);
}

}  // namespace
}  // namespace s4d
