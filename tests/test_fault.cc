// Fault subsystem unit tests: schedule parsing, server fault states
// (crash / restart / partition / degrade / background errors), file-system
// failure fan-out, and the injector's event scheduling (incl. Disarm's use
// of Engine::Cancel).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "callback_log.h"
#include "callback_sink.h"
#include "common/config_parser.h"
#include "fault/fault_injector.h"
#include "fault/fault_schedule.h"
#include "pfs/file_server.h"
#include "pfs/file_system.h"

namespace s4d::fault {
namespace {

// ---------------------------------------------------------------- schedule

TEST(FaultSchedule, ParsesEveryKind) {
  struct Case {
    const char* line;
    FaultKind kind;
  };
  const Case cases[] = {
      {"100ms crash cservers 0", FaultKind::kCrash},
      {"1s crash-wipe cservers 1", FaultKind::kCrashWipe},
      {"250ms restart cservers 0", FaultKind::kRestart},
      {"2s degrade-device dservers all 8.0", FaultKind::kDeviceDegrade},
      {"2s degrade-link dservers 2 4.0", FaultKind::kLinkDegrade},
      {"3s partition cservers 1", FaultKind::kPartition},
      {"4s heal cservers 1", FaultKind::kHeal},
      {"0ms bg-error cservers all 0.05", FaultKind::kBgErrorRate},
  };
  for (const Case& c : cases) {
    auto event = FaultSchedule::ParseEvent(c.line);
    ASSERT_TRUE(event.ok()) << c.line << ": " << event.status().ToString();
    EXPECT_EQ(event->kind, c.kind) << c.line;
  }
}

TEST(FaultSchedule, ParsesFields) {
  auto event = FaultSchedule::ParseEvent("250ms degrade-device cservers 3 8.5");
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->time, FromMillis(250));
  EXPECT_EQ(event->tier, FaultTier::kCServers);
  EXPECT_EQ(event->server, 3);
  EXPECT_DOUBLE_EQ(event->value, 8.5);

  auto all = FaultSchedule::ParseEvent("1s crash dservers all");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->server, kAllServers);
  EXPECT_EQ(all->tier, FaultTier::kDServers);
}

TEST(FaultSchedule, RejectsMalformedEvents) {
  const char* bad[] = {
      "",                                  // empty
      "100ms crash cservers",              // missing server
      "abc crash cservers 0",              // bad time
      "100ms explode cservers 0",          // unknown kind
      "100ms crash mservers 0",            // unknown tier
      "100ms crash cservers -2",           // negative server
      "100ms crash cservers x",            // non-numeric server
      "100ms degrade-device cservers 0 0.5",  // factor < 1
      "100ms bg-error cservers 0 1.5",     // probability > 1
  };
  for (const char* line : bad) {
    EXPECT_FALSE(FaultSchedule::ParseEvent(line).ok()) << line;
  }
}

TEST(FaultSchedule, FromConfigReadsContiguousKeys) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("[faults]\n"
                         "fault1 = 100ms crash cservers 0\n"
                         "fault2 = 250ms restart cservers 0\n"
                         "fault4 = 1s crash cservers 1\n")  // gap: ignored
                  .ok());
  auto schedule = FaultSchedule::FromConfig(config);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->size(), 2u);
  EXPECT_EQ(schedule->events()[1].kind, FaultKind::kRestart);
}

TEST(FaultSchedule, FromConfigAbsentSectionIsEmpty) {
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[cluster]\ndservers = 8\n").ok());
  auto schedule = FaultSchedule::FromConfig(config);
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(schedule->empty());
}

TEST(FaultSchedule, FromConfigPropagatesParseErrors) {
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[faults]\nfault1 = nonsense\n").ok());
  auto schedule = FaultSchedule::FromConfig(config);
  EXPECT_FALSE(schedule.ok());
  EXPECT_NE(schedule.status().message().find("fault1"), std::string::npos);
}

// ------------------------------------------------------------ file server

class FakeDevice final : public device::DeviceModel {
 public:
  explicit FakeDevice(SimTime positioning) : positioning_(positioning) {}
  device::AccessCosts Access(device::IoKind, byte_count, byte_count) override {
    return {positioning_, 0};
  }
  void Reset() override {}
  std::string Describe() const override { return "fake"; }

 private:
  SimTime positioning_;
};

net::LinkModel FastLink() {
  net::LinkProfile p;
  p.bandwidth_bps = 1e15;
  p.message_latency = 0;
  return net::LinkModel(p);
}

struct Outcome {
  int completed = 0;
  int failed = 0;
  SimTime last = -1;
};

pfs::ServerJob Job(testing::CallbackSink& sink, Outcome& out,
                   pfs::Priority priority = pfs::Priority::kNormal) {
  return sink.Job(
      device::IoKind::kWrite, 0, 1024, priority,
      [&out](SimTime t) {
        ++out.completed;
        out.last = t;
      },
      [&out](SimTime t) {
        ++out.failed;
        out.last = t;
      });
}

TEST(FileServerFaults, CrashFailsQueuedAndInflightJobs) {
  sim::Engine engine;
  testing::CallbackSink sink;
  pfs::FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(10)),
                         FastLink(), "s0");
  Outcome out;
  for (int i = 0; i < 3; ++i) server.Submit(Job(sink, out));
  engine.RunUntil(FromMillis(5));  // first job in flight, two queued
  server.Crash();
  engine.Run();
  EXPECT_EQ(out.completed, 0);
  EXPECT_EQ(out.failed, 3);
  EXPECT_EQ(out.last, FromMillis(5));  // failed at crash time, not later
  EXPECT_FALSE(server.up());
  EXPECT_EQ(server.stats().failed_jobs, 3);
  EXPECT_EQ(server.stats().crashes, 1);
}

TEST(FileServerFaults, SubmitToCrashedServerFails) {
  sim::Engine engine;
  testing::CallbackSink sink;
  pfs::FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                         FastLink(), "s0");
  server.Crash();
  Outcome out;
  server.Submit(Job(sink, out));
  engine.Run();
  EXPECT_EQ(out.completed, 0);
  EXPECT_EQ(out.failed, 1);
}

TEST(FileServerFaults, RestartServesNewJobs) {
  sim::Engine engine;
  testing::CallbackSink sink;
  pfs::FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                         FastLink(), "s0");
  server.Crash();
  server.Restart();
  EXPECT_TRUE(server.up());
  EXPECT_EQ(server.stats().restarts, 1);
  Outcome out;
  server.Submit(Job(sink, out));
  engine.Run();
  EXPECT_EQ(out.completed, 1);
  EXPECT_EQ(out.failed, 0);
}

TEST(FileServerFaults, PartitionStallsJobsUntilHeal) {
  sim::Engine engine;
  testing::CallbackSink sink;
  pfs::FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                         FastLink(), "s0");
  server.SetPartitioned(true);
  Outcome out;
  server.Submit(Job(sink, out));
  engine.RunUntil(FromMillis(50));
  EXPECT_EQ(out.completed, 0);  // stalled, not failed
  EXPECT_EQ(out.failed, 0);
  EXPECT_FALSE(server.reachable());
  server.SetPartitioned(false);
  engine.Run();
  EXPECT_EQ(out.completed, 1);
  EXPECT_EQ(out.failed, 0);
}

TEST(FileServerFaults, DeviceDegradeSlowsService) {
  auto run = [](double degrade) {
    sim::Engine engine;
    testing::CallbackSink sink;
    pfs::FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                           FastLink(), "s0");
    server.device().SetDegrade(degrade);
    Outcome out;
    server.Submit(Job(sink, out));
    engine.Run();
    return out.last;
  };
  EXPECT_EQ(run(1.0), FromMillis(1));
  EXPECT_EQ(run(8.0), FromMillis(8));
}

TEST(FileServerFaults, BackgroundErrorRateFailsOnlyBackgroundJobs) {
  sim::Engine engine;
  testing::CallbackSink sink;
  pfs::FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                         FastLink(), "s0", /*background_idle_grace=*/0);
  server.SetBackgroundErrorRate(1.0, 7);
  Outcome normal, background;
  server.Submit(Job(sink, normal));
  server.Submit(Job(sink, background, pfs::Priority::kBackground));
  engine.Run();
  EXPECT_EQ(normal.completed, 1);
  EXPECT_EQ(normal.failed, 0);
  EXPECT_EQ(background.completed, 0);
  EXPECT_EQ(background.failed, 1);
}

// Job lifetimes across faults. Each test logs every callback and checks
// that each job resolved exactly once, in the same order and at the same
// simulated times as the deque-queued server the job slab replaced
// (constants recorded from it).

net::LinkModel JitteredLink() {
  net::LinkProfile p;
  p.bandwidth_bps = 1e15;
  p.message_latency = 0;
  p.arrival_jitter = FromMicros(100);
  return net::LinkModel(p);
}

// Submits job `id`; both callbacks log it, and `then` runs after a failure.
void SubmitLogged(pfs::FileServer& server, testing::CallbackSink& sink,
                  std::vector<testing::Fired>& log, int id,
                  pfs::Priority priority,
                  std::function<void()> then = nullptr) {
  server.Submit(sink.Job(
      device::IoKind::kWrite, id * 64 * KiB, 4 * KiB, priority,
      [&log, id](SimTime t) { log.push_back({id, t, true}); },
      [&log, id, then = std::move(then)](SimTime t) {
        log.push_back({id, t, false});
        if (then) then();
      }));
}

TEST(FileServerFaults, CrashResolvesHeldJobsOnceThenSlotsAreReused) {
  sim::Engine engine;
  testing::CallbackSink sink;
  pfs::FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                         JitteredLink(), "s0", /*background_idle_grace=*/0);
  std::vector<testing::Fired> log;
  int next_id = 0;
  // Each failure of the first wave resubmits once to the crashed server,
  // where the retry fails again.
  auto retry = [&] {
    SubmitLogged(server, sink, log, next_id++, pfs::Priority::kNormal);
  };
  for (int i = 0; i < 6; ++i) {
    SubmitLogged(server, sink, log, next_id++,
                 i % 3 == 2 ? pfs::Priority::kBackground
                            : pfs::Priority::kNormal,
                 retry);
  }
  engine.RunUntil(FromMicros(2500));  // one job in service, others queued
  EXPECT_TRUE(server.busy());
  EXPECT_GT(server.queue_depth(), 0u);
  for (int i = 0; i < 2; ++i) {  // still in arrival flight at the crash
    SubmitLogged(server, sink, log, next_id++, pfs::Priority::kNormal, retry);
  }
  server.Crash();
  EXPECT_EQ(server.queue_depth(), 0u);
  engine.RunUntil(FromMillis(10));
  server.Restart();
  for (int i = 0; i < 5; ++i) {
    SubmitLogged(server, sink, log, next_id++,
                 i == 4 ? pfs::Priority::kBackground : pfs::Priority::kNormal);
  }
  engine.Run();
  ASSERT_EQ(next_id, 19);
  testing::ExpectEachFiredOnce(log, next_id);
  EXPECT_EQ(server.stats().failed_jobs, 12);
  EXPECT_EQ(server.stats().requests + server.stats().background_requests, 8);
  EXPECT_EQ(log.back().time, 15058449);
  EXPECT_EQ(testing::Digest(log), 2225710955807173530u);
}

TEST(FileServerFaults, BackgroundErrorsResolveEachJobOnce) {
  sim::Engine engine;
  testing::CallbackSink sink;
  pfs::FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                         JitteredLink(), "s0", /*background_idle_grace=*/0);
  server.SetBackgroundErrorRate(0.5, 11);
  std::vector<testing::Fired> log;
  constexpr int kJobs = 24;
  for (int id = 0; id < kJobs; ++id) {
    SubmitLogged(server, sink, log, id,
                 id % 3 == 0 ? pfs::Priority::kNormal
                             : pfs::Priority::kBackground);
  }
  engine.Run();
  testing::ExpectEachFiredOnce(log, kJobs);
  const auto failed = std::count_if(
      log.begin(), log.end(), [](const testing::Fired& f) { return !f.ok; });
  EXPECT_EQ(server.stats().failed_jobs, failed);
  EXPECT_EQ(failed, 10);
  EXPECT_EQ(log.back().time, 14010425);
  EXPECT_EQ(testing::Digest(log), 9021242288562063042u);
}

TEST(FileServerFaults, PartitionHealServesHeldJobsOnce) {
  sim::Engine engine;
  testing::CallbackSink sink;
  pfs::FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                         JitteredLink(), "s0", /*background_idle_grace=*/0);
  std::vector<testing::Fired> log;
  int next_id = 0;
  for (int i = 0; i < 3; ++i) {
    SubmitLogged(server, sink, log, next_id++, pfs::Priority::kNormal);
  }
  engine.RunUntil(FromMicros(1500));
  server.SetPartitioned(true);
  for (int i = 0; i < 6; ++i) {
    SubmitLogged(server, sink, log, next_id++,
                 i % 2 == 0 ? pfs::Priority::kNormal
                            : pfs::Priority::kBackground);
  }
  engine.RunUntil(FromMillis(20));
  EXPECT_GT(server.queue_depth(), 0u);  // held, neither served nor failed
  server.SetPartitioned(false);
  SubmitLogged(server, sink, log, next_id++, pfs::Priority::kNormal);
  engine.Run();
  testing::ExpectEachFiredOnce(log, next_id);
  EXPECT_EQ(server.stats().failed_jobs, 0);
  EXPECT_EQ(log.back().time, 28000000);
  EXPECT_EQ(testing::Digest(log), 10844342343009764967u);
}

// ------------------------------------------------------------ file system

pfs::FileSystem MakeFs(sim::Engine& engine, int servers) {
  pfs::FsConfig cfg;
  cfg.name = "fs";
  cfg.stripe.server_count = servers;
  cfg.stripe.stripe_size = 64 * KiB;
  return pfs::FileSystem(engine, cfg, [](int) {
    return std::make_unique<FakeDevice>(FromMillis(1));
  });
}

TEST(FileSystemFaults, RequestFailsWhenOneServerIsDown) {
  sim::Engine engine;
  auto fs = MakeFs(engine, 4);
  fs.server(2).Crash();
  const auto file = fs.OpenOrCreate("f");
  int completed = 0, failed = 0;
  // 256 KiB from offset 0 stripes across all four servers.
  fs.Submit(file, device::IoKind::kWrite, 0, 256 * KiB,
            pfs::Priority::kNormal, [&](SimTime) { ++completed; },
            [&](SimTime) { ++failed; });
  engine.Run();
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(failed, 1);  // exactly once, despite three healthy sub-requests
  EXPECT_EQ(fs.stats().failed_requests, 1);
  EXPECT_FALSE(fs.AllServersReachable());
  EXPECT_EQ(fs.DownServerCount(), 1);
}

TEST(FileSystemFaults, RequestMissingDownServerSucceeds) {
  sim::Engine engine;
  auto fs = MakeFs(engine, 4);
  fs.server(3).Crash();
  const auto file = fs.OpenOrCreate("f");
  int completed = 0, failed = 0;
  // 64 KiB at offset 0 touches only server 0.
  fs.Submit(file, device::IoKind::kWrite, 0, 64 * KiB, pfs::Priority::kNormal,
            [&](SimTime) { ++completed; }, [&](SimTime) { ++failed; });
  engine.Run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(fs.stats().failed_requests, 0);
}

TEST(FileSystemFaults, FailedRequestWithoutFailureCallbackUsesOnComplete) {
  // Callers written before fault injection pass no on_failure; a failed
  // request must still resolve their completion exactly once.
  sim::Engine engine;
  auto fs = MakeFs(engine, 4);
  fs.server(0).Crash();
  const auto file = fs.OpenOrCreate("f");
  int resolved = 0;
  fs.Submit(file, device::IoKind::kWrite, 0, 256 * KiB,
            pfs::Priority::kNormal, [&](SimTime) { ++resolved; });
  engine.Run();
  EXPECT_EQ(resolved, 1);
  EXPECT_EQ(fs.stats().failed_requests, 1);
}

// --------------------------------------------------------------- injector

TEST(FaultInjector, AppliesScheduledEventsAtTheirTimes) {
  sim::Engine engine;
  auto dservers = MakeFs(engine, 2);
  auto cservers = MakeFs(engine, 2);
  FaultSchedule schedule;
  ASSERT_TRUE(schedule.empty());
  schedule.Add(*FaultSchedule::ParseEvent("10ms crash cservers 0"));
  schedule.Add(*FaultSchedule::ParseEvent("20ms restart cservers 0"));
  schedule.Add(*FaultSchedule::ParseEvent("30ms degrade-device dservers all 4"));

  FaultInjector injector(engine, dservers, cservers);
  injector.Arm(schedule);

  engine.RunUntil(FromMillis(15));
  EXPECT_FALSE(cservers.server(0).up());
  engine.RunUntil(FromMillis(25));
  EXPECT_TRUE(cservers.server(0).up());
  engine.RunUntil(FromMillis(35));
  EXPECT_DOUBLE_EQ(dservers.server(0).device().degrade(), 4.0);
  EXPECT_DOUBLE_EQ(dservers.server(1).device().degrade(), 4.0);
  EXPECT_EQ(injector.stats().events_applied, 3);
  EXPECT_EQ(injector.stats().crashes, 1);
  EXPECT_EQ(injector.stats().restarts, 1);
}

TEST(FaultInjector, DisarmCancelsPendingEvents) {
  // Exercises Engine::Cancel through the injector: a crash fires, then the
  // schedule's remaining events are disarmed and must never apply.
  sim::Engine engine;
  auto dservers = MakeFs(engine, 2);
  auto cservers = MakeFs(engine, 2);
  FaultSchedule schedule;
  schedule.Add(*FaultSchedule::ParseEvent("10ms crash cservers 0"));
  schedule.Add(*FaultSchedule::ParseEvent("20ms crash cservers 1"));
  schedule.Add(*FaultSchedule::ParseEvent("30ms crash dservers all"));

  FaultInjector injector(engine, dservers, cservers);
  injector.Arm(schedule);
  engine.RunUntil(FromMillis(15));
  EXPECT_FALSE(cservers.server(0).up());

  EXPECT_EQ(injector.Disarm(), 2);  // the two unfired events
  engine.Run();
  EXPECT_TRUE(cservers.server(1).up());
  EXPECT_TRUE(dservers.server(0).up());
  EXPECT_TRUE(dservers.server(1).up());
  EXPECT_EQ(injector.stats().events_applied, 1);
  EXPECT_EQ(injector.Disarm(), 0);  // idempotent
}

TEST(FaultInjector, OutOfRangeServerIsIgnored) {
  sim::Engine engine;
  auto dservers = MakeFs(engine, 2);
  auto cservers = MakeFs(engine, 2);
  FaultInjector injector(engine, dservers, cservers);
  injector.Apply(*FaultSchedule::ParseEvent("0ms crash cservers 9"));
  EXPECT_TRUE(cservers.server(0).up());
  EXPECT_TRUE(cservers.server(1).up());
  EXPECT_EQ(injector.stats().crashes, 0);
}

}  // namespace
}  // namespace s4d::fault
