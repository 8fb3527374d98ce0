#include "pfs/file_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "callback_log.h"
#include "callback_sink.h"
#include "device/ssd_model.h"

namespace s4d::pfs {
namespace {

// Fixed-cost fake device for deterministic queueing assertions.
class FakeDevice final : public device::DeviceModel {
 public:
  explicit FakeDevice(SimTime positioning, SimTime per_byte_ns = 0)
      : positioning_(positioning), per_byte_ns_(per_byte_ns) {}

  device::AccessCosts Access(device::IoKind, byte_count,
                             byte_count size) override {
    ++accesses_;
    return {positioning_, size * per_byte_ns_};
  }
  void Reset() override {}
  std::string Describe() const override { return "fake"; }

  int accesses() const { return accesses_; }

 private:
  SimTime positioning_;
  SimTime per_byte_ns_;
  int accesses_ = 0;
};

net::LinkModel FastLink() {
  net::LinkProfile p;
  p.bandwidth_bps = 1e15;  // effectively free wire
  p.message_latency = 0;
  return net::LinkModel(p);
}

TEST(FileServer, ServesJobAndCompletesAtServiceTime) {
  sim::Engine engine;
  testing::CallbackSink sink;
  FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                    FastLink(), "s0");
  SimTime completed = -1;
  server.Submit(sink.Job(device::IoKind::kRead, 0, 1024, Priority::kNormal,
                         [&](SimTime t) { completed = t; }));
  engine.Run();
  EXPECT_EQ(completed, FromMillis(1));
  EXPECT_EQ(server.stats().requests, 1);
  EXPECT_EQ(server.stats().bytes, 1024);
}

TEST(FileServer, FifoWithinPriority) {
  sim::Engine engine;
  testing::CallbackSink sink;
  FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                    FastLink(), "s0");
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    server.Submit(sink.Job(device::IoKind::kWrite, 0, 1, Priority::kNormal,
                           [&order, i](SimTime) { order.push_back(i); }));
  }
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(FileServer, JobsSerializeOnTheDevice) {
  sim::Engine engine;
  testing::CallbackSink sink;
  FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(2)),
                    FastLink(), "s0");
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    server.Submit(sink.Job(device::IoKind::kWrite, 0, 1, Priority::kNormal,
                           [&](SimTime t) { completions.push_back(t); }));
  }
  engine.Run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], FromMillis(2));
  EXPECT_EQ(completions[1], FromMillis(4));
  EXPECT_EQ(completions[2], FromMillis(6));
}

TEST(FileServer, BackgroundYieldsToNormal) {
  sim::Engine engine;
  testing::CallbackSink sink;
  FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                    FastLink(), "s0");
  std::vector<std::string> order;
  // Queue a normal job to occupy the server, then one background and one
  // more normal: the normal one must be served before the background one
  // even though it was submitted later.
  server.Submit(sink.Job(device::IoKind::kWrite, 0, 1, Priority::kNormal,
                         [&](SimTime) { order.push_back("n1"); }));
  server.Submit(sink.Job(device::IoKind::kWrite, 0, 1, Priority::kBackground,
                         [&](SimTime) { order.push_back("bg"); }));
  server.Submit(sink.Job(device::IoKind::kWrite, 0, 1, Priority::kNormal,
                         [&](SimTime) { order.push_back("n2"); }));
  engine.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"n1", "n2", "bg"}));
  EXPECT_EQ(server.stats().requests, 2);
  EXPECT_EQ(server.stats().background_requests, 1);
}

TEST(FileServer, NetworkGatesSlowWire) {
  sim::Engine engine;
  testing::CallbackSink sink;
  net::LinkProfile slow;
  slow.bandwidth_bps = 1e6;  // 1 MB/s
  slow.message_latency = 0;
  // Device transfer is free; 1 MB over a 1 MB/s wire takes 1 s.
  FileServer server(engine, std::make_unique<FakeDevice>(0, 0),
                    net::LinkModel(slow), "s0");
  SimTime completed = -1;
  server.Submit(sink.Job(device::IoKind::kRead, 0, 1 * MB, Priority::kNormal,
                         [&](SimTime t) { completed = t; }));
  engine.Run();
  EXPECT_EQ(completed, FromSeconds(1.0));
}

TEST(FileServer, DeviceAndWireOverlapTakesMax) {
  sim::Engine engine;
  testing::CallbackSink sink;
  net::LinkProfile wire;
  wire.bandwidth_bps = 100e6;
  wire.message_latency = 0;
  // Device: 20 ns/byte -> 1 MB takes 20 ms; wire: 1 MB at 100 MB/s = 10 ms.
  FileServer server(engine, std::make_unique<FakeDevice>(0, 20),
                    net::LinkModel(wire), "s0");
  SimTime completed = -1;
  server.Submit(sink.Job(device::IoKind::kRead, 0, 1 * MB, Priority::kNormal,
                         [&](SimTime t) { completed = t; }));
  engine.Run();
  EXPECT_EQ(completed, FromMillis(20));  // max, not sum
}

TEST(FileServer, BackgroundWaitsForIdleGrace) {
  sim::Engine engine;
  testing::CallbackSink sink;
  FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                    FastLink(), "s0", /*background_idle_grace=*/FromMillis(5));
  SimTime normal_done = -1, bg_done = -1;
  server.Submit(sink.Job(device::IoKind::kWrite, 0, 1, Priority::kNormal,
                         [&](SimTime t) { normal_done = t; }));
  server.Submit(sink.Job(device::IoKind::kWrite, 0, 1, Priority::kBackground,
                         [&](SimTime t) { bg_done = t; }));
  engine.Run();
  EXPECT_EQ(normal_done, FromMillis(1));
  // Background starts only after 5 ms of idle following the normal job.
  EXPECT_EQ(bg_done, FromMillis(1) + FromMillis(5) + FromMillis(1));
}

TEST(FileServer, ArrivingNormalJobRestartsGraceClock) {
  sim::Engine engine;
  testing::CallbackSink sink;
  FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                    FastLink(), "s0", FromMillis(5));
  std::vector<std::string> order;
  server.Submit(sink.Job(device::IoKind::kWrite, 0, 1, Priority::kBackground,
                         [&](SimTime) { order.push_back("bg"); }));
  // A normal job arriving 2 ms in defers the background job further.
  engine.ScheduleAt(FromMillis(2), [&] {
    server.Submit(sink.Job(device::IoKind::kWrite, 0, 1, Priority::kNormal,
                           [&](SimTime) { order.push_back("n"); }));
  });
  engine.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "n");
  EXPECT_EQ(order[1], "bg");
  // n completes at 3 ms; bg starts at 8 ms, done at 9 ms.
  EXPECT_EQ(engine.now(), FromMillis(9));
}

TEST(FileServer, ZeroGraceServesBackgroundImmediatelyWhenIdle) {
  sim::Engine engine;
  testing::CallbackSink sink;
  FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                    FastLink(), "s0", /*background_idle_grace=*/0);
  SimTime bg_done = -1;
  server.Submit(sink.Job(device::IoKind::kWrite, 0, 1, Priority::kBackground,
                         [&](SimTime t) { bg_done = t; }));
  engine.Run();
  EXPECT_EQ(bg_done, FromMillis(1));
}

TEST(FileServer, ArrivalJitterPerturbsOrderDeterministically) {
  auto run = [](const std::string& name) {
    sim::Engine engine;
    testing::CallbackSink sink;
    net::LinkProfile link;
    link.bandwidth_bps = 1e15;
    link.message_latency = 0;
    link.arrival_jitter = FromMicros(100);
    FileServer server(engine, std::make_unique<FakeDevice>(FromMicros(1)),
                      net::LinkModel(link), name);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      server.Submit(sink.Job(device::IoKind::kWrite, 0, 1, Priority::kNormal,
                             [&order, i](SimTime) { order.push_back(i); }));
    }
    engine.Run();
    return order;
  };
  const auto a = run("s0");
  const auto b = run("s0");
  EXPECT_EQ(a, b) << "jitter must be deterministic per server name";
  EXPECT_FALSE(std::is_sorted(a.begin(), a.end()))
      << "jitter must actually reorder simultaneous arrivals";
  const auto c = run("other");
  EXPECT_NE(a, c) << "different servers draw different jitter";
}

TEST(FileServer, StatsTrackPositioning) {
  sim::Engine engine;
  testing::CallbackSink sink;
  FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(3)),
                    FastLink(), "s0");
  server.Submit(sink.Job(device::IoKind::kWrite, 0, 64, Priority::kNormal,
                         nullptr));
  engine.Run();
  EXPECT_EQ(server.stats().positioning_time, FromMillis(3));
  EXPECT_EQ(server.stats().zero_positioning_jobs, 0);
}

// Completions that resubmit to their own server grow its job slab while a
// callback is running: each of the first completions submits two more
// jobs, so the queue deepens until the slab has doubled several times.
// Every callback must fire exactly once, in the same order and at the
// same simulated times as the deque-queued server this slab replaced
// (constants recorded from it).
TEST(FileServer, ResubmittingCompletionsGrowTheSlab) {
  sim::Engine engine;
  testing::CallbackSink sink;
  net::LinkProfile link;
  link.bandwidth_bps = 1e15;
  link.message_latency = 0;
  link.arrival_jitter = FromMicros(100);
  FileServer server(engine, std::make_unique<FakeDevice>(FromMicros(50), 10),
                    net::LinkModel(link), "s0");
  constexpr int kJobs = 300;
  std::vector<testing::Fired> log;
  std::size_t max_depth = 0;
  int submitted = 0;
  std::function<void()> submit = [&] {
    const int id = submitted++;
    server.Submit(sink.Job(device::IoKind::kWrite, id * 4 * KiB,
                           1 + (id % 5) * 1000, Priority::kNormal,
                           [&, id](SimTime t) {
                             log.push_back({id, t, true});
                             for (int k = 0; k < 2 && submitted < kJobs; ++k) {
                               submit();
                             }
                           }));
    max_depth = std::max(max_depth, server.queue_depth());
  };
  submit();
  submit();
  engine.Run();
  EXPECT_EQ(submitted, kJobs);
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kJobs));
  testing::ExpectEachFiredOnce(log, kJobs);
  EXPECT_GE(max_depth, 64u);
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(log.back().time, 21042580);
  EXPECT_EQ(testing::Digest(log), 7496951236146491622u);
}

// Logs every resolution the server reports, in order, and can act on it
// from inside the call.
class RecordingSink final : public JobSink {
 public:
  void OnJobResolved(std::uint64_t cookie, SimTime time,
                     bool failed) override {
    log.push_back({static_cast<int>(cookie), time, !failed});
    if (then) then(cookie);
  }

  std::vector<testing::Fired> log;
  std::function<void(std::uint64_t)> then;
};

ServerJob JobFor(RecordingSink& sink, std::uint64_t cookie,
                 Priority priority = Priority::kNormal) {
  ServerJob job;
  job.kind = device::IoKind::kWrite;
  job.priority = priority;
  job.size = 4 * KiB;
  job.sink = &sink;
  job.cookie = cookie;
  return job;
}

// Every way a job can end reaches the sink once, with its cookie and the
// right outcome: served, failed by an injected background error, dropped
// by a crash while queued or in service, and refused by a crashed server.
// A sink that resubmits from inside the call gets the slot just freed.
TEST(FileServer, SinkSeesEachCookieOnceWithItsOutcome) {
  sim::Engine engine;
  RecordingSink sink;
  FileServer server(engine, std::make_unique<FakeDevice>(FromMillis(1)),
                    FastLink(), "s0", /*background_idle_grace=*/0);
  // Served: cookie 0 resubmits cookie 1, which resubmits cookie 2.
  sink.then = [&](std::uint64_t cookie) {
    if (cookie < 2) server.Submit(JobFor(sink, cookie + 1));
  };
  server.Submit(JobFor(sink, 0));
  engine.Run();
  sink.then = nullptr;
  EXPECT_EQ(server.slab_slots(), 1u) << "a resubmission reuses the freed slot";
  // Injected background error.
  server.SetBackgroundErrorRate(1.0, 7);
  server.Submit(JobFor(sink, 3, Priority::kBackground));
  engine.Run();
  server.SetBackgroundErrorRate(0.0, 7);
  // Crash with cookie 4 in service and cookies 5 and 6 queued.
  const SimTime crash_at = engine.now() + FromMicros(500);
  for (std::uint64_t cookie = 4; cookie <= 6; ++cookie) {
    server.Submit(JobFor(sink, cookie));
  }
  engine.RunUntil(crash_at);
  EXPECT_TRUE(server.busy());
  server.Crash();
  // Refused at submit.
  server.Submit(JobFor(sink, 7));
  engine.Run();

  ASSERT_EQ(sink.log.size(), 8u);
  testing::ExpectEachFiredOnce(sink.log, 8);
  for (const testing::Fired& fired : sink.log) {
    EXPECT_EQ(fired.ok, fired.id < 3) << "cookie " << fired.id;
    if (fired.id >= 4) {
      EXPECT_EQ(fired.time, crash_at) << "cookie " << fired.id;
    }
  }
  EXPECT_EQ(sink.log[2].time, FromMillis(3));
  EXPECT_EQ(server.stats().requests, 4);  // cookies 0-2 and the crashed 4
  EXPECT_EQ(server.stats().failed_jobs, 5);
}

}  // namespace
}  // namespace s4d::pfs
