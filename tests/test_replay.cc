// The replay CSV format (rank,kind,offset,size[,arrival_ns]) that
// --capture-out writes: malformed rows fail with the line number, and a
// captured run replayed closed-loop at time_scale 0 reproduces the run.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/driver.h"
#include "harness/testbed.h"
#include "tracein/loader.h"
#include "tracein/replayer.h"
#include "workloads/ior.h"

namespace s4d::tracein {
namespace {

Result<LoadedTrace> ParseReplay(const std::string& text) {
  return TraceLoader::Parse(text, TraceFormat::kReplay, "replay CSV");
}

TEST(TraceLoaderReplay, RejectsMalformedRows) {
  EXPECT_FALSE(ParseReplay("0,write,100\n").ok());      // too few fields
  EXPECT_FALSE(ParseReplay("0,chew,100,10\n").ok());    // bad kind
  EXPECT_FALSE(ParseReplay("x,write,100,10\n").ok());   // non-numeric rank
  EXPECT_FALSE(ParseReplay("0,write,100,0\n").ok());    // zero size
  EXPECT_FALSE(ParseReplay("0,write,-5,10\n").ok());    // negative offset
  // Header and empty lines are fine: the empty trace.
  const auto empty = ParseReplay("rank,kind,offset,size\n\n");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->records.empty());
}

TEST(TraceLoaderReplay, ErrorsNameTheLine) {
  const auto r = ParseReplay(
      "rank,kind,offset,size\n"
      "0,write,0,4096\n"
      "0,write,bad,4096\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find(":3:"), std::string::npos)
      << r.status().ToString();
}

TEST(TraceLoaderReplay, AcceptsOptionalArrivalColumn) {
  const auto parsed = ParseReplay(
      "rank,kind,offset,size,arrival_ns\n"
      "0,write,0,16384,0\n"
      "0,read,0,16384,2000000\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->records.size(), 2u);
  EXPECT_EQ(parsed->records[0].kind, device::IoKind::kWrite);
  EXPECT_EQ(parsed->records[1].kind, device::IoKind::kRead);
  // A mixed file (arrival on some rows only) is malformed, header or not.
  EXPECT_FALSE(ParseReplay("0,write,0,16384,0\n"
                           "0,read,0,16384\n")
                   .ok());
}

// A run captured through the driver's issue hook, written as a replay CSV
// and replayed closed-loop at time_scale 0, reproduces the run exactly: the
// simulator is deterministic, and with no think time each rank issues its
// next request the moment the previous one completes, as the driver does.
TEST(TraceReplay, CapturedRunReplaysIdentically) {
  workloads::IorConfig ior;
  ior.ranks = 4;
  ior.file_size = 8 * MiB;
  ior.request_size = 64 * KiB;
  ior.random = true;
  for (const bool with_s4d : {false, true}) {
    SCOPED_TRACE(with_s4d ? "S4D testbed" : "stock testbed");
    // Each run gets a fresh, identical testbed and middleware.
    struct World {
      harness::Testbed bed{harness::TestbedConfig{}};
      std::unique_ptr<core::S4DCache> s4d;
      std::unique_ptr<mpiio::MpiIoLayer> layer;
    };
    auto make_world = [with_s4d] {
      auto world = std::make_unique<World>();
      mpiio::IoDispatch* dispatch = &world->bed.stock();
      if (with_s4d) {
        core::S4DConfig cfg;
        cfg.cache_capacity = 4 * MiB;
        world->s4d = world->bed.MakeS4D(cfg);
        dispatch = world->s4d.get();
      }
      world->layer = std::make_unique<mpiio::MpiIoLayer>(world->bed.engine(),
                                                         *dispatch);
      return world;
    };

    const auto original_world = make_world();
    LoadedTrace captured;
    captured.format = TraceFormat::kReplay;
    captured.has_timestamps = true;
    harness::DriverOptions options;
    options.on_issue = [&](int rank, const workloads::Request& request) {
      captured.records.push_back({rank, request.kind, request.offset,
                                  request.size,
                                  original_world->bed.engine().now()});
    };
    workloads::IorWorkload original(ior);
    const harness::RunResult want =
        harness::RunClosedLoop(*original_world->layer, original, options);
    ASSERT_EQ(static_cast<std::int64_t>(captured.records.size()),
              want.requests);
    FinalizeTrace(captured);

    // Round-trip through CSV, then replay on a fresh identical testbed.
    auto parsed = TraceLoader::Parse(TraceLoader::ToReplayCsv(captured),
                                     TraceFormat::kReplay, "capture");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const auto replay_world = make_world();
    TraceReplayWorkload replay(std::move(*parsed), ior.file);
    ReplayOptions replay_options;
    replay_options.mode = ReplayMode::kClosedLoop;
    replay_options.time_scale = 0.0;
    const harness::RunResult got =
        replay.Replay(*replay_world->layer, replay_options).run;

    EXPECT_EQ(got.requests, want.requests);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.start, want.start);
    EXPECT_EQ(got.end, want.end);
    EXPECT_DOUBLE_EQ(got.throughput_mbps, want.throughput_mbps)
        << "deterministic simulator must reproduce the captured run exactly";
    EXPECT_DOUBLE_EQ(got.mean_latency_us, want.mean_latency_us);
  }
}

}  // namespace
}  // namespace s4d::tracein
