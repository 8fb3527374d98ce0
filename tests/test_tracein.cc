// Trace-ingestion subsystem: loaders (format sniffing, malformed-row
// errors, binary codec), the TraceScaler's invariants, and the replay
// engine's timing contract (open-loop arrival reproduction, closed-loop
// think time, determinism across runs).
#include <gtest/gtest.h>

#include "harness/content_checker.h"
#include "harness/testbed.h"
#include "tracein/loader.h"
#include "tracein/replayer.h"
#include "tracein/scaler.h"

namespace s4d::tracein {
namespace {

// Two hosts, out-of-order timestamps, a tied pair. Ticks are 100 ns.
constexpr const char* kMsrSample =
    "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n"
    "128166372003061450,web0,0,Write,65536,4096,900\n"
    "128166372003061310,web0,0,Write,0,4096,800\n"       // earliest
    "128166372003061450,web1,2,Read,1048576,8192,700\n"  // tied with row 1
    "128166372003062310,web0,0,Read,0,4096,600\n";

TEST(TraceLoaderMsr, NormalizesSortsAndAssignsDenseRanks) {
  const auto trace = TraceLoader::Parse(kMsrSample, TraceFormat::kMsr, "t");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->format, TraceFormat::kMsr);
  EXPECT_TRUE(trace->has_timestamps);
  ASSERT_EQ(trace->records.size(), 4u);
  EXPECT_EQ(trace->ranks, 2);
  // Stream ids in first-appearance (file) order, not arrival order.
  ASSERT_EQ(trace->streams.size(), 2u);
  EXPECT_EQ(trace->streams[0], "web0.0");
  EXPECT_EQ(trace->streams[1], "web1.2");
  // Arrivals normalized to the earliest row, ticks converted to ns.
  EXPECT_EQ(trace->records[0].arrival, 0);
  EXPECT_EQ(trace->records[0].offset, 0);
  // The tied pair (ticks 128166372003061450) keeps file order: the web0
  // write came first in the file, the web1 read second.
  EXPECT_EQ(trace->records[1].arrival, 14000);
  EXPECT_EQ(trace->records[1].rank, 0);
  EXPECT_EQ(trace->records[1].kind, device::IoKind::kWrite);
  EXPECT_EQ(trace->records[2].arrival, 14000);
  EXPECT_EQ(trace->records[2].rank, 1);
  EXPECT_EQ(trace->records[2].kind, device::IoKind::kRead);
  EXPECT_EQ(trace->records[3].arrival, 100000);
  EXPECT_EQ(trace->duration, 100000);
  EXPECT_EQ(trace->total_bytes, 4096 + 4096 + 8192 + 4096);
}

TEST(TraceLoaderMsr, MalformedRowsNameTheLine) {
  // Row 3 (line 3: header is line 1) has 6 fields.
  const auto r = TraceLoader::Parse(
      "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n"
      "128166372003061310,web0,0,Write,0,4096,800\n"
      "128166372003061450,web0,0,Write,65536,4096\n",
      TraceFormat::kMsr, "bad.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("bad.csv:3:"), std::string::npos)
      << r.status().ToString();

  // Bad type keyword, negative offset, zero size, junk timestamp.
  for (const char* row :
       {"1,web0,0,Chew,0,4096,1\n", "1,web0,0,Write,-4,4096,1\n",
        "1,web0,0,Write,0,0,1\n", "soon,web0,0,Write,0,4096,1\n"}) {
    const auto bad = TraceLoader::Parse(row, TraceFormat::kMsr, "r");
    ASSERT_FALSE(bad.ok()) << row;
    EXPECT_NE(bad.status().ToString().find("r:1:"), std::string::npos);
  }
}

TEST(TraceLoaderNative, DropsBackgroundRowsAndNormalizes) {
  const auto trace = TraceLoader::Parse(
      "system,file,kind,offset,size,priority,issue_ns,servers\n"
      "DServers,a.dat,write,0,65536,normal,5000000,0;1\n"
      "DServers,a.dat,write,65536,65536,bg,5400000,2\n"  // dropped
      "CServers,a.dat,read,0,65536,normal,7000000,3\n",
      TraceFormat::kNative, "n");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->records.size(), 2u);
  EXPECT_EQ(trace->ranks, 2);
  EXPECT_EQ(trace->streams[0], "DServers/a.dat");
  EXPECT_EQ(trace->streams[1], "CServers/a.dat");
  EXPECT_EQ(trace->records[0].arrival, 0);  // normalized to the kept min
  EXPECT_EQ(trace->records[1].arrival, 2000000);
}

TEST(TraceLoaderReplay, ArrivalColumnIsAllOrNothing) {
  const auto mixed = TraceLoader::Parse(
      "rank,kind,offset,size,arrival_ns\n"
      "0,write,0,4096,0\n"
      "0,write,4096,4096\n",
      TraceFormat::kReplay, "m");
  ASSERT_FALSE(mixed.ok());
  EXPECT_NE(mixed.status().ToString().find("m:3:"), std::string::npos)
      << mixed.status().ToString();

  const auto plain = TraceLoader::Parse("0,write,0,4096\n1,read,0,4096\n",
                                        TraceFormat::kReplay, "p");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_timestamps);
  EXPECT_EQ(plain->records[0].arrival, 0);
}

TEST(TraceLoaderReplay, TimestampedRowsSortButKeepLeadIn) {
  // Replay arrivals are verbatim (no normalization): a 1 ms lead-in on the
  // first request survives a round trip.
  const auto trace = TraceLoader::Parse(
      "0,write,4096,4096,2000000\n"
      "0,write,0,4096,1000000\n",
      TraceFormat::kReplay, "r");
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace->has_timestamps);
  EXPECT_EQ(trace->records[0].arrival, 1000000);
  EXPECT_EQ(trace->records[0].offset, 0);
  EXPECT_EQ(trace->duration, 2000000);
}

TEST(TraceLoaderSniff, HeadersWinOverFieldCounts) {
  // The native header has 8 comma-separated names, but must sniff as
  // native via its prefix, not generic 8-field content.
  EXPECT_EQ(TraceLoader::Sniff("system,file,kind,offset,size,priority,"
                               "issue_ns,servers\n"),
            TraceFormat::kNative);
  // A replay header with the optional arrival column is 5 fields; the
  // "rank" prefix resolves it.
  EXPECT_EQ(TraceLoader::Sniff("rank,kind,offset,size,arrival_ns\n"),
            TraceFormat::kReplay);
  EXPECT_EQ(TraceLoader::Sniff("Timestamp,Hostname,DiskNumber,Type,Offset,"
                               "Size,ResponseTime\n"),
            TraceFormat::kMsr);
  // Headerless falls back to field counts.
  EXPECT_EQ(TraceLoader::Sniff("1,web0,0,Write,0,4096,1\n"),
            TraceFormat::kMsr);
  EXPECT_EQ(TraceLoader::Sniff("0,write,0,4096\n"), TraceFormat::kReplay);
  EXPECT_EQ(TraceLoader::Sniff("only,three,fields\n"), TraceFormat::kAuto);
  // Undetectable content surfaces as a parse error, not a crash.
  const auto r = TraceLoader::Parse("only,three,fields\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("cannot determine"), std::string::npos);
}

TEST(TraceLoaderBinary, RoundTripPreservesEverything) {
  const auto original = TraceLoader::Parse(kMsrSample, TraceFormat::kMsr, "t");
  ASSERT_TRUE(original.ok());
  const std::string blob = TraceLoader::ToBinary(*original);
  const auto reparsed = TraceLoader::Parse(blob, TraceFormat::kAuto, "b");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->format, TraceFormat::kBinary);
  EXPECT_EQ(reparsed->has_timestamps, original->has_timestamps);
  EXPECT_EQ(reparsed->streams, original->streams);
  ASSERT_EQ(reparsed->records.size(), original->records.size());
  for (std::size_t i = 0; i < original->records.size(); ++i) {
    EXPECT_EQ(reparsed->records[i].rank, original->records[i].rank);
    EXPECT_EQ(reparsed->records[i].kind, original->records[i].kind);
    EXPECT_EQ(reparsed->records[i].offset, original->records[i].offset);
    EXPECT_EQ(reparsed->records[i].size, original->records[i].size);
    EXPECT_EQ(reparsed->records[i].arrival, original->records[i].arrival);
  }
  EXPECT_EQ(reparsed->total_bytes, original->total_bytes);
  EXPECT_EQ(reparsed->duration, original->duration);
}

TEST(TraceLoaderBinary, TruncationErrorsArePrecise) {
  const auto original = TraceLoader::Parse(kMsrSample, TraceFormat::kMsr, "t");
  ASSERT_TRUE(original.ok());
  const std::string blob = TraceLoader::ToBinary(*original);

  const auto in_labels = TraceLoader::Parse(blob.substr(0, 25),
                                            TraceFormat::kBinary, "b");
  ASSERT_FALSE(in_labels.ok());
  EXPECT_NE(in_labels.status().ToString().find("stream-label table"),
            std::string::npos);

  // Drop the last 8 bytes: truncation inside record 4 of 4.
  const auto in_records = TraceLoader::Parse(
      blob.substr(0, blob.size() - 8), TraceFormat::kBinary, "b");
  ASSERT_FALSE(in_records.ok());
  EXPECT_NE(in_records.status().ToString().find("record 4 of 4"),
            std::string::npos)
      << in_records.status().ToString();

  const auto not_binary =
      TraceLoader::Parse("plainly text", TraceFormat::kBinary, "b");
  ASSERT_FALSE(not_binary.ok());
  EXPECT_NE(not_binary.status().ToString().find("S4DTRC01"),
            std::string::npos);
}

TEST(TraceLoaderReplayCsv, SerializerRoundTrips) {
  const auto original = TraceLoader::Parse(kMsrSample, TraceFormat::kMsr, "t");
  ASSERT_TRUE(original.ok());
  const auto reparsed =
      TraceLoader::Parse(TraceLoader::ToReplayCsv(*original));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->format, TraceFormat::kReplay);
  EXPECT_TRUE(reparsed->has_timestamps);
  ASSERT_EQ(reparsed->records.size(), original->records.size());
  for (std::size_t i = 0; i < original->records.size(); ++i) {
    EXPECT_EQ(reparsed->records[i].arrival, original->records[i].arrival);
    EXPECT_EQ(reparsed->records[i].offset, original->records[i].offset);
  }
}

// --- TraceScaler -----------------------------------------------------------

LoadedTrace MakeScalerInput() {
  // Stream 0: sequential writes. Stream 1: strided reads. Distinct shapes
  // so a clone/source mix-up would show in RankShape.
  auto trace = TraceLoader::Parse(
      "rank,kind,offset,size,arrival_ns\n"
      "0,write,0,65536,0\n"
      "1,read,1048576,4096,100000\n"
      "0,write,65536,65536,200000\n"
      "1,read,1310720,4096,300000\n"
      "0,write,131072,65536,400000\n"
      "1,read,1572864,4096,500000\n");
  EXPECT_TRUE(trace.ok());
  return *trace;
}

TEST(TraceScaler, FactorScalesCountsExactly) {
  const LoadedTrace input = MakeScalerInput();
  ScaleOptions options;
  options.factor = 8;
  const LoadedTrace scaled = ScaleTrace(input, options);
  EXPECT_EQ(scaled.records.size(), input.records.size() * 8);
  EXPECT_EQ(scaled.ranks, input.ranks * 8);
  EXPECT_EQ(scaled.total_bytes, input.total_bytes * 8);
  EXPECT_EQ(scaled.duration, input.duration);
  EXPECT_TRUE(scaled.has_timestamps);
}

TEST(TraceScaler, ClonesPreserveStreamShape) {
  const LoadedTrace input = MakeScalerInput();
  ScaleOptions options;
  options.factor = 8;
  const LoadedTrace scaled = ScaleTrace(input, options);
  for (int clone = 0; clone < options.factor; ++clone) {
    for (int source = 0; source < input.ranks; ++source) {
      const StreamShape expect = RankShape(input, source);
      const StreamShape got =
          RankShape(scaled, source + clone * input.ranks);
      EXPECT_EQ(got.requests, expect.requests);
      EXPECT_EQ(got.bytes, expect.bytes);
      EXPECT_DOUBLE_EQ(got.sequential_fraction, expect.sequential_fraction);
      EXPECT_DOUBLE_EQ(got.mean_stream_distance, expect.mean_stream_distance);
    }
  }
}

TEST(TraceScaler, ClonesAreDisjointAndArrivalOrderIsPreserved) {
  const LoadedTrace input = MakeScalerInput();
  ScaleOptions options;
  options.factor = 3;
  options.region_align = 1 * MiB;
  const LoadedTrace scaled = ScaleTrace(input, options);
  // Footprint of the input is < 2 MiB, so clone c shifts by c * 2 MiB.
  byte_count max_end = 0;
  for (const TraceRecord& r : input.records) {
    max_end = std::max(max_end, r.offset + r.size);
  }
  const byte_count span = ((max_end + 1 * MiB - 1) / (1 * MiB)) * (1 * MiB);
  for (std::size_t i = 0; i < scaled.records.size(); ++i) {
    const TraceRecord& rec = scaled.records[i];
    const int clone = rec.rank / input.ranks;
    const TraceRecord& src = input.records[i / 3];
    EXPECT_EQ(rec.offset, src.offset + static_cast<byte_count>(clone) * span);
    EXPECT_EQ(rec.arrival, src.arrival);
  }
  // Arrivals remain nondecreasing (the replayer's precondition).
  for (std::size_t i = 1; i < scaled.records.size(); ++i) {
    EXPECT_LE(scaled.records[i - 1].arrival, scaled.records[i].arrival);
  }
  // Stream labels mark the clone generation.
  EXPECT_EQ(scaled.streams[static_cast<std::size_t>(input.ranks)],
            input.streams[0] + "#1");
}

TEST(TraceScaler, DeterministicAndIdentityAtFactorOne) {
  const LoadedTrace input = MakeScalerInput();
  ScaleOptions options;
  options.factor = 4;
  const LoadedTrace a = ScaleTrace(input, options);
  const LoadedTrace b = ScaleTrace(input, options);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].rank, b.records[i].rank);
    EXPECT_EQ(a.records[i].offset, b.records[i].offset);
    EXPECT_EQ(a.records[i].arrival, b.records[i].arrival);
  }
  options.factor = 1;
  const LoadedTrace same = ScaleTrace(input, options);
  EXPECT_EQ(same.records.size(), input.records.size());
  EXPECT_EQ(same.streams, input.streams);
}

// --- Replay engine ---------------------------------------------------------

Result<LoadedTrace> TimedTrace() {
  // Two ranks with distinct, uneven inter-arrival gaps.
  return TraceLoader::Parse(
      "rank,kind,offset,size,arrival_ns\n"
      "0,write,0,65536,0\n"
      "1,write,8388608,65536,250000\n"
      "0,write,65536,65536,3000000\n"
      "1,write,8454144,65536,7250000\n"
      "0,read,0,65536,50000000\n");
}

TEST(TraceReplay, OpenLoopReproducesArrivalGapsExactly) {
  auto trace = TimedTrace();
  ASSERT_TRUE(trace.ok());
  const std::vector<SimTime> arrivals = [&] {
    std::vector<SimTime> a;
    for (const TraceRecord& r : trace->records) a.push_back(r.arrival);
    return a;
  }();

  harness::Testbed bed{harness::TestbedConfig{}};
  mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
  TraceReplayWorkload wl(std::move(*trace));
  ReplayOptions options;
  options.mode = ReplayMode::kOpenLoop;
  options.time_scale = 1.0;
  std::vector<SimTime> issued;
  options.on_issue = [&](int, const workloads::Request&) {
    issued.push_back(bed.engine().now());
  };
  const SimTime start = bed.engine().now();
  const ReplayResult result = wl.Replay(layer, options);
  ASSERT_EQ(issued.size(), arrivals.size());
  for (std::size_t i = 0; i < issued.size(); ++i) {
    EXPECT_EQ(issued[i] - start, arrivals[i])
        << "request " << i << " must issue at its trace arrival";
  }
  EXPECT_EQ(result.run.requests, 5);
  EXPECT_GT(result.peak_in_flight, 0);
}

TEST(TraceReplay, OpenLoopTimeScaleCompressesTheSchedule) {
  auto trace = TimedTrace();
  ASSERT_TRUE(trace.ok());
  harness::Testbed bed{harness::TestbedConfig{}};
  mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
  TraceReplayWorkload wl(std::move(*trace));
  ReplayOptions options;
  options.mode = ReplayMode::kOpenLoop;
  options.time_scale = 0.5;
  std::vector<SimTime> issued;
  options.on_issue = [&](int, const workloads::Request&) {
    issued.push_back(bed.engine().now());
  };
  const SimTime start = bed.engine().now();
  wl.Replay(layer, options);
  ASSERT_EQ(issued.size(), 5u);
  EXPECT_EQ(issued[1] - start, 125000);    // 250 us * 0.5
  EXPECT_EQ(issued[4] - start, 25000000);  // 50 ms * 0.5
}

TEST(TraceReplay, ClosedLoopWaitsThinkTimeAfterCompletion) {
  auto trace = TraceLoader::Parse(
      "rank,kind,offset,size,arrival_ns\n"
      "0,write,0,65536,0\n"
      "0,write,65536,65536,2000000\n");
  ASSERT_TRUE(trace.ok());
  harness::Testbed bed{harness::TestbedConfig{}};
  mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
  TraceReplayWorkload wl(std::move(*trace));
  ReplayOptions options;
  options.mode = ReplayMode::kClosedLoop;
  std::vector<SimTime> issued;
  options.on_issue = [&](int, const workloads::Request&) {
    issued.push_back(bed.engine().now());
  };
  const ReplayResult result = wl.Replay(layer, options);
  ASSERT_EQ(issued.size(), 2u);
  // Think time = the captured 2 ms inter-arrival gap, counted from the
  // first request's *completion* — so the second issue lands strictly
  // later than arrival-schedule (open-loop) replay would put it.
  EXPECT_GT(issued[1] - issued[0], 2000000) << "service time must add in";
  EXPECT_EQ(result.run.requests, 2);
  EXPECT_LE(result.peak_in_flight, 1);
}

TEST(TraceReplay, ReplayIsDeterministicAcrossRuns) {
  auto run_once = [](ReplayMode mode) {
    auto trace = TimedTrace();
    EXPECT_TRUE(trace.ok());
    harness::Testbed bed{harness::TestbedConfig{}};
    mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
    TraceReplayWorkload wl(std::move(*trace));
    ReplayOptions options;
    options.mode = mode;
    options.window = FromMillis(5);
    return wl.Replay(layer, options);
  };
  for (const ReplayMode mode :
       {ReplayMode::kOpenLoop, ReplayMode::kClosedLoop}) {
    const ReplayResult a = run_once(mode);
    const ReplayResult b = run_once(mode);
    EXPECT_EQ(a.run.end, b.run.end);
    EXPECT_EQ(a.run.requests, b.run.requests);
    EXPECT_EQ(a.run.bytes, b.run.bytes);
    EXPECT_DOUBLE_EQ(a.run.throughput_mbps, b.run.throughput_mbps);
    EXPECT_DOUBLE_EQ(a.run.mean_latency_us, b.run.mean_latency_us);
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t i = 0; i < a.windows.size(); ++i) {
      EXPECT_EQ(a.windows[i].requests, b.windows[i].requests);
      EXPECT_DOUBLE_EQ(a.windows[i].mean_latency_us,
                       b.windows[i].mean_latency_us);
    }
  }
}

TEST(TraceReplay, WindowsBucketByIssueTime) {
  auto trace = TimedTrace();  // arrivals 0, 0.25, 3, 7.25, 50 ms
  ASSERT_TRUE(trace.ok());
  harness::Testbed bed{harness::TestbedConfig{}};
  mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
  TraceReplayWorkload wl(std::move(*trace));
  ReplayOptions options;
  options.mode = ReplayMode::kOpenLoop;
  options.window = FromMillis(5);
  const ReplayResult result = wl.Replay(layer, options);
  // Buckets: [0,5) -> 3 requests, [5,10) -> 1, gap, [50,55) -> 1. The
  // interior idle windows stay; trailing empties are dropped.
  ASSERT_EQ(result.windows.size(), 11u);
  EXPECT_EQ(result.windows[0].requests, 3);
  EXPECT_EQ(result.windows[0].writes, 3);
  EXPECT_EQ(result.windows[1].requests, 1);
  EXPECT_EQ(result.windows[2].requests, 0);
  EXPECT_EQ(result.windows[10].requests, 1);
  EXPECT_EQ(result.windows[10].reads, 1);
  std::int64_t total = 0;
  for (const ReplayWindow& w : result.windows) total += w.requests;
  EXPECT_EQ(total, result.run.requests);
}

TEST(TraceReplay, VerifiedOpenLoopReplayChecksContent) {
  // Writes land well before the read of the same extent; with the checker
  // attached the read must verify against the tokenized write.
  auto trace = TimedTrace();
  ASSERT_TRUE(trace.ok());
  harness::TestbedConfig cfg;
  cfg.track_content = true;
  harness::Testbed bed(cfg);
  mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
  TraceReplayWorkload wl(std::move(*trace));
  harness::ContentChecker checker;
  ReplayOptions options;
  options.mode = ReplayMode::kOpenLoop;
  options.checker = &checker;
  wl.Replay(layer, options);
  checker.CheckAll(bed.stock());
  EXPECT_GT(checker.checks(), 0);
  EXPECT_EQ(checker.failures(), 0) << checker.first_failure();
}

TEST(TraceReplay, OpenLoopRejectsTimestamplessTrace) {
  auto trace = TraceLoader::Parse("0,write,0,4096\n");
  ASSERT_TRUE(trace.ok());
  ASSERT_FALSE(trace->has_timestamps);
  harness::Testbed bed{harness::TestbedConfig{}};
  mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
  TraceReplayWorkload wl(std::move(*trace));
  ReplayOptions options;
  options.mode = ReplayMode::kOpenLoop;
  EXPECT_DEATH(wl.Replay(layer, options), "open-loop");
}

TEST(TraceReplay, EmptyTraceIsANoOp) {
  auto trace = TraceLoader::Parse("rank,kind,offset,size\n");
  ASSERT_TRUE(trace.ok());
  harness::Testbed bed{harness::TestbedConfig{}};
  mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
  TraceReplayWorkload wl(std::move(*trace));
  ReplayOptions options;
  options.mode = ReplayMode::kClosedLoop;
  const ReplayResult result = wl.Replay(layer, options);
  EXPECT_EQ(result.run.requests, 0);
  EXPECT_TRUE(result.windows.empty());
}

}  // namespace
}  // namespace s4d::tracein
