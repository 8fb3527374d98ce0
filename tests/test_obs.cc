// Observability subsystem: registry semantics, histogram bucketing, span
// nesting, and byte-stable export — including an end-to-end check that two
// identical seeded runs produce byte-identical trace and metrics JSON.
#include <gtest/gtest.h>

#include <sstream>

#include "core/s4d_cache.h"
#include "harness/driver.h"
#include "harness/testbed.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/sampler.h"
#include "obs/span.h"
#include "workloads/ior.h"

namespace s4d::obs {
namespace {

TEST(MetricsRegistry, HandlesAreStableAndShared) {
  MetricsRegistry m;
  Counter* a = m.GetCounter("x.count");
  a->Inc();
  // Interleave unrelated registrations; the original handle must survive.
  for (int i = 0; i < 100; ++i) m.GetCounter("noise." + std::to_string(i));
  Counter* b = m.GetCounter("x.count");
  EXPECT_EQ(a, b);
  b->Add(2);
  EXPECT_EQ(a->value(), 3);
}

TEST(MetricsRegistry, GaugeCallbackResolvesLazily) {
  MetricsRegistry m;
  double live = 1.0;
  m.SetGaugeFn("g", [&live] { return live; });
  live = 42.0;
  EXPECT_DOUBLE_EQ(m.GetGauge("g")->value(), 42.0);
}

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds <= 0; bucket i (i >= 1) covers [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);

  Histogram h;
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(4);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(2), 2);
  EXPECT_EQ(h.bucket(3), 1);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 10);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 4);

  // Bucket bounds round-trip: every value lands in [lo, hi).
  for (std::int64_t v : {1, 2, 3, 7, 8, 1000, 1 << 20}) {
    const int i = Histogram::BucketIndex(v);
    EXPECT_GE(v, Histogram::BucketLo(i));
    EXPECT_LT(v, Histogram::BucketHi(i));
  }
}

TEST(Histogram, PercentileBoundWalksBuckets) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(10);  // bucket 4: [8, 16)
  h.Record(1 << 20);                          // the single tail value
  EXPECT_EQ(h.PercentileBound(50), 16);
  EXPECT_EQ(h.PercentileBound(99), 16);
  EXPECT_EQ(h.PercentileBound(100), std::int64_t{1} << 21);
}

TEST(MetricsRegistry, JsonIsDeterministicAcrossInsertionOrder) {
  // Same state reached via different insertion orders must export
  // byte-identically (std::map iterates in name order).
  MetricsRegistry a, b;
  a.GetCounter("alpha")->Inc();
  a.GetCounter("beta")->Add(2);
  a.GetHistogram("lat")->Record(100);
  b.GetHistogram("lat")->Record(100);
  b.GetCounter("beta")->Add(2);
  b.GetCounter("alpha")->Inc();
  std::ostringstream ja, jb;
  a.WriteJson(ja);
  b.WriteJson(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(Tracer, DisabledIsNoOp) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  const SpanId id = t.Begin(0, "op", "cat", 100);
  EXPECT_EQ(id, kNoSpan);
  t.End(id, 200);
  t.AddArg(id, "k", std::int64_t{1});
  EXPECT_TRUE(t.records().empty());
}

TEST(Tracer, SpanNestingLinksParents) {
  Tracer t;
  t.set_enabled(true);
  const std::uint32_t lane = t.Lane("rank0");
  const SpanId root = t.Begin(lane, "write", "s4d", 1000);
  const SpanId child = t.Begin(t.Lane("CPFS/server0"), "write", "pfs", 1200,
                               root);
  const SpanId marker = t.Instant(lane, "note", "s4d", 1500, root);
  EXPECT_NE(marker, kNoSpan);
  t.End(child, 1800);
  t.End(root, 2000);

  ASSERT_EQ(t.records().size(), 3u);
  const SpanRecord& r = t.records()[0];
  const SpanRecord& c = t.records()[1];
  const SpanRecord& m = t.records()[2];
  EXPECT_EQ(r.parent, kNoSpan);
  EXPECT_EQ(c.parent, root);
  EXPECT_EQ(m.parent, root);
  EXPECT_TRUE(m.instant);
  EXPECT_EQ(r.start, 1000);
  EXPECT_EQ(r.end, 2000);
  EXPECT_EQ(c.end, 1800);
  // Lanes registered in first-use order.
  ASSERT_EQ(t.lane_names().size(), 2u);
  EXPECT_EQ(t.lane_names()[0], "rank0");
  EXPECT_EQ(t.lane_names()[1], "CPFS/server0");
}

TEST(Tracer, ChromeTraceContainsMetadataAndEvents) {
  Tracer t;
  t.set_enabled(true);
  const std::uint32_t lane = t.Lane("rank0");
  const SpanId s = t.Begin(lane, "read", "s4d", 1500);
  t.AddArg(s, "size", std::int64_t{4096});
  t.AddArg(s, "route", std::string("cservers"));
  t.End(s, 2500);
  t.Instant(lane, "mark", "s4d", 3000, s);
  std::ostringstream out;
  t.WriteChromeTrace(out);
  const std::string j = out.str();
  EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"rank0\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(j.find("\"dur\":1.000"), std::string::npos);
  EXPECT_NE(j.find("\"route\":\"cservers\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"parent\":1"), std::string::npos);
}

// --- end-to-end: observed runs are reproducible byte-for-byte ------------

struct ObservedRun {
  std::string trace;
  std::string metrics;
  SimTime end = 0;
};

ObservedRun RunObserved(std::uint64_t seed) {
  Observability obs;
  obs.tracer.set_enabled(true);
  harness::TestbedConfig bed_cfg;
  bed_cfg.seed = seed;
  bed_cfg.obs = &obs;
  harness::Testbed bed(bed_cfg);
  auto s4d = bed.MakeS4D([] {
    core::S4DConfig cfg;
    cfg.cache_capacity = 8 * MiB;
    return cfg;
  }());

  TimeSeriesSampler sampler(bed.engine(), FromMillis(5));
  sampler.AddProbe("dirty_bytes", [&s4d] {
    return static_cast<double>(s4d->dmt().dirty_bytes());
  });
  sampler.Start();

  mpiio::MpiIoLayer layer(bed.engine(), *s4d);
  workloads::IorConfig ior;
  ior.ranks = 8;
  ior.file_size = 8 * MiB;
  ior.request_size = 16 * KiB;
  ior.random = true;
  ior.seed = 42;
  workloads::IorWorkload wl(ior);
  const auto result = harness::RunClosedLoop(layer, wl);
  sampler.Stop();

  ObservedRun run;
  run.end = result.end;
  std::ostringstream t, m;
  obs.tracer.WriteChromeTrace(t);
  obs.metrics.WriteJson(m);
  sampler.WriteJson(m);
  run.trace = t.str();
  run.metrics = m.str();
  EXPECT_FALSE(obs.tracer.records().empty());
  EXPECT_GT(obs.metrics.GetCounter("s4d.write.requests")->value(), 0);
  return run;
}

TEST(ObservabilityEndToEnd, RepeatedSeededRunsAreByteIdentical) {
  const ObservedRun a = RunObserved(7);
  const ObservedRun b = RunObserved(7);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST(ObservabilityEndToEnd, DifferentSeedsProduceDifferentTraces) {
  const ObservedRun a = RunObserved(7);
  const ObservedRun b = RunObserved(8);
  EXPECT_NE(a.trace, b.trace);
}

}  // namespace
}  // namespace s4d::obs
