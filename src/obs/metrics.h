// Metrics registry: named counters, gauges, and log-bucketed histograms.
//
// The registry is the simulator's one shared telemetry source. Components
// resolve a handle once (GetCounter/GetGauge/GetHistogram — stable for the
// registry's lifetime, since entries live in node-based maps) and update it
// with O(1) arithmetic on the hot path. Iteration order is the metric-name
// order (std::map), so every export is deterministic.
//
// Naming scheme (see DESIGN.md "Observability"):
//   <layer>.<entity>.<quantity>[_<unit>]
//   e.g. pfs.OPFS.service_ns, s4d.read.latency_ns, rebuilder.flushed_bytes
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>

namespace s4d::obs {

// Monotonic event count.
class Counter {
 public:
  void Inc() { ++value_; }
  void Add(std::int64_t delta) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

// Point-in-time value: either set explicitly (O(1) on the hot path) or
// backed by a callback evaluated lazily at export/sample time — the cheap
// way to surface an existing stats field without touching its hot path.
class Gauge {
 public:
  void Set(double v) {
    value_ = v;
    fn_ = nullptr;
  }
  void SetFn(std::function<double()> fn) { fn_ = std::move(fn); }
  double value() const { return fn_ ? fn_() : value_; }

 private:
  double value_ = 0.0;
  std::function<double()> fn_;
};

// Log2-bucketed histogram for latencies and sizes. Bucket i (i >= 1) holds
// values in [2^(i-1), 2^i); bucket 0 holds values <= 0. O(1) add
// (std::bit_width), exact count/sum/min/max on the side.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  static int BucketIndex(std::int64_t v) {
    if (v <= 0) return 0;
    const int w = static_cast<int>(std::bit_width(static_cast<std::uint64_t>(v)));
    return w < kBuckets ? w : kBuckets - 1;
  }
  // Bucket bounds: bucket i covers [BucketLo(i), BucketHi(i)).
  static std::int64_t BucketLo(int i) {
    return i <= 0 ? 0 : std::int64_t{1} << (i - 1);
  }
  static std::int64_t BucketHi(int i) {
    return i <= 0 ? 1 : std::int64_t{1} << i;
  }

  void Record(std::int64_t v) {
    ++buckets_[BucketIndex(v)];
    ++count_;
    sum_ += v;
    min_ = v < min_ ? v : min_;
    max_ = v > max_ ? v : max_;
  }

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ > 0 ? min_ : 0; }
  std::int64_t max() const { return count_ > 0 ? max_ : 0; }
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }
  std::int64_t bucket(int i) const { return buckets_[i]; }

  // Upper bound of the bucket containing the p-th percentile (0..100) — the
  // log-bucket approximation of the percentile.
  std::int64_t PercentileBound(double p) const;

 private:
  std::int64_t buckets_[kBuckets] = {};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = std::numeric_limits<std::int64_t>::min();
};

class MetricsRegistry {
 public:
  // Handles are stable for the registry's lifetime; the same name always
  // returns the same slot, so independent components may share a metric.
  Counter* GetCounter(const std::string& name) { return &counters_[name]; }
  Gauge* GetGauge(const std::string& name) { return &gauges_[name]; }
  Histogram* GetHistogram(const std::string& name) {
    return &histograms_[name];
  }
  // Registers (or replaces) a callback gauge.
  void SetGaugeFn(const std::string& name, std::function<double()> fn) {
    gauges_[name].SetFn(std::move(fn));
  }

  // Full dump: {"counters":{...},"gauges":{...},"histograms":{...}} with
  // keys in name order (deterministic, byte-stable for identical state).
  void WriteJson(std::ostream& out) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace s4d::obs
