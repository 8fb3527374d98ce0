#include "obs/metrics.h"

#include <ostream>

#include "obs/json.h"

namespace s4d::obs {

std::int64_t Histogram::PercentileBound(double p) const {
  if (count_ == 0) return 0;
  const double target = p / 100.0 * static_cast<double>(count_);
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) return BucketHi(i);
  }
  return BucketHi(kBuckets - 1);
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out << ',';
    first = false;
    WriteJsonString(out, name);
    out << ':' << counter.value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out << ',';
    first = false;
    WriteJsonString(out, name);
    out << ':';
    WriteJsonDouble(out, gauge.value());
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ',';
    first = false;
    WriteJsonString(out, name);
    out << ":{\"count\":" << h.count() << ",\"sum\":" << h.sum()
        << ",\"min\":" << h.min() << ",\"max\":" << h.max()
        << ",\"p50\":" << h.PercentileBound(50.0)
        << ",\"p99\":" << h.PercentileBound(99.0) << ",\"buckets\":[";
    bool first_bucket = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (h.bucket(i) == 0) continue;
      if (!first_bucket) out << ',';
      first_bucket = false;
      out << '[' << Histogram::BucketLo(i) << ',' << Histogram::BucketHi(i)
          << ',' << h.bucket(i) << ']';
    }
    out << "]}";
  }
  out << "}}";
}

}  // namespace s4d::obs
