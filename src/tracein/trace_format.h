// Trace ingestion model shared by the loaders, the scaler, and the replay
// engine. A LoadedTrace is the normal form every input format is reduced
// to: a flat record list in nondecreasing arrival order, with ranks (replay
// streams) assigned densely in first-appearance order so the same input
// always yields the same stream numbering.
//
// Arrivals are relative to the trace start (record 0 of the raw input),
// in simulated nanoseconds. A trace without timestamps (a replay CSV with
// only the rank,kind,offset,size columns) loads with has_timestamps = false
// and every arrival at 0 — still replayable closed-loop, rejected
// open-loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/units.h"
#include "device/device_model.h"

namespace s4d::tracein {

enum class TraceFormat {
  kAuto,      // sniff from content
  kMsr,       // MSR-Cambridge-style block trace CSV
  kNative,    // the IOSIG-style collector's WriteCsv output (src/trace)
  kReplay,    // rank,kind,offset,size[,arrival_ns] CSV
  kBinary,    // compact binary (see loader.h for the layout)
};

inline const char* TraceFormatName(TraceFormat f) {
  switch (f) {
    case TraceFormat::kAuto: return "auto";
    case TraceFormat::kMsr: return "msr";
    case TraceFormat::kNative: return "native";
    case TraceFormat::kReplay: return "replay";
    case TraceFormat::kBinary: return "binary";
  }
  return "unknown";
}

struct TraceRecord {
  int rank = 0;  // dense stream id, first-appearance order
  device::IoKind kind = device::IoKind::kWrite;
  byte_count offset = 0;
  byte_count size = 0;
  SimTime arrival = 0;  // relative to trace start
};

struct LoadedTrace {
  TraceFormat format = TraceFormat::kAuto;
  std::string source;  // path or caller-supplied label
  bool has_timestamps = false;
  std::vector<TraceRecord> records;  // nondecreasing arrival
  // Per-rank origin label: "hostname.disk" (MSR), "system/file" (native),
  // "rank<N>" (replay CSV). streams.size() == ranks.
  std::vector<std::string> streams;
  int ranks = 0;
  byte_count total_bytes = 0;
  SimTime duration = 0;  // arrival of the last record

  std::size_t size() const { return records.size(); }
  bool empty() const { return records.empty(); }
};

// Recomputes ranks/total_bytes/duration from `records` and synthesizes
// missing stream labels. Loaders and the scaler call this after filling in
// the record list so the derived fields can never drift from it.
void FinalizeTrace(LoadedTrace& trace);

// Per-rank sequentiality summary, the invariant the scaler must preserve:
// cloned streams replay the original's access pattern, so their
// sequential fraction and mean jump distance match the source stream.
struct StreamShape {
  std::int64_t requests = 0;
  byte_count bytes = 0;
  // Fraction of requests (after the first) that start exactly where the
  // previous request on the same rank ended.
  double sequential_fraction = 0.0;
  // Mean absolute distance (bytes) between a request's offset and the
  // previous request's end on the same rank.
  double mean_stream_distance = 0.0;
};

// Shape of one rank's stream; rank must be < trace.ranks.
StreamShape RankShape(const LoadedTrace& trace, int rank);

}  // namespace s4d::tracein
