// Request spans and Chrome trace_event export.
//
// A Span is one timed interval on a lane (a Chrome "thread": one per MPI
// rank, one per file server, rebuilder, metadata, faults). Spans carry
// parent/child links so a request can be followed from S4DCache::Submit
// through redirection, network/device service, and background destage.
//
// The Tracer is engine-free: callers stamp spans with their own SimTime.
// When disabled (the default), Begin/Complete/Instant return the null
// SpanId 0 and record nothing, so instrumentation costs one branch.
//
// Span ids are handed out sequentially and each Begin/Complete/Instant
// appends exactly one record, so id k lives at records()[k-1] — O(1)
// lookup for End/AddArg with no side table.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"

namespace s4d::obs {

using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

struct SpanArg {
  std::string key;
  std::string value;  // pre-rendered: numbers verbatim, strings quoted
};

struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::uint32_t lane = 0;
  const char* name = "";  // static string: span names are literals
  const char* cat = "";
  SimTime start = 0;
  SimTime end = -1;  // -1: still open (exported with dur 0)
  bool instant = false;
  std::vector<SpanArg> args;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Lane registration is idempotent; ids follow first-use order.
  std::uint32_t Lane(const std::string& name);

  SpanId Begin(std::uint32_t lane, const char* name, const char* cat,
               SimTime start, SpanId parent = kNoSpan);
  void End(SpanId id, SimTime end);
  // One-shot closed span with a known duration.
  SpanId Complete(std::uint32_t lane, const char* name, const char* cat,
                  SimTime start, SimTime duration, SpanId parent = kNoSpan);
  // Zero-duration marker (fault activations, queue/promote events, ...).
  SpanId Instant(std::uint32_t lane, const char* name, const char* cat,
                 SimTime at, SpanId parent = kNoSpan);

  void AddArg(SpanId id, const char* key, std::int64_t value);
  void AddArg(SpanId id, const char* key, const std::string& value);

  const std::vector<SpanRecord>& records() const { return records_; }
  const std::vector<std::string>& lane_names() const { return lane_names_; }

  // Chrome trace_event JSON: {"traceEvents":[...]} with "M" thread_name
  // metadata, "X" complete events, and "i" instants. ts/dur are in
  // microseconds with fixed millinanosecond precision, so output is
  // byte-stable for identical span state.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  SpanRecord* Record(SpanId id) {
    if (id == kNoSpan || id > records_.size()) return nullptr;
    return &records_[id - 1];
  }

  bool enabled_ = false;
  std::vector<SpanRecord> records_;
  std::vector<std::string> lane_names_;
  std::unordered_map<std::string, std::uint32_t> lane_ids_;
};

}  // namespace s4d::obs
