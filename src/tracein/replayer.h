// Trace replay engine.
//
// TraceReplayWorkload drives a LoadedTrace through the simulated cluster
// with Replay(), in one of two modes:
//
//     open loop    every request is scheduled on the event engine at
//                  trace-arrival x time_scale, regardless of how the
//                  system under test keeps up — arrival pressure is the
//                  trace's, queueing shows up as latency. time_scale 1.0
//                  reproduces the captured inter-arrival gaps exactly on
//                  the sim clock; 0.5 replays twice as fast.
//
//     closed loop  per-rank request chains with think time: rank r issues
//                  its k-th request after its (k-1)-th completes plus the
//                  captured inter-arrival gap x time_scale. A trace
//                  without timestamps, or time_scale 0, degenerates to
//                  back-to-back blocking I/O (identical to RunClosedLoop:
//                  a captured run replays exactly).
//
// Replay aggregates the same RunResult the closed-loop driver reports,
// plus time-windowed throughput/latency series, and exports both through
// src/obs when an Observability bundle is supplied (replay.* metrics and
// one "replay.window" trace instant per window, which tools/trace_summary
// renders as a table).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "harness/content_checker.h"
#include "harness/driver.h"
#include "mpiio/mpi_io.h"
#include "obs/observability.h"
#include "tracein/trace_format.h"
#include "workloads/workload.h"

namespace s4d::tracein {

enum class ReplayMode { kOpenLoop, kClosedLoop };

inline const char* ReplayModeName(ReplayMode m) {
  return m == ReplayMode::kOpenLoop ? "open" : "closed";
}

struct ReplayOptions {
  ReplayMode mode = ReplayMode::kOpenLoop;
  // Multiplier applied to trace arrivals (open loop) and inter-arrival
  // think gaps (closed loop). 1.0 = captured pacing, 0 = as fast as the
  // closed loop allows (open loop collapses every arrival to t = 0).
  double time_scale = 1.0;
  // Width of the throughput/latency stat windows; 0 disables windowing.
  SimTime window = FromMillis(100);
  // When set, writes are tokenized and reads verified (same contract as
  // DriverOptions.checker).
  harness::ContentChecker* checker = nullptr;
  // When set, replay.* metrics and per-window trace instants are exported.
  obs::Observability* obs = nullptr;
  // Optional per-request issue hook, e.g. for re-capture.
  std::function<void(int rank, const workloads::Request&)> on_issue;
};

// One stat window, bucketed by request *issue* time relative to replay
// start. Interior idle windows are kept (they show trace gaps); trailing
// empty windows are dropped.
struct ReplayWindow {
  SimTime start = 0;
  SimTime end = 0;
  std::int64_t requests = 0;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  byte_count bytes = 0;
  double throughput_mbps = 0.0;  // bytes over the full window width
  double mean_latency_us = 0.0;
  double max_latency_us = 0.0;
};

struct ReplayResult {
  harness::RunResult run;
  std::vector<ReplayWindow> windows;
  // Highest number of simultaneously outstanding requests — the open
  // loop's backlog signal (always <= ranks in closed loop).
  std::int64_t peak_in_flight = 0;
};

class TraceReplayWorkload {
 public:
  explicit TraceReplayWorkload(LoadedTrace trace,
                               std::string file = "trace.dat");

  const LoadedTrace& trace() const { return trace_; }

  // Timed replay on the engine that owns `layer`. Drives the engine until
  // every request has completed; requires trace.has_timestamps for open
  // loop (a timestamp-less trace has no arrival schedule to honor).
  ReplayResult Replay(mpiio::MpiIoLayer& layer, const ReplayOptions& options);

 private:
  LoadedTrace trace_;
  std::string file_;
  // Per-rank index lists into trace_.records, in arrival order.
  std::vector<std::vector<std::size_t>> per_rank_;
};

}  // namespace s4d::tracein
