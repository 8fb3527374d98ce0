// Closed-loop experiment driver.
//
// RunClosedLoop simulates `workload.ranks()` MPI processes, each opening
// the shared file through the MPI-IO layer and issuing its next request
// the moment the previous one completes (blocking independent I/O — the
// mode all three of the paper's benchmarks use). Returns aggregate
// throughput over the span from the first issue to the last completion,
// exactly how the paper reports bandwidth.
#pragma once

#include <functional>

#include "common/sim_time.h"
#include "common/stats.h"
#include "harness/content_checker.h"
#include "mpiio/mpi_io.h"
#include "workloads/workload.h"

namespace s4d::harness {

struct DriverOptions {
  // When set, writes are tokenized and reads verified against the
  // reference image (requires FsConfig.track_content on the testbed).
  ContentChecker* checker = nullptr;
  // Optional per-request hook (issue-time), e.g. for custom tracing.
  std::function<void(int rank, const workloads::Request&)> on_issue;
};

struct RunResult {
  SimTime start = 0;
  SimTime end = 0;
  std::int64_t requests = 0;
  byte_count bytes = 0;
  double throughput_mbps = 0.0;
  double mean_latency_us = 0.0;
  double max_latency_us = 0.0;

  SimTime elapsed() const { return end - start; }
};

RunResult RunClosedLoop(mpiio::MpiIoLayer& layer, workloads::Workload& workload,
                        const DriverOptions& options = {});

// Steps the engine until `quiescent()` holds (checked between time slices)
// or `max_duration` of simulated time elapses. Returns whether quiescence
// was reached. Used to let the Rebuilder finish flush/fetch work between
// measurement phases.
bool DrainUntil(sim::Engine& engine, const std::function<bool()>& quiescent,
                SimTime max_duration, SimTime slice = FromMillis(50));

}  // namespace s4d::harness
