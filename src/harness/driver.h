// Closed-loop experiment driver.
//
// RunClosedLoop simulates `workload.ranks()` MPI processes, each opening
// the shared file through the MPI-IO layer and issuing its next request
// the moment the previous one completes (blocking independent I/O — the
// mode all three of the paper's benchmarks use). Returns aggregate
// throughput over the span from the first issue to the last completion,
// exactly how the paper reports bandwidth.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

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

// Issues `request` on `file`, the one issue path of the closed loop and the
// trace replayer. With a checker, a write first takes its content token and
// a read is first verified against the reference image. Templated on the
// completion so a small capture (the closed loop's is 16 bytes) goes
// straight into the layer's std::function, stored inline.
template <typename Done>
void IssueRequest(mpiio::MpiIoLayer& layer, mpiio::MpiFile& file,
                  const workloads::Request& request, ContentChecker* checker,
                  Done&& done) {
  if (request.kind == device::IoKind::kWrite) {
    const std::uint64_t token =
        checker != nullptr
            ? checker->OnWrite(file.name(), request.offset, request.size)
            : 0;
    layer.WriteAt(file, request.offset, request.size, std::forward<Done>(done),
                  token);
  } else {
    if (checker != nullptr) {
      checker->CheckRead(layer.dispatch(), file.name(), request.offset,
                         request.size);
    }
    layer.ReadAt(file, request.offset, request.size, std::forward<Done>(done));
  }
}

// Steps the engine until `quiescent()` holds (checked between time slices
// of `slice`, counted from the call's start) or `max_duration` of simulated
// time elapses. Returns whether quiescence was reached. Used to let the
// Rebuilder finish flush/fetch work between measurement phases; since each
// lazy-fetch mark is tried once, such a drain ends once the last flush and
// fetch resolve, and a deadline hit means background work is stuck (e.g.
// dirty data on a cache tier that stays down).
bool DrainUntil(sim::Engine& engine, const std::function<bool()>& quiescent,
                SimTime max_duration, SimTime slice = FromMillis(50));

}  // namespace s4d::harness
