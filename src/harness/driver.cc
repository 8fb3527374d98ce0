#include "harness/driver.h"

#include <vector>

#include "common/check.h"

namespace s4d::harness {

RunResult RunClosedLoop(mpiio::MpiIoLayer& layer,
                        workloads::Workload& workload,
                        const DriverOptions& options) {
  sim::Engine& engine = layer.engine();
  const int ranks = workload.ranks();
  S4D_CHECK(ranks >= 1) << "workload reports " << ranks << " ranks";

  RunResult result;
  result.start = engine.now();
  RunningStats latency_us;
  int active = ranks;

  std::vector<mpiio::MpiFile> files(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    files[static_cast<std::size_t>(r)] = layer.Open(r, workload.file());
  }

  // A rank has at most one request outstanding, so its issue time waits in
  // a per-rank slot and a completion captures only {&complete, rank}: 16
  // bytes, which std::function stores without allocating.
  std::vector<SimTime> issued(static_cast<std::size_t>(ranks));
  std::function<void(int)> issue;
  auto complete = [&](int rank, SimTime t) {
    latency_us.Add(ToMicros(t - issued[static_cast<std::size_t>(rank)]));
    issue(rank);
  };
  issue = [&](int rank) {
    const auto request = workload.Next(rank);
    if (!request) {
      layer.Close(files[static_cast<std::size_t>(rank)]);
      --active;
      return;
    }
    if (options.on_issue) options.on_issue(rank, *request);
    ++result.requests;
    result.bytes += request->size;
    issued[static_cast<std::size_t>(rank)] = engine.now();
    auto done = [&complete, rank](SimTime t) { complete(rank, t); };
    mpiio::MpiFile& file = files[static_cast<std::size_t>(rank)];
    if (request->kind == device::IoKind::kWrite) {
      std::uint64_t token = 0;
      if (options.checker) {
        token = options.checker->OnWrite(workload.file(), request->offset,
                                         request->size);
      }
      layer.WriteAt(file, request->offset, request->size, std::move(done),
                    token);
    } else {
      if (options.checker) {
        options.checker->CheckRead(layer.dispatch(), workload.file(),
                                   request->offset, request->size);
      }
      layer.ReadAt(file, request->offset, request->size, std::move(done));
    }
  };

  for (int r = 0; r < ranks; ++r) issue(r);

  while (active > 0) {
    const bool progressed = engine.Step();
    S4D_CHECK(progressed)
        << "engine drained with " << active << " of " << ranks
        << " ranks still active (deadlocked I/O completion?)";
  }
  result.end = engine.now();
  result.throughput_mbps = ThroughputMBps(result.bytes, result.elapsed());
  result.mean_latency_us = latency_us.mean();
  result.max_latency_us = latency_us.max();
  return result;
}

bool DrainUntil(sim::Engine& engine, const std::function<bool()>& quiescent,
                SimTime max_duration, SimTime slice) {
  const SimTime deadline = engine.now() + max_duration;
  while (!quiescent()) {
    if (engine.now() >= deadline) return false;
    engine.RunUntil(std::min(deadline, engine.now() + slice));
  }
  return true;
}

}  // namespace s4d::harness
