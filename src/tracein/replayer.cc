#include "tracein/replayer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"

namespace s4d::tracein {
namespace {

// llround keeps the trace->sim mapping deterministic across platforms; the
// scale-1.0 fast path keeps it exact (no float round trip at all).
SimTime ScaleGap(SimTime t, double scale) {
  if (scale == 1.0) return t;
  return static_cast<SimTime>(
      std::llround(static_cast<double>(t) * scale));
}

struct WindowAcc {
  std::int64_t requests = 0;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  byte_count bytes = 0;
  double latency_sum_us = 0.0;
  double max_latency_us = 0.0;
};

}  // namespace

TraceReplayWorkload::TraceReplayWorkload(LoadedTrace trace, std::string file)
    : trace_(std::move(trace)), file_(std::move(file)) {
  S4D_CHECK(trace_.ranks >= 1) << "trace reports " << trace_.ranks << " ranks";
  per_rank_.resize(static_cast<std::size_t>(trace_.ranks));
  for (std::size_t i = 0; i < trace_.records.size(); ++i) {
    const int rank = trace_.records[i].rank;
    S4D_CHECK(rank >= 0 && rank < trace_.ranks) << "record rank " << rank;
    per_rank_[static_cast<std::size_t>(rank)].push_back(i);
  }
}

ReplayResult TraceReplayWorkload::Replay(mpiio::MpiIoLayer& layer,
                                         const ReplayOptions& options) {
  sim::Engine& engine = layer.engine();
  ReplayResult result;
  result.run.start = engine.now();
  result.run.end = engine.now();
  if (trace_.records.empty()) return result;
  S4D_CHECK(options.time_scale >= 0.0)
      << "negative time_scale " << options.time_scale;
  S4D_CHECK(options.mode == ReplayMode::kClosedLoop || trace_.has_timestamps)
      << "open-loop replay needs a timestamped trace (" << trace_.source
      << " has none)";

  const SimTime start = result.run.start;
  const int ranks = trace_.ranks;
  const std::size_t total = trace_.records.size();

  std::vector<mpiio::MpiFile> files(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    files[static_cast<std::size_t>(r)] = layer.Open(r, file_);
  }

  RunningStats latency_us;
  std::vector<WindowAcc> windows;
  std::int64_t in_flight = 0;
  std::size_t completed = 0;
  SimTime last_completion = start;

  obs::Counter* request_counter = nullptr;
  obs::Counter* byte_counter = nullptr;
  obs::Histogram* latency_hist = nullptr;
  if (options.obs != nullptr) {
    request_counter = options.obs->metrics.GetCounter("replay.requests");
    byte_counter = options.obs->metrics.GetCounter("replay.bytes");
    latency_hist = options.obs->metrics.GetHistogram("replay.latency_ns");
  }

  // Completion-side accounting, bucketed by *issue* time so a window
  // reports the latency of the requests that arrived in it.
  auto account = [&](const TraceRecord& rec, SimTime issued, SimTime done_at) {
    const double lat_us = ToMicros(done_at - issued);
    latency_us.Add(lat_us);
    last_completion = std::max(last_completion, done_at);
    if (latency_hist != nullptr) latency_hist->Record(done_at - issued);
    if (options.window > 0) {
      const auto index =
          static_cast<std::size_t>((issued - start) / options.window);
      if (index >= windows.size()) windows.resize(index + 1);
      WindowAcc& w = windows[index];
      ++w.requests;
      if (rec.kind == device::IoKind::kRead) {
        ++w.reads;
      } else {
        ++w.writes;
      }
      w.bytes += rec.size;
      w.latency_sum_us += lat_us;
      w.max_latency_us = std::max(w.max_latency_us, lat_us);
    }
  };

  // Issues record `index` now; `done` runs after `account`.
  auto submit = [&](std::size_t index, std::function<void()> done) {
    const TraceRecord& rec = trace_.records[index];
    const workloads::Request request{rec.kind, rec.offset, rec.size};
    if (options.on_issue) options.on_issue(rec.rank, request);
    ++result.run.requests;
    result.run.bytes += rec.size;
    ++in_flight;
    result.peak_in_flight = std::max(result.peak_in_flight, in_flight);
    if (request_counter != nullptr) request_counter->Inc();
    if (byte_counter != nullptr) byte_counter->Add(rec.size);
    const SimTime issued = engine.now();
    auto completion = [&, index, issued,
                       done = std::move(done)](SimTime t) {
      account(trace_.records[index], issued, t);
      --in_flight;
      ++completed;
      done();
    };
    harness::IssueRequest(layer, files[static_cast<std::size_t>(rec.rank)],
                          request, options.checker, std::move(completion));
  };

  if (options.mode == ReplayMode::kOpenLoop) {
    // The whole arrival schedule goes onto the engine up front; nothing
    // here depends on completion order, so the timeline is the trace's.
    for (std::size_t i = 0; i < total; ++i) {
      const SimTime at =
          start + ScaleGap(trace_.records[i].arrival, options.time_scale);
      engine.ScheduleAt(at, [&submit, i] { submit(i, [] {}); });
    }
    while (completed < total) {
      const bool progressed = engine.Step();
      S4D_CHECK(progressed)
          << "engine drained with " << (total - completed)
          << " replay requests outstanding (deadlocked I/O completion?)";
    }
    for (int r = 0; r < ranks; ++r) {
      layer.Close(files[static_cast<std::size_t>(r)]);
    }
  } else {
    std::vector<std::size_t> next(static_cast<std::size_t>(ranks), 0);
    int active = 0;
    std::function<void(int)> issue_rank = [&](int rank) {
      auto& cursor = next[static_cast<std::size_t>(rank)];
      const auto& list = per_rank_[static_cast<std::size_t>(rank)];
      if (cursor >= list.size()) {
        layer.Close(files[static_cast<std::size_t>(rank)]);
        --active;
        return;
      }
      const std::size_t index = list[cursor++];
      submit(index, [&, rank, index] {
        const auto& l = per_rank_[static_cast<std::size_t>(rank)];
        const std::size_t at = next[static_cast<std::size_t>(rank)];
        SimTime think = 0;
        if (at < l.size()) {
          think = ScaleGap(trace_.records[l[at]].arrival -
                               trace_.records[index].arrival,
                           options.time_scale);
        }
        if (think > 0) {
          engine.ScheduleAfter(think, [&issue_rank, rank] { issue_rank(rank); });
        } else {
          issue_rank(rank);
        }
      });
    };
    for (int r = 0; r < ranks; ++r) {
      const auto& list = per_rank_[static_cast<std::size_t>(r)];
      if (list.empty()) {
        layer.Close(files[static_cast<std::size_t>(r)]);
        continue;
      }
      ++active;
      const SimTime at =
          start +
          ScaleGap(trace_.records[list[0]].arrival, options.time_scale);
      engine.ScheduleAt(at, [&issue_rank, r] { issue_rank(r); });
    }
    while (active > 0) {
      const bool progressed = engine.Step();
      S4D_CHECK(progressed)
          << "engine drained with " << active << " of " << ranks
          << " replay ranks still active (deadlocked I/O completion?)";
    }
  }

  result.run.end = last_completion;
  result.run.throughput_mbps =
      ThroughputMBps(result.run.bytes, result.run.elapsed());
  result.run.mean_latency_us = latency_us.mean();
  result.run.max_latency_us = latency_us.max();

  // Trailing empty windows carry no information; interior gaps stay.
  std::size_t used = windows.size();
  while (used > 0 && windows[used - 1].requests == 0) --used;
  result.windows.reserve(used);
  for (std::size_t i = 0; i < used; ++i) {
    const WindowAcc& acc = windows[i];
    ReplayWindow w;
    w.start = static_cast<SimTime>(i) * options.window;
    w.end = w.start + options.window;
    w.requests = acc.requests;
    w.reads = acc.reads;
    w.writes = acc.writes;
    w.bytes = acc.bytes;
    w.throughput_mbps = ThroughputMBps(acc.bytes, options.window);
    if (acc.requests > 0) {
      w.mean_latency_us =
          acc.latency_sum_us / static_cast<double>(acc.requests);
      w.max_latency_us = acc.max_latency_us;
    }
    result.windows.push_back(w);
  }

  if (options.obs != nullptr && options.obs->tracer.enabled()) {
    obs::Tracer& tracer = options.obs->tracer;
    const std::uint32_t lane = tracer.Lane("replay");
    for (const ReplayWindow& w : result.windows) {
      const obs::SpanId id =
          tracer.Instant(lane, "replay.window", "replay", start + w.end);
      tracer.AddArg(id, "window_start_ns", w.start);
      tracer.AddArg(id, "requests", w.requests);
      tracer.AddArg(id, "reads", w.reads);
      tracer.AddArg(id, "writes", w.writes);
      tracer.AddArg(id, "bytes", w.bytes);
      tracer.AddArg(id, "mbps_x100",
                    std::llround(w.throughput_mbps * 100.0));
      tracer.AddArg(id, "mean_us_x10",
                    std::llround(w.mean_latency_us * 10.0));
      tracer.AddArg(id, "max_us_x10", std::llround(w.max_latency_us * 10.0));
    }
  }
  return result;
}

}  // namespace s4d::tracein
