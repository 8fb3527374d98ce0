// trace_summary — aggregate a Chrome trace produced by s4dsim.
//
//   $ ./tools/trace_summary trace.json [top_n]
//
// Reads the trace_event JSON written by obs::Tracer::WriteChromeTrace and
// prints the top-N span names by total duration (complete "X" events), plus
// instant-event counts. When the trace holds "replay.window" instants (a
// traced trace-replay run), their args are decoded into a time-windowed
// throughput/latency table; "tenant.window" instants (a multi-tenant run
// with a partition sizer) are folded into a per-tenant summary table. This
// is a line-oriented scan of our own exporter's stable output — one event
// per line — not a general JSON parser. "calib.server" instants (a run with
// the [calib] cost-model calibration armed) become a per-server fitted-
// parameter table, and "dirty.age" instants (the sampler's per-tick
// age-of-dirty-data export) a compact timeline summary.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct NameAgg {
  long long count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

// One decoded "replay.window" instant (tracein::TraceReplayWorkload's
// per-window export; latencies are fixed-point x10, throughput x100).
struct ReplayWindowRow {
  double start_ms = 0.0;
  double requests = 0.0;
  double reads = 0.0;
  double writes = 0.0;
  double bytes = 0.0;
  double mbps = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
};

// Per-tenant aggregate over every "tenant.window" instant (the tenant
// manager's sizer-tick export; ewma is fixed-point x1000, the write rate
// x100). Occupancy/quota/rates keep the last window's value; request
// counters accumulate.
struct TenantAgg {
  long long windows = 0;
  double requests = 0.0;
  double useful = 0.0;
  double used_bytes = 0.0;
  double quota_bytes = 0.0;
  double ewma = 0.0;
  double write_mbps = 0.0;
};

// Last-seen "calib.server" instant per server (the calibration engine
// exports one per server at end of run; fixed-point x10 / x100 args).
struct CalibServerRow {
  std::string tier;
  double jobs = 0.0;
  double mean_wait_us = 0.0;
  double mean_svc_us = 0.0;
  double fit_n = 0.0;
  double startup_us = 0.0;
  double ns_per_kb = 0.0;
  double queue_us = 0.0;
};

// Aggregate over "dirty.age" instants (one per sampler tick; ages are
// fixed-point x10 microseconds).
struct DirtyAgeAgg {
  long long ticks = 0;
  double peak_extents = 0.0;
  double peak_oldest_us = 0.0;
  double last_extents = 0.0;
  double last_oldest_us = 0.0;
  double last_p50_us = 0.0;
};

// Extracts the JSON string value following `"<key>":"` on this line, undoing
// the exporter's backslash escaping. Returns false when the key is absent.
bool ExtractString(const std::string& line, const std::string& key,
                   std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  out->clear();
  for (std::size_t i = at + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      out->push_back(line[++i]);
      continue;
    }
    if (c == '"') return true;
    out->push_back(c);
  }
  return false;
}

bool ExtractNumber(const std::string& line, const std::string& key,
                   double* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  *out = std::strtod(line.c_str() + at + needle.size(), nullptr);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <trace.json> [top_n]\n", argv[0]);
    return 1;
  }
  const int top_n = argc >= 3 ? std::atoi(argv[2]) : 10;
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }

  std::map<std::string, NameAgg> spans;
  std::map<std::string, long long> instants;
  std::vector<ReplayWindowRow> replay_windows;
  std::map<std::string, TenantAgg> tenants;
  std::vector<std::pair<std::string, CalibServerRow>> calib_servers;
  DirtyAgeAgg dirty_age;
  long long events = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::string ph;
    if (!ExtractString(line, "ph", &ph)) continue;
    std::string name;
    if (!ExtractString(line, "name", &name)) continue;
    if (ph == "X") {
      double dur = 0.0;
      if (!ExtractNumber(line, "dur", &dur)) continue;
      NameAgg& agg = spans[name];
      ++agg.count;
      agg.total_us += dur;
      agg.max_us = std::max(agg.max_us, dur);
      ++events;
    } else if (ph == "i") {
      ++instants[name];
      ++events;
      if (name == "replay.window") {
        ReplayWindowRow row;
        double v = 0.0;
        if (ExtractNumber(line, "window_start_ns", &v))
          row.start_ms = v / 1e6;
        ExtractNumber(line, "requests", &row.requests);
        ExtractNumber(line, "reads", &row.reads);
        ExtractNumber(line, "writes", &row.writes);
        ExtractNumber(line, "bytes", &row.bytes);
        if (ExtractNumber(line, "mbps_x100", &v)) row.mbps = v / 100.0;
        if (ExtractNumber(line, "mean_us_x10", &v)) row.mean_us = v / 10.0;
        if (ExtractNumber(line, "max_us_x10", &v)) row.max_us = v / 10.0;
        replay_windows.push_back(row);
      } else if (name == "tenant.window") {
        std::string who;
        if (!ExtractString(line, "tenant", &who)) continue;
        TenantAgg& agg = tenants[who];
        ++agg.windows;
        double v = 0.0;
        if (ExtractNumber(line, "requests", &v)) agg.requests += v;
        if (ExtractNumber(line, "useful", &v)) agg.useful += v;
        ExtractNumber(line, "used_bytes", &agg.used_bytes);
        ExtractNumber(line, "quota_bytes", &agg.quota_bytes);
        if (ExtractNumber(line, "ewma_x1000", &v)) agg.ewma = v / 1000.0;
        if (ExtractNumber(line, "write_mbps_x100", &v))
          agg.write_mbps = v / 100.0;
      } else if (name == "calib.server") {
        std::string who;
        if (!ExtractString(line, "server", &who)) continue;
        CalibServerRow row;
        ExtractString(line, "tier", &row.tier);
        ExtractNumber(line, "jobs", &row.jobs);
        ExtractNumber(line, "fit_n", &row.fit_n);
        double v = 0.0;
        if (ExtractNumber(line, "mean_wait_us_x10", &v))
          row.mean_wait_us = v / 10.0;
        if (ExtractNumber(line, "mean_svc_us_x10", &v))
          row.mean_svc_us = v / 10.0;
        if (ExtractNumber(line, "startup_us_x10", &v))
          row.startup_us = v / 10.0;
        if (ExtractNumber(line, "ns_per_kb_x10", &v)) row.ns_per_kb = v / 10.0;
        if (ExtractNumber(line, "queue_us_x100", &v)) row.queue_us = v / 100.0;
        bool replaced = false;
        for (auto& [existing, existing_row] : calib_servers) {
          if (existing == who) {
            existing_row = row;
            replaced = true;
            break;
          }
        }
        if (!replaced) calib_servers.emplace_back(who, row);
      } else if (name == "dirty.age") {
        ++dirty_age.ticks;
        double v = 0.0;
        if (ExtractNumber(line, "extents", &v)) {
          dirty_age.last_extents = v;
          dirty_age.peak_extents = std::max(dirty_age.peak_extents, v);
        }
        if (ExtractNumber(line, "oldest_us_x10", &v)) {
          dirty_age.last_oldest_us = v / 10.0;
          dirty_age.peak_oldest_us =
              std::max(dirty_age.peak_oldest_us, v / 10.0);
        }
        if (ExtractNumber(line, "p50_us_x10", &v)) dirty_age.last_p50_us = v / 10.0;
      }
    }
  }
  if (events == 0) {
    std::fprintf(stderr, "no trace events found in %s\n", argv[1]);
    return 1;
  }

  std::vector<std::pair<std::string, NameAgg>> ranked(spans.begin(),
                                                      spans.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.total_us != b.second.total_us)
      return a.second.total_us > b.second.total_us;
    return a.first < b.first;
  });

  std::printf("%-24s %10s %14s %12s %12s\n", "span", "count", "total_ms",
              "mean_us", "max_us");
  int shown = 0;
  for (const auto& [name, agg] : ranked) {
    if (shown++ >= top_n) break;
    std::printf("%-24s %10lld %14.3f %12.1f %12.1f\n", name.c_str(), agg.count,
                agg.total_us / 1000.0,
                agg.total_us / static_cast<double>(agg.count), agg.max_us);
  }
  if (!instants.empty()) {
    std::printf("\n%-24s %10s\n", "instant", "count");
    for (const auto& [name, count] : instants) {
      std::printf("%-24s %10lld\n", name.c_str(), count);
    }
  }
  if (!replay_windows.empty()) {
    std::printf("\n%-12s %10s %8s %8s %12s %10s %10s %10s\n", "window_ms",
                "requests", "reads", "writes", "bytes", "MB/s", "mean_us",
                "max_us");
    for (const ReplayWindowRow& w : replay_windows) {
      std::printf("%-12.1f %10.0f %8.0f %8.0f %12.0f %10.2f %10.1f %10.1f\n",
                  w.start_ms, w.requests, w.reads, w.writes, w.bytes, w.mbps,
                  w.mean_us, w.max_us);
    }
  }
  if (!tenants.empty()) {
    std::printf("\n%-16s %8s %10s %10s %12s %12s %8s %10s\n", "tenant",
                "windows", "requests", "useful", "used_MB", "quota_MB", "ewma",
                "write_MBps");
    for (const auto& [who, agg] : tenants) {
      std::printf("%-16s %8lld %10.0f %10.0f %12.2f %12.2f %8.3f %10.2f\n",
                  who.c_str(), agg.windows, agg.requests, agg.useful,
                  agg.used_bytes / (1024.0 * 1024.0),
                  agg.quota_bytes / (1024.0 * 1024.0), agg.ewma,
                  agg.write_mbps);
    }
  }
  if (!calib_servers.empty()) {
    std::printf("\n%-18s %-5s %8s %12s %12s %8s %10s %9s %9s\n", "server",
                "tier", "jobs", "mean_wait_us", "mean_svc_us", "fit_n",
                "startup_us", "ns_per_kb", "queue_us");
    for (const auto& [who, row] : calib_servers) {
      std::printf("%-18s %-5s %8.0f %12.1f %12.1f %8.0f %10.1f %9.1f %9.2f\n",
                  who.c_str(), row.tier.c_str(), row.jobs, row.mean_wait_us,
                  row.mean_svc_us, row.fit_n, row.startup_us, row.ns_per_kb,
                  row.queue_us);
    }
  }
  if (dirty_age.ticks > 0) {
    std::printf("\ndirty age: %lld samples, peak %0.f extents / oldest "
                "%.1f us; last %.0f extents, oldest %.1f us, p50 %.1f us\n",
                dirty_age.ticks, dirty_age.peak_extents,
                dirty_age.peak_oldest_us, dirty_age.last_extents,
                dirty_age.last_oldest_us, dirty_age.last_p50_us);
  }
  return 0;
}
