// s4dsim — config-driven experiment driver.
//
// Runs a workload (IOR / HPIO / MPI-Tile-IO) through the simulated cluster
// under a chosen middleware (stock / s4d) and prints a full report:
// throughput, latency, request routing, cache state, and rebuilder work.
//
//   $ ./tools/s4dsim experiment.ini
//   $ ./tools/s4dsim --print-default-config > experiment.ini
//   $ ./tools/s4dsim --sweep-seeds=8 --jobs=4 experiment.ini
//
// Config format (all keys optional — defaults reproduce the paper's
// deployment, 8 DServers + 4 CServers, GigE, 64 KiB stripes):
//
//   [cluster]
//   dservers = 8
//   cservers = 4
//   stripe = 64k
//
//   [middleware]            ; "stock" or "s4d"
//   type = s4d
//   cache_capacity = 128m
//   policy = cost-model      ; cost-model | always | never
//   rebuild_interval = 100ms
//
//   [workload]               ; type = ior | hpio | tile | replay | trace
//   type = ior
//   ranks = 32
//   file_size = 64m
//   request_size = 16k
//   random = true
//   kind = write             ; write | read (read = second-run measurement)
//   repeat = 1
//
//   [trace]                   ; workload.type = trace: timed trace replay
//   path = capture.csv        ; MSR/native/replay CSV or S4DTRC01 binary
//   format = auto             ; auto | msr | native | replay | binary
//   mode = open               ; open (arrivals on the sim clock) | closed
//   time_scale = 1.0          ; arrival / think-gap multiplier
//   scale_ranks = 1           ; TraceScaler clone factor (N x streams)
//   window = 100ms            ; time-windowed replay stats; 0 disables
//   file = trace.dat          ; simulated file the replay targets
//
// A relative [trace] path (or workload.trace for type = replay) is
// resolved against the config file's directory, so experiment configs can
// name the traces bundled under examples/traces/.
//
//   [faults]                  ; optional: deterministic fault timeline
//   fault1 = 100ms crash cservers 0
//   fault2 = 250ms restart cservers 0
//
// With `cluster.verify_content = true`, every write is tokenized and every
// read checked against a reference image; the report then includes a
// verification summary (failures vs. reads inside the reported
// dirty-data-loss window). `middleware.degraded_reads = queue|stale`
// selects what a dirty read does while the cache tier is down.
//
// Observability (all optional; defaults keep the run unobserved):
//
//   [obs]
//   trace_out = trace.json      ; Chrome trace_event JSON (chrome://tracing)
//   metrics_out = metrics.json  ; metrics registry dump (+ time series)
//   capture_out = run.csv       ; replay CSV of every issued request
//                               ; (reload with workload.type = trace)
//   sample_interval = 10ms      ; periodic sampler; 0 disables
//
// The equivalent CLI flags `--trace-out=`, `--metrics-out=`,
// `--capture-out=` and `--sample-interval=` override the config file.
//
// Seed sweeps: `--sweep-seeds=N` runs N copies of the experiment with
// workload seeds base, base+1, ..., base+N-1 (base = workload.seed) and
// prints one result row per seed plus an aggregate. `--jobs=J` runs them on
// J threads; every run owns its whole simulated world, so the per-seed
// rows are byte-identical for any J. Both take a whole positive decimal.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "calib/calibration.h"
#include "common/config_parser.h"
#include "common/table_printer.h"
#include "core/s4d_cache.h"
#include "fault/fault_injector.h"
#include "fault/fault_schedule.h"
#include "harness/content_checker.h"
#include "harness/driver.h"
#include "harness/sweep_runner.h"
#include "harness/testbed.h"
#include "obs/observability.h"
#include "obs/sampler.h"
#include "policy/policy_engine.h"
#include "tenant/manager.h"
#include "trace/trace.h"
#include "tracein/loader.h"
#include "tracein/replayer.h"
#include "tracein/scaler.h"
#include <fstream>
#include <sstream>

#include "workloads/hpio.h"
#include "workloads/ior.h"
#include "workloads/replay.h"
#include "workloads/tile_io.h"

using namespace s4d;

namespace {

constexpr const char* kDefaultConfig = R"([cluster]
dservers = 8
cservers = 4
stripe = 64k

[middleware]
type = s4d
cache_capacity = 128m
policy = cost-model
rebuild_interval = 100ms

[workload]
type = ior
ranks = 32
file_size = 64m
request_size = 16k
random = true
kind = write
repeat = 1
)";

// Every key s4dsim understands, by section. ValidateKnownKeys rejects any
// config entry outside this schema, so a typo ("admision = feedback")
// fails the run loudly instead of silently running the default.
Status ValidateConfig(const ConfigParser& config) {
  static const std::map<std::string, std::vector<std::string>> kSchema = {
      {"cluster",
       {"dservers", "cservers", "stripe", "verify_content", "ssd_pe_cycles",
        "ssd_write_amp",
        // Device/link profile overrides (harness::ApplyClusterOverrides).
        "hdd_transfer_bps", "hdd_rpm", "hdd_avg_seek", "hdd_max_seek",
        "hdd_track_seek", "hdd_command_overhead", "hdd_readahead",
        "ssd_read_bps", "ssd_write_bps", "ssd_read_latency",
        "ssd_write_latency", "link_bps", "link_latency"}},
      {"middleware",
       {"type", "cache_capacity", "policy", "rebuild_interval",
        "metadata_overhead", "dmt_update_latency", "degraded_reads",
        "io_timeout", "cache_unhealthy_degrade"}},
      {"workload",
       {"type", "kind", "ranks", "region_count", "region_size",
        "region_spacing", "trace", "file", "elements_x", "elements_y",
        "element_size", "file_size", "request_size", "random", "seed",
        "repeat"}},
      {"faults", {"fault*", "queue_stale_timeout"}},
      {"trace",
       {"path", "format", "mode", "time_scale", "scale_ranks", "window",
        "file"}},
      {"obs", {"trace_out", "metrics_out", "sample_interval", "capture_out"}},
      {"policy",
       {"mode", "admission", "ewma_alpha", "threshold_step", "threshold_max",
        "pressure_max_queue", "pressure_max_delay"}},
      {"calib",
       {"enable", "forget", "min_samples", "queue_gain", "saturation_depth",
        "calibrate_dservers", "calibrate_cservers"}},
      {"tenants", tenant::TenantsSectionKeys()},
  };
  return config.ValidateKnownKeys(kSchema);
}

// Builds the policy engine for a parsed [policy] section, or null for
// paper-default (no engine, no hooks — the byte-identical legacy path).
// Exits on configuration errors.
std::unique_ptr<policy::PolicyEngine> MakePolicyEngine(
    const ConfigParser& config, core::S4DCache* s4d, obs::Observability* obs) {
  auto parsed = policy::ParsePolicyConfig(config);
  if (!parsed.ok()) {
    std::fprintf(stderr, "policy config error: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(1);
  }
  if (parsed->mode == policy::PolicyMode::kPaperDefault) return nullptr;
  if (s4d == nullptr) {
    std::fprintf(stderr,
                 "policy config error: [policy] needs middleware.type = s4d\n");
    std::exit(1);
  }
  auto engine = std::make_unique<policy::PolicyEngine>(*parsed);
  engine->Attach(*s4d, obs);
  return engine;
}

// Builds the tenant manager for a parsed [tenants] section, or null when the
// config has no such section (no partitioning — the byte-identical legacy
// path). Exits on configuration errors.
std::unique_ptr<tenant::TenantManager> MakeTenantManager(
    const ConfigParser& config, sim::Engine& engine, core::S4DCache* s4d,
    obs::Observability* obs) {
  bool present = false;
  for (const auto& [key, value] : config.entries()) {
    if (key.rfind("tenants.", 0) == 0) {
      present = true;
      break;
    }
  }
  if (!present) return nullptr;
  if (s4d == nullptr) {
    std::fprintf(stderr,
                 "tenants config error: [tenants] needs middleware.type = "
                 "s4d\n");
    std::exit(1);
  }
  auto parsed =
      tenant::ParseTenantsConfig(config, s4d->cache_space().capacity());
  if (!parsed.ok()) {
    std::fprintf(stderr, "tenants config error: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(1);
  }
  const int ranks = static_cast<int>(config.IntOr("workload", "ranks", 32));
  auto manager = std::make_unique<tenant::TenantManager>(
      engine, tenant::TenantRegistry(std::move(*parsed), ranks), obs);
  manager->Attach(*s4d);
  return manager;
}

// Builds the calibration engine for a parsed [calib] section, or null when
// the config has no such section (or calib.enable = false) — the
// byte-identical static-cost-model path. Exits on configuration errors.
std::unique_ptr<calib::CalibrationEngine> MakeCalibration(
    const ConfigParser& config, harness::Testbed& bed, core::S4DCache* s4d,
    obs::Observability* obs) {
  bool present = false;
  for (const auto& [key, value] : config.entries()) {
    if (key.rfind("calib.", 0) == 0) {
      present = true;
      break;
    }
  }
  if (!present) return nullptr;
  if (!config.BoolOr("calib", "enable", true)) return nullptr;
  if (s4d == nullptr) {
    std::fprintf(stderr,
                 "calib config error: [calib] needs middleware.type = s4d\n");
    std::exit(1);
  }
  calib::CalibConfig cfg;
  cfg.forget = config.DoubleOr("calib", "forget", cfg.forget);
  cfg.min_samples = config.IntOr("calib", "min_samples", cfg.min_samples);
  cfg.queue_gain = config.DoubleOr("calib", "queue_gain", cfg.queue_gain);
  cfg.saturation_depth =
      config.DoubleOr("calib", "saturation_depth", cfg.saturation_depth);
  cfg.calibrate_dservers =
      config.BoolOr("calib", "calibrate_dservers", cfg.calibrate_dservers);
  cfg.calibrate_cservers =
      config.BoolOr("calib", "calibrate_cservers", cfg.calibrate_cservers);
  if (cfg.forget <= 0.0 || cfg.forget > 1.0) {
    std::fprintf(stderr, "calib config error: calib.forget must be in (0, 1]\n");
    std::exit(1);
  }
  if (cfg.min_samples < 1) {
    std::fprintf(stderr, "calib config error: calib.min_samples must be >= 1\n");
    std::exit(1);
  }
  if (cfg.queue_gain < 0.0 || cfg.saturation_depth < 0.0) {
    std::fprintf(stderr,
                 "calib config error: calib.queue_gain and "
                 "calib.saturation_depth must be >= 0\n");
    std::exit(1);
  }
  auto engine = std::make_unique<calib::CalibrationEngine>(
      cfg, bed.MakeCostModel().params());
  engine->Attach(*s4d, bed.dservers(), bed.cservers(), obs);
  return engine;
}

// Reads the cluster shape into `bed`. Every value must be positive: a zero
// server count would otherwise abort inside the PFS layer, and a zero stripe
// would divide by zero.
Status ReadClusterShape(const ConfigParser& config,
                        harness::TestbedConfig& bed) {
  const std::int64_t limit = std::numeric_limits<int>::max();
  const std::pair<const char*, std::int64_t> counts[] = {
      {"dservers", config.IntOr("cluster", "dservers", 8)},
      {"cservers", config.IntOr("cluster", "cservers", 4)}};
  for (const auto& [key, value] : counts) {
    if (value < 1 || value > limit) {
      return Status::InvalidArgument("cluster." + std::string(key) +
                                     " must be in [1, " +
                                     std::to_string(limit) + "], got " +
                                     std::to_string(value));
    }
  }
  const byte_count stripe = config.SizeOr("cluster", "stripe", 64 * KiB);
  if (stripe < 1) {
    return Status::InvalidArgument("cluster.stripe must be >= 1 byte, got " +
                                   std::to_string(stripe));
  }
  bed.dservers = static_cast<int>(counts[0].second);
  bed.cservers = static_cast<int>(counts[1].second);
  bed.stripe_size = stripe;
  return Status::Ok();
}

std::unique_ptr<workloads::Workload> MakeWorkload(const ConfigParser& config) {
  const std::string type = config.StringOr("workload", "type", "ior");
  const auto kind = config.StringOr("workload", "kind", "write") == "read"
                        ? device::IoKind::kRead
                        : device::IoKind::kWrite;
  if (type == "hpio") {
    workloads::HpioConfig cfg;
    cfg.ranks = static_cast<int>(config.IntOr("workload", "ranks", 16));
    cfg.region_count = config.IntOr("workload", "region_count", 1024);
    cfg.region_size = config.SizeOr("workload", "region_size", 8 * KiB);
    cfg.region_spacing = config.SizeOr("workload", "region_spacing", 0);
    cfg.kind = kind;
    return std::make_unique<workloads::HpioWorkload>(cfg);
  }
  if (type == "replay") {
    // workload.trace = path to a CSV captured by a previous run.
    const std::string path = config.StringOr("workload", "trace", "");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open trace: %s\n", path.c_str());
      std::exit(1);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto entries = workloads::ReplayWorkload::ParseCsv(buffer.str());
    if (!entries.ok()) {
      std::fprintf(stderr, "trace parse error: %s\n",
                   entries.status().ToString().c_str());
      std::exit(1);
    }
    return std::make_unique<workloads::ReplayWorkload>(
        config.StringOr("workload", "file", "replay.dat"),
        std::move(*entries));
  }
  if (type == "tile") {
    workloads::TileIoConfig cfg;
    cfg.ranks = static_cast<int>(config.IntOr("workload", "ranks", 100));
    cfg.elements_x = static_cast<int>(config.IntOr("workload", "elements_x", 10));
    cfg.elements_y = static_cast<int>(config.IntOr("workload", "elements_y", 10));
    cfg.element_size = config.SizeOr("workload", "element_size", 32 * KiB);
    cfg.kind = kind;
    return std::make_unique<workloads::TileIoWorkload>(cfg);
  }
  workloads::IorConfig cfg;
  cfg.ranks = static_cast<int>(config.IntOr("workload", "ranks", 32));
  cfg.file_size = config.SizeOr("workload", "file_size", 64 * MiB);
  cfg.request_size = config.SizeOr("workload", "request_size", 16 * KiB);
  cfg.random = config.BoolOr("workload", "random", true);
  cfg.kind = kind;
  cfg.seed = static_cast<std::uint64_t>(config.IntOr("workload", "seed", 42));
  return std::make_unique<workloads::IorWorkload>(cfg);
}

// The [trace] section, loaded and validated: the trace itself (already
// scaled when scale_ranks > 1) plus the replay knobs. Exits on errors.
struct TraceSpec {
  tracein::LoadedTrace trace;
  tracein::ReplayMode mode = tracein::ReplayMode::kOpenLoop;
  double time_scale = 1.0;
  SimTime window = 0;
  std::string file;
};

TraceSpec LoadTraceSpec(const ConfigParser& config) {
  const std::string path = config.StringOr("trace", "path", "");
  if (path.empty()) {
    std::fprintf(stderr,
                 "trace config error: workload.type = trace needs "
                 "[trace] path\n");
    std::exit(1);
  }
  auto format = tracein::TraceLoader::FormatFromName(
      config.StringOr("trace", "format", "auto"));
  if (!format.ok()) {
    std::fprintf(stderr, "trace config error: %s\n",
                 format.status().ToString().c_str());
    std::exit(1);
  }
  auto trace = tracein::TraceLoader::LoadFile(path, *format);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace load error: %s\n",
                 trace.status().ToString().c_str());
    std::exit(1);
  }
  TraceSpec spec;
  spec.trace = std::move(*trace);

  const std::string mode = config.StringOr("trace", "mode", "open");
  if (mode == "open") {
    spec.mode = tracein::ReplayMode::kOpenLoop;
  } else if (mode == "closed") {
    spec.mode = tracein::ReplayMode::kClosedLoop;
  } else {
    std::fprintf(stderr,
                 "trace config error: mode wants open or closed, got '%s'\n",
                 mode.c_str());
    std::exit(1);
  }
  if (spec.mode == tracein::ReplayMode::kOpenLoop &&
      !spec.trace.has_timestamps) {
    std::fprintf(stderr,
                 "trace config error: %s has no timestamps; open-loop replay "
                 "needs an arrival schedule (use mode = closed)\n",
                 spec.trace.source.c_str());
    std::exit(1);
  }
  spec.time_scale = config.DoubleOr("trace", "time_scale", 1.0);
  if (spec.time_scale < 0.0) {
    std::fprintf(stderr, "trace config error: negative time_scale %g\n",
                 spec.time_scale);
    std::exit(1);
  }
  const int factor =
      static_cast<int>(config.IntOr("trace", "scale_ranks", 1));
  if (factor < 1) {
    std::fprintf(stderr, "trace config error: scale_ranks wants >= 1, got %d\n",
                 factor);
    std::exit(1);
  }
  if (factor > 1) {
    tracein::ScaleOptions scale;
    scale.factor = factor;
    spec.trace = tracein::ScaleTrace(spec.trace, scale);
  }
  spec.window = config.DurationOr("trace", "window", FromMillis(100));
  spec.file = config.StringOr("trace", "file", "trace.dat");
  return spec;
}

int Run(const ConfigParser& config) {
  auto schedule = fault::FaultSchedule::FromConfig(config);
  if (!schedule.ok()) {
    std::fprintf(stderr, "fault config error: %s\n",
                 schedule.status().ToString().c_str());
    return 1;
  }
  const bool verify = config.BoolOr("cluster", "verify_content", false);

  // Observability: constructed before the testbed so every layer can attach
  // at build time; entirely inert (null pointers everywhere) when no output
  // was requested.
  const std::string trace_out = config.StringOr("obs", "trace_out", "");
  const std::string metrics_out = config.StringOr("obs", "metrics_out", "");
  const SimTime sample_interval =
      config.DurationOr("obs", "sample_interval", 0);
  const bool observed = !trace_out.empty() || !metrics_out.empty();
  obs::Observability obs;
  obs.tracer.set_enabled(!trace_out.empty());

  harness::TestbedConfig bed_cfg;
  if (const Status shape = ReadClusterShape(config, bed_cfg); !shape.ok()) {
    std::fprintf(stderr, "config error: %s\n", shape.ToString().c_str());
    return 1;
  }
  bed_cfg.track_content = verify;
  // Optional SSD wear model: a P/E-cycle budget turns on WearFraction()
  // (and with it the endurance veto's end-of-life gate).
  bed_cfg.ssd.pe_cycle_budget =
      config.DoubleOr("cluster", "ssd_pe_cycles", bed_cfg.ssd.pe_cycle_budget);
  bed_cfg.ssd.write_amplification = config.DoubleOr(
      "cluster", "ssd_write_amp", bed_cfg.ssd.write_amplification);
  if (observed) bed_cfg.obs = &obs;
  if (const Status overrides = harness::ApplyClusterOverrides(config, bed_cfg);
      !overrides.ok()) {
    std::fprintf(stderr, "config error: %s\n", overrides.ToString().c_str());
    return 1;
  }
  harness::Testbed bed(bed_cfg);

  trace::TraceCollector collector;
  collector.Attach(bed.dservers(), "DServers");
  collector.Attach(bed.cservers(), "CServers");

  const std::string mw_type = config.StringOr("middleware", "type", "s4d");
  std::unique_ptr<core::S4DCache> s4d;
  mpiio::IoDispatch* dispatch = &bed.stock();
  if (mw_type == "s4d") {
    core::S4DConfig cfg;
    cfg.cache_capacity = config.SizeOr("middleware", "cache_capacity", 128 * MiB);
    const std::string policy =
        config.StringOr("middleware", "policy", "cost-model");
    cfg.policy = policy == "always" ? core::AdmissionPolicy::kAlways
                 : policy == "never" ? core::AdmissionPolicy::kNever
                                     : core::AdmissionPolicy::kCostModel;
    cfg.rebuilder.interval =
        config.DurationOr("middleware", "rebuild_interval", FromMillis(100));
    cfg.metadata_overhead_per_op = config.DurationOr(
        "middleware", "metadata_overhead", cfg.metadata_overhead_per_op);
    cfg.dmt_update_latency = config.DurationOr(
        "middleware", "dmt_update_latency", cfg.dmt_update_latency);
    cfg.degraded_read_mode =
        config.StringOr("middleware", "degraded_reads", "queue") == "stale"
            ? core::DegradedReadMode::kServeStale
            : core::DegradedReadMode::kQueue;
    // With faults in play, background I/O can be failed mid-flight by a
    // crash; a watchdog keeps a stalled flush run from wedging the
    // Rebuilder. Fault-free runs keep the timeout off (no extra events).
    cfg.rebuilder.io_timeout = config.DurationOr(
        "middleware", "io_timeout",
        schedule->empty() ? SimTime{0} : FromSeconds(5));
    // kQueue mode: a read held for the down cache tier is promoted to a
    // stale DServer read after this long (0 = queue forever).
    cfg.queue_stale_timeout =
        config.DurationOr("faults", "queue_stale_timeout", 0);
    cfg.cache_unhealthy_degrade = config.DoubleOr(
        "middleware", "cache_unhealthy_degrade", cfg.cache_unhealthy_degrade);
    s4d = bed.MakeS4D(cfg);
    dispatch = s4d.get();
  } else if (mw_type != "stock") {
    std::fprintf(stderr, "unknown middleware type: %s\n", mw_type.c_str());
    return 1;
  }

  auto policy_engine =
      MakePolicyEngine(config, s4d.get(), observed ? &obs : nullptr);
  auto tenant_manager = MakeTenantManager(config, bed.engine(), s4d.get(),
                                          observed ? &obs : nullptr);
  auto calibration =
      MakeCalibration(config, bed, s4d.get(), observed ? &obs : nullptr);
  if (calibration) {
    std::printf("calibration: forget %g, min_samples %lld, queue gain %g%s\n",
                calibration->config().forget,
                static_cast<long long>(calibration->config().min_samples),
                calibration->config().queue_gain,
                calibration->config().saturation_depth > 0.0
                    ? ", saturation probe armed"
                    : "");
  }

  harness::ContentChecker checker;
  harness::DriverOptions run_options;
  if (verify) {
    run_options.checker = &checker;
    if (s4d) {
      s4d->SetDirtyLossHook([&checker](const std::string& file,
                                       byte_count offset, byte_count length) {
        checker.MarkMaybeLost(file, offset, length);
      });
    }
  }

  // --capture-out / obs.capture_out: record every issued request with its
  // sim-time arrival and write the lot as a timestamped replay CSV at exit,
  // reloadable with workload.type = trace (the capture-once half of the
  // capture-once / replay-what-if loop).
  const std::string capture_out = config.StringOr("obs", "capture_out", "");
  tracein::LoadedTrace captured;
  if (!capture_out.empty()) {
    captured.format = tracein::TraceFormat::kReplay;
    captured.source = "s4dsim capture";
    captured.has_timestamps = true;
    run_options.on_issue = [&captured, &bed](
                               int rank, const workloads::Request& request) {
      captured.records.push_back({rank, request.kind, request.offset,
                                  request.size, bed.engine().now()});
    };
  }

  fault::FaultInjector injector(bed.engine(), bed.dservers(), bed.cservers(),
                                s4d.get());
  if (observed) injector.SetObservability(&obs);
  if (!schedule->empty()) {
    injector.Arm(*schedule);
    std::printf("faults: %zu scheduled\n", schedule->size());
  }

  // Periodic time series (written into the metrics dump). Probes are
  // read-only: outstanding sub-requests and middleware counters.
  obs::TimeSeriesSampler sampler(bed.engine(), sample_interval);
  if (observed && sample_interval > 0) {
    sampler.AddProbe("opfs.outstanding_subs", [&bed] {
      return static_cast<double>(bed.dservers().outstanding_subs());
    });
    sampler.AddProbe("cpfs.outstanding_subs", [&bed] {
      return static_cast<double>(bed.cservers().outstanding_subs());
    });
    if (s4d) {
      core::S4DCache* cache = s4d.get();
      sampler.AddProbe("s4d.dirty_bytes", [cache] {
        return static_cast<double>(cache->dmt().dirty_bytes());
      });
      sampler.AddProbe("s4d.cache_used_bytes", [cache] {
        return static_cast<double>(cache->cache_space().used_bytes());
      });
      sampler.AddProbe("s4d.read_hit_ratio", [cache] {
        const core::RedirectorStats& rs = cache->redirector_stats();
        return rs.read_requests > 0
                   ? static_cast<double>(rs.read_cache_hits +
                                         rs.read_partial_hits) /
                         static_cast<double>(rs.read_requests)
                   : 0.0;
      });
      sampler.AddProbe("s4d.cache_tier_slowdown",
                       [cache] { return cache->tier().Slowdown(); });
      // Age of the oldest / median dirty extent: how long acknowledged data
      // has been exposed to cache-tier loss.
      sampler.AddProbe("s4d.dirty_age_oldest_us", [cache, &bed] {
        return ToMicros(
            cache->dmt().SummarizeDirtyAges(bed.engine().now()).oldest);
      });
      sampler.AddProbe("s4d.dirty_age_p50_us", [cache, &bed] {
        return ToMicros(
            cache->dmt().SummarizeDirtyAges(bed.engine().now()).p50);
      });
    }
    if (calibration) {
      calib::CalibrationEngine* cal = calibration.get();
      sampler.AddProbe("calib.cserver_mean_depth",
                       [cal] { return cal->MeanCServerDepth(); });
      sampler.AddProbe("calib.samples", [cal] {
        return static_cast<double>(cal->stats().samples);
      });
    }
    if (s4d && !trace_out.empty()) {
      // Per-tick dirty-age instant: richer than the two scalar series above
      // (extent count + oldest/mean/p50) at the same cadence.
      core::S4DCache* cache = s4d.get();
      obs::Observability* ob = &obs;
      const std::uint32_t dirty_lane = obs.tracer.Lane("dmt");
      sampler.SetTickHook([cache, ob, dirty_lane](SimTime t) {
        const core::DataMappingTable::DirtyAgeSummary ages =
            cache->dmt().SummarizeDirtyAges(t);
        const obs::SpanId id =
            ob->tracer.Instant(dirty_lane, "dirty.age", "dmt", t);
        ob->tracer.AddArg(id, "extents", ages.dirty_extents);
        ob->tracer.AddArg(id, "oldest_us_x10", ages.oldest / 100);
        ob->tracer.AddArg(id, "mean_us_x10", ages.mean / 100);
        ob->tracer.AddArg(id, "p50_us_x10", ages.p50 / 100);
      });
    }
    sampler.Start();
  }

  mpiio::MpiIoLayer layer(bed.engine(), *dispatch);
  const std::string wl_type = config.StringOr("workload", "type", "ior");
  const int repeat =
      static_cast<int>(config.IntOr("workload", "repeat", 1));
  harness::RunResult last{};
  SimTime begin = 0;
  SimTime end = 0;

  if (wl_type == "trace") {
    // Timed trace replay: the trace's own arrival schedule drives the run,
    // so the closed-loop driver (and its read-warm machinery) is bypassed.
    TraceSpec spec = LoadTraceSpec(config);
    tracein::TraceReplayWorkload wl(std::move(spec.trace), spec.file);
    std::printf("trace: %zu requests over %d ranks (%s from %s), %s-loop "
                "replay, time scale %g\n",
                wl.trace().records.size(), wl.trace().ranks,
                FormatBytes(wl.trace().total_bytes).c_str(),
                wl.trace().source.c_str(),
                tracein::ReplayModeName(spec.mode), spec.time_scale);
    tracein::ReplayOptions replay_opts;
    replay_opts.mode = spec.mode;
    replay_opts.time_scale = spec.time_scale;
    replay_opts.window = spec.window;
    replay_opts.checker = verify ? &checker : nullptr;
    replay_opts.obs = observed ? &obs : nullptr;
    replay_opts.on_issue = run_options.on_issue;  // capture, when armed
    begin = bed.engine().now();
    tracein::ReplayResult replay{};
    for (int pass = 0; pass < repeat; ++pass) {
      replay = wl.Replay(layer, replay_opts);
      last = replay.run;
      std::printf(
          "pass %d: %.1f MB/s (%lld requests, %s, mean latency %.0f us, "
          "peak in flight %lld)\n",
          pass + 1, last.throughput_mbps,
          static_cast<long long>(last.requests),
          FormatBytes(last.bytes).c_str(), last.mean_latency_us,
          static_cast<long long>(replay.peak_in_flight));
    }
    end = bed.engine().now();
    if (!replay.windows.empty()) {
      std::printf("\n-- replay windows (%s each) --\n",
                  FormatTime(spec.window).c_str());
      TablePrinter wt({"window", "start (ms)", "requests", "reads", "writes",
                       "bytes", "MB/s", "mean us", "max us"});
      int index = 0;
      for (const tracein::ReplayWindow& w : replay.windows) {
        wt.AddRow({TablePrinter::Int(index++),
                   TablePrinter::Num(ToMillis(w.start), 1),
                   TablePrinter::Int(w.requests), TablePrinter::Int(w.reads),
                   TablePrinter::Int(w.writes), FormatBytes(w.bytes),
                   TablePrinter::Num(w.throughput_mbps, 2),
                   TablePrinter::Num(w.mean_latency_us, 1),
                   TablePrinter::Num(w.max_latency_us, 1)});
      }
      wt.Print(std::cout);
    }
  } else {
    auto workload = MakeWorkload(config);

    // For read measurements, lay the data down and warm the cache first (the
    // paper's "second run" methodology): write pass, settle, cold read pass
    // (identifies + fetches critical data), settle again.
    if (config.StringOr("workload", "kind", "write") == "read") {
      std::printf("warming: write pass + settle + cold read pass + settle\n");
      ConfigParser write_config = config;
      write_config.Set("workload", "kind", "write");
      auto writer = MakeWorkload(write_config);
      harness::RunClosedLoop(layer, *writer, run_options);
      auto settle = [&] {
        if (!s4d) return;
        harness::DrainUntil(bed.engine(),
                            [&] { return s4d->BackgroundQuiescent(); },
                            FromSeconds(3600));
      };
      settle();
      auto cold_reader = MakeWorkload(config);
      harness::RunClosedLoop(layer, *cold_reader, run_options);
      settle();
    }

    begin = bed.engine().now();
    for (int pass = 0; pass < repeat; ++pass) {
      workload->Reset();
      last = harness::RunClosedLoop(layer, *workload, run_options);
      std::printf(
          "pass %d: %.1f MB/s (%lld requests, %s, mean latency %.0f us)\n",
          pass + 1, last.throughput_mbps,
          static_cast<long long>(last.requests),
          FormatBytes(last.bytes).c_str(), last.mean_latency_us);
    }
    end = bed.engine().now();
  }

  std::printf("\n-- routing --\n");
  const auto dist = collector.RequestDistribution(begin, end);
  TablePrinter routing({"servers", "requests", "%", "bytes"});
  for (const std::string group : {"DServers", "CServers"}) {
    const auto rit = dist.requests.find(group);
    const auto bit = dist.bytes.find(group);
    routing.AddRow({group,
                    TablePrinter::Int(rit == dist.requests.end() ? 0 : rit->second),
                    TablePrinter::Percent(dist.RequestPercent(group)),
                    FormatBytes(bit == dist.bytes.end() ? 0 : bit->second)});
  }
  routing.Print(std::cout);

  if (s4d) {
    const auto& rs = s4d->redirector_stats();
    const auto& bs = s4d->rebuilder_stats();
    std::printf("\n-- middleware --\n");
    std::printf("identifier: %lld requests, %lld critical\n",
                static_cast<long long>(s4d->identifier_stats().requests),
                static_cast<long long>(s4d->identifier_stats().critical));
    std::printf(
        "redirector: %lld admissions, %lld write hits, %lld read hits, "
        "%lld clean bypasses, %lld evictions, %lld admission failures\n",
        static_cast<long long>(rs.write_admissions),
        static_cast<long long>(rs.write_cache_hits),
        static_cast<long long>(rs.read_cache_hits),
        static_cast<long long>(rs.read_clean_bypasses),
        static_cast<long long>(rs.evictions),
        static_cast<long long>(rs.admission_failures));
    std::printf("rebuilder: %lld flush runs (%s), %lld fetches (%s)\n",
                static_cast<long long>(bs.flush_runs_started),
                FormatBytes(bs.flushed_bytes).c_str(),
                static_cast<long long>(bs.fetches_started),
                FormatBytes(bs.fetched_bytes).c_str());
    std::printf("cache: %s / %s used, %zu mappings, %s dirty\n",
                FormatBytes(s4d->cache_space().used_bytes()).c_str(),
                FormatBytes(s4d->cache_space().capacity()).c_str(),
                s4d->dmt().entry_count(),
                FormatBytes(s4d->dmt().dirty_bytes()).c_str());
    if (policy_engine) {
      const auto& as = policy_engine->admission().stats();
      std::printf(
          "policy: %s, %lld admits, %lld threshold rejects, %lld pressure "
          "vetoes\n",
          policy::PolicyModeName(policy_engine->config().mode),
          static_cast<long long>(as.admits),
          static_cast<long long>(as.threshold_rejects),
          static_cast<long long>(as.pressure_vetoes));
    }
    if (tenant_manager) tenant_manager->PrintReport();
    if (calibration) {
      std::printf("\n-- calibration --\n");
      calibration->PrintReport(std::cout);
    }
    const auto& drs = s4d->redirector_stats();
    if (drs.saturation_write_bypasses + drs.saturation_read_bypasses +
            drs.saturation_fetch_suppressions >
        0) {
      std::printf(
          "saturation: %lld write bypasses, %lld critical-read bypasses, "
          "%lld fetch suppressions\n",
          static_cast<long long>(drs.saturation_write_bypasses),
          static_cast<long long>(drs.saturation_read_bypasses),
          static_cast<long long>(drs.saturation_fetch_suppressions));
    }
  }

  if (!schedule->empty()) {
    // Let recovery finish (queued reads re-issued, flush backlog drained)
    // before judging the final state.
    if (s4d) {
      harness::DrainUntil(bed.engine(),
                          [&] { return s4d->BackgroundQuiescent(); },
                          FromSeconds(3600));
    }
    const auto& is = injector.stats();
    std::printf("\n-- faults --\n");
    std::printf(
        "injected: %lld events (%lld crashes, %lld wipes, %lld restarts, "
        "%lld degrades, %lld partition changes)\n",
        static_cast<long long>(is.events_applied),
        static_cast<long long>(is.crashes), static_cast<long long>(is.wipes),
        static_cast<long long>(is.restarts),
        static_cast<long long>(is.degrades),
        static_cast<long long>(is.partitions));
    std::printf("pfs: %lld failed requests (dservers %lld, cservers %lld)\n",
                static_cast<long long>(bed.dservers().stats().failed_requests +
                                       bed.cservers().stats().failed_requests),
                static_cast<long long>(bed.dservers().stats().failed_requests),
                static_cast<long long>(bed.cservers().stats().failed_requests));
    if (s4d) {
      const auto& c = s4d->counters();
      const auto& rs = s4d->redirector_stats();
      const auto& bs = s4d->rebuilder_stats();
      std::printf(
          "degraded routing: %lld writes, %lld reads (%lld dirty: %lld "
          "queued, %lld served stale)\n",
          static_cast<long long>(rs.degraded_writes),
          static_cast<long long>(rs.degraded_reads),
          static_cast<long long>(rs.degraded_dirty_reads),
          static_cast<long long>(c.queued_degraded_reads),
          static_cast<long long>(c.stale_dirty_reads));
      std::printf(
          "rebuilder: %lld flush failures, %lld timeouts, %lld fetch "
          "failures, %lld recovery passes (%lld dirty extents, %s replayed)\n",
          static_cast<long long>(bs.flush_failures),
          static_cast<long long>(bs.flush_timeouts),
          static_cast<long long>(bs.fetch_failures),
          static_cast<long long>(bs.recovery_passes),
          static_cast<long long>(bs.recovered_dirty_extents),
          FormatBytes(bs.recovered_dirty_bytes).c_str());
      std::printf("loss window: %lld wiped extents, %s dirty bytes lost\n",
                  static_cast<long long>(c.wiped_extents),
                  FormatBytes(c.lost_dirty_bytes).c_str());
    }
  }

  if (observed) {
    sampler.Stop();
    if (calibration && !trace_out.empty()) {
      // The per-server instants carry the final totals, after the fault
      // drain above.
      calibration->ExportTrace(obs, bed.engine().now());
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) {
        std::fprintf(stderr, "cannot open trace output: %s\n",
                     trace_out.c_str());
        return 1;
      }
      obs.tracer.WriteChromeTrace(out);
      std::printf("\ntrace: %zu events -> %s\n", obs.tracer.records().size(),
                  trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) {
        std::fprintf(stderr, "cannot open metrics output: %s\n",
                     metrics_out.c_str());
        return 1;
      }
      out << "{\"metrics\":";
      obs.metrics.WriteJson(out);
      out << ",\"series\":";
      if (sample_interval > 0) {
        sampler.WriteJson(out);
      } else {
        out << "null";
      }
      out << "}\n";
      std::printf("metrics: -> %s\n", metrics_out.c_str());
    }
  }

  if (!capture_out.empty()) {
    // Arrivals are written relative to the first captured request, so the
    // replay starts immediately even when warm-up passes preceded it.
    if (!captured.records.empty()) {
      const SimTime start = captured.records.front().arrival;
      for (tracein::TraceRecord& record : captured.records) {
        record.arrival -= start;
      }
    }
    tracein::FinalizeTrace(captured);
    std::ofstream out(capture_out);
    if (!out) {
      std::fprintf(stderr, "cannot open capture output: %s\n",
                   capture_out.c_str());
      return 1;
    }
    out << tracein::TraceLoader::ToReplayCsv(captured);
    std::printf("capture: %zu requests -> %s\n", captured.records.size(),
                capture_out.c_str());
  }

  if (verify) {
    checker.CheckAll(*dispatch);
    std::printf("\n-- verification --\n");
    std::printf(
        "%lld checks, %lld failures, %lld reads in reported loss window "
        "(%s reported lost)\n",
        static_cast<long long>(checker.checks()),
        static_cast<long long>(checker.failures()),
        static_cast<long long>(checker.loss_window_reads()),
        FormatBytes(checker.lost_bytes()).c_str());
    if (checker.failures() > 0) {
      std::printf("first failure: %s\n", checker.first_failure().c_str());
      std::printf("VERIFICATION FAILED\n");
      return 1;
    }
    std::printf("verification OK: no acknowledged write lost outside the "
                "reported loss window\n");
  }
  return 0;
}

// One sweep run: the experiment from the config with the workload seed
// replaced, everything else identical. No printing (runs execute
// concurrently); the caller reports the returned metrics in seed order.
struct SeedMetrics {
  std::uint64_t seed = 0;
  harness::RunResult result{};
  SimTime sim_end = 0;
  std::uint64_t events_fired = 0;
};

SeedMetrics RunOneSeed(const ConfigParser& base, std::uint64_t seed) {
  ConfigParser config = base;
  config.Set("workload", "seed", std::to_string(seed));

  auto schedule = fault::FaultSchedule::FromConfig(config);
  if (!schedule.ok()) {
    std::fprintf(stderr, "fault config error: %s\n",
                 schedule.status().ToString().c_str());
    std::exit(1);
  }

  harness::TestbedConfig bed_cfg;
  if (const Status shape = ReadClusterShape(config, bed_cfg); !shape.ok()) {
    std::fprintf(stderr, "config error: %s\n", shape.ToString().c_str());
    std::exit(1);
  }
  bed_cfg.ssd.pe_cycle_budget =
      config.DoubleOr("cluster", "ssd_pe_cycles", bed_cfg.ssd.pe_cycle_budget);
  bed_cfg.ssd.write_amplification = config.DoubleOr(
      "cluster", "ssd_write_amp", bed_cfg.ssd.write_amplification);
  if (const Status overrides = harness::ApplyClusterOverrides(config, bed_cfg);
      !overrides.ok()) {
    std::fprintf(stderr, "config error: %s\n", overrides.ToString().c_str());
    std::exit(1);
  }
  harness::Testbed bed(bed_cfg);

  const std::string mw_type = config.StringOr("middleware", "type", "s4d");
  std::unique_ptr<core::S4DCache> s4d;
  mpiio::IoDispatch* dispatch = &bed.stock();
  if (mw_type == "s4d") {
    core::S4DConfig cfg;
    cfg.cache_capacity =
        config.SizeOr("middleware", "cache_capacity", 128 * MiB);
    const std::string policy =
        config.StringOr("middleware", "policy", "cost-model");
    cfg.policy = policy == "always" ? core::AdmissionPolicy::kAlways
                 : policy == "never" ? core::AdmissionPolicy::kNever
                                     : core::AdmissionPolicy::kCostModel;
    cfg.rebuilder.interval =
        config.DurationOr("middleware", "rebuild_interval", FromMillis(100));
    cfg.rebuilder.io_timeout = config.DurationOr(
        "middleware", "io_timeout",
        schedule->empty() ? SimTime{0} : FromSeconds(5));
    s4d = bed.MakeS4D(cfg);
    dispatch = s4d.get();
  } else if (mw_type != "stock") {
    std::fprintf(stderr, "unknown middleware type: %s\n", mw_type.c_str());
    std::exit(1);
  }

  auto policy_engine = MakePolicyEngine(config, s4d.get(), nullptr);
  auto tenant_manager =
      MakeTenantManager(config, bed.engine(), s4d.get(), nullptr);
  auto calibration = MakeCalibration(config, bed, s4d.get(), nullptr);

  fault::FaultInjector injector(bed.engine(), bed.dservers(), bed.cservers(),
                                s4d.get());
  if (!schedule->empty()) injector.Arm(*schedule);

  mpiio::MpiIoLayer layer(bed.engine(), *dispatch);
  auto settle = [&] {
    if (!s4d) return;
    harness::DrainUntil(bed.engine(), [&] { return s4d->BackgroundQuiescent(); },
                        FromSeconds(3600));
  };
  if (config.StringOr("workload", "kind", "write") == "read") {
    ConfigParser write_config = config;
    write_config.Set("workload", "kind", "write");
    auto writer = MakeWorkload(write_config);
    harness::RunClosedLoop(layer, *writer);
    settle();
    auto cold_reader = MakeWorkload(config);
    harness::RunClosedLoop(layer, *cold_reader);
    settle();
  }

  SeedMetrics metrics;
  metrics.seed = seed;
  const int repeat = static_cast<int>(config.IntOr("workload", "repeat", 1));
  if (config.StringOr("workload", "type", "ior") == "trace") {
    // The trace replay is seed-independent (every sweep row identical);
    // the sweep still exercises --jobs determinism end to end.
    TraceSpec spec = LoadTraceSpec(config);
    tracein::TraceReplayWorkload wl(std::move(spec.trace), spec.file);
    tracein::ReplayOptions replay_opts;
    replay_opts.mode = spec.mode;
    replay_opts.time_scale = spec.time_scale;
    replay_opts.window = spec.window;
    for (int pass = 0; pass < repeat; ++pass) {
      metrics.result = wl.Replay(layer, replay_opts).run;
    }
  } else {
    auto workload = MakeWorkload(config);
    for (int pass = 0; pass < repeat; ++pass) {
      workload->Reset();
      metrics.result = harness::RunClosedLoop(layer, *workload);
    }
  }
  metrics.sim_end = bed.engine().now();
  metrics.events_fired = bed.engine().events_fired();
  return metrics;
}

// Parses `flag`'s value as a whole positive decimal ("4"; not "abc", "0",
// "-2" or "3x") into `out`. On anything else prints an error naming the
// flag and the value and returns false.
bool ParsePositiveFlag(const char* flag, const std::string& text, int& out) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < 1) {
    std::fprintf(stderr, "%s wants a positive integer, got '%s'\n", flag,
                 text.c_str());
    return false;
  }
  out = value;
  return true;
}

int RunSweep(const ConfigParser& config, int seeds, int jobs) {
  const std::uint64_t base =
      static_cast<std::uint64_t>(config.IntOr("workload", "seed", 42));
  // The banner deliberately omits the jobs count: sweep output is
  // byte-identical for any --jobs value, and keeping the execution detail
  // out of it lets callers diff runs directly.
  std::printf("sweep: %d seeds (base %llu)\n\n", seeds,
              static_cast<unsigned long long>(base));
  const auto results = harness::RunSweep<SeedMetrics>(
      seeds, jobs, base,
      [&](const harness::SweepJob& job) { return RunOneSeed(config, job.seed); });

  TablePrinter table({"seed", "MB/s", "requests", "mean latency (us)",
                      "sim end (ms)", "events"});
  double sum = 0.0, lo = 0.0, hi = 0.0;
  for (const SeedMetrics& m : results) {
    table.AddRow({TablePrinter::Int(static_cast<std::int64_t>(m.seed)),
                  TablePrinter::Num(m.result.throughput_mbps, 2),
                  TablePrinter::Int(m.result.requests),
                  TablePrinter::Num(m.result.mean_latency_us, 1),
                  TablePrinter::Num(ToMillis(m.sim_end), 1),
                  TablePrinter::Int(static_cast<std::int64_t>(m.events_fired))});
    const double t = m.result.throughput_mbps;
    sum += t;
    if (m.seed == base || t < lo) lo = t;
    if (m.seed == base || t > hi) hi = t;
  }
  table.Print(std::cout);
  std::printf("\naggregate: mean %.2f MB/s, min %.2f, max %.2f over %d seeds\n",
              sum / static_cast<double>(seeds), lo, hi, seeds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--print-default-config") == 0) {
    std::fputs(kDefaultConfig, stdout);
    return 0;
  }
  ConfigParser config;
  const char* config_path = nullptr;
  struct Override {
    const char* section;
    const char* key;
    std::string value;
  };
  std::vector<Override> overrides;
  int sweep_seeds = 0;
  int jobs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag_value = [&arg](const char* prefix) -> std::optional<std::string> {
      const std::size_t len = std::strlen(prefix);
      if (arg.compare(0, len, prefix) == 0) return arg.substr(len);
      return std::nullopt;
    };
    if (auto v = flag_value("--trace-out=")) {
      overrides.push_back({"obs", "trace_out", *v});
    } else if (auto v = flag_value("--metrics-out=")) {
      overrides.push_back({"obs", "metrics_out", *v});
    } else if (auto v = flag_value("--sample-interval=")) {
      overrides.push_back({"obs", "sample_interval", *v});
    } else if (auto v = flag_value("--capture-out=")) {
      overrides.push_back({"obs", "capture_out", *v});
    } else if (auto v = flag_value("--sweep-seeds=")) {
      if (!ParsePositiveFlag("--sweep-seeds", *v, sweep_seeds)) return 1;
    } else if (auto v = flag_value("--jobs=")) {
      if (!ParsePositiveFlag("--jobs", *v, jobs)) return 1;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    } else if (config_path == nullptr) {
      config_path = argv[i];
    } else {
      std::fprintf(stderr, "more than one config file given: %s\n",
                   arg.c_str());
      return 1;
    }
  }
  if (config_path != nullptr) {
    const Status status = config.ParseFile(config_path);
    if (!status.ok()) {
      std::fprintf(stderr, "config error: %s\n", status.ToString().c_str());
      return 1;
    }
    const Status known = ValidateConfig(config);
    if (!known.ok()) {
      std::fprintf(stderr, "config error: %s\n", known.ToString().c_str());
      return 1;
    }
    // Relative trace paths resolve against the config file's directory,
    // so a config can name a trace bundled next to it (examples/traces/)
    // no matter where s4dsim is invoked from.
    const std::string path = config_path;
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos) {
      const std::string dir = path.substr(0, slash + 1);
      const std::pair<const char*, const char*> trace_keys[] = {
          {"trace", "path"}, {"workload", "trace"}};
      for (const auto& [section, key] : trace_keys) {
        const std::string value = config.StringOr(section, key, "");
        if (!value.empty() && value.front() != '/') {
          config.Set(section, key, dir + value);
        }
      }
    }
  } else {
    (void)config.Parse(kDefaultConfig);
    std::printf("(no config given; using built-in defaults — "
                "see --print-default-config)\n\n");
  }
  // CLI flags override the config file.
  for (const Override& o : overrides) config.Set(o.section, o.key, o.value);
  if (sweep_seeds > 0) return RunSweep(config, sweep_seeds, jobs);
  return Run(config);
}
