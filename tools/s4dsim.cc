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
//   [workload]               ; type = ior | hpio | tile | trace
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
// A relative [trace] path is resolved against the config file's
// directory, so experiment configs can name the traces bundled under
// examples/traces/. A captured CSV replays with type = trace and
// [trace] mode = closed; time_scale = 0 issues each rank's requests back
// to back.
//
// Every value must parse as its key's type (integer, number, bool, size,
// duration), and a key with a fixed set of values (type, kind, policy,
// degraded_reads, format, mode) takes only those: an unknown key or a
// malformed value exits 1 with `config error:` before anything runs.
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
// prints one result row per seed plus an aggregate. Each seed builds the
// same stack and drives the same workload as a single run, so a one-seed
// sweep row matches the single run's last pass. `--jobs=J` runs them on
// J threads; every run owns its whole simulated world, so the per-seed
// rows are byte-identical for any J. Both take a whole positive decimal.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "calib/calibration.h"
#include "common/check.h"
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
#include "workloads/hpio.h"
#include "workloads/ior.h"
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

// How s4dsim reads a key's value: kText takes any text (a path, a name, or
// a value its section's own parser checks: the fault* and tenant* entries
// and [policy]); the others must parse with the ConfigParser getter of
// that type.
enum class ValueType { kText, kInt, kDouble, kBool, kSize, kDuration };

struct KeySpec {
  KeySpec(std::string key, ValueType value_type = ValueType::kText)
      : name(std::move(key)), type(value_type) {}
  KeySpec(std::string key, std::vector<std::string> values)
      : name(std::move(key)), choices(std::move(values)) {}

  std::string name;
  ValueType type = ValueType::kText;
  std::vector<std::string> choices;  // when set, the only values accepted
};

// [workload] read into each synthetic workload's config. MakeWorkload builds
// from these, and CheckValues checks them, so both see the same defaults.
device::IoKind ReadKind(const ConfigParser& config) {
  return config.StringOr("workload", "kind", "write") == "read"
             ? device::IoKind::kRead
             : device::IoKind::kWrite;
}

workloads::HpioConfig ReadHpioConfig(const ConfigParser& config) {
  workloads::HpioConfig cfg;
  cfg.ranks = static_cast<int>(config.IntOr("workload", "ranks", 16));
  cfg.region_count = config.IntOr("workload", "region_count", 1024);
  cfg.region_size = config.SizeOr("workload", "region_size", 8 * KiB);
  cfg.region_spacing = config.SizeOr("workload", "region_spacing", 0);
  cfg.kind = ReadKind(config);
  return cfg;
}

workloads::TileIoConfig ReadTileConfig(const ConfigParser& config) {
  workloads::TileIoConfig cfg;
  cfg.ranks = static_cast<int>(config.IntOr("workload", "ranks", 100));
  cfg.elements_x = static_cast<int>(config.IntOr("workload", "elements_x", 10));
  cfg.elements_y = static_cast<int>(config.IntOr("workload", "elements_y", 10));
  cfg.element_size = config.SizeOr("workload", "element_size", 32 * KiB);
  cfg.kind = ReadKind(config);
  return cfg;
}

workloads::IorConfig ReadIorConfig(const ConfigParser& config) {
  workloads::IorConfig cfg;
  cfg.ranks = static_cast<int>(config.IntOr("workload", "ranks", 32));
  cfg.file_size = config.SizeOr("workload", "file_size", 64 * MiB);
  cfg.request_size = config.SizeOr("workload", "request_size", 16 * KiB);
  cfg.random = config.BoolOr("workload", "random", true);
  cfg.kind = ReadKind(config);
  cfg.seed = static_cast<std::uint64_t>(config.IntOr("workload", "seed", 42));
  return cfg;
}

// Values that parse but that no run can use, each failing naming its key:
// a workload with no ranks, no requests or empty requests (its constructor,
// or the middleware's zero-size check, would abort), no passes (the run
// would report nothing and succeed), a count past `int` (it would silently
// wrap), and a Rebuilder interval that is not positive (the Rebuilder would
// tick at one instant forever). Called once every value is known to parse.
Status CheckValues(const ConfigParser& config) {
  const auto bad = [](const std::string& key, const std::string& why) {
    return Status::InvalidArgument(key + ": " + why);
  };
  if (const auto interval = config.GetDuration("middleware",
                                               "rebuild_interval");
      interval && *interval <= 0) {
    return bad("middleware.rebuild_interval",
               "must be positive, got '" +
                   *config.GetString("middleware", "rebuild_interval") + "'");
  }
  const std::int64_t int_max = std::numeric_limits<int>::max();
  for (const char* key : {"ranks", "elements_x", "elements_y", "repeat"}) {
    const auto value = config.GetInt("workload", key);
    if (value && (*value < 1 || *value > int_max)) {
      return bad(std::string("workload.") + key,
                 "must be in [1, " + std::to_string(int_max) + "], got " +
                     std::to_string(*value));
    }
  }
  const std::string type = config.StringOr("workload", "type", "ior");
  if (type == "hpio") {
    const workloads::HpioConfig hpio = ReadHpioConfig(config);
    if (hpio.region_count < 1) {
      return bad("workload.region_count",
                 "must be >= 1, got " + std::to_string(hpio.region_count));
    }
    if (hpio.region_size < 1) {
      return bad("workload.region_size",
                 "must be >= 1 byte, got " + std::to_string(hpio.region_size));
    }
  } else if (type == "tile") {
    const workloads::TileIoConfig tile = ReadTileConfig(config);
    if (tile.element_size < 1) {
      return bad("workload.element_size", "must be >= 1 byte, got " +
                                              std::to_string(tile.element_size));
    }
  } else if (type == "ior") {
    const workloads::IorConfig ior = ReadIorConfig(config);
    if (ior.request_size < 1) {
      return bad("workload.request_size", "must be >= 1 byte, got " +
                                              std::to_string(ior.request_size));
    }
    // Each rank's partition must hold at least one request.
    if (ior.file_size / ior.ranks < ior.request_size) {
      return bad("workload.file_size",
                 std::to_string(ior.file_size) +
                     " bytes is less than ranks x request_size (" +
                     std::to_string(ior.ranks) + " x " +
                     std::to_string(ior.request_size) + " bytes)");
    }
  }
  return Status::Ok();
}

// Every key s4dsim understands, by section, with its type. A key outside
// this schema (a typo like "admision = feedback"), a value that does not
// parse as its key's type ("dservers = abc") and a value outside its key's
// choices ("type = hpoi") each fail the run loudly instead of silently
// running the default, and so does a value CheckValues rejects.
Status ValidateConfig(const ConfigParser& config) {
  using V = ValueType;
  static const std::map<std::string, std::vector<KeySpec>> kSchema = {
      {"cluster",
       {{"dservers", V::kInt}, {"cservers", V::kInt}, {"stripe", V::kSize},
        {"verify_content", V::kBool}, {"ssd_pe_cycles", V::kDouble},
        {"ssd_write_amp", V::kDouble},
        // Device/link profile overrides (harness::ApplyClusterOverrides).
        {"hdd_transfer_bps", V::kDouble}, {"hdd_rpm", V::kDouble},
        {"hdd_avg_seek", V::kDuration}, {"hdd_max_seek", V::kDuration},
        {"hdd_track_seek", V::kDuration},
        {"hdd_command_overhead", V::kDuration}, {"hdd_readahead", V::kSize},
        {"ssd_read_bps", V::kDouble}, {"ssd_write_bps", V::kDouble},
        {"ssd_read_latency", V::kDuration},
        {"ssd_write_latency", V::kDuration}, {"link_bps", V::kDouble},
        {"link_latency", V::kDuration}}},
      {"middleware",
       {{"type", {"stock", "s4d"}},
        {"cache_capacity", V::kSize},
        {"policy", {"cost-model", "always", "never"}},
        {"rebuild_interval", V::kDuration},
        {"metadata_overhead", V::kDuration},
        {"dmt_update_latency", V::kDuration},
        {"degraded_reads", {"queue", "stale"}},
        {"io_timeout", V::kDuration},
        {"cache_unhealthy_degrade", V::kDouble}}},
      {"workload",
       {{"type", {"ior", "hpio", "tile", "trace"}},
        {"kind", {"write", "read"}}, {"ranks", V::kInt},
        {"region_count", V::kInt}, {"region_size", V::kSize},
        {"region_spacing", V::kSize}, {"elements_x", V::kInt},
        {"elements_y", V::kInt}, {"element_size", V::kSize},
        {"file_size", V::kSize}, {"request_size", V::kSize},
        {"random", V::kBool}, {"seed", V::kInt}, {"repeat", V::kInt}}},
      {"faults", {{"fault*"}, {"queue_stale_timeout", V::kDuration}}},
      {"trace",
       {{"path"},
        {"format", {"auto", "msr", "native", "replay", "binary"}},
        {"mode", {"open", "closed"}}, {"time_scale", V::kDouble},
        {"scale_ranks", V::kInt}, {"window", V::kDuration}, {"file"}}},
      {"obs",
       {{"trace_out"}, {"metrics_out"}, {"sample_interval", V::kDuration},
        {"capture_out"}}},
      {"policy",
       {{"mode"}, {"admission"}, {"ewma_alpha"}, {"threshold_step"},
        {"threshold_max"}, {"pressure_max_queue"}}},
      {"calib",
       {{"min_samples", V::kInt}, {"saturation_depth", V::kDouble}}},
      {"tenants",
       {{"tenant*"}, {"mode", {"enforce", "observe"}},
        {"sizer_interval", V::kDuration}, {"endurance", V::kBool},
        {"write_cost_ns_per_byte", V::kDouble}}},
  };
  std::map<std::string, std::vector<std::string>> names;
  for (const auto& [section, keys] : kSchema) {
    for (const KeySpec& key : keys) names[section].push_back(key.name);
  }
  if (Status known = config.ValidateKnownKeys(names); !known.ok()) {
    return known;
  }
  for (const auto& [section, keys] : kSchema) {
    for (const KeySpec& key : keys) {
      const auto value = config.GetString(section, key.name);
      if (!value) continue;
      const std::string& k = key.name;
      bool parses = true;
      switch (key.type) {
        case V::kText: break;
        case V::kInt: parses = config.GetInt(section, k).has_value(); break;
        case V::kDouble: parses = config.GetDouble(section, k).has_value(); break;
        case V::kBool: parses = config.GetBool(section, k).has_value(); break;
        case V::kSize: parses = config.GetSize(section, k).has_value(); break;
        case V::kDuration:
          parses = config.GetDuration(section, k).has_value();
          break;
      }
      const bool chosen =
          key.choices.empty() || std::find(key.choices.begin(),
                                           key.choices.end(),
                                           *value) != key.choices.end();
      if (parses && chosen) continue;
      std::string want;
      for (const std::string& choice : key.choices) {
        want += (want.empty() ? " (want " : " | ") + choice;
      }
      return Status::InvalidArgument(section + "." + k + ": cannot parse '" +
                                     *value + "'" +
                                     (want.empty() ? "" : want + ")"));
    }
  }
  return CheckValues(config);
}

// Whether the config sets any key of `section`.
bool HasSection(const ConfigParser& config, const std::string& section) {
  const std::string prefix = section + ".";
  for (const auto& [key, value] : config.entries()) {
    if (key.rfind(prefix, 0) == 0) return true;
  }
  return false;
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
  if (!HasSection(config, "tenants")) return nullptr;
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
// the config has no such section — the byte-identical static-cost-model
// path. Exits on configuration errors.
std::unique_ptr<calib::CalibrationEngine> MakeCalibration(
    const ConfigParser& config, harness::Testbed& bed, core::S4DCache* s4d,
    obs::Observability* obs) {
  if (!HasSection(config, "calib")) return nullptr;
  if (s4d == nullptr) {
    std::fprintf(stderr,
                 "calib config error: [calib] needs middleware.type = s4d\n");
    std::exit(1);
  }
  calib::CalibConfig cfg;
  cfg.min_samples = config.IntOr("calib", "min_samples", cfg.min_samples);
  cfg.saturation_depth =
      config.DoubleOr("calib", "saturation_depth", cfg.saturation_depth);
  if (cfg.min_samples < 1) {
    std::fprintf(stderr, "calib config error: calib.min_samples must be >= 1\n");
    std::exit(1);
  }
  if (cfg.saturation_depth < 0.0) {
    std::fprintf(stderr,
                 "calib config error: calib.saturation_depth must be >= 0\n");
    std::exit(1);
  }
  auto engine = std::make_unique<calib::CalibrationEngine>(
      cfg, bed.MakeCostModel().params());
  engine->Attach(*s4d, bed.dservers(), bed.cservers(), obs);
  return engine;
}

// Reads [cluster] into a testbed config: the shape, the SSD wear model and
// the device and link profile overrides. Every shape value must be
// positive: a zero server count would otherwise abort inside the PFS layer,
// and a zero stripe would divide by zero.
Status ReadTestbedConfig(const ConfigParser& config,
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
  // Optional SSD wear model: a P/E-cycle budget turns on WearFraction()
  // (and with it the endurance veto's end-of-life gate).
  bed.ssd.pe_cycle_budget =
      config.DoubleOr("cluster", "ssd_pe_cycles", bed.ssd.pe_cycle_budget);
  bed.ssd.write_amplification = config.DoubleOr(
      "cluster", "ssd_write_amp", bed.ssd.write_amplification);
  return harness::ApplyClusterOverrides(config, bed);
}

// Reads [middleware] and faults.queue_stale_timeout into the cache's config.
core::S4DConfig ReadS4DConfig(const ConfigParser& config,
                              const fault::FaultSchedule& schedule) {
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
      schedule.empty() ? SimTime{0} : FromSeconds(5));
  // kQueue mode: a read held for the down cache tier is promoted to a
  // stale DServer read after this long (0 = queue forever).
  cfg.queue_stale_timeout =
      config.DurationOr("faults", "queue_stale_timeout", 0);
  cfg.cache_unhealthy_degrade = config.DoubleOr(
      "middleware", "cache_unhealthy_degrade", cfg.cache_unhealthy_degrade);
  return cfg;
}

// The simulated world one config describes. Members are built, and
// destroyed in reverse, in this order.
struct Stack {
  std::unique_ptr<harness::Testbed> bed;
  std::unique_ptr<core::S4DCache> s4d;  // null for middleware.type = stock
  mpiio::IoDispatch* dispatch = nullptr;
  std::unique_ptr<policy::PolicyEngine> policy;
  std::unique_ptr<tenant::TenantManager> tenants;
  std::unique_ptr<calib::CalibrationEngine> calibration;
  std::unique_ptr<fault::FaultInjector> injector;
};

// Builds the stack for `config` and arms its fault injector: testbed,
// cache, policy, tenants, calibration, then the injector. The order fixes
// the trace-lane numbering of an observed run. `obs` is null when the run
// is not observed; `track_content` keeps the content images a verified run
// checks. Exits on configuration errors.
Stack BuildStack(const ConfigParser& config,
                 const fault::FaultSchedule& schedule,
                 obs::Observability* obs, bool track_content) {
  harness::TestbedConfig bed_cfg;
  if (const Status status = ReadTestbedConfig(config, bed_cfg); !status.ok()) {
    std::fprintf(stderr, "config error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  bed_cfg.track_content = track_content;
  bed_cfg.obs = obs;
  Stack stack;
  stack.bed = std::make_unique<harness::Testbed>(bed_cfg);
  harness::Testbed& bed = *stack.bed;
  stack.dispatch = &bed.stock();
  if (config.StringOr("middleware", "type", "s4d") == "s4d") {
    stack.s4d = bed.MakeS4D(ReadS4DConfig(config, schedule));
    stack.dispatch = stack.s4d.get();
  }
  stack.policy = MakePolicyEngine(config, stack.s4d.get(), obs);
  stack.tenants =
      MakeTenantManager(config, bed.engine(), stack.s4d.get(), obs);
  stack.calibration = MakeCalibration(config, bed, stack.s4d.get(), obs);
  stack.injector = std::make_unique<fault::FaultInjector>(
      bed.engine(), bed.dservers(), bed.cservers(), stack.s4d.get());
  if (obs != nullptr) stack.injector->SetObservability(obs);
  if (!schedule.empty()) stack.injector->Arm(schedule);
  return stack;
}

// Lets the Rebuilder finish its flush and fetch work.
void Settle(Stack& stack) {
  if (!stack.s4d) return;
  core::S4DCache& s4d = *stack.s4d;
  harness::DrainUntil(stack.bed->engine(),
                      [&s4d] { return s4d.BackgroundQuiescent(); },
                      FromSeconds(3600));
}

std::unique_ptr<workloads::Workload> MakeWorkload(const ConfigParser& config) {
  const std::string type = config.StringOr("workload", "type", "ior");
  if (type == "hpio") {
    return std::make_unique<workloads::HpioWorkload>(ReadHpioConfig(config));
  }
  if (type == "tile") {
    return std::make_unique<workloads::TileIoWorkload>(ReadTileConfig(config));
  }
  return std::make_unique<workloads::IorWorkload>(ReadIorConfig(config));
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

  spec.mode = config.StringOr("trace", "mode", "open") == "closed"
                  ? tracein::ReplayMode::kClosedLoop
                  : tracein::ReplayMode::kOpenLoop;
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

// What driving the workload measured: the last pass, and the span of the
// measured passes (after any warm-up).
struct Drive {
  harness::RunResult last{};
  SimTime begin = 0;
  SimTime end = 0;
};

// Drives the configured workload through `stack`: the trace replay, or the
// kind = read warm-up (the paper's "second run" methodology: write pass,
// settle, cold read pass that identifies and fetches critical data, settle)
// followed by the `repeat` measured passes. A single run passes its
// options (checker, capture hook) and its obs bundle, and gets the
// per-pass report printed; a sweep run passes neither and prints nothing.
Drive DriveWorkload(const ConfigParser& config, Stack& stack,
                    const harness::DriverOptions* run,
                    obs::Observability* obs) {
  const harness::DriverOptions none;
  const harness::DriverOptions& options = run != nullptr ? *run : none;
  sim::Engine& engine = stack.bed->engine();
  mpiio::MpiIoLayer layer(engine, *stack.dispatch);
  const int repeat = static_cast<int>(config.IntOr("workload", "repeat", 1));
  Drive drive;

  if (config.StringOr("workload", "type", "ior") == "trace") {
    // Timed trace replay: the trace's own arrival schedule drives the run,
    // so the closed-loop driver (and its read-warm machinery) is bypassed.
    // It is seed-independent: every sweep row is identical.
    TraceSpec spec = LoadTraceSpec(config);
    tracein::TraceReplayWorkload wl(std::move(spec.trace), spec.file);
    if (run != nullptr) {
      std::printf("trace: %zu requests over %d ranks (%s from %s), %s-loop "
                  "replay, time scale %g\n",
                  wl.trace().records.size(), wl.trace().ranks,
                  FormatBytes(wl.trace().total_bytes).c_str(),
                  wl.trace().source.c_str(),
                  tracein::ReplayModeName(spec.mode), spec.time_scale);
    }
    tracein::ReplayOptions replay_opts;
    replay_opts.mode = spec.mode;
    replay_opts.time_scale = spec.time_scale;
    replay_opts.window = spec.window;
    replay_opts.checker = options.checker;
    replay_opts.obs = obs;
    replay_opts.on_issue = options.on_issue;
    drive.begin = engine.now();
    tracein::ReplayResult replay{};
    for (int pass = 0; pass < repeat; ++pass) {
      replay = wl.Replay(layer, replay_opts);
      drive.last = replay.run;
      if (run == nullptr) continue;
      std::printf(
          "pass %d: %.1f MB/s (%lld requests, %s, mean latency %.0f us, "
          "peak in flight %lld)\n",
          pass + 1, drive.last.throughput_mbps,
          static_cast<long long>(drive.last.requests),
          FormatBytes(drive.last.bytes).c_str(), drive.last.mean_latency_us,
          static_cast<long long>(replay.peak_in_flight));
    }
    drive.end = engine.now();
    if (run != nullptr && !replay.windows.empty()) {
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
    return drive;
  }

  auto workload = MakeWorkload(config);
  if (config.StringOr("workload", "kind", "write") == "read") {
    if (run != nullptr) {
      std::printf("warming: write pass + settle + cold read pass + settle\n");
    }
    ConfigParser write_config = config;
    write_config.Set("workload", "kind", "write");
    auto writer = MakeWorkload(write_config);
    harness::RunClosedLoop(layer, *writer, options);
    Settle(stack);
    auto cold_reader = MakeWorkload(config);
    harness::RunClosedLoop(layer, *cold_reader, options);
    Settle(stack);
  }
  drive.begin = engine.now();
  for (int pass = 0; pass < repeat; ++pass) {
    workload->Reset();
    drive.last = harness::RunClosedLoop(layer, *workload, options);
    if (run == nullptr) continue;
    std::printf(
        "pass %d: %.1f MB/s (%lld requests, %s, mean latency %.0f us)\n",
        pass + 1, drive.last.throughput_mbps,
        static_cast<long long>(drive.last.requests),
        FormatBytes(drive.last.bytes).c_str(), drive.last.mean_latency_us);
  }
  drive.end = engine.now();
  return drive;
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

  Stack stack =
      BuildStack(config, *schedule, observed ? &obs : nullptr, verify);
  harness::Testbed& bed = *stack.bed;
  core::S4DCache* s4d = stack.s4d.get();
  const auto& calibration = stack.calibration;

  trace::TraceCollector collector;
  collector.Attach(bed.dservers(), "DServers");
  collector.Attach(bed.cservers(), "CServers");

  if (calibration) {
    std::printf("calibration: min_samples %lld%s\n",
                static_cast<long long>(calibration->config().min_samples),
                calibration->config().saturation_depth > 0.0
                    ? ", saturation probe armed"
                    : "");
  }
  if (!schedule->empty()) {
    std::printf("faults: %zu scheduled\n", schedule->size());
  }

  harness::ContentChecker checker;
  harness::DriverOptions run_options;
  if (verify) {
    run_options.checker = &checker;
    if (s4d != nullptr) {
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

  // Periodic time series (written into the metrics dump). Probes are
  // read-only: outstanding sub-requests, registry gauges sampled under
  // their own names, and the dirty-age summary.
  obs::TimeSeriesSampler sampler(bed.engine(), sample_interval);
  if (observed && sample_interval > 0) {
    auto sample_gauge = [&sampler, &obs](const std::string& name) {
      const auto it = obs.metrics.gauges().find(name);
      S4D_CHECK(it != obs.metrics.gauges().end()) << "no gauge " << name;
      const obs::Gauge* gauge = &it->second;
      sampler.AddProbe(name, [gauge] { return gauge->value(); });
    };
    sampler.AddProbe("opfs.outstanding_subs", [&bed] {
      return static_cast<double>(bed.dservers().outstanding_subs());
    });
    sampler.AddProbe("cpfs.outstanding_subs", [&bed] {
      return static_cast<double>(bed.cservers().outstanding_subs());
    });
    if (s4d != nullptr) {
      core::S4DCache* cache = s4d;
      for (const char* name : {"s4d.dirty_bytes", "s4d.cache_used_bytes",
                               "s4d.read_hit_ratio",
                               "s4d.cache_tier_slowdown"}) {
        sample_gauge(name);
      }
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
      sample_gauge("calib.cserver_mean_depth");
      sample_gauge("calib.samples");
    }
    if (s4d != nullptr && !trace_out.empty()) {
      // Per-tick dirty-age instant: richer than the two scalar series above
      // (extent count + oldest/mean/p50) at the same cadence.
      core::S4DCache* cache = s4d;
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

  const Drive drive =
      DriveWorkload(config, stack, &run_options, observed ? &obs : nullptr);

  std::printf("\n-- routing --\n");
  const auto dist = collector.RequestDistribution(drive.begin, drive.end);
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

  if (s4d != nullptr) {
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
    if (stack.policy) {
      const auto& as = stack.policy->admission().stats();
      std::printf(
          "policy: %s, %lld admits, %lld threshold rejects, %lld pressure "
          "vetoes\n",
          policy::PolicyModeName(stack.policy->config().mode),
          static_cast<long long>(as.admits),
          static_cast<long long>(as.threshold_rejects),
          static_cast<long long>(as.pressure_vetoes));
    }
    if (stack.tenants) stack.tenants->PrintReport();
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
    Settle(stack);
    const auto& is = stack.injector->stats();
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
    if (s4d != nullptr) {
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
    checker.CheckAll(*stack.dispatch);
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
  Stack stack = BuildStack(config, *schedule, nullptr, false);
  const Drive drive = DriveWorkload(config, stack, nullptr, nullptr);
  return {seed, drive.last, stack.bed->engine().now(),
          stack.bed->engine().events_fired()};
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
      if (!harness::ParsePositiveFlag("--sweep-seeds", *v, sweep_seeds)) {
        return 1;
      }
    } else if (auto v = flag_value("--jobs=")) {
      if (!harness::ParsePositiveFlag("--jobs", *v, jobs)) return 1;
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
    // A relative trace path resolves against the config file's directory,
    // so a config can name a trace bundled next to it (examples/traces/)
    // no matter where s4dsim is invoked from.
    const std::string path = config_path;
    const std::size_t slash = path.find_last_of('/');
    const std::string trace = config.StringOr("trace", "path", "");
    if (slash != std::string::npos && !trace.empty() && trace.front() != '/') {
      config.Set("trace", "path", path.substr(0, slash + 1) + trace);
    }
  } else {
    (void)config.Parse(kDefaultConfig);
    std::printf("(no config given; using built-in defaults — "
                "see --print-default-config)\n\n");
  }
  // CLI flags override the config file.
  for (const Override& o : overrides) config.Set(o.section, o.key, o.value);
  if (const Status valid = ValidateConfig(config); !valid.ok()) {
    std::fprintf(stderr, "config error: %s\n", valid.ToString().c_str());
    return 1;
  }
  if (sweep_seeds > 0) return RunSweep(config, sweep_seeds, jobs);
  return Run(config);
}
