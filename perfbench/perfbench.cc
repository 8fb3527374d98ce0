// Reproduction benchmark: host time per layer on three IOR/HPIO workloads.
//
//   s4d_perfbench --workload ior16k-mix|ior4m-seq|hpio-stages --seed N
//                 --seconds T --trace 0|1 [--scale full|tiny]
//
// One repetition ("rep") builds a stock testbed and an S4D testbed from
// scratch and runs the workload's phases on each, serially. The command
// repeats reps until T seconds of host time have passed. Layers are timed
// from outside, around calls into their public entry points, and only with
// --trace 1, where traced reps alternate with untraced ones; with --trace 0
// the wrappers only forward. Every rep must report the same simulated
// results, and one more rep with content tracking checks that reads return
// what was written.
//
// The last line of stdout is one JSON object; perfbench/run.py turns it into
// the benchmark's result. See README.md for why each workload was chosen.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "calib/calibration.h"
#include "common/config_parser.h"
#include "common/units.h"
#include "core/s4d_cache.h"
#include "harness/content_checker.h"
#include "harness/driver.h"
#include "harness/testbed.h"
#include "mpiio/mpi_io.h"
#include "policy/policy_engine.h"
#include "tenant/manager.h"
#include "tenant/registry.h"
#include "workloads/hpio.h"
#include "workloads/ior.h"

namespace s4d::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRanks = 32;
constexpr int kIorInstances = 10;  // the paper's IOR mix (Fig. 6)
constexpr SimTime kDrainDeadline = FromSeconds(3600);
constexpr SimTime kDrainChunk = FromSeconds(10);
// The probe's fastest time on the host the baseline in README.md comes from
// (a 4-vCPU Xeon VM at 2.0 GHz, gcc 12, Release). End-to-end host times are
// reported in seconds of that host; see HostScale().
constexpr double kReferenceProbeSeconds = 5.5e-3;
#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Host time spent in one layer, and how often it was entered.
struct LayerTime {
  std::int64_t calls = 0;
  std::int64_t ns = 0;

  double seconds() const { return static_cast<double>(ns) / 1e9; }
  double ns_per_call() const {
    return calls > 0 ? static_cast<double>(ns) / static_cast<double>(calls)
                     : 0.0;
  }
};

// Adds the host time of its scope to `into`; does nothing when untraced.
class ScopedTimer {
 public:
  ScopedTimer(LayerTime& into, bool trace) : into_(trace ? &into : nullptr) {
    if (into_ != nullptr) start_ = Clock::now();
  }
  ~ScopedTimer() {
    if (into_ != nullptr) {
      into_->ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - start_)
                       .count();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LayerTime* into_;
  Clock::time_point start_;
};

// Forwards every call to `inner`, timing Read and Write. The completion
// callbacks pass through untouched, so the simulation cannot tell the
// wrapper is there.
class TimedDispatch final : public mpiio::IoDispatch {
 public:
  TimedDispatch(mpiio::IoDispatch& inner, bool trace, LayerTime& reads,
                LayerTime& writes)
      : inner_(inner), trace_(trace), reads_(reads), writes_(writes) {}

  void Open(const std::string& file) override { inner_.Open(file); }
  void Close(const std::string& file) override { inner_.Close(file); }
  void Read(const mpiio::FileRequest& request,
            mpiio::IoCompletion done) override {
    ++reads_.calls;
    ScopedTimer timer(reads_, trace_);
    inner_.Read(request, std::move(done));
  }
  void Write(const mpiio::FileRequest& request,
             mpiio::IoCompletion done) override {
    ++writes_.calls;
    ScopedTimer timer(writes_, trace_);
    inner_.Write(request, std::move(done));
  }
  std::vector<mpiio::ContentEntry> ReadContent(const std::string& file,
                                               byte_count offset,
                                               byte_count size) override {
    return inner_.ReadContent(file, offset, size);
  }
  void StampContent(const std::string& file, byte_count offset,
                    byte_count size, std::uint64_t token) override {
    inner_.StampContent(file, offset, size, token);
  }
  std::string Name() const override { return inner_.Name(); }

 private:
  mpiio::IoDispatch& inner_;
  bool trace_;
  LayerTime& reads_;
  LayerTime& writes_;
};

// Calls Rebuilder::Tick from a periodic event of its own, in place of
// Rebuilder::Start (the cache is built with enable_rebuilder = false), so
// each tick can be timed. Started right after the cache is constructed, it
// schedules its events at the instants and in the order Start() would.
class TickDriver {
 public:
  TickDriver(sim::Engine& engine, core::Rebuilder& rebuilder,
             SimTime interval, bool trace, LayerTime& time)
      : engine_(engine),
        rebuilder_(rebuilder),
        interval_(interval),
        trace_(trace),
        time_(time) {
    Schedule();
  }
  ~TickDriver() { engine_.Cancel(pending_); }
  TickDriver(const TickDriver&) = delete;
  TickDriver& operator=(const TickDriver&) = delete;

 private:
  void Schedule() {
    pending_ = engine_.ScheduleAfter(interval_, [this] {
      pending_ = sim::kInvalidEvent;
      ++time_.calls;
      {
        ScopedTimer timer(time_, trace_);
        rebuilder_.Tick();
      }
      Schedule();
    });
  }

  sim::Engine& engine_;
  core::Rebuilder& rebuilder_;
  SimTime interval_;
  bool trace_;
  LayerTime& time_;
  sim::EventId pending_ = sim::kInvalidEvent;
};

// A fixed piece of work that shares no code with the simulator and
// allocates nothing while timed: an open-addressing hash table, a binary
// heap and binary searches over a sorted array, the kinds of operation the
// simulator's hot loops are made of. How long it takes says how fast the
// host is running at the moment.
double ProbeSeconds() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 15);
  static std::vector<std::uint64_t> heap;
  static std::vector<std::uint64_t> sorted;
  if (sorted.empty()) {
    heap.reserve(2048);
    for (std::uint64_t i = 0; i < 4096; ++i) sorted.push_back(i * 2654435761u);
  }
  const Clock::time_point start = Clock::now();
  std::fill(table.begin(), table.end(), 0);
  heap.clear();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t sum = 0;
  for (int i = 0; i < 40000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::size_t slot = (x >> 20) & (table.size() - 1);
    while (table[slot] != 0 && table[slot] != (x & 0xFFFFF)) {
      slot = (slot + 1) & (table.size() - 1);
    }
    if (i % 2 == 0) table[slot] = x & 0xFFFFF;
    heap.push_back(x);
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() > 1024) {
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
    sum += table[slot] + heap.front() +
           static_cast<std::uint64_t>(
               std::lower_bound(sorted.begin(), sorted.end(),
                                x % (4096ull * 2654435761u)) -
               sorted.begin());
  }
  static volatile std::uint64_t sink = 0;
  sink = sink + sum;
  return SecondsSince(start);
}

// ---------------------------------------------------------------------------
// Workloads

enum class Shape { kIorMix, kHpio };

struct Spec {
  std::string name;
  Shape shape = Shape::kIorMix;
  byte_count request = 0;          // IOR request size / HPIO region size
  byte_count ior_file = 0;         // IOR: shared-file size per instance
  int ior_random = 4;              // IOR: random instances among them
  std::int64_t hpio_regions = 0;   // HPIO: regions per rank
  byte_count hpio_spacing = 0;     // HPIO: gap between a rank's regions
  int cache_percent = 20;          // cache capacity, % of the data size
  bool drains = false;             // settle the Rebuilder between phases
  bool extensions = false;         // policy + tenants + calibration
  std::string reference;           // paper figure to compare, or empty

  byte_count data_bytes() const {
    return shape == Shape::kIorMix
               ? ior_file * kIorInstances
               : hpio_regions * kRanks * request;
  }
};

// `tiny` keeps every phase and seam but shrinks the data so the self-test
// finishes in seconds.
bool MakeSpec(const std::string& name, bool tiny, Spec& spec) {
  spec.name = name;
  if (name == "ior16k-mix") {
    spec.request = 16 * KiB;
    spec.ior_file = tiny ? 2 * MiB : 16 * MiB;
    spec.drains = true;
    spec.reference =
        "paper Fig. 6: +49.1% writes at 16 KiB (sim_write_gain_pct)";
    return true;
  }
  if (name == "ior4m-seq") {
    spec.request = 4 * MiB;
    spec.ior_file = tiny ? 256 * MiB : 16 * GiB;
    spec.ior_random = 0;
    spec.drains = true;
    return true;
  }
  if (name == "hpio-stages") {
    spec.shape = Shape::kHpio;
    spec.request = 16 * KiB;
    spec.hpio_spacing = 16 * KiB;
    spec.hpio_regions = tiny ? 32 : 512;
    spec.cache_percent = 50;
    spec.extensions = true;
    return true;
  }
  return false;
}

enum Phase { kWrite = 0, kReadCold = 1, kReadWarm = 2, kPhases = 3 };
const char* const kPhaseNames[kPhases] = {"write", "read_cold", "read_warm"};

struct Rep {
  // Host time. `segments` holds every timed piece of the rep in a fixed
  // order: the two setups, each closed-loop run and each drain chunk.
  double wall_s = 0.0;
  double setup_s = 0.0;
  double phase_s[kPhases] = {};
  double drain_s = 0.0;
  std::vector<double> segments;
  LayerTime s4d_read, s4d_write, stock_read, stock_write, ticks;
  // Simulated results: a pure function of workload and seed.
  std::map<std::string, double> sim;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_failure;
};

struct PhaseResult {
  std::int64_t requests = 0;
  double mbps = 0.0;
};

// Runs one phase: one closed-loop run per IOR instance, or one HPIO run.
// Each run is timed as its own segment.
PhaseResult RunPhase(mpiio::MpiIoLayer& layer, const Spec& spec, Phase phase,
                     std::uint64_t seed, const harness::DriverOptions& options,
                     Rep& rep) {
  const device::IoKind kind =
      phase == kWrite ? device::IoKind::kWrite : device::IoKind::kRead;
  PhaseResult out;
  byte_count bytes = 0;
  const SimTime start = layer.engine().now();
  auto run = [&](workloads::Workload& wl) {
    const Clock::time_point t = Clock::now();
    const harness::RunResult r = harness::RunClosedLoop(layer, wl, options);
    const double host = SecondsSince(t);
    rep.segments.push_back(host);
    rep.phase_s[phase] += host;
    out.requests += r.requests;
    bytes += r.bytes;
  };
  if (spec.shape == Shape::kIorMix) {
    for (int i = 0; i < kIorInstances; ++i) {
      workloads::IorConfig cfg;
      cfg.file = "ior." + std::to_string(i);
      cfg.ranks = kRanks;
      cfg.file_size = spec.ior_file;
      cfg.request_size = spec.request;
      // Interleaved as in the Fig. 6 bench: odd instances below
      // 2 * random are random.
      cfg.random = i % 2 == 1 && i < 2 * spec.ior_random;
      cfg.kind = kind;
      cfg.seed = seed + static_cast<std::uint64_t>(i);
      workloads::IorWorkload wl(cfg);
      run(wl);
    }
  } else {
    workloads::HpioConfig cfg;
    cfg.ranks = kRanks;
    cfg.region_count = spec.hpio_regions;
    cfg.region_size = spec.request;
    cfg.region_spacing = spec.hpio_spacing;
    cfg.kind = kind;
    workloads::HpioWorkload wl(cfg);
    run(wl);
  }
  out.mbps = ThroughputMBps(bytes, layer.engine().now() - start);
  return out;
}

// The policy, tenant and calibration subsystems, attached in s4dsim's order.
struct Extensions {
  std::unique_ptr<policy::PolicyEngine> policy;
  std::unique_ptr<tenant::TenantManager> tenants;
  std::unique_ptr<calib::CalibrationEngine> calib;
};

Extensions AttachExtensions(harness::Testbed& bed, core::S4DCache& s4d) {
  Extensions ext;
  policy::PolicyConfig pc;
  pc.mode = policy::PolicyMode::kAdaptive;
  pc.admission.feedback = true;
  pc.admission.low_gain = 0.0;
  pc.admission.high_gain = 0.5;
  pc.admission.pressure_max_queue = 256.0;
  ext.policy = std::make_unique<policy::PolicyEngine>(pc);
  ext.policy->Attach(s4d);

  ConfigParser config;
  S4D_CHECK(config
                .Parse("[tenants]\n"
                       "mode = enforce\n"
                       "tenant1 = left ranks 0-15 quota 50% floor 25%\n"
                       "tenant2 = right ranks 16-31 floor 25% "
                       "write_budget 64m\n"
                       "sizer_interval = 100ms\n"
                       "endurance = on\n"
                       "write_cost_ns_per_byte = 2\n")
                .ok());
  auto tenants =
      tenant::ParseTenantsConfig(config, s4d.cache_space().capacity());
  S4D_CHECK(tenants.ok()) << tenants.status().ToString();
  ext.tenants = std::make_unique<tenant::TenantManager>(
      bed.engine(), tenant::TenantRegistry(std::move(*tenants), kRanks));
  ext.tenants->Attach(s4d);

  calib::CalibConfig cc;
  cc.saturation_depth = kRanks / 2.0;
  ext.calib = std::make_unique<calib::CalibrationEngine>(
      cc, bed.MakeCostModel().params());
  ext.calib->Attach(s4d, bed.dservers(), bed.cservers(), nullptr);
  return ext;
}

// ---------------------------------------------------------------------------
// One rep

// The device models keep the testbed's default seed: --seed varies the
// workload's requests, not the hardware. (With the feedback subsystems
// attached, a different rotational-position stream alone can tip
// hpio-stages between admitting almost everything and almost nothing.)
harness::TestbedConfig BedConfig(const Spec& spec, bool verify) {
  harness::TestbedConfig bed;
  bed.track_content = verify;
  if (spec.extensions) {
    // A P/E budget turns on the SSD wear model the endurance stage reads.
    bed.ssd.pe_cycle_budget = 3000;
    bed.ssd.write_amplification = 1.3;
  }
  return bed;
}

void CountFailures(Rep& rep, const harness::ContentChecker& checker,
                   std::int64_t failed_requests, const char* system) {
  rep.attempted += checker.checks();
  rep.failed += checker.failures() + failed_requests;
  if (rep.first_failure.empty() && checker.failures() > 0) {
    rep.first_failure = std::string(system) + ": " + checker.first_failure();
  }
  if (rep.first_failure.empty() && failed_requests > 0) {
    rep.first_failure = std::string(system) + ": " +
                        std::to_string(failed_requests) + " failed requests";
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void RecordCacheCounters(harness::Testbed& bed, core::S4DCache& s4d,
                         const Extensions& ext,
                         std::map<std::string, double>& sim) {
  const core::RedirectorStats& rs = s4d.redirector_stats();
  const core::IdentifierStats& is = s4d.identifier_stats();
  const core::RebuilderStats& bs = s4d.rebuilder_stats();
  auto d = [](std::int64_t v) { return static_cast<double>(v); };

  sim["core.rebuilder.ticks"] = d(bs.ticks);
  sim["core.rebuilder.flush_runs"] = d(bs.flush_runs_started);
  sim["core.rebuilder.flushed_mb"] = d(bs.flushed_bytes) / 1e6;
  sim["core.rebuilder.fetches_completed"] = d(bs.fetches_completed);
  sim["core.rebuilder.fetch_space_failures"] = d(bs.fetch_space_failures);
  sim["core.rebuilder.fetch_useful_ratio"] =
      Ratio(d(bs.fetches_completed),
            d(bs.fetches_started + bs.fetch_space_failures));
  sim["core.redirector.read_hit_ratio"] =
      Ratio(d(rs.read_cache_hits + rs.read_partial_hits), d(rs.read_requests));
  sim["core.redirector.write_admissions"] = d(rs.write_admissions);
  sim["core.redirector.evictions"] = d(rs.evictions);
  sim["core.redirector.lazy_fetch_marks"] = d(rs.lazy_fetch_marks);
  sim["core.identifier.critical_ratio"] =
      Ratio(d(is.critical), d(is.requests));
  sim["core.cdt.entries"] = d(static_cast<std::int64_t>(s4d.cdt().size()));
  sim["core.dmt.mapped_mb"] = d(s4d.dmt().mapped_bytes()) / 1e6;
  sim["pfs.dservers.requests"] = d(bed.dservers().stats().requests);
  sim["pfs.cservers.requests"] = d(bed.cservers().stats().requests);

  SimTime hdd_busy = 0, ssd_busy = 0;
  byte_count link_bytes = 0;
  for (int i = 0; i < bed.dservers().server_count(); ++i) {
    hdd_busy += bed.dservers().server(i).device().stats().busy;
    link_bytes += bed.dservers().server(i).link().stats().bytes;
  }
  for (int i = 0; i < bed.cservers().server_count(); ++i) {
    ssd_busy += bed.cservers().server(i).device().stats().busy;
    link_bytes += bed.cservers().server(i).link().stats().bytes;
  }
  sim["device.hdd.busy_s"] = ToSeconds(hdd_busy);
  sim["device.ssd.busy_s"] = ToSeconds(ssd_busy);
  sim["net.link.mb"] = d(link_bytes) / 1e6;

  policy::AdmissionControllerStats as;
  std::int64_t switches = 0;
  if (ext.policy) {
    as = ext.policy->admission().stats();
    switches = ext.policy->stats().policy_switches;
  }
  sim["policy.admits"] = d(as.admits);
  sim["policy.threshold_rejects"] = d(as.threshold_rejects);
  sim["policy.pressure_vetoes"] = d(as.pressure_vetoes);
  sim["policy.switches"] = d(switches);

  std::int64_t vetoes = 0;
  if (ext.tenants) {
    for (int t = 0; t < ext.tenants->count(); ++t) {
      const tenant::TenantStats& ts = ext.tenants->stats(t);
      vetoes += ts.endurance_vetoes + ts.pressure_vetoes + ts.wear_vetoes;
    }
  }
  sim["tenant.vetoes"] = d(vetoes);

  calib::CalibStats cs;
  if (ext.calib) cs = ext.calib->stats();
  sim["calib.samples"] = d(cs.samples);
  sim["calib.declines"] = d(cs.declines);
  sim["calib.saturated_polls"] = d(cs.saturated_polls);
}

// The stock system: every request goes to the HDD-backed DServers.
struct StockStack {
  StockStack(const Spec& spec, bool verify, bool trace, Rep& rep)
      : bed(BedConfig(spec, verify)),
        dispatch(bed.stock(), trace, rep.stock_read, rep.stock_write) {}

  harness::Testbed bed;
  TimedDispatch dispatch;
};

// S4D-Cache over its own testbed, built in s4dsim's order: cache, then the
// Rebuilder's ticks, then the policy, tenant and calibration subsystems.
struct CacheStack {
  CacheStack(const Spec& spec, bool verify, bool trace, Rep& rep)
      : bed(BedConfig(spec, verify)),
        s4d(bed.MakeS4D(CacheConfig(spec))),
        ticker(bed.engine(), s4d->rebuilder(), s4d->config().rebuilder.interval,
               trace, rep.ticks),
        ext(spec.extensions ? AttachExtensions(bed, *s4d) : Extensions{}),
        dispatch(*s4d, trace, rep.s4d_read, rep.s4d_write) {}

  static core::S4DConfig CacheConfig(const Spec& spec) {
    core::S4DConfig cfg;
    cfg.cache_capacity = spec.data_bytes() * spec.cache_percent / 100;
    cfg.enable_rebuilder = false;  // the TickDriver calls Tick() instead
    return cfg;
  }

  harness::Testbed bed;
  std::unique_ptr<core::S4DCache> s4d;
  TickDriver ticker;
  Extensions ext;
  TimedDispatch dispatch;
};

// Host time to build both stacks once, as a rep does before it runs.
double SetupSeconds(const Spec& spec) {
  Rep scratch;
  const Clock::time_point start = Clock::now();
  auto stock = std::make_unique<StockStack>(spec, false, false, scratch);
  auto cache = std::make_unique<CacheStack>(spec, false, false, scratch);
  return SecondsSince(start);
}

// harness::DrainUntil up to kDrainDeadline, called in kDrainChunk pieces so
// each piece is a segment of its own. The chunk is a whole number of
// DrainUntil's 50 ms slices, so the engine is stepped exactly as by one call
// with the full deadline. Returns whether the Rebuilder went quiescent.
bool Drain(sim::Engine& engine, const core::S4DCache& s4d, Rep& rep) {
  const SimTime deadline = engine.now() + kDrainDeadline;
  for (;;) {
    const Clock::time_point t = Clock::now();
    const bool quiescent = harness::DrainUntil(
        engine, [&] { return s4d.BackgroundQuiescent(); },
        std::min(kDrainChunk, deadline - engine.now()));
    rep.segments.push_back(SecondsSince(t));
    rep.drain_s += rep.segments.back();
    if (quiescent) return true;
    if (engine.now() >= deadline) return false;
  }
}

Rep RunRep(const Spec& spec, std::uint64_t seed, bool trace, bool verify) {
  Rep rep;
  const Clock::time_point rep_start = Clock::now();
  double stock_mbps[kPhases] = {};
  double s4d_mbps[kPhases] = {};
  std::int64_t events = 0;

  {
    const Clock::time_point setup = Clock::now();
    StockStack stack(spec, verify, trace, rep);
    rep.segments.push_back(SecondsSince(setup));
    rep.setup_s += rep.segments.back();

    mpiio::MpiIoLayer layer(stack.bed.engine(), stack.dispatch);
    harness::ContentChecker checker;
    harness::DriverOptions options;
    if (verify) options.checker = &checker;
    for (int p = 0; p < kPhases; ++p) {
      const PhaseResult r =
          RunPhase(layer, spec, static_cast<Phase>(p), seed, options, rep);
      stock_mbps[p] = r.mbps;
      rep.attempted += r.requests;
    }
    events += static_cast<std::int64_t>(stack.bed.engine().events_fired());
    CountFailures(rep, checker, stack.bed.dservers().stats().failed_requests,
                  "stock");
  }

  {
    const Clock::time_point setup = Clock::now();
    CacheStack stack(spec, verify, trace, rep);
    rep.segments.push_back(SecondsSince(setup));
    rep.setup_s += rep.segments.back();

    harness::Testbed& bed = stack.bed;
    core::S4DCache& s4d = *stack.s4d;
    mpiio::MpiIoLayer layer(bed.engine(), stack.dispatch);
    harness::ContentChecker checker;
    harness::DriverOptions options;
    if (verify) options.checker = &checker;
    SimTime drain_sim = 0;
    std::int64_t deadline_hits = 0;
    for (int p = 0; p < kPhases; ++p) {
      const PhaseResult r =
          RunPhase(layer, spec, static_cast<Phase>(p), seed, options, rep);
      s4d_mbps[p] = r.mbps;
      rep.attempted += r.requests;
      if (spec.drains && p != kReadWarm) {
        const SimTime before = bed.engine().now();
        if (!Drain(bed.engine(), s4d, rep)) ++deadline_hits;
        drain_sim += bed.engine().now() - before;
      }
    }
    // Structural audits abort the run on any inconsistency.
    s4d.AuditInvariants();
    if (s4d.BackgroundQuiescent()) s4d.AuditInvariants(true);
    if (stack.ext.policy) stack.ext.policy->AuditInvariants();
    if (stack.ext.tenants) stack.ext.tenants->AuditInvariants();

    events += static_cast<std::int64_t>(bed.engine().events_fired());
    RecordCacheCounters(bed, s4d, stack.ext, rep.sim);
    rep.sim["harness.drain.sim_s"] = ToSeconds(drain_sim);
    rep.sim["harness.drain.deadline_hits"] = static_cast<double>(deadline_hits);
    CountFailures(rep, checker,
                  bed.dservers().stats().failed_requests +
                      bed.cservers().stats().failed_requests +
                      s4d.counters().failed_requests,
                  "s4d");
  }
  rep.wall_s = SecondsSince(rep_start);

  rep.sim["sim.engine.events"] = static_cast<double>(events);
  rep.sim["core.dispatch.read.calls"] = static_cast<double>(rep.s4d_read.calls);
  rep.sim["core.dispatch.write.calls"] =
      static_cast<double>(rep.s4d_write.calls);
  rep.sim["pfs.submit.calls"] =
      static_cast<double>(rep.stock_read.calls + rep.stock_write.calls);
  for (int p = 0; p < kPhases; ++p) {
    rep.sim[std::string("stock.") + kPhaseNames[p] + ".mbps"] = stock_mbps[p];
    rep.sim[std::string("s4d.") + kPhaseNames[p] + ".mbps"] = s4d_mbps[p];
  }
  rep.sim["sim_write_mbps"] = s4d_mbps[kWrite];
  rep.sim["sim_read_mbps"] = s4d_mbps[kReadWarm];
  rep.sim["sim_write_speedup"] = Ratio(s4d_mbps[kWrite], stock_mbps[kWrite]);
  rep.sim["sim_read_speedup"] =
      Ratio(s4d_mbps[kReadWarm], stock_mbps[kReadWarm]);
  return rep;
}

// ---------------------------------------------------------------------------
// Reporting

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

template <typename F>
double MedianOf(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const Rep& r : reps) v.push_back(f(r));
  return Median(std::move(v));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Host time of the engine and of the models it drives: everything the
// timed layers do not cover.
double EngineSelf(const Rep& r) {
  return r.wall_s - r.setup_s - r.s4d_read.seconds() - r.s4d_write.seconds() -
         r.stock_read.seconds() - r.stock_write.seconds() - r.ticks.seconds();
}

// Host seconds of one rep with each segment at its fastest across `reps`.
// On a shared virtual machine the host's speed changes in sub-second bursts
// as other tenants come and go; the fastest instance of each short segment
// is the one least disturbed. Reps whose segments do not line up (their
// simulation diverged, which is reported as a failure) are skipped.
double FastestRepSeconds(const std::vector<Rep>& reps) {
  std::vector<double> best = reps.front().segments;
  for (const Rep& r : reps) {
    if (r.segments.size() != best.size()) continue;
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], r.segments[i]);
    }
  }
  double total = 0.0;
  for (double b : best) total += b;
  return total;
}

// Converts this run's host seconds into seconds of the reference host. The
// speed of a shared virtual machine also drifts by tens of percent over
// minutes; the probe's fastest time within the run follows that drift, and
// since it shares no code with the simulator, a slower simulator still
// reads slower.
double HostScale(const std::vector<double>& probes) {
  return kReferenceProbeSeconds /
         *std::min_element(probes.begin(), probes.end());
}

std::vector<Metric> EndToEnd(const std::vector<Rep>& reps, double setup_s,
                             double rss_mb, double scale) {
  const std::map<std::string, double>& sim = reps.front().sim;
  const double wall_s = FastestRepSeconds(reps) * scale;
  return {
      {"wall_s", wall_s, "s"},
      {"setup_s", setup_s * scale, "s"},
      {"events_per_s", sim.at("sim.engine.events") / wall_s, "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"sim_write_mbps", sim.at("sim_write_mbps"), "MB/s"},
      {"sim_read_mbps", sim.at("sim_read_mbps"), "MB/s"},
      {"sim_write_speedup", sim.at("sim_write_speedup"), "x"},
      {"sim_read_speedup", sim.at("sim_read_speedup"), "x"},
  };
}

std::vector<Metric> PerLayer(const std::vector<Rep>& traced,
                             const std::vector<Rep>& untraced,
                             const std::vector<double>& probes) {
  const std::map<std::string, double>& sim = traced.front().sim;
  auto med = [&](auto f) { return MedianOf(traced, f); };
  auto share = [&](auto f) {
    return MedianOf(traced, [&](const Rep& r) { return f(r) / r.wall_s; });
  };
  auto tick_s = [](const Rep& r) { return r.ticks.seconds(); };
  auto dispatch_s = [](const Rep& r) {
    return r.s4d_read.seconds() + r.s4d_write.seconds();
  };
  auto submit_ns_per_call = [](const Rep& r) {
    const std::int64_t calls = r.stock_read.calls + r.stock_write.calls;
    return Ratio(static_cast<double>(r.stock_read.ns + r.stock_write.ns),
                 static_cast<double>(calls));
  };

  std::vector<Metric> out = {
      {"core.rebuilder.ticks", sim.at("core.rebuilder.ticks"), "count"},
      {"core.rebuilder.s", med(tick_s), "s"},
      {"core.rebuilder.us_per_tick",
       med([](const Rep& r) { return r.ticks.ns_per_call() / 1e3; }), "us"},
      {"core.rebuilder.share", share(tick_s), "ratio"},
      {"core.rebuilder.flush_runs", sim.at("core.rebuilder.flush_runs"),
       "count"},
      {"core.rebuilder.flushed_mb", sim.at("core.rebuilder.flushed_mb"), "MB"},
      {"core.rebuilder.fetches_completed",
       sim.at("core.rebuilder.fetches_completed"), "count"},
      {"core.rebuilder.fetch_space_failures",
       sim.at("core.rebuilder.fetch_space_failures"), "count"},
      {"core.rebuilder.fetch_useful_ratio",
       sim.at("core.rebuilder.fetch_useful_ratio"), "ratio"},
      {"core.dispatch.read.calls", sim.at("core.dispatch.read.calls"),
       "count"},
      {"core.dispatch.read.ns_per_call",
       med([](const Rep& r) { return r.s4d_read.ns_per_call(); }), "ns"},
      {"core.dispatch.write.calls", sim.at("core.dispatch.write.calls"),
       "count"},
      {"core.dispatch.write.ns_per_call",
       med([](const Rep& r) { return r.s4d_write.ns_per_call(); }), "ns"},
      {"core.dispatch.s", med(dispatch_s), "s"},
      {"core.dispatch.share", share(dispatch_s), "ratio"},
      {"pfs.submit.calls", sim.at("pfs.submit.calls"), "count"},
      {"pfs.submit.ns_per_call", med(submit_ns_per_call), "ns"},
      {"sim.engine.events", sim.at("sim.engine.events"), "count"},
      {"sim.engine.self_s", med(EngineSelf), "s"},
      {"sim.engine.share", share(EngineSelf), "ratio"},
  };
  for (int p = 0; p < kPhases; ++p) {
    out.push_back({std::string("harness.phase.") + kPhaseNames[p] + ".s",
                   med([p](const Rep& r) { return r.phase_s[p]; }), "s"});
  }
  out.push_back(
      {"harness.drain.s", med([](const Rep& r) { return r.drain_s; }), "s"});
  out.push_back({"harness.drain.sim_s", sim.at("harness.drain.sim_s"),
                 "sim_s"});
  out.push_back({"harness.drain.deadline_hits",
                 sim.at("harness.drain.deadline_hits"), "count"});
  // Simulated counters: identical under any change that only speeds up the
  // simulator.
  const std::pair<const char*, const char*> counters[] = {
      {"core.redirector.read_hit_ratio", "ratio"},
      {"core.redirector.write_admissions", "count"},
      {"core.redirector.evictions", "count"},
      {"core.redirector.lazy_fetch_marks", "count"},
      {"core.identifier.critical_ratio", "ratio"},
      {"core.cdt.entries", "count"},
      {"core.dmt.mapped_mb", "MB"},
      {"pfs.dservers.requests", "count"},
      {"pfs.cservers.requests", "count"},
      {"device.hdd.busy_s", "sim_s"},
      {"device.ssd.busy_s", "sim_s"},
      {"net.link.mb", "MB"},
      {"policy.admits", "count"},
      {"policy.threshold_rejects", "count"},
      {"policy.pressure_vetoes", "count"},
      {"policy.switches", "count"},
      {"tenant.vetoes", "count"},
      {"calib.samples", "count"},
      {"calib.declines", "count"},
      {"calib.saturated_polls", "count"},
  };
  for (const auto& [name, unit] : counters) {
    out.push_back({name, sim.at(name), unit});
  }
  const double traced_wall =
      MedianOf(traced, [](const Rep& r) { return r.wall_s; });
  const double untraced_wall =
      MedianOf(untraced, [](const Rep& r) { return r.wall_s; });
  out.push_back(
      {"trace.overhead_pct", (traced_wall / untraced_wall - 1.0) * 100.0, "%"});
  out.push_back({"host.rep_s", traced_wall, "s"});
  out.push_back({"host.probe_us",
                 *std::min_element(probes.begin(), probes.end()) * 1e6,
                 "us"});
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ior16k-mix|ior4m-seq|hpio-stages "
               "--seed N --seconds T --trace 0|1 [--scale full|tiny]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, scale = "full";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace" && (std::strcmp(value, "0") == 0 ||
                                    std::strcmp(value, "1") == 0)) {
      trace = value[0] == '1';
    } else if (key == "--scale") {
      scale = value;
    } else {
      return Usage(argv[0]);
    }
  }
  Spec spec;
  if (argc % 2 != 1 || (scale != "full" && scale != "tiny") ||
      !MakeSpec(workload, scale == "tiny", spec) || seconds <= 0.0) {
    return Usage(argv[0]);
  }

  std::printf("workload %s (%s scale), seed %llu, %s, %d ranks, data %s, "
              "cache %d%%\n",
              spec.name.c_str(), scale.c_str(),
              static_cast<unsigned long long>(seed),
              trace ? "traced" : "untraced", kRanks,
              FormatBytes(spec.data_bytes()).c_str(), spec.cache_percent);

  // Timed reps. Traced reps alternate with untraced ones, so the tracing
  // overhead is measured under the same host conditions and every traced
  // rep is checked against an untraced one. After each rep the stacks are
  // built five more times; the fastest of the five is one set-up sample,
  // filtered like the rep's segments, and the median of the samples spans
  // the whole run.
  std::vector<double> setups, probes;
  for (int i = 0; i < 10; ++i) probes.push_back(ProbeSeconds());
  std::vector<Rep> measured, untraced;
  const int min_reps = 3;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(measured.size()) < min_reps ||
         SecondsSince(start) < seconds) {
    measured.push_back(RunRep(spec, seed, trace, false));
    double setup = SetupSeconds(spec);
    for (int i = 0; i < 4; ++i) setup = std::min(setup, SetupSeconds(spec));
    setups.push_back(setup);
    for (int i = 0; i < 5; ++i) probes.push_back(ProbeSeconds());
    if (trace) untraced.push_back(RunRep(spec, seed, false, false));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double rss_mb = static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;

  // Content check, outside the timed region.
  const Rep verified = RunRep(spec, seed, false, true);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;
  auto compare = [&](const Rep& r, const char* what) {
    attempted += r.attempted;
    failed += r.failed;
    if (!r.first_failure.empty()) problems.push_back(r.first_failure);
    if (r.sim != measured.front().sim) {
      ++failed;
      problems.push_back(std::string(what) +
                         " rep differs in its simulated results");
    }
  };
  for (const Rep& r : measured) compare(r, trace ? "traced" : "untraced");
  for (const Rep& r : untraced) compare(r, "untraced");
  compare(verified, "content-tracking");

  const std::vector<Metric> metrics =
      trace ? PerLayer(measured, untraced, probes)
            : EndToEnd(measured, Median(setups), rss_mb, HostScale(probes));

  std::printf("%zu timed reps in %.2f s; wall per rep:", measured.size(),
              SecondsSince(start));
  for (const Rep& r : measured) std::printf(" %.3f", r.wall_s);
  std::printf("\nmedian rep %.3f s; fastest segments %.3f s (%zu a rep); "
              "probe %.1f us (fastest of %zu), reference %.1f us\n",
              MedianOf(measured, [](const Rep& r) { return r.wall_s; }),
              FastestRepSeconds(measured), measured.front().segments.size(),
              *std::min_element(probes.begin(), probes.end()) * 1e6,
              probes.size(), kReferenceProbeSeconds * 1e6);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double write_gain =
      (measured.front().sim.at("sim_write_speedup") - 1.0) * 100.0;
  const double read_gain =
      (measured.front().sim.at("sim_read_speedup") - 1.0) * 100.0;
  std::printf("sim_write_gain_pct %+.1f%%, sim_read_gain_pct %+.1f%% (S4D "
              "over stock)\n",
              write_gain, read_gain);
  if (spec.reference.empty()) {
    std::printf("reference: none; %s has no paper figure and is "
                "unvalidated\n",
                spec.name.c_str());
  } else {
    std::printf("reference: %s; measured %+.1f%%\n", spec.reference.c_str(),
                write_gain);
  }
  std::printf("verification: %lld content checks, %lld failures\n",
              static_cast<long long>(verified.attempted),
              static_cast<long long>(verified.failed));
  for (const std::string& p : problems) std::printf("FAILED: %s\n", p.c_str());

  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"reps\": " + std::to_string(measured.size());
  out += ", \"build\": {\"compiler\": " + JsonString(kCompiler) +
         ", \"build_type\": " + JsonString(S4D_PERFBENCH_BUILD_TYPE) + "}";
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}, \"sim\": {";
  bool first = true;
  for (const auto& [name, value] : measured.front().sim) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": " + JsonNumber(value);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace s4d::perfbench

int main(int argc, char** argv) { return s4d::perfbench::Main(argc, argv); }
