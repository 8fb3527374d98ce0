// Policy-subsystem ablation grid (beyond the paper's tables). Three
// variants: paper-default (no engine), fixed/lru (the engine attached with
// the paper's B > 0 rule, which must change nothing) and adaptive (the
// EWMA feedback threshold plus the pressure veto). Eviction is clean-LRU
// in all three.
//
// 1. Guardrails: the paper's fig6-style IOR write mix and fig7-style warm
//    re-read. The policy layer must never cost more than a few percent on
//    the workloads the paper's defaults already handle well.
// 2. Mixed-phase workload (alternating sequential 1 MiB and strided
//    256 KiB phases against a tight cache): the feedback admission
//    threshold sheds marginal admissions that the per-request cost model
//    over-promises on.
// 3. Strided saturation (HPIO, interleaved regions): every rank's stream
//    distance is ranks * region_size, so the per-request cost model scores
//    all of it critical and the paper's rule funnels the full 32-rank load
//    into 4 CServers — while the *global* pattern is sequential and the
//    8-server HDD array could absorb it at streaming speed. The adaptive
//    controller's EWMA sees the realized gain collapse under CServer
//    queueing and raises the threshold until the overflow spills to the
//    DServers (LBICA's argument); the fixed threshold cannot.
#include "bench_common.h"

#include <memory>

#include "common/table_printer.h"
#include "policy/policy_engine.h"
#include "workloads/hpio.h"

namespace s4d::bench {
namespace {

enum class Variant { kPaperDefault, kFixedLru, kAdaptive };

constexpr Variant kAllVariants[] = {Variant::kPaperDefault, Variant::kFixedLru,
                                    Variant::kAdaptive};

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kPaperDefault: return "paper-default";
    case Variant::kFixedLru: return "fixed/lru";
    case Variant::kAdaptive: return "adaptive";
  }
  return "?";
}

// Builds and attaches the policy engine for a variant (null for the
// paper-default, which must leave every core hook uninstalled).
std::unique_ptr<policy::PolicyEngine> MakeEngine(Variant v,
                                                 core::S4DCache& s4d) {
  if (v == Variant::kPaperDefault) return nullptr;
  policy::PolicyConfig pc;
  pc.mode = policy::PolicyMode::kAdaptive;
  if (v == Variant::kAdaptive) {
    pc.admission.feedback = true;
    // Raise the threshold only once the cache path is *slower* than the
    // solo-request DServer estimate (EWMA < 0): measured latency includes
    // queueing that the prediction does not, so a positive-but-small gain
    // is normal under healthy load and must not shed admissions.
    pc.admission.low_gain = 0.0;
    pc.admission.high_gain = 0.5;
    // Veto only on genuine saturation: with 32 closed-loop ranks over 4
    // CServers the healthy mean depth is ~8, so the bound sits well above.
    pc.admission.pressure_max_queue = 256.0;
  }
  auto engine = std::make_unique<policy::PolicyEngine>(pc);
  engine->Attach(s4d);
  return engine;
}

void PrintEngineLine(const policy::PolicyEngine* engine) {
  if (!engine) return;
  const auto& st = engine->admission().stats();
  std::printf(
      "    [admits %lld, threshold rejects %lld, pressure vetoes %lld]\n",
      static_cast<long long>(st.admits),
      static_cast<long long>(st.threshold_rejects),
      static_cast<long long>(st.pressure_vetoes));
}

// --- 1. Guardrails: the paper's own workloads must not regress -------------

double RunWriteMix(const BenchArgs& args, byte_count file_size, int ranks,
                   Variant v) {
  harness::TestbedConfig bed_cfg;
  bed_cfg.seed = args.seed;
  harness::Testbed bed(bed_cfg);
  core::S4DConfig cfg;
  cfg.cache_capacity = 10 * file_size / 5;
  auto s4d = bed.MakeS4D(cfg);
  auto engine = MakeEngine(v, *s4d);
  mpiio::MpiIoLayer layer(bed.engine(), *s4d);
  const double mbps = RunIorMix(layer, ranks, file_size, 16 * KiB,
                                device::IoKind::kWrite, args.seed)
                          .throughput_mbps;
  PrintEngineLine(engine.get());
  return mbps;
}

double RunWarmRead(const BenchArgs& args, byte_count file_size, int ranks,
                   Variant v) {
  harness::TestbedConfig bed_cfg;
  bed_cfg.seed = args.seed;
  harness::Testbed bed(bed_cfg);
  core::S4DConfig cfg;
  cfg.cache_capacity = file_size / 2;
  auto s4d = bed.MakeS4D(cfg);
  auto engine = MakeEngine(v, *s4d);
  mpiio::MpiIoLayer layer(bed.engine(), *s4d);

  workloads::IorConfig ior;
  ior.ranks = ranks;
  ior.file_size = file_size;
  ior.request_size = 16 * KiB;
  ior.random = true;
  ior.kind = device::IoKind::kRead;
  ior.seed = args.seed;
  // Cold pass populates the cache, settle, then the measured re-read.
  workloads::IorWorkload cold(ior);
  harness::RunClosedLoop(layer, cold);
  harness::DrainUntil(bed.engine(), [&] { return s4d->BackgroundQuiescent(); },
                      FromSeconds(3600));
  workloads::IorWorkload warm(ior);
  const double mbps = harness::RunClosedLoop(layer, warm).throughput_mbps;
  PrintEngineLine(engine.get());
  return mbps;
}

void Guardrails(const BenchArgs& args, BenchReporter& report) {
  std::printf("--- 1. Guardrails: paper workloads under every variant ---\n");
  const byte_count mix_size = args.full ? 2 * GiB : 64 * MiB;
  const byte_count read_size = args.full ? 1 * GiB : 48 * MiB;
  const int ranks = args.full ? 32 : 16;

  struct Cell {
    const char* workload;
    double (*run)(const BenchArgs&, byte_count, int, Variant);
    byte_count file_size;
  };
  for (const Cell& cell : {Cell{"ior-mix-write", RunWriteMix, mix_size},
                           Cell{"warm-read", RunWarmRead, read_size}}) {
    TablePrinter table({"policy", "MB/s", "vs paper"});
    double base = 0.0;
    for (Variant v : kAllVariants) {
      const double mbps = cell.run(args, cell.file_size, ranks, v);
      if (v == Variant::kPaperDefault) base = mbps;
      table.AddRow({VariantName(v), TablePrinter::Num(mbps),
                    v == Variant::kPaperDefault
                        ? "--"
                        : TablePrinter::Percent((mbps / base - 1.0) * 100.0)});
      report.Add("throughput_mbps", mbps,
                 {{"workload", cell.workload}, {"policy", VariantName(v)}});
    }
    std::printf("  %s:\n", cell.workload);
    table.Print(std::cout);
  }
  std::printf(
      "\nexpected: every variant within a few percent of paper-default —\n"
      "the policy layer must not tax the workloads the paper already wins.\n\n");
}

// --- 2. Mixed-phase: streaming and strided phases alternate ----------------

double RunMixedPhase(const BenchArgs& args, std::int64_t regions, int ranks,
                     Variant v) {
  harness::TestbedConfig bed_cfg;
  bed_cfg.seed = args.seed;
  harness::Testbed bed(bed_cfg);
  const byte_count strided_bytes =
      static_cast<byte_count>(regions) * ranks * (256 * KiB);
  core::S4DConfig cfg;
  // Tight cache: the strided working set does not fit, so each strided
  // phase re-requests ranges the previous one evicted, while the
  // saturation story plays out on the CServer queues.
  cfg.cache_capacity = strided_bytes / 2;
  auto s4d = bed.MakeS4D(cfg);
  auto engine = MakeEngine(v, *s4d);
  mpiio::MpiIoLayer layer(bed.engine(), *s4d);

  byte_count bytes = 0;
  const SimTime start = bed.engine().now();
  for (int phase = 0; phase < 6; ++phase) {
    if (phase % 2 == 0) {
      workloads::IorConfig ior;
      ior.file = "stream";
      ior.ranks = ranks;
      ior.file_size = strided_bytes / 2;
      ior.request_size = 1 * MiB;
      ior.random = false;
      ior.kind = device::IoKind::kWrite;
      ior.seed = args.seed;
      workloads::IorWorkload wl(ior);
      bytes += harness::RunClosedLoop(layer, wl).bytes;
    } else {
      // The same strided file every odd phase: the model scores every
      // region critical (per-rank distance = ranks * region_size), so the
      // fixed rule funnels the whole phase into the 4 CServers.
      workloads::HpioConfig hpio;
      hpio.ranks = ranks;
      hpio.region_count = regions;
      hpio.region_size = 256 * KiB;
      hpio.region_spacing = 0;
      hpio.kind = device::IoKind::kWrite;
      workloads::HpioWorkload wl(hpio);
      bytes += harness::RunClosedLoop(layer, wl).bytes;
    }
  }
  const double mbps = ThroughputMBps(bytes, bed.engine().now() - start);
  PrintEngineLine(engine.get());
  return mbps;
}

void MixedPhase(const BenchArgs& args, BenchReporter& report) {
  std::printf(
      "--- 2. Mixed-phase workload (seq 1M / strided 256K, tight cache) ---\n");
  const std::int64_t regions = args.full ? 256 : 48;
  const int ranks = 32;
  TablePrinter table({"policy", "MB/s", "vs fixed/lru"});
  double fixed = 0.0, adaptive = 0.0;
  for (Variant v : kAllVariants) {
    const double mbps = RunMixedPhase(args, regions, ranks, v);
    if (v == Variant::kFixedLru) fixed = mbps;
    if (v == Variant::kAdaptive) adaptive = mbps;
    table.AddRow({VariantName(v), TablePrinter::Num(mbps),
                  v == Variant::kFixedLru || fixed == 0.0
                      ? "--"
                      : TablePrinter::Percent((mbps / fixed - 1.0) * 100.0)});
    report.Add("throughput_mbps", mbps,
               {{"workload", "mixed-phase"}, {"policy", VariantName(v)}});
  }
  table.Print(std::cout);
  std::printf("adaptive vs fixed threshold: %+.1f%%\n\n",
              (adaptive / fixed - 1.0) * 100.0);
}

// --- 3. Strided saturation: model-critical but globally sequential ---------

double RunStrided(const BenchArgs& args, std::int64_t regions, int ranks,
                  Variant v) {
  harness::TestbedConfig bed_cfg;
  bed_cfg.seed = args.seed;
  harness::Testbed bed(bed_cfg);
  core::S4DConfig cfg;
  // Capacity is not the bottleneck; the 4 CServers' queues are.
  cfg.cache_capacity =
      static_cast<byte_count>(regions) * ranks * (256 * KiB) * 2;
  auto s4d = bed.MakeS4D(cfg);
  auto engine = MakeEngine(v, *s4d);
  mpiio::MpiIoLayer layer(bed.engine(), *s4d);

  workloads::HpioConfig hpio;
  hpio.ranks = ranks;
  hpio.region_count = regions;
  hpio.region_size = 256 * KiB;
  hpio.region_spacing = 0;  // globally contiguous, per-rank distance is huge
  hpio.kind = device::IoKind::kWrite;
  workloads::HpioWorkload wl(hpio);
  const double mbps = harness::RunClosedLoop(layer, wl).throughput_mbps;
  PrintEngineLine(engine.get());
  return mbps;
}

void StridedSaturation(const BenchArgs& args, BenchReporter& report) {
  std::printf(
      "--- 3. Strided saturation (HPIO interleaved, 256K regions) ---\n");
  const std::int64_t regions = args.full ? 512 : 96;
  const int ranks = 32;
  TablePrinter table({"policy", "MB/s", "vs fixed/lru"});
  double fixed = 0.0, adaptive = 0.0;
  for (Variant v : kAllVariants) {
    const double mbps = RunStrided(args, regions, ranks, v);
    if (v == Variant::kFixedLru) fixed = mbps;
    if (v == Variant::kAdaptive) adaptive = mbps;
    table.AddRow({VariantName(v), TablePrinter::Num(mbps),
                  v == Variant::kFixedLru || fixed == 0.0
                      ? "--"
                      : TablePrinter::Percent((mbps / fixed - 1.0) * 100.0)});
    report.Add("throughput_mbps", mbps,
               {{"workload", "hpio-strided"}, {"policy", VariantName(v)}});
  }
  table.Print(std::cout);
  std::printf(
      "adaptive vs fixed threshold: %+.1f%%\n"
      "the per-rank stream distance (ranks * region_size) makes the cost\n"
      "model admit everything; the feedback threshold spills the overflow\n"
      "to the 8 DServers, which see the globally sequential pattern.\n",
      (adaptive / fixed - 1.0) * 100.0);
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  BenchReporter report("policy", args);
  std::printf("=== Policy subsystem: guardrails + adaptive ablation ===\n");
  report.Scale("3-variant grid over write mix, warm read, mixed-phase, "
               "strided saturation");
  Guardrails(args, report);
  MixedPhase(args, report);
  StridedSaturation(args, report);
  report.Finish();
  return 0;
}

}  // namespace
}  // namespace s4d::bench

int main(int argc, char** argv) { return s4d::bench::Main(argc, argv); }
