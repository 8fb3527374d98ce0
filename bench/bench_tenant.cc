// Multi-tenant partitioning + endurance bench (beyond the paper's tables):
//
// 1. Noisy neighbor: a victim tenant with a small reusable working set
//    shares the cache with a scanner streaming never-reused writes.
//    Three sharings of the same workload pair:
//      solo         — victim alone (the ceiling)
//      shared       — both tenants, observe mode (global clean-LRU; the
//                     scanner raids the victim's extents)
//      partitioned  — both tenants, enforce mode with a hard floor that
//                     covers the victim's working set
//    Headline: the victim's warm re-read hit ratio under enforce must land
//    within 10% of solo, while shared collapses.
// 2. Endurance veto: the same distant-write stream with the endurance
//    filter off and on (tight per-tenant write budget). The veto must cut
//    SSD (CServer) bytes written — trading cache fills for flash lifetime.
#include "bench_common.h"

#include <memory>
#include <string>

#include "common/check.h"
#include "common/config_parser.h"
#include "common/table_printer.h"
#include "tenant/manager.h"
#include "tenant/registry.h"

namespace s4d::bench {
namespace {

tenant::TenantsConfig ParseTenants(const std::string& text,
                                   byte_count capacity) {
  ConfigParser config;
  S4D_CHECK(config.Parse(text).ok());
  auto parsed = tenant::ParseTenantsConfig(config, capacity);
  S4D_CHECK(parsed.ok());
  return *parsed;
}

// One request through the cache, stepping the engine until it completes.
// Step (rather than Run) so the rebuilder's periodic ticks cannot keep the
// loop alive forever.
void DoIo(harness::Testbed& bed, mpiio::IoDispatch& dispatch,
          device::IoKind kind, int rank, byte_count offset, byte_count size) {
  SimTime completed = -1;
  mpiio::FileRequest req{"data", rank, offset, size, 0};
  if (kind == device::IoKind::kWrite) {
    dispatch.Write(req, [&](SimTime t) { completed = t; });
  } else {
    dispatch.Read(req, [&](SimTime t) { completed = t; });
  }
  while (completed < 0 && bed.engine().Step()) {
  }
  S4D_CHECK(completed >= 0);
}

void Settle(harness::Testbed& bed, core::S4DCache& s4d) {
  harness::DrainUntil(bed.engine(), [&] { return s4d.BackgroundQuiescent(); },
                      FromSeconds(60));
}

// --- 1. Noisy neighbor: solo / shared / partitioned ------------------------

enum class Sharing { kSolo, kShared, kPartitioned };

const char* SharingName(Sharing s) {
  switch (s) {
    case Sharing::kSolo: return "solo";
    case Sharing::kShared: return "shared";
    case Sharing::kPartitioned: return "partitioned";
  }
  return "?";
}

struct NoisyResult {
  double victim_hit_ratio = 0.0;
  byte_count victim_used = 0;
};

NoisyResult RunNoisy(const BenchArgs& args, Sharing sharing, int rounds) {
  harness::TestbedConfig bed_cfg;
  bed_cfg.seed = args.seed;
  bed_cfg.file_reservation = 8 * GiB;
  harness::Testbed bed(bed_cfg);
  core::S4DConfig cfg;
  cfg.cache_capacity = 4 * MiB;
  cfg.enable_rebuilder = true;  // flushes make extents clean => evictable
  cfg.rebuilder.interval = FromMillis(10);
  auto s4d = bed.MakeS4D(cfg);
  const bool enforce = sharing == Sharing::kPartitioned;
  auto tenants = ParseTenants(
      std::string("[tenants]\nmode = ") + (enforce ? "enforce" : "observe") +
          "\n"
          "tenant1 = victim ranks 0-1 quota 50% floor 50%\n"
          "tenant2 = noisy ranks 2-3\n",
      cfg.cache_capacity);
  tenant::TenantManager manager(bed.engine(),
                                tenant::TenantRegistry(std::move(tenants)));
  manager.Attach(*s4d);
  s4d->Open("data");

  // The victim's working set: 24 distant 64 KiB extents (1.5 MiB), inside
  // its 2 MiB floor. Distant small writes are model-critical, so they all
  // admit.
  const int kSet = 24;
  for (int i = 0; i < kSet; ++i) {
    DoIo(bed, *s4d, device::IoKind::kWrite, 0,
         (100 + 7 * static_cast<byte_count>(i)) * MiB, 64 * KiB);
  }
  Settle(bed, *s4d);

  // Measure only the steady phase: flood, then warm re-read, each round.
  const std::int64_t hits0 = manager.stats(0).hits;
  const std::int64_t reads0 = manager.stats(0).read_requests;
  std::int64_t noisy_seq = 0;
  for (int round = 0; round < rounds; ++round) {
    if (sharing != Sharing::kSolo) {
      // 56 x 64 KiB = 3.5 MiB per round: more than the cache less the
      // victim's set, so a global clean-LRU must plow through the victim's
      // extents; the enforce-mode floor must not.
      for (int i = 0; i < 56; ++i) {
        DoIo(bed, *s4d, device::IoKind::kWrite, 2,
             (1000 + 11 * static_cast<byte_count>(noisy_seq++)) * MiB,
             64 * KiB);
      }
      Settle(bed, *s4d);  // let flushes produce clean victims
    }
    for (int i = 0; i < kSet; ++i) {
      DoIo(bed, *s4d, device::IoKind::kRead, 1,
           (100 + 7 * static_cast<byte_count>(i)) * MiB, 64 * KiB);
    }
  }

  NoisyResult result;
  const std::int64_t reads = manager.stats(0).read_requests - reads0;
  if (reads > 0) {
    result.victim_hit_ratio =
        static_cast<double>(manager.stats(0).hits - hits0) /
        static_cast<double>(reads);
  }
  result.victim_used = s4d->cache_space().used_by(0);
  manager.AuditInvariants();
  s4d->AuditInvariants();
  return result;
}

void NoisyNeighbor(const BenchArgs& args, BenchReporter& report) {
  std::printf(
      "--- 1. Noisy neighbor: victim re-read hit ratio by sharing ---\n");
  const int rounds = args.full ? 16 : 8;
  TablePrinter table({"sharing", "victim hit%", "vs solo", "victim MiB"});
  double solo = 0.0, partitioned = 0.0;
  for (Sharing s :
       {Sharing::kSolo, Sharing::kShared, Sharing::kPartitioned}) {
    const NoisyResult r = RunNoisy(args, s, rounds);
    if (s == Sharing::kSolo) solo = r.victim_hit_ratio;
    if (s == Sharing::kPartitioned) partitioned = r.victim_hit_ratio;
    table.AddRow({SharingName(s),
                  TablePrinter::Percent(100.0 * r.victim_hit_ratio),
                  s == Sharing::kSolo || solo == 0.0
                      ? "--"
                      : TablePrinter::Percent(
                            (r.victim_hit_ratio / solo - 1.0) * 100.0),
                  TablePrinter::Num(static_cast<double>(r.victim_used) / MiB)});
    report.Add("victim_hit_ratio", r.victim_hit_ratio,
               {{"sharing", SharingName(s)}});
  }
  table.Print(std::cout);
  std::printf(
      "partitioned vs solo: %+.1f%% (target: within 10%% — the floor keeps\n"
      "the victim's working set resident while the scanner churns its own\n"
      "partition)\n\n",
      solo > 0.0 ? (partitioned / solo - 1.0) * 100.0 : 0.0);
}

// --- 2. Endurance veto: SSD bytes written with the filter off/on -----------

struct WearResult {
  std::int64_t admissions = 0;
  byte_count cserver_bytes = 0;
  std::int64_t vetoes = 0;
  double wear_fraction = 0.0;
};

WearResult RunWriteStream(const BenchArgs& args, bool endurance, int writes) {
  harness::TestbedConfig bed_cfg;
  bed_cfg.seed = args.seed;
  bed_cfg.file_reservation = 16 * GiB;
  // A short-lived drive so the wear fraction is visible at bench scale.
  bed_cfg.ssd.write_amplification = 1.3;
  bed_cfg.ssd.pe_cycle_budget = 0.001;
  harness::Testbed bed(bed_cfg);
  core::S4DConfig cfg;
  cfg.cache_capacity = 4 * MiB;
  cfg.enable_rebuilder = true;
  cfg.rebuilder.interval = FromMillis(10);
  auto s4d = bed.MakeS4D(cfg);
  std::unique_ptr<tenant::TenantManager> manager;
  if (endurance) {
    auto tenants = ParseTenants(
        "[tenants]\n"
        "mode = enforce\n"
        "endurance = on\n"
        "write_cost_ns_per_byte = 5\n"
        "tenant1 = all ranks * write_budget 2m\n",
        cfg.cache_capacity);
    manager = std::make_unique<tenant::TenantManager>(
        bed.engine(), tenant::TenantRegistry(std::move(tenants)));
    manager->Attach(*s4d);
  }
  s4d->Open("data");

  for (int i = 0; i < writes; ++i) {
    DoIo(bed, *s4d, device::IoKind::kWrite, 0,
         (100 + 9 * static_cast<byte_count>(i)) * MiB, 64 * KiB);
  }
  Settle(bed, *s4d);

  WearResult result;
  result.admissions = s4d->redirector_stats().write_admissions;
  result.cserver_bytes = s4d->counters().cserver_bytes;
  result.wear_fraction = s4d->tier().WearFraction();
  if (manager) {
    result.vetoes =
        manager->stats(0).endurance_vetoes + manager->stats(0).wear_vetoes;
    manager->AuditInvariants();
  }
  s4d->AuditInvariants();
  return result;
}

void EnduranceVeto(const BenchArgs& args, BenchReporter& report) {
  std::printf("--- 2. Endurance veto: SSD writes with the filter off/on ---\n");
  const int writes = args.full ? 600 : 300;
  TablePrinter table(
      {"endurance", "admits", "SSD write MiB", "wear%", "vetoes"});
  byte_count off_bytes = 0, on_bytes = 0;
  for (bool endurance : {false, true}) {
    const WearResult r = RunWriteStream(args, endurance, writes);
    (endurance ? on_bytes : off_bytes) = r.cserver_bytes;
    table.AddRow({endurance ? "on" : "off",
                  TablePrinter::Num(static_cast<double>(r.admissions)),
                  TablePrinter::Num(static_cast<double>(r.cserver_bytes) / MiB),
                  TablePrinter::Percent(100.0 * r.wear_fraction),
                  TablePrinter::Num(static_cast<double>(r.vetoes))});
    report.Add("ssd_write_mb", static_cast<double>(r.cserver_bytes) / MiB,
               {{"endurance", endurance ? "on" : "off"}});
    if (endurance) {
      report.Add("endurance_vetoes", static_cast<double>(r.vetoes),
                 {{"endurance", "on"}});
    }
  }
  table.Print(std::cout);
  std::printf(
      "veto cuts SSD writes by %.1f%% — a 2 MiB/s tenant budget sheds the\n"
      "fills the working set cannot repay before flash lifetime matters.\n",
      off_bytes > 0
          ? 100.0 * (1.0 - static_cast<double>(on_bytes) /
                               static_cast<double>(off_bytes))
          : 0.0);
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  BenchReporter report("tenant", args);
  std::printf("=== Tenant subsystem: partition isolation + endurance ===\n");
  report.Scale("noisy-neighbor sharing triple + endurance on/off write "
               "stream");
  NoisyNeighbor(args, report);
  EnduranceVeto(args, report);
  report.Finish();
  return 0;
}

}  // namespace
}  // namespace s4d::bench

int main(int argc, char** argv) { return s4d::bench::Main(argc, argv); }
