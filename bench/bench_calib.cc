// Calibration ablation: static cost model vs. online queue-aware fits on a
// hot-CServer adversarial scenario (beyond the paper's tables).
//
// The cluster is provisioned upside down: 8 HDD DServers but a single SSD
// CServer. Under 48-rank random writes the paper's static model (Eqs. 1-8)
// scores essentially every request critical — random HDD positioning
// dwarfs the SSD's service time — and funnels the entire load into the one
// CServer, whose GigE link caps the aggregate far below what the 8-server
// HDD array could absorb. The static model never notices: its T_C is a
// no-queueing closed form, so B stays positive while the cache tier
// saturates.
//
// The calibration engine watches live per-server completion telemetry,
// fits T_C with a queue-delay term from the observed outstanding depth,
// and feeds the redirector's saturation signal. Once the CServer's depth
// crosses the bound, admissions bypass to the DServers and the overflow
// rides the HDD array's aggregate bandwidth instead of one SSD's link.
//
// Reported per variant: aggregate throughput, the share of requests routed
// to the cache tier, and the mean cost-model misprediction — |predicted
// route cost - realized latency| over fully-single-tier requests — which
// is the direct measure of what calibration buys.
#include "bench_common.h"

#include <cmath>
#include <memory>

#include "calib/calibration.h"
#include "common/table_printer.h"

namespace s4d::bench {
namespace {

struct VariantResult {
  double mbps = 0.0;
  double mispredict_us = 0.0;   // mean |predicted - realized|, single-tier
  long long requests = 0;
  long long cache_routed = 0;   // requests with any cache-tier bytes
  long long declines = 0;       // calibration fell back to the static model
  long long saturation_bypasses = 0;
};

// Scores each completed request's route against the cost model's
// prediction for it.
struct MispredictScorer final : core::CacheExtension {
  void OnOutcome(const core::RequestOutcome& o) override {
    ++requests;
    if (o.cache_bytes > 0) ++cache_routed;
    // Mispredict only over single-tier requests: a split request's latency
    // mixes both tiers and matches neither per-tier prediction.
    if (o.cache_bytes > 0 && o.dserver_bytes == 0) {
      err_sum += std::fabs(static_cast<double>(o.predicted_cserver) -
                           static_cast<double>(o.latency));
      ++err_n;
    } else if (o.cache_bytes == 0 && o.dserver_bytes > 0) {
      err_sum += std::fabs(static_cast<double>(o.predicted_dserver) -
                           static_cast<double>(o.latency));
      ++err_n;
    }
  }

  long long requests = 0;
  long long cache_routed = 0;
  long double err_sum = 0.0;
  long long err_n = 0;
};

VariantResult RunVariant(const BenchArgs& args, bool calibrated,
                         byte_count file_size, int ranks) {
  harness::TestbedConfig bed_cfg;
  bed_cfg.dservers = 8;
  bed_cfg.cservers = 1;  // the hot server: one SSD behind one GigE link
  bed_cfg.seed = args.seed;
  harness::Testbed bed(bed_cfg);

  core::S4DConfig cfg;
  cfg.cache_capacity = 2 * file_size;  // space never constrains admission
  auto s4d = bed.MakeS4D(cfg);

  std::unique_ptr<calib::CalibrationEngine> cal;
  if (calibrated) {
    calib::CalibConfig cc;
    cc.min_samples = 32;
    // Saturation bound: the depth beyond which the lone CServer is doing
    // strictly worse than spreading over the HDD array. Half the rank
    // count leaves the cache a healthy share of the closed-loop load.
    cc.saturation_depth = static_cast<double>(ranks) / 2.0;
    cal = std::make_unique<calib::CalibrationEngine>(
        cc, bed.MakeCostModel().params());
    cal->Attach(*s4d, bed.dservers(), bed.cservers(), nullptr);
  }

  MispredictScorer scorer;
  s4d->Attach(scorer);

  mpiio::MpiIoLayer layer(bed.engine(), *s4d);
  workloads::IorConfig wcfg;
  wcfg.file = "calib.dat";
  wcfg.ranks = ranks;
  wcfg.file_size = file_size;
  wcfg.request_size = 64 * KiB;
  wcfg.random = true;
  wcfg.kind = device::IoKind::kWrite;
  wcfg.seed = args.seed;
  workloads::IorWorkload wl(wcfg);
  const auto result = harness::RunClosedLoop(layer, wl);

  VariantResult out;
  out.mbps = result.throughput_mbps;
  out.requests = scorer.requests;
  out.cache_routed = scorer.cache_routed;
  out.mispredict_us =
      scorer.err_n > 0
          ? static_cast<double>(scorer.err_sum / scorer.err_n) / 1e3
          : 0.0;
  if (cal) {
    out.declines = cal->stats().declines;
    out.saturation_bypasses =
        s4d->redirector_stats().saturation_write_bypasses +
        s4d->redirector_stats().saturation_read_bypasses;
  }
  return out;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  BenchReporter report("calib", args);
  const byte_count file_size = args.full ? 256 * MiB : 96 * MiB;
  const int ranks = 48;
  report.Scale("hot-CServer (8 DServers / 1 CServer), " +
               std::to_string(ranks) + " ranks random 64K writes, " +
               FormatBytes(file_size) + " file; static vs calibrated");

  TablePrinter table({"variant", "MB/s", "cache routed", "mispredict (us)",
                      "declines", "sat bypasses"});
  VariantResult results[2];
  const char* names[2] = {"static", "calibrated"};
  for (int i = 0; i < 2; ++i) {
    results[i] = RunVariant(args, i == 1, file_size, ranks);
    const VariantResult& r = results[i];
    table.AddRow({names[i], TablePrinter::Num(r.mbps, 2),
                  TablePrinter::Percent(
                      r.requests > 0 ? 100.0 * static_cast<double>(r.cache_routed) /
                                           static_cast<double>(r.requests)
                                     : 0.0),
                  TablePrinter::Num(r.mispredict_us, 1),
                  TablePrinter::Int(r.declines),
                  TablePrinter::Int(r.saturation_bypasses)});
    report.Add("throughput_mbps", r.mbps, {{"variant", names[i]}});
    report.Add("mispredict_us", r.mispredict_us, {{"variant", names[i]}});
  }
  table.Print(std::cout);
  const double gain =
      results[0].mbps > 0.0 ? results[1].mbps / results[0].mbps : 0.0;
  std::printf("\ncalibrated/static throughput: %.2fx\n", gain);
  report.Add("calibrated_speedup_x", gain);
  if (!report.Finish()) return 1;
  // The headline claim: calibration must recover throughput the static
  // model leaves on the saturated cache tier.
  if (results[1].mbps <= results[0].mbps) {
    std::printf("FAIL: calibrated run did not beat the static model\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace s4d::bench

int main(int argc, char** argv) { return s4d::bench::Main(argc, argv); }
