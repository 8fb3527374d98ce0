// Figure 11: runtime overhead of the S4D-Cache machinery when nothing is
// cacheable. 32 processes write a shared file with random requests that
// all miss the CServers (admission disabled), so the Redirector evaluates
// the cost model, probes CDT/DMT, and forwards everything to DServers.
//
// Expected shape: S4D tracks the stock system within noise.
#include "bench_common.h"

#include "common/table_printer.h"

namespace s4d::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  BenchReporter report("fig11", args);
  std::printf("=== Figure 11: S4D-Cache pass-through overhead ===\n");
  const byte_count file_size = args.full ? 10 * GiB : 256 * MiB;
  const int ranks = 32;
  report.Scale("32 procs, random writes, all requests miss CServers, file " +
               FormatBytes(file_size));

  TablePrinter table(
      {"request", "stock MB/s", "S4D(all-miss) MB/s", "overhead"});
  for (byte_count request : {8 * KiB, 16 * KiB, 32 * KiB}) {
    workloads::IorConfig ior;
    ior.ranks = ranks;
    ior.file_size = file_size;
    ior.request_size = request;
    ior.random = true;
    ior.seed = args.seed;

    double stock_mbps;
    {
      harness::TestbedConfig bed_cfg;
      bed_cfg.seed = args.seed;
      harness::Testbed bed(bed_cfg);
      mpiio::MpiIoLayer layer(bed.engine(), bed.stock());
      workloads::IorWorkload wl(ior);
      stock_mbps = harness::RunClosedLoop(layer, wl).throughput_mbps;
    }
    double s4d_mbps;
    {
      harness::TestbedConfig bed_cfg;
      bed_cfg.seed = args.seed;
      harness::Testbed bed(bed_cfg);
      core::S4DConfig cfg;
      // All requests intentionally miss and are never admitted: the
      // identifier/redirector still run on every request.
      cfg.policy = core::AdmissionPolicy::kNever;
      auto s4d = bed.MakeS4D(cfg);
      mpiio::MpiIoLayer layer(bed.engine(), *s4d);
      workloads::IorWorkload wl(ior);
      s4d_mbps = harness::RunClosedLoop(layer, wl).throughput_mbps;
    }
    table.AddRow(
        {FormatBytes(request), TablePrinter::Num(stock_mbps, 2),
         TablePrinter::Num(s4d_mbps, 2),
         TablePrinter::Percent((1.0 - s4d_mbps / stock_mbps) * 100.0, 2)});
    report.Add("overhead_percent",
               (1.0 - s4d_mbps / stock_mbps) * 100.0,
               {{"request", FormatBytes(request)}});
    report.Add("throughput_mbps", stock_mbps,
               {{"request", FormatBytes(request)}, {"system", "stock"}});
    report.Add("throughput_mbps", s4d_mbps,
               {{"request", FormatBytes(request)}, {"system", "s4d"}});
  }
  table.Print(std::cout);
  std::printf("\npaper: the overhead is almost unobservable.\n");
  report.Finish();
  return 0;
}

}  // namespace
}  // namespace s4d::bench

int main(int argc, char** argv) { return s4d::bench::Main(argc, argv); }
