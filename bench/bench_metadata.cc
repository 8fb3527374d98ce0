// §V-E.1: DMT metadata space overhead. The paper's worst case: every
// request is 4 KiB, so a cache of S bytes holds S/4KiB mappings of
// 6 x 4 B each -> 0.6% overhead. This bench constructs a real DMT at that
// density and reports both the analytic figure and the measured size of
// the persisted store.
#include <filesystem>
#include <unistd.h>

#include "bench_common.h"

#include "common/table_printer.h"
#include "core/dmt.h"

namespace s4d::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  BenchReporter report("metadata", args);
  std::printf("=== Metadata space overhead (Section V-E.1) ===\n");
  const byte_count cache_size = args.full ? 1 * GiB : 64 * MiB;
  const byte_count request = 4 * KiB;  // worst case
  report.Scale("4 KiB requests filling " + FormatBytes(cache_size) +
               " of cache space");

  const auto dir = std::filesystem::temp_directory_path() /
                   ("s4d_meta_bench_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "dmt.db").string();

  kv::Options kv_options;
  kv_options.sync_writes = false;  // measuring space, not fsync latency
  auto store = kv::KvStore::Open(path, kv_options);
  if (!store.ok()) {
    std::fprintf(stderr, "cannot open store: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }

  core::FileTable files;
  core::DataMappingTable dmt(store->get(), &files);
  const core::FileIndex file = files.Intern("app.dat");
  const std::int64_t entries = cache_size / request;
  for (std::int64_t i = 0; i < entries; ++i) {
    dmt.Insert(file, i * request, request, i * request, i % 2 == 0);
  }
  (void)(*store)->Compact();

  const auto stats = (*store)->Stats();
  const double in_memory_analytic =
      static_cast<double>(entries) *
      static_cast<double>(core::DataMappingTable::ApproxRecordBytes());
  TablePrinter table({"metric", "value"});
  table.AddRow({"cache size", FormatBytes(cache_size)});
  table.AddRow({"DMT entries (4 KiB each)", TablePrinter::Int(entries)});
  table.AddRow({"analytic record size", "24 B (6 fields x 4 B)"});
  table.AddRow(
      {"analytic overhead",
       TablePrinter::Percent(in_memory_analytic /
                                 static_cast<double>(cache_size) * 100.0,
                             3)});
  table.AddRow({"persisted store bytes", FormatBytes(stats.log_bytes)});
  table.AddRow(
      {"persisted overhead",
       TablePrinter::Percent(static_cast<double>(stats.log_bytes) /
                                 static_cast<double>(cache_size) * 100.0,
                             3)});
  table.Print(std::cout);
  std::printf("\npaper: the metadata space overhead is 0.6%%, negligible.\n");
  report.Add("analytic_overhead_percent",
             in_memory_analytic / static_cast<double>(cache_size) * 100.0);
  report.Add("persisted_overhead_percent",
             static_cast<double>(stats.log_bytes) /
                 static_cast<double>(cache_size) * 100.0);

  std::filesystem::remove_all(dir);
  report.Finish();
  return 0;
}

}  // namespace
}  // namespace s4d::bench

int main(int argc, char** argv) { return s4d::bench::Main(argc, argv); }
