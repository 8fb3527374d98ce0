// google-benchmark microbenchmarks for the hot paths of the middleware:
// the per-request work the paper's §V-E.2 argues is negligible (cost-model
// evaluation, CDT/DMT lookups) plus the substrate primitives behind it.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>
#include <unistd.h>

#include "core/cdt.h"
#include "core/cost_model.h"
#include "core/data_identifier.h"
#include "core/dmt.h"
#include "core/file_table.h"
#include "core/redirector.h"
#include "device/hdd_model.h"
#include "kvstore/kvstore.h"
#include "pfs/file_server.h"
#include "pfs/file_system.h"
#include "pfs/striping.h"
#include "sim/engine.h"

namespace s4d {
namespace {

core::CostModel MakeModel() {
  return core::CostModel(core::CostModelParams::FromProfiles(
      8, 4, 64 * KiB, device::SeagateST32502NS(),
      device::OczRevoDriveX2Effective(), net::GigabitEthernet()));
}

void BM_CostModelBenefit(benchmark::State& state) {
  const core::CostModel model = MakeModel();
  byte_count offset = 0;
  for (auto _ : state) {
    offset = (offset + 1234567) % (1 * GiB);
    benchmark::DoNotOptimize(
        model.Benefit(device::IoKind::kWrite, offset, offset, 16 * KiB));
  }
}
BENCHMARK(BM_CostModelBenefit);

// perfbench ior16k-mix's sequential instances: 32 ranks stream through
// their own 512 KiB segment of one file with 16 KiB requests, interleaved,
// each starting its segment over when it reaches the end.
void BM_IdentifyInterleaved(benchmark::State& state) {
  constexpr int kRanks = 32;
  constexpr byte_count kSegment = 512 * KiB;
  constexpr byte_count kSize = 16 * KiB;
  const core::CostModel model = MakeModel();
  core::CriticalDataTable cdt;
  core::DataIdentifier identifier(model, cdt);
  std::vector<byte_count> done(kRanks, 0);
  int rank = 0;
  for (auto _ : state) {
    byte_count& at = done[static_cast<std::size_t>(rank)];
    benchmark::DoNotOptimize(identifier.Identify(
        0, rank, device::IoKind::kWrite, rank * kSegment + at, kSize));
    at = (at + kSize) % kSegment;
    rank = (rank + 1) % kRanks;
  }
}
BENCHMARK(BM_IdentifyInterleaved);

// The file-id lookup a request starts with, over ten open files: the same
// name as the request before (Arg 0), or a name other than the last (1).
void BM_FileTableIntern(benchmark::State& state) {
  core::FileTable files;
  std::vector<std::string> names;
  for (int i = 0; i < 10; ++i) {
    names.push_back("ior." + std::to_string(i));
    files.Intern(names.back());
  }
  const std::size_t stride = state.range(0) == 0 ? 0 : 3;
  std::size_t i = 0;
  for (auto _ : state) {
    i = (i + stride) % names.size();
    benchmark::DoNotOptimize(files.Intern(names[i]));
  }
}
BENCHMARK(BM_FileTableIntern)->Arg(0)->Arg(1);

void BM_StripingSplit(benchmark::State& state) {
  const pfs::StripeConfig cfg{8, 64 * KiB};
  const byte_count size = state.range(0);
  byte_count offset = 0;
  for (auto _ : state) {
    offset = (offset + 333 * KiB) % (1 * GiB);
    benchmark::DoNotOptimize(pfs::SplitRequest(cfg, offset, size));
  }
}
BENCHMARK(BM_StripingSplit)
    ->Arg(16 * KiB)
    ->Arg(1 * MiB)
    ->Arg(4 * MiB)
    ->Arg(32 * MiB);

void BM_MaxSubRequestSize(benchmark::State& state) {
  const pfs::StripeConfig cfg{8, 64 * KiB};
  byte_count offset = 0;
  for (auto _ : state) {
    offset = (offset + 333 * KiB) % (1 * GiB);
    benchmark::DoNotOptimize(pfs::MaxSubRequestSize(cfg, offset, 4 * MiB));
  }
}
BENCHMARK(BM_MaxSubRequestSize);

void BM_CdtAddContains(benchmark::State& state) {
  core::CriticalDataTable cdt;
  std::int64_t i = 0;
  for (auto _ : state) {
    const core::CdtKey key{0, (i % 100000) * 16 * KiB, 16 * KiB};
    cdt.Add(key);
    benchmark::DoNotOptimize(cdt.Contains(key));
    ++i;
  }
}
BENCHMARK(BM_CdtAddContains);

void BM_DmtLookupHit(benchmark::State& state) {
  core::DataMappingTable dmt;
  const std::int64_t entries = state.range(0);
  for (std::int64_t i = 0; i < entries; ++i) {
    dmt.Insert(0, i * 32 * KiB, 16 * KiB, i * 16 * KiB, false);
  }
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dmt.Lookup(0, (i % entries) * 32 * KiB, 16 * KiB));
    ++i;
  }
}
BENCHMARK(BM_DmtLookupHit)->Arg(1024)->Arg(65536);

// perfbench hpio-stages' lookup order: 32 ranks, each walking its own
// contiguous slice of an HPIO-strided table (16 KiB regions, 16 KiB
// spacing, 8,192 extents), the ranks' lookups interleaved. Consecutive
// lookups land 256 extents apart, so a last-hit hint would miss.
void BM_DmtLookupInterleaved(benchmark::State& state) {
  constexpr std::int64_t kExtents = 8192;
  constexpr std::int64_t kRanks = 32;
  constexpr std::int64_t kPerRank = kExtents / kRanks;
  core::DataMappingTable dmt;
  for (std::int64_t i = 0; i < kExtents; ++i) {
    dmt.Insert(0, i * 32 * KiB, 16 * KiB, i * 16 * KiB, false);
  }
  std::int64_t i = 0;
  for (auto _ : state) {
    const std::int64_t rank = i % kRanks;
    const std::int64_t step = (i / kRanks) % kPerRank;
    benchmark::DoNotOptimize(
        dmt.Lookup(0, (rank * kPerRank + step) * 32 * KiB, 16 * KiB));
    ++i;
  }
}
BENCHMARK(BM_DmtLookupInterleaved);

// A write hit dirties a clean extent, and its flush is begun and written
// back: two dirty<->clean flips, each moving the extent between the dirty
// index and the clean LRU index.
void BM_DmtDirtyFlip(benchmark::State& state) {
  constexpr std::int64_t kExtents = 4096;
  core::DataMappingTable dmt;
  for (std::int64_t i = 0; i < kExtents; ++i) {
    dmt.Insert(0, i * 32 * KiB, 16 * KiB, i * 16 * KiB, false);
  }
  // Versions come from one counter: each insert and each dirtying takes
  // the next one.
  std::uint64_t version = kExtents;
  std::int64_t i = 0;
  for (auto _ : state) {
    const byte_count begin = ((i * 97) % kExtents) * 32 * KiB;
    dmt.SetDirty(0, begin, 16 * KiB, true);
    ++version;
    dmt.BeginFlush(core::DirtyExtentKey{0, begin, version});
    benchmark::DoNotOptimize(
        dmt.MarkCleanIfVersion(0, begin, begin + 16 * KiB, version));
    ++i;
  }
}
BENCHMARK(BM_DmtDirtyFlip);

// A full CDT of `range(0)` entries on a stream of critical requests: three
// in four recur (a hit), one in four is new (FIFO eviction), and each is
// C_flagged. A fetch pass takes the pending marks every `range(0)`
// requests, as the Rebuilder's tick does.
void BM_CdtAddSetFlag(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  core::CriticalDataTable cdt(entries);
  std::int64_t next = 0;
  auto key_of = [](std::int64_t n) {
    return core::CdtKey{static_cast<core::FileIndex>(n % 3), n * 16 * KiB,
                        16 * KiB};
  };
  for (std::size_t k = 0; k < entries; ++k) cdt.Add(key_of(next++));
  std::int64_t i = 0;
  for (auto _ : state) {
    const core::CdtKey key =
        i % 4 == 0 ? key_of(next++)
                   : key_of(next - 1 -
                            (i * 7919) % static_cast<std::int64_t>(entries / 2));
    benchmark::DoNotOptimize(cdt.Add(key));
    benchmark::DoNotOptimize(cdt.SetCacheFlag(key));
    if (++i % static_cast<std::int64_t>(entries) == 0) {
      benchmark::DoNotOptimize(cdt.TakePendingFetches(entries));
    }
  }
}
BENCHMARK(BM_CdtAddSetFlag)->Arg(16384);

void BM_DmtInsertEvict(benchmark::State& state) {
  core::DataMappingTable dmt;
  std::int64_t i = 0;
  for (auto _ : state) {
    dmt.Insert(0, i * 16 * KiB, 16 * KiB, (i % 4096) * 16 * KiB, false);
    if (dmt.entry_count() > 4096) {
      benchmark::DoNotOptimize(dmt.EvictLruClean());
    }
    ++i;
  }
}
BENCHMARK(BM_DmtInsertEvict);

// One Rebuilder flush collection on perfbench hpio-stages' shape: 2,048
// dirty 16 KiB extents, none adjacent, all but 64 still being flushed.
void BM_FlushCollectInflight(benchmark::State& state) {
  core::DataMappingTable dmt;
  for (std::int64_t i = 0; i < 2048; ++i) {
    dmt.Insert(0, i * 32 * KiB, 16 * KiB, i * 16 * KiB, true);
  }
  for (const core::DirtyRun& run : dmt.CollectDirtyRuns(64 * MiB, 4 * MiB)) {
    for (const core::DirtyRange& range : run.segments) {
      if (range.orig_begin % (1 * MiB) != 0) dmt.BeginFlush(range.key());
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmt.CollectDirtyRuns(32 * MiB, 4 * MiB));
  }
}
BENCHMARK(BM_FlushCollectInflight);

void BM_RedirectorPlanWriteHit(benchmark::State& state) {
  core::CriticalDataTable cdt;
  core::DataMappingTable dmt;
  core::CacheSpaceAllocator space(1 * GiB);
  core::Redirector redirector(cdt, dmt, space);
  // Pre-admit a working set, then measure steady-state mapped writes.
  for (int i = 0; i < 1024; ++i) {
    redirector.PlanWrite(0, i * 16 * KiB, 16 * KiB, true);
  }
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        redirector.PlanWrite(0, (i % 1024) * 16 * KiB, 16 * KiB, true));
    ++i;
  }
}
BENCHMARK(BM_RedirectorPlanWriteHit);

void BM_EngineScheduleStep(benchmark::State& state) {
  sim::Engine engine;
  for (auto _ : state) {
    engine.ScheduleAfter(1, [] {});
    engine.Step();
  }
}
BENCHMARK(BM_EngineScheduleStep);

// The per-server shape of perfbench's ior4m-seq: 32 interleaved
// sequential streams, 64 MiB apart, each access 512 KiB. Every access
// continues a stream.
void BM_HddAccessInterleaved(benchmark::State& state) {
  device::HddModel hdd(device::SeagateST32502NS(), 1);
  std::vector<byte_count> tails(32);
  for (std::size_t r = 0; r < tails.size(); ++r) {
    tails[r] = static_cast<byte_count>(r) * 64 * MiB;
  }
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hdd.Access(device::IoKind::kWrite, tails[r], 512 * KiB));
    tails[r] += 512 * KiB;
    r = (r + 1) % tails.size();
  }
}
BENCHMARK(BM_HddAccessInterleaved);

// Random 16 KiB accesses over the disk, as ior16k-mix's random instances
// issue them: every access misses, and a full stream table evicts.
void BM_HddAccessRandom(benchmark::State& state) {
  device::HddModel hdd(device::SeagateST32502NS(), 1);
  Rng rng(7);
  const auto blocks =
      static_cast<std::uint64_t>(hdd.profile().capacity / (16 * KiB));
  std::vector<byte_count> offsets(4096);
  for (byte_count& offset : offsets) {
    offset = static_cast<byte_count>(rng.NextBelow(blocks)) * 16 * KiB;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hdd.Access(device::IoKind::kRead, offsets[i], 16 * KiB));
    i = (i + 1) % offsets.size();
  }
}
BENCHMARK(BM_HddAccessRandom);

// Counts the jobs a server resolves.
class CountingSink final : public pfs::JobSink {
 public:
  void OnJobResolved(std::uint64_t, SimTime, bool) override { ++resolved; }
  std::int64_t resolved = 0;
};

// One sub-request through a jittered HDD server: submit, arrival event,
// service, completion event and sink call.
void BM_FileServerRoundTrip(benchmark::State& state) {
  sim::Engine engine;
  pfs::FileServer server(
      engine,
      std::make_unique<device::HddModel>(device::SeagateST32502NS(), 1),
      net::LinkModel(net::GigabitEthernet()), "server0");
  CountingSink sink;
  pfs::ServerJob job;
  job.kind = device::IoKind::kWrite;
  job.size = 512 * KiB;
  job.sink = &sink;
  for (auto _ : state) {
    server.Submit(job);
    engine.Run();
    job.lba += 512 * KiB;
  }
  benchmark::DoNotOptimize(sink.resolved);
}
BENCHMARK(BM_FileServerRoundTrip);

// One striped request from FileSystem::Submit to its completion on 8
// jittered HDD servers: the split, the fan-out, every server's round trip
// and the join.
void BM_FileSystemSubmit(benchmark::State& state) {
  sim::Engine engine;
  pfs::FsConfig cfg;
  cfg.stripe = {8, 64 * KiB};
  cfg.link = net::GigabitEthernet();
  pfs::FileSystem fs(engine, cfg, [](int server) {
    return std::make_unique<device::HddModel>(
        device::SeagateST32502NS(), static_cast<std::uint64_t>(server + 1));
  });
  const pfs::FileId file = fs.OpenOrCreate("f");
  const byte_count size = state.range(0);
  byte_count offset = 0;
  std::int64_t completed = 0;
  for (auto _ : state) {
    fs.Submit(file, device::IoKind::kWrite, offset, size,
              pfs::Priority::kNormal, [&completed](SimTime) { ++completed; });
    engine.Run();
    offset = (offset + size) % (1 * GiB);
  }
  benchmark::DoNotOptimize(completed);
}
BENCHMARK(BM_FileSystemSubmit)->Arg(16 * KiB)->Arg(4 * MiB);

void BM_KvStorePut(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("s4d_micro_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  kv::Options options;
  options.sync_writes = false;  // isolate the store logic from fsync cost
  auto store = kv::KvStore::Open((dir / "bench.db").string(), options);
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        (*store)->Put("key" + std::to_string(i % 10000), "0123456789abcdef"));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_KvStorePut);

void BM_KvStoreGet(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("s4d_micro_get_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  kv::Options options;
  options.sync_writes = false;
  auto store = kv::KvStore::Open((dir / "bench.db").string(), options);
  for (int i = 0; i < 10000; ++i) {
    (void)(*store)->Put("key" + std::to_string(i), "0123456789abcdef");
  }
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*store)->Get("key" + std::to_string(i % 10000)));
    ++i;
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_KvStoreGet);

}  // namespace
}  // namespace s4d

BENCHMARK_MAIN();
