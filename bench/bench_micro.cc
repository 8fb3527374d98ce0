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
#include "core/dmt.h"
#include "core/redirector.h"
#include "device/hdd_model.h"
#include "kvstore/kvstore.h"
#include "pfs/file_server.h"
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
    const core::CdtKey key{"file", (i % 100000) * 16 * KiB, 16 * KiB};
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
    dmt.Insert("file", i * 32 * KiB, 16 * KiB, i * 16 * KiB, false);
  }
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dmt.Lookup("file", (i % entries) * 32 * KiB, 16 * KiB));
    ++i;
  }
}
BENCHMARK(BM_DmtLookupHit)->Arg(1024)->Arg(65536);

void BM_DmtInsertEvict(benchmark::State& state) {
  core::DataMappingTable dmt;
  std::int64_t i = 0;
  for (auto _ : state) {
    dmt.Insert("file", i * 16 * KiB, 16 * KiB, (i % 4096) * 16 * KiB, false);
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
  core::DirtyExtentSet in_flight;
  for (std::int64_t i = 0; i < 2048; ++i) {
    dmt.Insert("file", i * 32 * KiB, 16 * KiB, i * 16 * KiB, true);
  }
  for (const core::DirtyRun& run : dmt.CollectDirtyRuns(64 * MiB, 4 * MiB)) {
    for (const core::DirtyRange& range : run.segments) {
      if (range.orig_begin % (1 * MiB) != 0) in_flight.insert(range.key());
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dmt.CollectDirtyRuns(32 * MiB, 4 * MiB, &in_flight));
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
    redirector.PlanWrite("file", i * 16 * KiB, 16 * KiB, true);
  }
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        redirector.PlanWrite("file", (i % 1024) * 16 * KiB, 16 * KiB, true));
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

// One sub-request through a jittered HDD server: submit, arrival event,
// service, completion event and callback.
void BM_FileServerRoundTrip(benchmark::State& state) {
  sim::Engine engine;
  pfs::FileServer server(
      engine,
      std::make_unique<device::HddModel>(device::SeagateST32502NS(), 1),
      net::LinkModel(net::GigabitEthernet()), "server0");
  byte_count lba = 0;
  std::int64_t completed = 0;
  for (auto _ : state) {
    pfs::ServerJob job;
    job.kind = device::IoKind::kWrite;
    job.lba = lba;
    job.size = 512 * KiB;
    job.on_complete = [&completed](SimTime) { ++completed; };
    server.Submit(std::move(job));
    engine.Run();
    lba += 512 * KiB;
  }
  benchmark::DoNotOptimize(completed);
}
BENCHMARK(BM_FileServerRoundTrip);

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
