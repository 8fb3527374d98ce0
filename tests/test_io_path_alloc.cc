// Zero-allocation guards. The binary replaces global operator new to count
// calls, and every case first runs a warm-up that sizes every pool.
//
// The striped sub-request path: FileSystem::Submit and its fan-out,
// FileServer arrival, queueing, service and completion, the HDD stream
// index, and the engine. 1,000 4 MiB requests from 32 closed-loop ranks run
// to completion on 8 jittered HDD servers, and not one allocation may
// happen, with or without a SubRequestSink installed.
//
// The S4D request path above it: every request that leaves the mapping
// unchanged runs from S4DCache::Read/Write to its completion without an
// allocation, whether the cost model sends it to the DServers or it hits in
// the cache.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/s4d_cache.h"
#include "device/hdd_model.h"
#include "harness/testbed.h"
#include "pfs/file_system.h"
#include "sim/engine.h"

namespace {
bool g_counting = false;
long g_allocations = 0;
}  // namespace

// The replacements pair malloc with free by design. GCC cannot tell a
// replacement operator delete from a mismatched free once it inlines one.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace s4d::pfs {
namespace {

constexpr int kServers = 8;
constexpr int kRanks = 32;
constexpr int kRequests = 1000;
constexpr byte_count kRequest = 4 * MiB;

// 32 ranks, each writing its own region sequentially and issuing its next
// request when the previous one completes.
class ClosedLoop {
 public:
  ClosedLoop(sim::Engine& engine, FileSystem& fs)
      : engine_(engine), fs_(fs), file_(fs.OpenOrCreate("ior")) {
    for (int r = 0; r < kRanks; ++r) next_offset_.push_back(r * GiB);
  }

  // Issues `requests` requests and runs the engine until they complete.
  void Run(int requests) {
    remaining_ = requests;
    for (int r = 0; r < kRanks; ++r) Issue(r);
    engine_.Run();
  }

  int completed() const { return completed_; }

 private:
  void Issue(int rank) {
    if (remaining_ == 0) return;
    --remaining_;
    byte_count& offset = next_offset_[static_cast<std::size_t>(rank)];
    // {this, rank}: 16 bytes, so std::function stores it inline.
    fs_.Submit(file_, device::IoKind::kWrite, offset, kRequest,
               Priority::kNormal, [this, rank](SimTime) {
                 ++completed_;
                 Issue(rank);
               });
    offset += kRequest;
  }

  sim::Engine& engine_;
  FileSystem& fs_;
  FileId file_;
  std::vector<byte_count> next_offset_;
  int remaining_ = 0;
  int completed_ = 0;
};

class CountingSink final : public SubRequestSink {
 public:
  void OnSubRequestResolved(const SubRequestSample& sample) override {
    ++samples_;
    if (!sample.ok) ++failed_;
  }
  long samples() const { return samples_; }
  long failed() const { return failed_; }

 private:
  long samples_ = 0;
  long failed_ = 0;
};

FsConfig JitteredHddCluster() {
  FsConfig cfg;
  cfg.name = "opfs";
  cfg.stripe.server_count = kServers;
  cfg.stripe.stripe_size = 64 * KiB;
  cfg.link = net::GigabitEthernet();
  return cfg;
}

// Allocations made while `requests` closed-loop requests run.
long AllocationsFor(ClosedLoop& loop, int requests) {
  g_allocations = 0;
  g_counting = true;
  loop.Run(requests);
  g_counting = false;
  return g_allocations;
}

std::unique_ptr<FileSystem> MakeFs(sim::Engine& engine) {
  return std::make_unique<FileSystem>(
      engine, JitteredHddCluster(), [](int server) {
        return std::make_unique<device::HddModel>(
            device::SeagateST32502NS(), static_cast<std::uint64_t>(server + 1));
      });
}

TEST(IoPathAlloc, GigabitProfileIsJittered) {
  EXPECT_GT(JitteredHddCluster().link.arrival_jitter, 0);
}

TEST(IoPathAlloc, StripedRequestsAllocateNothing) {
  sim::Engine engine;
  auto fs = MakeFs(engine);
  ClosedLoop loop(engine, *fs);
  loop.Run(kRequests);  // warm-up: pools, slabs, stream tables, heap
  EXPECT_EQ(AllocationsFor(loop, kRequests), 0);
  EXPECT_EQ(loop.completed(), 2 * kRequests);
  EXPECT_EQ(fs->stats().failed_requests, 0);
  EXPECT_EQ(fs->outstanding_subs(), 0);
}

TEST(IoPathAlloc, StripedRequestsWithSinkAllocateNothing) {
  sim::Engine engine;
  auto fs = MakeFs(engine);
  CountingSink sink;
  fs->SetSubRequestSink(&sink, 0);
  ClosedLoop loop(engine, *fs);
  loop.Run(kRequests);
  EXPECT_EQ(AllocationsFor(loop, kRequests), 0);
  EXPECT_EQ(loop.completed(), 2 * kRequests);
  EXPECT_EQ(sink.samples(), 2L * kRequests * kServers);
  EXPECT_EQ(sink.failed(), 0);
}

}  // namespace
}  // namespace s4d::pfs

namespace s4d::core {
namespace {

// Paranoid builds run S4DCache::AuditInvariants every 64 foreground
// requests, and the audit allocates by design (it sorts a copy of every
// extent). There the S4D cases check the request and hit counts only.
#ifdef S4D_PARANOID
constexpr bool kAuditsAllocate = true;
#else
constexpr bool kAuditsAllocate = false;
#endif

constexpr int kS4DRanks = 32;
constexpr int kS4DRequests = 1000;
// perfbench's file name: it and its cache file's name (ior.0.s4d) fit the
// small-string buffer, so copying either allocates nothing.
const char* const kFile = "ior.0";

// 32 closed-loop ranks issuing S4D requests of one kind on kFile. Each rank
// walks its own list of offsets, and its cursor carries over from one Run
// to the next.
class S4DLoop {
 public:
  S4DLoop(sim::Engine& engine, S4DCache& s4d, byte_count size,
          std::vector<std::vector<byte_count>> offsets)
      : engine_(engine), s4d_(s4d), offsets_(std::move(offsets)) {
    for (int r = 0; r < kS4DRanks; ++r) {
      mpiio::FileRequest request;
      request.file = kFile;
      request.rank = r;
      request.size = size;
      requests_.push_back(request);
    }
    cursors_.assign(offsets_.size(), 0);
    s4d_.Open(kFile);
  }
  // Completions hold `this`.
  S4DLoop(const S4DLoop&) = delete;
  S4DLoop& operator=(const S4DLoop&) = delete;

  // Issues `requests` requests and runs the engine until they complete.
  void Run(device::IoKind kind, int requests) {
    kind_ = kind;
    remaining_ = requests;
    for (int r = 0; r < kS4DRanks; ++r) Issue(r);
    engine_.Run();
  }

  int completed() const { return completed_; }
  // Whether some rank ran past the end of its list and started over.
  bool wrapped() const { return wrapped_; }

 private:
  void Issue(int rank) {
    if (remaining_ == 0) return;
    --remaining_;
    const auto r = static_cast<std::size_t>(rank);
    const std::vector<byte_count>& offsets = offsets_[r];
    if (cursors_[r] == offsets.size()) {
      cursors_[r] = 0;
      wrapped_ = true;
    }
    mpiio::FileRequest& request = requests_[r];
    request.offset = offsets[cursors_[r]++];
    // {this, rank}: 16 bytes, so std::function stores it inline.
    auto done = [this, rank](SimTime) {
      ++completed_;
      Issue(rank);
    };
    if (kind_ == device::IoKind::kWrite) {
      s4d_.Write(request, done);
    } else {
      s4d_.Read(request, done);
    }
  }

  sim::Engine& engine_;
  S4DCache& s4d_;
  std::vector<std::vector<byte_count>> offsets_;
  std::vector<std::size_t> cursors_;
  std::vector<mpiio::FileRequest> requests_;
  device::IoKind kind_ = device::IoKind::kRead;
  int remaining_ = 0;
  int completed_ = 0;
  bool wrapped_ = false;
};

// Allocations made while `requests` closed-loop requests run.
long AllocationsFor(S4DLoop& loop, device::IoKind kind, int requests) {
  g_allocations = 0;
  g_counting = true;
  loop.Run(kind, requests);
  g_counting = false;
  return g_allocations;
}

// Only foreground work runs: no Rebuilder ticks.
std::unique_ptr<S4DCache> MakeForegroundS4D(harness::Testbed& bed) {
  S4DConfig cfg;
  cfg.enable_rebuilder = false;
  return bed.MakeS4D(cfg);
}

// Case (a): 4 MiB sequential requests, which the cost model sends to the
// DServers (B <= 0). Rank r streams through its own GiB, so every request
// continues its rank's stream, writes and reads alike.
TEST(IoPathAlloc, S4DBypassRequestsAllocateNothing) {
  harness::Testbed bed(harness::TestbedConfig{});
  auto s4d = MakeForegroundS4D(bed);
  constexpr byte_count kSize = 4 * MiB;
  std::vector<std::vector<byte_count>> offsets(kS4DRanks);
  for (int r = 0; r < kS4DRanks; ++r) {
    for (byte_count k = 0; k < GiB / kSize; ++k) {
      offsets[static_cast<std::size_t>(r)].push_back(r * GiB + k * kSize);
    }
  }
  S4DLoop loop(bed.engine(), *s4d, kSize, std::move(offsets));
  loop.Run(device::IoKind::kWrite, kS4DRequests);  // warm-up
  loop.Run(device::IoKind::kRead, kS4DRequests);

  const S4DCounters before = s4d->counters();
  const std::int64_t critical = s4d->identifier_stats().critical;
  const long writes =
      AllocationsFor(loop, device::IoKind::kWrite, kS4DRequests);
  const long reads = AllocationsFor(loop, device::IoKind::kRead, kS4DRequests);
  if (!kAuditsAllocate) {
    EXPECT_EQ(writes, 0);
    EXPECT_EQ(reads, 0);
  }
  EXPECT_EQ(loop.completed(), 4 * kS4DRequests);
  EXPECT_FALSE(loop.wrapped());
  // Every counted request was a DServer bypass.
  EXPECT_EQ(s4d->identifier_stats().critical, critical);
  EXPECT_EQ(s4d->counters().dserver_requests,
            before.dserver_requests + 2 * kS4DRequests);
  EXPECT_EQ(s4d->counters().cserver_requests, before.cserver_requests);
  EXPECT_EQ(s4d->counters().failed_requests, 0);
  EXPECT_EQ(s4d->dmt().entry_count(), 0u);
}

// Case (b): 16 KiB reads of ranges admitted during the warm-up. Each range
// is read once before counting (its first read may record a CDT entry), so
// every counted read is a cache hit.
TEST(IoPathAlloc, S4DCacheHitsAllocateNothing) {
  harness::Testbed bed(harness::TestbedConfig{});
  auto s4d = MakeForegroundS4D(bed);
  constexpr byte_count kSize = 16 * KiB;
  // kS4DRequests scattered ranges on distinct 8 MiB slots (7919 is coprime
  // with the 4,096 slots), so no range continues another's stream tail
  // and every write is admitted. Rank r owns ranges r, r + 32, r + 64, ...
  constexpr byte_count kSlot = 8 * MiB;
  std::vector<std::vector<byte_count>> offsets(kS4DRanks);
  for (int i = 0; i < kS4DRequests; ++i) {
    const byte_count slot = (static_cast<byte_count>(i) * 7919) % 4096;
    offsets[static_cast<std::size_t>(i % kS4DRanks)].push_back(slot * kSlot);
  }
  S4DLoop loop(bed.engine(), *s4d, kSize, std::move(offsets));
  loop.Run(device::IoKind::kWrite, kS4DRequests);  // warm-up: admissions
  ASSERT_EQ(s4d->redirector_stats().write_admissions, kS4DRequests);
  loop.Run(device::IoKind::kRead, kS4DRequests);

  const std::int64_t hits = s4d->redirector_stats().read_cache_hits;
  const std::int64_t cserver_requests = s4d->counters().cserver_requests;
  const long reads = AllocationsFor(loop, device::IoKind::kRead, kS4DRequests);
  if (!kAuditsAllocate) {
    EXPECT_EQ(reads, 0);
  }
  EXPECT_EQ(loop.completed(), 3 * kS4DRequests);
  EXPECT_EQ(s4d->redirector_stats().read_cache_hits, hits + kS4DRequests);
  EXPECT_EQ(s4d->counters().cserver_requests,
            cserver_requests + kS4DRequests);
  EXPECT_EQ(s4d->counters().failed_requests, 0);
}

}  // namespace
}  // namespace s4d::core
