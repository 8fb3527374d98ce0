// Zero-allocation guard for the striped sub-request path: FileSystem::Submit
// and its fan-out, FileServer arrival, queueing, service and completion,
// the HDD stream index, and the engine. The binary replaces global
// operator new to count calls. After a warm-up that sizes every pool, 1,000
// 4 MiB requests from 32 closed-loop ranks run to completion on 8 jittered
// HDD servers, and not one allocation may happen, with or without a
// SubRequestSink installed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "device/hdd_model.h"
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
