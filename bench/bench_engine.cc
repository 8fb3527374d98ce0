// Event-engine throughput: events/sec on synthetic schedule/fire/cancel
// mixes plus an end-to-end simulator run.
//
// The synthetic kernels exercise the engine hot paths in isolation:
//   schedule_fire         every fired event schedules one successor at a
//                         random short delay (pure heap traffic)
//   schedule_fire_cancel  successor + a schedule-then-cancel sibling (the
//                         acceptance mix; hits the slab free list and the
//                         lazy-cancel pop path)
//   zero_delay_chain      each event runs a 4-hop zero-delay chain before
//                         rescheduling (hits the same-time ring fast path)
// Each kernel's callback is a small self-rescheduling functor (4 pointers)
// so it stays inside InlineCallback's 48-byte inline budget — matching how
// the simulator's own callbacks are written.
//
// end_to_end runs the Figure-6-style IOR mix through the full S4D stack and
// reports engine events per wall-clock second, tying the micro numbers to
// real simulator throughput.
#include "bench_common.h"

#include "common/rng.h"
#include "common/table_printer.h"

namespace s4d::bench {
namespace {

struct KernelResult {
  double events_per_sec = 0.0;
  std::uint64_t events = 0;
};

// One fired event = one successor + one schedule-then-cancel sibling.
struct CancelMixTicker {
  sim::Engine* engine;
  Rng* rng;
  std::uint64_t* remaining;
  std::uint64_t* scheduled;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    engine->ScheduleAfter(1 + static_cast<SimTime>(rng->Next() & 7), *this);
    const sim::EventId dead = engine->ScheduleAfter(3, [] {});
    engine->Cancel(dead);
    *scheduled += 2;
  }
};

// One fired event = one successor; no cancels.
struct FireTicker {
  sim::Engine* engine;
  Rng* rng;
  std::uint64_t* remaining;
  std::uint64_t* scheduled;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    engine->ScheduleAfter(1 + static_cast<SimTime>(rng->Next() & 7), *this);
    ++*scheduled;
  }
};

// A 4-hop zero-delay chain, then one successor at a future time. Zero-delay
// hops land in the same-time ring, not the heap.
struct ChainTicker {
  sim::Engine* engine;
  Rng* rng;
  std::uint64_t* remaining;
  std::uint64_t* scheduled;
  int hop = 0;
  void operator()() const {
    if (hop < 4) {
      ChainTicker next = *this;
      next.hop = hop + 1;
      engine->ScheduleAfter(0, next);
      ++*scheduled;
      return;
    }
    if (*remaining == 0) return;
    --*remaining;
    ChainTicker next = *this;
    next.hop = 0;
    engine->ScheduleAfter(1 + static_cast<SimTime>(rng->Next() & 7), next);
    ++*scheduled;
  }
};

template <typename Ticker>
KernelResult RunKernel(std::uint64_t n, int reps) {
  KernelResult best;
  for (int rep = 0; rep < reps; ++rep) {
    sim::Engine engine;
    Rng rng(7);
    std::uint64_t scheduled = 0;
    std::uint64_t remaining = n;
    Ticker tick{&engine, &rng, &remaining, &scheduled};
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 64; ++i) {
      engine.ScheduleAt(static_cast<SimTime>(i), tick);
      ++scheduled;
    }
    engine.Run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const std::uint64_t ops = engine.events_fired() + scheduled;
    const double rate = static_cast<double>(ops) / secs;
    if (rate > best.events_per_sec) best = KernelResult{rate, ops};
  }
  return best;
}

KernelResult RunEndToEnd(const BenchArgs& args, byte_count file_size) {
  harness::TestbedConfig bed_cfg;
  bed_cfg.seed = args.seed;
  harness::Testbed bed(bed_cfg);
  core::S4DConfig cfg;
  cfg.cache_capacity = 10 * file_size / 5;
  auto s4d = bed.MakeS4D(cfg);
  mpiio::MpiIoLayer layer(bed.engine(), *s4d);
  const auto t0 = std::chrono::steady_clock::now();
  RunIorMix(layer, /*ranks=*/32, file_size, 16 * KiB, device::IoKind::kWrite,
            args.seed, /*instances=*/10, /*random_instances=*/4);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const std::uint64_t fired = bed.engine().events_fired();
  return KernelResult{static_cast<double>(fired) / secs, fired};
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  BenchReporter report("engine", args);
  std::printf("=== Event-engine throughput ===\n");
  const std::uint64_t n = args.full ? 8'000'000 : 2'000'000;
  const byte_count e2e_file = args.full ? 256 * MiB : 32 * MiB;
  report.Scale(std::to_string(n) + " events per kernel, best of 3; " +
               FormatBytes(e2e_file) + " end-to-end IOR mix");

  // Warm up the allocator/CPU once; discard.
  RunKernel<CancelMixTicker>(n / 10, 1);

  TablePrinter table({"mix", "events/sec", "events"});
  struct Row {
    const char* name;
    KernelResult r;
  };
  Row rows[] = {
      {"schedule_fire", RunKernel<FireTicker>(n, 3)},
      {"schedule_fire_cancel", RunKernel<CancelMixTicker>(n, 3)},
      {"zero_delay_chain", RunKernel<ChainTicker>(n, 3)},
  };
  for (const Row& row : rows) {
    table.AddRow({row.name, TablePrinter::Num(row.r.events_per_sec),
                  std::to_string(row.r.events)});
    report.Add("events_per_sec", row.r.events_per_sec, {{"mix", row.name}});
  }
  const KernelResult e2e = RunEndToEnd(args, e2e_file);
  table.AddRow({"end_to_end_ior", TablePrinter::Num(e2e.events_per_sec),
                std::to_string(e2e.events)});
  report.Add("events_per_sec", e2e.events_per_sec, {{"mix", "end_to_end_ior"}});
  table.Print(std::cout);

  report.Finish();
  return 0;
}

}  // namespace
}  // namespace s4d::bench

int main(int argc, char** argv) { return s4d::bench::Main(argc, argv); }
