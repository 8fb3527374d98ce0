// Two-phase collective I/O and data sieving — the ROMIO optimizations the
// paper's §II-A surveys ("Collective I/O ... rearrange concurrent I/O
// accesses among a group of processes into a larger contiguous request";
// "Data sieving ... integrates [noncontiguous requests] into a larger
// contiguous chunk including the additional data (hole)"). S4D-Cache sits
// below these: a collective call becomes a few large contiguous requests
// that the cost model routes like any other traffic — letting the ablation
// bench quantify how the two techniques compose.
//
// Model (ROMIO's generalized two-phase algorithm):
//   * The spans of all ranks are gathered; their covering range is split
//     into `aggregators` contiguous *file domains*.
//   * Phase 1 (shuffle): data moves between ranks and aggregators over the
//     interconnect — modelled as one exchange per round whose duration is
//     the bytes moved through the aggregators' links plus a latency term.
//   * Phase 2 (I/O): each aggregator issues contiguous requests for its
//     domain, at most `buffer_size` per round, rounds pipelined per
//     aggregator but serialized within one (the collective buffer is
//     reused).
//   * Writes write exactly the covered extents (coalesced); reads use data
//     sieving: if the covered fraction of a round's range exceeds
//     `sieve_threshold`, one big read including the holes, else per-extent
//     reads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/interval_map.h"
#include "mpiio/io_dispatch.h"
#include "net/link_model.h"
#include "sim/engine.h"

namespace s4d::mpiio {

struct CollectiveConfig {
  int aggregators = 4;                 // ROMIO cb_nodes
  byte_count buffer_size = 4 * MiB;    // ROMIO cb_buffer_size
  double sieve_threshold = 0.5;        // min covered fraction for sieving
  net::LinkProfile interconnect;       // client-side exchange network
};

// One rank's piece of a collective call. `token` tags written content for
// verification (0 = untracked).
struct RankSpan {
  int rank = 0;
  byte_count offset = 0;
  byte_count size = 0;
  std::uint64_t token = 0;
};

struct CollectiveStats {
  std::int64_t collective_calls = 0;
  std::int64_t rounds = 0;
  std::int64_t backend_requests = 0;
  byte_count shuffled_bytes = 0;
  byte_count sieved_hole_bytes = 0;  // extra bytes read through holes
};

class CollectiveIo {
 public:
  CollectiveIo(sim::Engine& engine, IoDispatch& dispatch,
               CollectiveConfig config);

  // Collective write/read of all ranks' spans; `done` fires when the last
  // aggregator finishes its last round.
  void Write(const std::string& file, std::vector<RankSpan> spans,
             IoCompletion done);
  void Read(const std::string& file, std::vector<RankSpan> spans,
            IoCompletion done);

  const CollectiveStats& stats() const { return stats_; }

 private:
  struct Extent {
    byte_count begin = 0;
    byte_count end = 0;
    std::uint64_t token = 0;
  };
  // One exchange+I/O round of one aggregator.
  struct Round {
    byte_count begin = 0;
    byte_count end = 0;
    byte_count covered = 0;
    std::vector<Extent> extents;  // ascending, disjoint
  };

  // One aggregator's rounds and what they need; a round's events capture
  // only {this, state, index}.
  struct Rounds {
    device::IoKind kind = device::IoKind::kRead;
    std::string file;
    std::vector<Round> rounds;
    IoCompletion on_done;  // fires when the last round is done
  };

  void Run(device::IoKind kind, const std::string& file,
           std::vector<RankSpan> spans, IoCompletion done);

  // Runs round `index` of `state`, then chains the next one.
  void RunRounds(std::shared_ptr<Rounds> state, std::size_t index);

  sim::Engine& engine_;
  IoDispatch& dispatch_;
  CollectiveConfig config_;
  net::LinkModel interconnect_;
  CollectiveStats stats_;
};

}  // namespace s4d::mpiio
