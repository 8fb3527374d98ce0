// Online workload characterization (ReCA-style): classify the live request
// stream per fixed-size window and expose phase boundaries.
//
// Each window of `window_requests` requests is summarized by
//   * sequential fraction  — requests whose stream distance (the Data
//     Identifier's signed d) is within `seq_distance_max` of a known tail,
//   * read fraction,
//   * reuse fraction + mean log2 reuse distance — from a bounded sketch of
//     recently touched blocks ((file, block) -> last-seen request index).
// The phase is kSequential / kRandom / kMixed by thresholds on the
// sequential fraction. Observe returns each window it closes; the
// PolicyEngine may then switch eviction policy when the phase changes
// (ReCA's reconfiguration step, applied to the eviction axis).
//
// The sketch is bounded and LRU-evicted: a hit refreshes the block's
// last-seen index, and a miss on a full sketch evicts the least recently
// seen block. Nothing is seeded and nothing iterates a hash table — same
// request stream, same summaries, every run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "device/device_model.h"

namespace s4d::policy {

enum class WorkloadPhase : std::uint8_t { kUnknown, kSequential, kRandom, kMixed };

const char* WorkloadPhaseName(WorkloadPhase phase);

struct CharacterizerConfig {
  std::int64_t window_requests = 256;
  // |distance| at or below this counts as a stream continuation. Defaults
  // to the per-request span server-side readahead absorbs comfortably.
  byte_count seq_distance_max = 1 * MiB;
  double seq_high = 0.7;  // sequential fraction >= high  -> kSequential
  double seq_low = 0.3;   // sequential fraction <= low   -> kRandom
  // Reuse-distance sketch bounds.
  std::size_t reuse_max_blocks = 4096;
  byte_count reuse_block = 64 * KiB;
};

struct WindowSummary {
  std::int64_t index = 0;  // 0-based window number
  std::int64_t requests = 0;
  double seq_fraction = 0.0;
  double read_fraction = 0.0;
  double reuse_fraction = 0.0;       // requests touching a sketched block
  double mean_reuse_log2 = 0.0;      // mean log2(reuse distance in requests)
  WorkloadPhase phase = WorkloadPhase::kUnknown;
};

class WorkloadCharacterizer {
 public:
  explicit WorkloadCharacterizer(CharacterizerConfig config)
      : config_(config) {}

  // One request as the Identifier saw it; `distance` is the signed stream
  // distance it computed. Every `window_requests` observations it closes
  // the window and returns its summary; otherwise it returns nullopt.
  std::optional<WindowSummary> Observe(const std::string& file,
                                       device::IoKind kind, byte_count offset,
                                       byte_count size, byte_count distance);

  const CharacterizerConfig& config() const { return config_; }
  WorkloadPhase phase() const { return last_.phase; }
  const WindowSummary& last_window() const { return last_; }
  std::int64_t windows_closed() const { return windows_closed_; }
  std::int64_t observed() const { return observed_; }
  // Blocks currently held by the reuse sketch.
  std::size_t sketch_blocks() const { return sketch_.size(); }

  // S4D_CHECKs sketch bounds and counter consistency.
  void AuditInvariants() const;

 private:
  CharacterizerConfig config_;

  // Current-window accumulators.
  std::int64_t win_requests_ = 0;
  std::int64_t win_sequential_ = 0;
  std::int64_t win_reads_ = 0;
  std::int64_t win_reuse_hits_ = 0;
  std::int64_t win_reuse_log2_sum_ = 0;

  // Reuse sketch. Each block sits in one slab slot, reused when the block
  // is evicted, so the slab never outgrows reuse_max_blocks. An intrusive
  // list threads the slots from least to most recently seen, and a hash
  // index finds a block's slot. File names are interned to dense ids; the
  // id table keeps every name seen, one entry per file the run touches.
  static constexpr std::uint32_t kNil = UINT32_MAX;
  struct BlockKey {
    std::uint32_t file = 0;
    std::int64_t block = 0;
    bool operator==(const BlockKey&) const = default;
  };
  struct BlockKeyHash {
    std::size_t operator()(const BlockKey& key) const noexcept {
      return static_cast<std::size_t>(
          (static_cast<std::uint64_t>(key.block) ^
           (std::uint64_t{key.file} << 40)) *
          0x9E3779B97F4A7C15ULL);
    }
  };
  struct SketchNode {
    BlockKey key;
    std::int64_t last_seen = 0;  // request index of the latest touch
    std::uint32_t older = kNil;
    std::uint32_t newer = kNil;
  };
  void Unlink(std::uint32_t slot);
  void AppendNewest(std::uint32_t slot);

  std::unordered_map<std::string, std::uint32_t> file_ids_;
  std::unordered_map<BlockKey, std::uint32_t, BlockKeyHash> sketch_index_;
  std::vector<SketchNode> sketch_;
  std::uint32_t oldest_ = kNil;
  std::uint32_t newest_ = kNil;

  std::int64_t observed_ = 0;
  std::int64_t windows_closed_ = 0;
  WindowSummary last_;
};

}  // namespace s4d::policy
