#include "policy/characterizer.h"

#include <algorithm>

#include "common/check.h"

namespace s4d::policy {

const char* WorkloadPhaseName(WorkloadPhase phase) {
  switch (phase) {
    case WorkloadPhase::kUnknown: return "unknown";
    case WorkloadPhase::kSequential: return "sequential";
    case WorkloadPhase::kRandom: return "random";
    case WorkloadPhase::kMixed: return "mixed";
  }
  return "?";
}

namespace {

// Integer floor(log2(n)) for n >= 1; keeps the reuse summary free of
// floating-point accumulation order concerns.
std::int64_t FloorLog2(std::int64_t n) {
  std::int64_t bits = 0;
  while (n > 1) {
    n >>= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

std::optional<WindowSummary> WorkloadCharacterizer::Observe(
    const std::string& file, device::IoKind kind, byte_count offset,
    byte_count size, byte_count distance) {
  ++observed_;
  ++win_requests_;
  if (kind == device::IoKind::kRead) ++win_reads_;
  const byte_count magnitude = distance < 0 ? -distance : distance;
  if (magnitude <= config_.seq_distance_max) ++win_sequential_;

  // Reuse sketch: first block the request touches, at sketch granularity.
  if (config_.reuse_max_blocks > 0 && config_.reuse_block > 0 && size > 0) {
    const std::uint32_t file_id =
        file_ids_
            .try_emplace(file, static_cast<std::uint32_t>(file_ids_.size()))
            .first->second;
    const BlockKey key{file_id, offset / config_.reuse_block};
    const auto [it, inserted] = sketch_index_.try_emplace(key, kNil);
    std::uint32_t slot = it->second;
    if (!inserted) {
      ++win_reuse_hits_;
      win_reuse_log2_sum_ += FloorLog2(std::max<std::int64_t>(
          observed_ - sketch_[slot].last_seen, 1));
      Unlink(slot);
    } else if (sketch_.size() < config_.reuse_max_blocks) {
      slot = static_cast<std::uint32_t>(sketch_.size());
      sketch_.emplace_back();
    } else {
      // Full: the least recently seen block gives up its slot.
      slot = oldest_;
      Unlink(slot);
      sketch_index_.erase(sketch_[slot].key);
    }
    it->second = slot;
    sketch_[slot].key = key;
    sketch_[slot].last_seen = observed_;
    AppendNewest(slot);
  }

  if (win_requests_ < config_.window_requests) return std::nullopt;

  WindowSummary summary;
  summary.index = windows_closed_;
  summary.requests = win_requests_;
  const auto total = static_cast<double>(win_requests_);
  summary.seq_fraction = static_cast<double>(win_sequential_) / total;
  summary.read_fraction = static_cast<double>(win_reads_) / total;
  summary.reuse_fraction = static_cast<double>(win_reuse_hits_) / total;
  summary.mean_reuse_log2 =
      win_reuse_hits_ > 0
          ? static_cast<double>(win_reuse_log2_sum_) /
                static_cast<double>(win_reuse_hits_)
          : 0.0;
  if (summary.seq_fraction >= config_.seq_high) {
    summary.phase = WorkloadPhase::kSequential;
  } else if (summary.seq_fraction <= config_.seq_low) {
    summary.phase = WorkloadPhase::kRandom;
  } else {
    summary.phase = WorkloadPhase::kMixed;
  }
  last_ = summary;
  ++windows_closed_;
  win_requests_ = 0;
  win_sequential_ = 0;
  win_reads_ = 0;
  win_reuse_hits_ = 0;
  win_reuse_log2_sum_ = 0;
  return summary;
}

void WorkloadCharacterizer::Unlink(std::uint32_t slot) {
  SketchNode& node = sketch_[slot];
  (node.older == kNil ? oldest_ : sketch_[node.older].newer) = node.newer;
  (node.newer == kNil ? newest_ : sketch_[node.newer].older) = node.older;
  node.older = kNil;
  node.newer = kNil;
}

void WorkloadCharacterizer::AppendNewest(std::uint32_t slot) {
  SketchNode& node = sketch_[slot];
  node.older = newest_;
  node.newer = kNil;
  (newest_ == kNil ? oldest_ : sketch_[newest_].newer) = slot;
  newest_ = slot;
}

void WorkloadCharacterizer::AuditInvariants() const {
  S4D_CHECK(sketch_index_.size() == sketch_.size())
      << "characterizer sketch index holds " << sketch_index_.size()
      << " blocks, slab " << sketch_.size();
  S4D_CHECK(config_.reuse_max_blocks == 0 ||
            sketch_.size() <= config_.reuse_max_blocks)
      << "characterizer sketch over bound: " << sketch_.size();
  S4D_CHECK(win_requests_ >= 0 && win_requests_ < config_.window_requests)
      << "characterizer window accumulator out of range: " << win_requests_;
  S4D_CHECK(win_sequential_ <= win_requests_ && win_reads_ <= win_requests_ &&
            win_reuse_hits_ <= win_requests_)
      << "characterizer window counters exceed requests";
  // The recency list visits every slot once, oldest first, with strictly
  // increasing last-seen indices, and the index maps each key to its slot.
  std::size_t visited = 0;
  std::uint32_t prev = kNil;
  for (std::uint32_t slot = oldest_; slot != kNil;
       prev = slot, slot = sketch_[slot].newer) {
    S4D_CHECK(slot < sketch_.size() && visited < sketch_.size())
        << "characterizer recency list broken at slot " << slot;
    const SketchNode& node = sketch_[slot];
    S4D_CHECK(node.older == prev)
        << "characterizer recency list back link broken at slot " << slot;
    S4D_CHECK(prev == kNil || sketch_[prev].last_seen < node.last_seen)
        << "characterizer recency list out of order at slot " << slot;
    const auto it = sketch_index_.find(node.key);
    S4D_CHECK(it != sketch_index_.end() && it->second == slot)
        << "characterizer sketch index misses slot " << slot;
    ++visited;
  }
  S4D_CHECK(visited == sketch_.size() && newest_ == prev)
      << "characterizer recency list covers " << visited << " of "
      << sketch_.size() << " blocks";
}

}  // namespace s4d::policy
