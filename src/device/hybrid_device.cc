#include "device/hybrid_device.h"

#include <algorithm>

#include "common/check.h"

namespace s4d::device {

HybridHddSsd::HybridHddSsd(HybridProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)),
      hdd_(profile_.hdd, seed),
      ssd_(profile_.ssd),
      max_blocks_(static_cast<std::size_t>(std::max<byte_count>(
          1, profile_.ssd_capacity / profile_.block_size))) {}

AccessCosts HybridHddSsd::InsertBlock(byte_count block, bool dirty) {
  AccessCosts writeback{};
  auto it = blocks_.find(block);
  if (it != blocks_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    it->second.dirty = it->second.dirty || dirty;
    return writeback;
  }
  lru_.push_front(block);
  blocks_.emplace(block, BlockState{lru_.begin(), dirty});
  while (blocks_.size() > max_blocks_) {
    const byte_count victim = lru_.back();
    auto vit = blocks_.find(victim);
    if (vit->second.dirty) {
      ++stats_.dirty_evictions;
      const AccessCosts hdd_cost = hdd_.Access(
          IoKind::kWrite, victim * profile_.block_size, profile_.block_size);
      writeback.positioning += hdd_cost.positioning;
      writeback.transfer += hdd_cost.transfer;
    }
    blocks_.erase(vit);
    lru_.pop_back();
  }
  return writeback;
}

AccessCosts HybridHddSsd::Access(IoKind kind, byte_count offset,
                                 byte_count size) {
  S4D_CHECK(size > 0) << "hybrid device access of " << size << " bytes at "
                      << offset;
  const byte_count first = offset / profile_.block_size;
  const byte_count last = (offset + size - 1) / profile_.block_size;

  AccessCosts total{};
  byte_count hit_bytes = 0;
  byte_count miss_bytes = 0;
  byte_count miss_begin = -1;
  byte_count miss_end = -1;

  for (byte_count block = first; block <= last; ++block) {
    const bool hit = blocks_.find(block) != blocks_.end();
    if (hit) {
      ++stats_.block_hits;
      hit_bytes += profile_.block_size;
    } else {
      ++stats_.block_misses;
      miss_bytes += profile_.block_size;
      if (miss_begin < 0) miss_begin = block;
      miss_end = block;
    }
    const AccessCosts writeback =
        InsertBlock(block, kind == IoKind::kWrite);
    total.positioning += writeback.positioning;
    total.transfer += writeback.transfer;
  }

  if (kind == IoKind::kWrite) {
    // Write-back: the SSD absorbs the whole write.
    const AccessCosts ssd_cost = ssd_.Access(kind, offset, size);
    total.positioning += ssd_cost.positioning;
    total.transfer += ssd_cost.transfer;
    return total;
  }

  // Read: SSD serves the hit bytes, the HDD serves the missing span (one
  // contiguous HDD access covering first..last missing block).
  if (hit_bytes > 0) {
    const AccessCosts ssd_cost = ssd_.Access(kind, offset, hit_bytes);
    total.positioning += ssd_cost.positioning;
    total.transfer += ssd_cost.transfer;
  }
  if (miss_bytes > 0) {
    const AccessCosts hdd_cost =
        hdd_.Access(kind, miss_begin * profile_.block_size,
                    (miss_end - miss_begin + 1) * profile_.block_size);
    total.positioning += hdd_cost.positioning;
    total.transfer += hdd_cost.transfer;
  }
  return total;
}

void HybridHddSsd::Reset() {
  hdd_.Reset();
  ssd_.Reset();
}

std::string HybridHddSsd::Describe() const {
  return "Hybrid(" + hdd_.Describe() + "+" + ssd_.Describe() + ")";
}

}  // namespace s4d::device
