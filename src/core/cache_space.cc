#include "core/cache_space.h"

#include "common/check.h"

namespace s4d::core {

CacheSpaceAllocator::CacheSpaceAllocator(byte_count capacity,
                                         byte_count spread_granularity)
    : capacity_(capacity),
      free_bytes_(capacity),
      spread_granularity_(spread_granularity) {
  S4D_CHECK(capacity >= 0) << "negative cache capacity " << capacity;
  S4D_CHECK(spread_granularity >= 0)
      << "negative spread granularity " << spread_granularity;
  if (capacity > 0) free_.emplace(0, capacity);
}

std::optional<byte_count> CacheSpaceAllocator::AllocateAtOrAfter(
    byte_count from, byte_count size) {
  auto it = free_.lower_bound(from);
  // The extent straddling `from` also qualifies if its tail fits.
  if (it != free_.begin()) {
    auto prev = std::prev(it);
    if (prev->second - from >= size && prev->second > from) it = prev;
  }
  for (; it != free_.end(); ++it) {
    const byte_count begin = std::max(it->first, from);
    if (it->second - begin < size) continue;
    const byte_count extent_begin = it->first;
    const byte_count extent_end = it->second;
    free_.erase(it);
    if (extent_begin < begin) free_.emplace(extent_begin, begin);
    if (begin + size < extent_end) free_.emplace(begin + size, extent_end);
    free_bytes_ -= size;
    return begin;
  }
  return std::nullopt;
}

std::optional<byte_count> CacheSpaceAllocator::Allocate(byte_count size,
                                                        int owner) {
  S4D_CHECK(size > 0) << "allocating " << size << " bytes";
  if (size > free_bytes_) return std::nullopt;  // no extent can fit
  const byte_count from = spread_granularity_ > 0 ? hint_ : 0;
  auto offset = AllocateAtOrAfter(from, size);
  if (!offset && from > 0) offset = AllocateAtOrAfter(0, size);  // wrap
  if (!offset) return std::nullopt;
  Charge(owner, size);
  if (spread_granularity_ > 0) {
    // Rotate the next search start to the following stripe.
    hint_ = (*offset + std::max(size, spread_granularity_)) % capacity_;
    hint_ = hint_ / spread_granularity_ * spread_granularity_;
  }
  MaybeAudit();
  return offset;
}

bool CacheSpaceAllocator::Reserve(byte_count offset, byte_count size) {
  S4D_CHECK(size > 0) << "reserving " << size << " bytes";
  if (offset < 0 || offset + size > capacity_) return false;
  auto it = free_.upper_bound(offset);
  if (it == free_.begin()) return false;
  --it;
  if (it->first > offset || it->second < offset + size) return false;

  const byte_count extent_begin = it->first;
  const byte_count extent_end = it->second;
  free_.erase(it);
  if (extent_begin < offset) free_.emplace(extent_begin, offset);
  if (offset + size < extent_end) free_.emplace(offset + size, extent_end);
  free_bytes_ -= size;
  Charge(0, size);
  MaybeAudit();
  return true;
}

void CacheSpaceAllocator::Free(byte_count offset, byte_count size,
                               int owner) {
  S4D_CHECK(size > 0) << "freeing " << size << " bytes";
  S4D_CHECK(offset >= 0 && offset + size <= capacity_)
      << "freeing [" << offset << ", " << offset + size
      << ") outside capacity " << capacity_;
  Charge(owner, -size);
  auto next = free_.lower_bound(offset);
  // Double-free / overlap checks: the freed range must not intersect any
  // extent already in the free pool.
  S4D_CHECK(next == free_.end() || offset + size <= next->first)
      << "double free: [" << offset << ", " << offset + size
      << ") overlaps free extent at " << next->first;
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    S4D_CHECK(prev->second <= offset)
        << "double free: [" << offset << ", " << offset + size
        << ") overlaps free extent ending at " << prev->second;
    if (prev->second == offset) {
      // Coalesce with predecessor.
      prev->second = offset + size;
      free_bytes_ += size;
      if (next != free_.end() && prev->second == next->first) {
        prev->second = next->second;
        free_.erase(next);
      }
      MaybeAudit();
      return;
    }
  }
  byte_count end = offset + size;
  if (next != free_.end() && end == next->first) {
    end = next->second;
    free_.erase(next);
  }
  free_.emplace(offset, end);
  free_bytes_ += size;
  MaybeAudit();
}

void CacheSpaceAllocator::EnablePartitionTracking(int owner_count) {
  S4D_CHECK(owner_count > 0) << "partition tracking with " << owner_count
                             << " owners";
  S4D_CHECK(used_by_.empty()) << "partition tracking enabled twice";
  used_by_.assign(static_cast<std::size_t>(owner_count), 0);
  // Everything already allocated (DMT recovery reservations) belongs to
  // the catch-all owner 0.
  used_by_[0] = used_bytes();
  MaybeAudit();
}

void CacheSpaceAllocator::Charge(int owner, byte_count delta) {
  if (used_by_.empty()) return;
  used_by_[static_cast<std::size_t>(PartitionOf(owner))] += delta;
}

byte_count CacheSpaceAllocator::used_by(int owner) const {
  if (owner < 0 || owner >= owner_count()) return 0;
  return used_by_[static_cast<std::size_t>(owner)];
}

void CacheSpaceAllocator::AuditInvariants() const {
  byte_count total_free = 0;
  byte_count prev_end = 0;
  bool first = true;
  for (const auto& [begin, end] : free_) {
    S4D_CHECK(begin >= 0 && end <= capacity_)
        << "free extent [" << begin << ", " << end << ") outside capacity "
        << capacity_;
    S4D_CHECK(end > begin)
        << "empty/negative free extent [" << begin << ", " << end << ")";
    S4D_CHECK(first || begin > prev_end)
        << "free extents not disjoint/coalesced: previous ends at "
        << prev_end << ", next begins at " << begin;
    total_free += end - begin;
    prev_end = end;
    first = false;
  }
  S4D_CHECK(total_free == free_bytes_)
      << "free_bytes counter " << free_bytes_ << " != recomputed "
      << total_free << " (used " << used_bytes() << " + free " << free_bytes_
      << " must equal capacity " << capacity_ << ")";

  byte_count charged = 0;
  for (int o = 0; o < owner_count(); ++o) {
    const byte_count used = used_by_[static_cast<std::size_t>(o)];
    S4D_CHECK(used >= 0) << "owner " << o << " used_by counter " << used
                         << " is negative";
    charged += used;
  }
  S4D_CHECK(!partition_tracking() || charged == used_bytes())
      << "sum of per-owner used_by " << charged << " != allocated "
      << used_bytes();
}

bool CacheSpaceAllocator::IsAllocated(byte_count offset,
                                      byte_count size) const {
  if (size <= 0 || offset < 0 || offset + size > capacity_) return false;
  auto it = free_.lower_bound(offset);
  if (it != free_.end() && it->first < offset + size) return false;
  if (it != free_.begin() && std::prev(it)->second > offset) return false;
  return true;
}

byte_count CacheSpaceAllocator::largest_free_extent() const {
  byte_count largest = 0;
  for (const auto& [begin, end] : free_) {
    largest = std::max(largest, end - begin);
  }
  return largest;
}

}  // namespace s4d::core
