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

std::optional<byte_count> CacheSpaceAllocator::Allocate(byte_count size) {
  S4D_CHECK(size > 0) << "allocating " << size << " bytes";
  if (size > free_bytes_) return std::nullopt;  // no extent can fit
  const byte_count from = spread_granularity_ > 0 ? hint_ : 0;
  auto offset = AllocateAtOrAfter(from, size);
  if (!offset && from > 0) offset = AllocateAtOrAfter(0, size);  // wrap
  if (!offset) return std::nullopt;
  ++free_epoch_;
  ChargeRange(*offset, size);
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
  ++free_epoch_;
  ChargeRange(offset, size);
  MaybeAudit();
  return true;
}

void CacheSpaceAllocator::Free(byte_count offset, byte_count size) {
  S4D_CHECK(size > 0) << "freeing " << size << " bytes";
  S4D_CHECK(offset >= 0 && offset + size <= capacity_)
      << "freeing [" << offset << ", " << offset + size
      << ") outside capacity " << capacity_;
  ++free_epoch_;
  UnchargeRange(offset, size);
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
  charge_owner_ = 0;
  // Charge everything already allocated (DMT recovery reservations) to the
  // catch-all owner 0: the owner map must cover the complement of the free
  // list at all times.
  byte_count cursor = 0;
  for (const auto& [begin, end] : free_) {
    if (begin > cursor) {
      owners_.emplace(cursor, OwnedRange{begin, 0});
      used_by_[0] += begin - cursor;
    }
    cursor = end;
  }
  if (cursor < capacity_) {
    owners_.emplace(cursor, OwnedRange{capacity_, 0});
    used_by_[0] += capacity_ - cursor;
  }
  MaybeAudit();
}

void CacheSpaceAllocator::set_charge_owner(int owner) {
  if (used_by_.empty()) return;
  charge_owner_ =
      (owner >= 0 && owner < owner_count()) ? owner : 0;
}

byte_count CacheSpaceAllocator::used_by(int owner) const {
  if (owner < 0 || owner >= owner_count()) return 0;
  return used_by_[static_cast<std::size_t>(owner)];
}

int CacheSpaceAllocator::OwnerOf(byte_count offset, byte_count size) const {
  if (used_by_.empty() || size <= 0) return kNoOwner;
  auto it = owners_.upper_bound(offset);
  if (it == owners_.begin()) return kNoOwner;
  --it;
  int owner = kNoOwner;
  byte_count covered = offset;
  // Walk (possibly several coales-blocked) owner ranges until the query
  // range is covered; any gap or owner change means "no single owner".
  for (; it != owners_.end() && covered < offset + size; ++it) {
    if (it->first > covered) return kNoOwner;  // gap (free bytes)
    if (it->second.end <= covered) continue;   // entirely before the query
    if (owner == kNoOwner) {
      owner = it->second.owner;
    } else if (owner != it->second.owner) {
      return kNoOwner;
    }
    covered = it->second.end;
  }
  return covered >= offset + size ? owner : kNoOwner;
}

void CacheSpaceAllocator::ChargeRange(byte_count offset, byte_count size) {
  if (used_by_.empty()) return;
  const byte_count end = offset + size;
  used_by_[static_cast<std::size_t>(charge_owner_)] += size;
  // The range was free a moment ago, so it overlaps no owned range; only
  // coalescing with same-owner neighbours is possible.
  byte_count begin = offset;
  byte_count new_end = end;
  auto next = owners_.lower_bound(offset);
  if (next != owners_.begin()) {
    auto prev = std::prev(next);
    S4D_CHECK(prev->second.end <= offset)
        << "charging [" << offset << ", " << end
        << ") over owned range ending at " << prev->second.end;
    if (prev->second.end == offset && prev->second.owner == charge_owner_) {
      begin = prev->first;
      owners_.erase(prev);
    }
  }
  if (next != owners_.end()) {
    S4D_CHECK(next->first >= end)
        << "charging [" << offset << ", " << end
        << ") over owned range at " << next->first;
    if (next->first == end && next->second.owner == charge_owner_) {
      new_end = next->second.end;
      owners_.erase(next);
    }
  }
  owners_.emplace(begin, OwnedRange{new_end, charge_owner_});
}

void CacheSpaceAllocator::UnchargeRange(byte_count offset, byte_count size) {
  if (used_by_.empty()) return;
  const byte_count end = offset + size;
  auto it = owners_.upper_bound(offset);
  S4D_CHECK(it != owners_.begin())
      << "freeing unowned range [" << offset << ", " << end << ")";
  --it;
  byte_count covered = offset;
  while (covered < end) {
    S4D_CHECK(it != owners_.end() && it->first <= covered &&
              it->second.end > covered)
        << "freeing range [" << offset << ", " << end
        << ") not fully owned (gap at " << covered << ")";
    const byte_count range_begin = it->first;
    const OwnedRange range = it->second;
    const byte_count cut_begin = std::max(range_begin, offset);
    const byte_count cut_end = std::min(range.end, end);
    used_by_[static_cast<std::size_t>(range.owner)] -= cut_end - cut_begin;
    it = owners_.erase(it);
    if (range_begin < cut_begin) {
      owners_.emplace(range_begin, OwnedRange{cut_begin, range.owner});
    }
    if (cut_end < range.end) {
      it = owners_.emplace(cut_end, OwnedRange{range.end, range.owner}).first;
    }
    covered = cut_end;
  }
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

  if (used_by_.empty()) {
    S4D_CHECK(owners_.empty()) << "owner map populated without tracking";
    return;
  }
  std::vector<byte_count> recomputed(used_by_.size(), 0);
  byte_count owned_total = 0;
  byte_count prev_owned_end = 0;
  bool first_owned = true;
  for (const auto& [begin, range] : owners_) {
    S4D_CHECK(begin >= 0 && range.end <= capacity_)
        << "owned range [" << begin << ", " << range.end
        << ") outside capacity " << capacity_;
    S4D_CHECK(range.end > begin)
        << "empty/negative owned range [" << begin << ", " << range.end << ")";
    S4D_CHECK(range.owner >= 0 && range.owner < owner_count())
        << "owned range [" << begin << ", " << range.end
        << ") has invalid owner " << range.owner;
    S4D_CHECK(first_owned || begin >= prev_owned_end)
        << "owned ranges overlap: extent charged to two owners near "
        << begin;
    S4D_CHECK(IsAllocated(begin, range.end - begin))
        << "owned range [" << begin << ", " << range.end
        << ") overlaps the free pool";
    recomputed[static_cast<std::size_t>(range.owner)] += range.end - begin;
    owned_total += range.end - begin;
    prev_owned_end = range.end;
    first_owned = false;
  }
  S4D_CHECK(owned_total == used_bytes())
      << "owner map covers " << owned_total << " bytes but " << used_bytes()
      << " are allocated";
  byte_count charged_total = 0;
  for (int o = 0; o < owner_count(); ++o) {
    S4D_CHECK(recomputed[static_cast<std::size_t>(o)] ==
              used_by_[static_cast<std::size_t>(o)])
        << "owner " << o << " used_by counter "
        << used_by_[static_cast<std::size_t>(o)] << " != recomputed "
        << recomputed[static_cast<std::size_t>(o)];
    charged_total += used_by_[static_cast<std::size_t>(o)];
  }
  S4D_CHECK(charged_total == used_bytes())
      << "sum of per-owner used " << charged_total << " != allocated "
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
