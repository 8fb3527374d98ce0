// Contiguous-extent allocator over the cache file's logical space.
//
// The Redirector allocates one extent per admitted request out of the
// CServers' configured capacity (§III-E: "find free space in CServers").
// Freeing coalesces with neighbours, so space released by eviction or
// invalidation is immediately reusable. Clean-LRU victim *selection* lives
// in the DataMappingTable (the D_flag and recency are properties of
// mappings); this class only manages byte ranges.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/units.h"

namespace s4d::core {

class CacheSpaceAllocator {
 public:
  // `spread_granularity`, when non-zero, rotates the first-fit search start
  // by that amount per allocation (set it to the CPFS stripe size): without
  // it, consecutive small admissions pack into one stripe and serialize on
  // a single CServer instead of spreading over all N.
  explicit CacheSpaceAllocator(byte_count capacity,
                               byte_count spread_granularity = 0);

  // Contiguous allocation (rotating first-fit) charged to `owner` (see
  // the partition dimension below). nullopt when no fit.
  std::optional<byte_count> Allocate(byte_count size, int owner = -1);

  // Claims exactly [offset, offset+size) if that range is entirely free.
  // Used when recovering a persisted DMT whose mappings own fixed offsets;
  // the bytes are charged to owner 0, as recovered mappings record no owner.
  bool Reserve(byte_count offset, byte_count size);

  // Returns [offset, offset+size) to the free pool and credits `owner`,
  // the owner it was allocated for; the range must have been allocated
  // (possibly as part of a larger extent — partial frees of an allocation
  // are allowed and coalesce).
  void Free(byte_count offset, byte_count size, int owner = -1);

  // True iff [offset, offset+size) lies inside the capacity and intersects
  // no free extent — i.e. every byte of it is currently allocated. Used by
  // the cross-structure audit to prove each DMT extent owns its cache
  // bytes. O(log free extents).
  bool IsAllocated(byte_count offset, byte_count size) const;

  byte_count capacity() const { return capacity_; }
  byte_count free_bytes() const { return free_bytes_; }
  byte_count used_bytes() const { return capacity_ - free_bytes_; }
  byte_count largest_free_extent() const;
  std::size_t free_extent_count() const { return free_.size(); }

  // Fraction of capacity currently allocated, in [0, 1].
  double occupancy() const {
    return capacity_ > 0
               ? static_cast<double>(used_bytes()) /
                     static_cast<double>(capacity_)
               : 0.0;
  }
  // External fragmentation of the free pool: 1 - largest_free/free_bytes.
  // 0 when the free space is empty or one contiguous extent; approaches 1
  // as the free pool shatters into small extents.
  double fragmentation() const {
    return free_bytes_ > 0
               ? 1.0 - static_cast<double>(largest_free_extent()) /
                           static_cast<double>(free_bytes_)
               : 0.0;
  }

  // --- Partition (owner) dimension -------------------------------------
  //
  // When the tenant subsystem is active, the allocator counts the bytes
  // charged to each integer owner (tenant index): an allocation charges
  // the owner its caller names, and a free credits the owner its caller
  // names — the owner the freed DMT extent records, which is the one
  // record of who owns which bytes. Tracking is off by default and then
  // nothing is counted, so the single-tenant/paper-default path pays
  // nothing. Tracking never changes *which* extents Allocate() returns.

  // Turns on owner accounting with owners [0, owner_count). Any bytes
  // already allocated (e.g. extents reserved during DMT recovery) are
  // charged to owner 0. Must be called at most once.
  void EnablePartitionTracking(int owner_count);
  bool partition_tracking() const { return !used_by_.empty(); }
  int owner_count() const { return static_cast<int>(used_by_.size()); }

  // The owner `owner`'s bytes are charged to: itself when in
  // [0, owner_count()), else the catch-all owner 0 (-1 names no owner).
  int PartitionOf(int owner) const {
    return owner >= 0 && owner < owner_count() ? owner : 0;
  }

  // Bytes currently charged to `owner` (0 when tracking is off).
  byte_count used_by(int owner) const;

  // S4D_CHECKs the free-list invariants: extents inside [0, capacity),
  // positive length, sorted, pairwise disjoint with no coalescible
  // neighbours, and the free_bytes counter equal to the recomputed sum (so
  // used + free == capacity holds by construction). With partition tracking
  // on it additionally proves every per-owner counter non-negative and
  // their sum equal to used_bytes. O(free extents). Paranoid builds run it
  // after every mutation; tests call it directly.
  void AuditInvariants() const;

 private:
  friend struct CacheSpaceTestPeer;  // corruption injection in test_invariants

  // Paranoid-build hook (O(free extents) is cheap enough to run every time).
#ifdef S4D_PARANOID
  void MaybeAudit() const { AuditInvariants(); }
#else
  void MaybeAudit() const {}
#endif

  // First-fit scan over free extents, considering only offsets >= `from`.
  std::optional<byte_count> AllocateAtOrAfter(byte_count from,
                                              byte_count size);

  // Adds `delta` bytes to PartitionOf(owner)'s counter (no-op when
  // tracking is off).
  void Charge(int owner, byte_count delta);

  byte_count capacity_;
  byte_count free_bytes_;
  byte_count spread_granularity_;
  byte_count hint_ = 0;
  std::map<byte_count, byte_count> free_;  // begin -> end, disjoint, sorted
  // Per-owner charged bytes; empty unless EnablePartitionTracking() ran.
  std::vector<byte_count> used_by_;
};

}  // namespace s4d::core
