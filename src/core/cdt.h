// Critical Data Table (CDT), §III-C Fig. 5.
//
// Each entry records one performance-critical request: (D_file, D_offset,
// Length), the file named by its dense id (file_table.h), plus the C_flag
// that tells the Rebuilder the range still needs to be fetched into
// CServers ("lazy" read caching, §III-E line 18).
// Lookup is exact-match on (file, offset, length) — the table exists to
// recognize *recurring* requests, and MPI applications re-issue requests
// with identical shapes across runs (§V-A).
//
// The table is bounded: when full, the oldest entries are dropped FIFO
// (the paper leaves CDT sizing unspecified; an unbounded table would grow
// with every unique critical request ever seen).
//
// C_flagged entries queue in flag order for the Rebuilder, which takes
// each mark once (TakePendingFetches): a taken range that cannot be
// fetched is dropped, and its next critical read miss marks it again. An
// entry is flagged exactly while it records the sequence number of its
// queue copy, so the copy an evicted key left behind reads as stale once
// the key is added again, and a key is queued at most once. The table
// also counts its live flags, which makes AnyPendingFetch() (the drain's
// idle check, polled every slice) O(1). Add looks a key up before
// inserting it: most critical requests recur.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "core/file_table.h"

namespace s4d::core {

struct CdtKey {
  FileIndex file = 0;
  byte_count offset = 0;
  byte_count length = 0;

  friend bool operator==(const CdtKey&, const CdtKey&) = default;
};

// A C_flagged entry awaiting its background fetch, with the tenant whose
// read marked it (-1 = untagged).
struct PendingFetch {
  CdtKey key;
  int owner = -1;
};

struct CdtKeyHash {
  // Multiplicative mix of the three integers; the high half folds into the
  // low bits the bucket index is taken from.
  std::size_t operator()(const CdtKey& k) const noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(k.offset) ^
                      (static_cast<std::uint64_t>(k.length) << 24) ^
                      (std::uint64_t{k.file} << 48);
    h *= 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

class CriticalDataTable {
 public:
  explicit CriticalDataTable(std::size_t max_entries = 1 << 20)
      : max_entries_(max_entries) {}

  // Records a critical request; no-op if already present.
  // Returns true if a new entry was created.
  bool Add(const CdtKey& key);

  bool Contains(const CdtKey& key) const {
    return entries_.find(key) != entries_.end();
  }

  // Sets C_flag — the range should be fetched into CServers by the
  // Rebuilder. Returns false if the entry is unknown. `owner` tags the
  // tenant whose read marked the flag, so the eventual background fetch is
  // charged to the right partition (-1 = untagged, the default); marking
  // a flagged entry again retags it and keeps its place in the queue.
  bool SetCacheFlag(const CdtKey& key, int owner = -1);

  bool CacheFlag(const CdtKey& key) const;

  // Takes up to `limit` flagged entries, oldest-marked first, each with
  // the owner recorded by SetCacheFlag, and clears their C_flags: each
  // mark is one fetch attempt. Stale queue copies met on the way are
  // dropped.
  std::vector<PendingFetch> TakePendingFetches(std::size_t limit);

  // True iff any entry currently has its C_flag set. O(1): the table
  // counts its live flags.
  bool AnyPendingFetch() const { return flagged_count_ > 0; }
  std::size_t pending_fetches() const { return flagged_count_; }

  std::size_t size() const { return entries_.size(); }
  std::int64_t evictions() const { return evictions_; }

  // S4D_CHECKs the table's bookkeeping: the entry count within the bound,
  // the FIFO holding exactly the live keys (so eviction order is
  // well-defined), no live key queued twice, each flagged entry's
  // queued_seq naming a copy in the queue — a flagged entry outside it
  // would never be fetched by the Rebuilder — and the live-flag count
  // equal to the flagged entries. O(entries + queued).
  // Paranoid builds run it every few mutations; tests call it directly.
  void AuditInvariants() const;

 private:
  friend struct CdtTestPeer;  // corruption injection in test_cdt

  // Paranoid-build hook (stride keeps the fuzz suites from going
  // quadratic; the stride counter is deterministic).
#ifdef S4D_PARANOID
  void MaybeAudit() const {
    if ((++audit_tick_ & 7) == 0) AuditInvariants();
  }
  mutable std::uint64_t audit_tick_ = 0;
#else
  void MaybeAudit() const {}
#endif

  // C_flag is set exactly while queued_seq names a copy in flagged_.
  struct Info {
    int flag_owner = -1;  // tenant that marked the C_flag, -1 = untagged
    std::uint64_t queued_seq = 0;  // its copy in flagged_; 0 = unflagged
  };
  // A fetch-queue copy: live while its entry's queued_seq names it.
  struct QueuedKey {
    CdtKey key;
    std::uint64_t seq = 0;
  };

  std::size_t max_entries_;
  std::unordered_map<CdtKey, Info, CdtKeyHash> entries_;
  std::deque<CdtKey> insertion_order_;  // FIFO eviction
  std::deque<QueuedKey> flagged_;       // SetCacheFlag order, lazily pruned
  std::uint64_t queued_total_ = 0;      // copies ever queued: the last seq
  // Entries whose C_flag is set: SetCacheFlag, TakePendingFetches and FIFO
  // eviction keep it exact, so AnyPendingFetch never walks flagged_.
  std::size_t flagged_count_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace s4d::core
