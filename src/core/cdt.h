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
// C_flagged entries queue in flag order for the Rebuilder. The queue is
// pruned lazily and holds each entry at most once: a key flagged again
// before its stale copy was pruned keeps that copy's place. An entry
// records the sequence number of its copy, so the copy an evicted key
// left behind reads as stale once the key is added again. The table also
// counts its live flags, which makes AnyPendingFetch() (the drain's idle
// check, polled every slice) O(1). Add looks a key up before inserting
// it: most critical requests recur.
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
  // charged to the right partition (-1 = untagged, the default).
  bool SetCacheFlag(const CdtKey& key, int owner = -1);

  // Clears C_flag once the Rebuilder has cached the range.
  void ClearCacheFlag(const CdtKey& key);

  bool CacheFlag(const CdtKey& key) const;

  // Up to `limit` distinct entries whose C_flag is set, oldest-marked
  // first, each with the owner recorded by SetCacheFlag. Consumes nothing
  // (the Rebuilder clears flags when fetches complete); stale queue copies
  // met on the way are dropped.
  std::vector<PendingFetch> PendingFetches(std::size_t limit);

  // True iff any entry currently has its C_flag set. O(1): the table
  // counts its live flags.
  bool AnyPendingFetch() const { return flagged_count_ > 0; }

  std::size_t size() const { return entries_.size(); }
  std::int64_t evictions() const { return evictions_; }

  // Moves on every Add that creates an entry and on every SetCacheFlag and
  // ClearCacheFlag of a known entry — everything that can change what
  // PendingFetches returns. The Rebuilder parks space-starved fetch passes
  // on it.
  std::uint64_t mutation_epoch() const { return mutation_epoch_; }

  // S4D_CHECKs the table's bookkeeping: the entry count within the bound,
  // the FIFO holding exactly the live keys (so eviction order is
  // well-defined), no live key queued twice and each entry's queued_seq
  // matching the queue, every C_flagged entry present in the fetch queue —
  // a flagged entry outside it would never be fetched by the Rebuilder —
  // and the live-flag count equal to the flagged entries.
  // O(entries + queued).
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

  struct Info {
    bool c_flag = false;
    int flag_owner = -1;  // tenant that marked the C_flag, -1 = untagged
    std::uint64_t queued_seq = 0;  // its copy in flagged_; 0 = none
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
  // Entries whose C_flag is set: SetCacheFlag, ClearCacheFlag and FIFO
  // eviction keep it exact, so AnyPendingFetch never walks flagged_.
  std::size_t flagged_count_ = 0;
  std::int64_t evictions_ = 0;
  std::uint64_t mutation_epoch_ = 0;
};

}  // namespace s4d::core
