// Critical Data Table (CDT), §III-C Fig. 5.
//
// Each entry records one performance-critical request: (D_file, D_offset,
// Length) plus the C_flag that tells the Rebuilder the range still needs to
// be fetched into CServers ("lazy" read caching, §III-E line 18).
// Lookup is exact-match on (file, offset, length) — the table exists to
// recognize *recurring* requests, and MPI applications re-issue requests
// with identical shapes across runs (§V-A).
//
// The table is bounded: when full, the oldest entries are dropped FIFO
// (the paper leaves CDT sizing unspecified; an unbounded table would grow
// with every unique critical request ever seen).
//
// C_flagged entries queue in flag order for the Rebuilder; the queue is
// pruned lazily, so the table also counts its live flags, which makes
// AnyPendingFetch() (the drain's idle check, polled every slice) O(1).
// Add looks a key up before inserting it: most critical requests recur.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"

namespace s4d::core {

struct CdtKey {
  std::string file;
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
  std::size_t operator()(const CdtKey& k) const {
    std::size_t h = std::hash<std::string>{}(k.file);
    h ^= std::hash<byte_count>{}(k.offset) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    h ^= std::hash<byte_count>{}(k.length) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return h;
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

  // Up to `limit` entries whose C_flag is set, oldest-marked first, each
  // with the owner recorded by SetCacheFlag. Consumes nothing (the
  // Rebuilder clears flags when fetches complete); stale queue entries
  // met on the way are dropped at O(1) each.
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
  // well-defined), every C_flagged entry present in the fetch queue — a
  // flagged entry outside it would never be fetched by the Rebuilder — and
  // the live-flag count equal to the flagged entries. O(entries + queued).
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
  };

  std::size_t max_entries_;
  std::unordered_map<CdtKey, Info, CdtKeyHash> entries_;
  std::deque<CdtKey> insertion_order_;   // FIFO eviction
  std::deque<CdtKey> flagged_;           // SetCacheFlag order, lazily pruned
  // Entries whose C_flag is set: SetCacheFlag, ClearCacheFlag and FIFO
  // eviction keep it exact, so AnyPendingFetch never walks flagged_.
  std::size_t flagged_count_ = 0;
  std::int64_t evictions_ = 0;
  std::uint64_t mutation_epoch_ = 0;
};

}  // namespace s4d::core
