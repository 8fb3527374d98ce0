// Data Mapping Table (DMT), §III-D Fig. 5.
//
// Tracks which byte ranges of each original (DServer) file are cached in
// the corresponding cache (CServer) file, where they live there, and
// whether the cached copy is dirty (D_flag). Files are named by their
// dense id (file_table.h). The table supports range lookup, splitting on
// partial overwrite/invalidation, LRU victim selection over *clean*
// extents (the LRU index holds only those, so eviction never walks past
// dirty data), and a per-extent version counter that lets the Rebuilder
// detect writes that raced with an in-flight flush.
//
// The entries live in one slab (a vector with a free list, so each has a
// stable 32-bit slot id), indexed by three flat B+-trees
// (common/flat_btree.h): each file's extents by begin, each file's dirty
// extents by begin, and the clean extents by LRU sequence. Lookups,
// touches, dirty<->clean flips and the flush walk read contiguous arrays,
// and a table at its working size allocates nothing.
//
// When constructed with a KvStore, every mutation is written through to the
// store (the paper persists the DMT synchronously via Berkeley DB so it
// survives power failures); LoadFromStore() rebuilds the table on restart.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_btree.h"
#include "common/inline_vector.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/units.h"
#include "core/file_table.h"
#include "kvstore/kvstore.h"

namespace s4d::core {

// One contiguous piece of a lookup result.
struct MappedSegment {
  byte_count orig_begin = 0;
  byte_count orig_end = 0;
  byte_count cache_offset = 0;  // cache-file offset of orig_begin
  bool dirty = false;
};

// A query's mapped pieces and gaps, inline up to four of each: most
// requests touch one extent or none, so a lookup allocates nothing.
struct DmtLookup {
  InlineVector<MappedSegment, 4> mapped;  // ascending, clipped to the query
  InlineVector<std::pair<byte_count, byte_count>, 4> gaps;

  bool fully_mapped() const { return gaps.empty() && !mapped.empty(); }
  bool fully_unmapped() const { return mapped.empty(); }
};

// A mapping removed by eviction or invalidation; the caller returns
// [cache_offset, cache_offset + (orig_end - orig_begin)) to the allocator,
// crediting `owner`.
struct RemovedExtent {
  FileIndex file = 0;
  byte_count orig_begin = 0;
  byte_count orig_end = 0;
  byte_count cache_offset = 0;
  bool dirty = false;
  int owner = -1;  // the partition (tenant) the bytes are charged to

  byte_count length() const { return orig_end - orig_begin; }
};

// Names one dirty-extent snapshot by its file, begin and version: the
// flush the Rebuilder issues for it, marked in the table by BeginFlush. A
// re-dirtied extent has a new version and so a new key.
struct DirtyExtentKey {
  FileIndex file = 0;
  byte_count begin = 0;
  std::uint64_t version = 0;

  bool operator==(const DirtyExtentKey&) const = default;
};

// A dirty range snapshot handed to the Rebuilder for flushing.
struct DirtyRange {
  FileIndex file = 0;
  byte_count orig_begin = 0;
  byte_count orig_end = 0;
  byte_count cache_offset = 0;
  std::uint64_t version = 0;  // entry version at snapshot time

  DirtyExtentKey key() const { return {file, orig_begin, version}; }
};

// A run of dirty extents contiguous in *original-file* space. The segments
// are usually scattered in the cache file (admitted at different times),
// which is fine: the SSD reads them cheaply, and the write-back becomes one
// large sequential HDD write — the coalescing that lets the Rebuilder keep
// up with random-write admission.
struct DirtyRun {
  FileIndex file = 0;
  byte_count orig_begin = 0;
  byte_count orig_end = 0;
  std::vector<DirtyRange> segments;  // ascending, exactly covering the run

  byte_count length() const { return orig_end - orig_begin; }
};

class DataMappingTable {
 public:
  // `store` may be null (volatile DMT — used by tests and ablations). A
  // persisted DMT names its records by file name, so it needs `files`; a
  // volatile one never reads names.
  explicit DataMappingTable(kv::KvStore* store = nullptr,
                            FileTable* files = nullptr);

  // Rebuilds the in-memory table from the persisted records: all of them
  // or none. Every record is parsed and checked (begin >= 0, end > begin,
  // cache offset >= 0, D_flag 0 or 1, a version below the flush sentinel,
  // nothing after the four fields, no overlap with a neighbouring record
  // of its file) before any is loaded, so a Corruption leaves the table
  // empty. The table must be empty to load.
  Status LoadFromStore();

  DmtLookup Lookup(FileIndex file, byte_count offset, byte_count size) const;

  // Maps [offset, offset+size) -> cache [cache_offset, ...), recording
  // `owner`, the partition its cache bytes were allocated for (-1: none).
  // The range must currently be unmapped (callers Invalidate or fill gaps
  // only).
  void Insert(FileIndex file, byte_count offset, byte_count size,
              byte_count cache_offset, bool dirty, int owner = -1);

  // Removes all mappings overlapping [offset, offset+size), splitting
  // boundary entries. Returns the removed (clipped) extents.
  std::vector<RemovedExtent> Invalidate(FileIndex file, byte_count offset,
                                        byte_count size);

  // Sets/clears D_flag over the mapped parts of the range (splits entries
  // at the boundaries). Setting dirty bumps the entries' versions.
  void SetDirty(FileIndex file, byte_count offset, byte_count size,
                bool dirty);

  // LRU bump over mapped parts of the range (no splitting: recency applies
  // to whole entries).
  void Touch(FileIndex file, byte_count offset, byte_count size);

  // Removes and returns the least-recently-used *clean* mapping, or
  // nullopt when every mapping is dirty (or the table is empty).
  std::optional<RemovedExtent> EvictLruClean();

  // Like EvictLruClean(), but only mappings for which `pred` returns true
  // qualify (pred sees the candidate before removal). Walks the clean
  // extents oldest-first, so with an always-true predicate the selection
  // is identical to EvictLruClean(). Used by the tenant subsystem to
  // restrict victim selection to one cache partition.
  std::optional<RemovedExtent> EvictLruCleanIf(
      const std::function<bool(const RemovedExtent&)>& pred);

  // Snapshots dirty extents in file order (the order in which files got
  // their first mapping), coalescing extents adjacent in the original file
  // into runs of at most `max_run_bytes`, until about `max_total_bytes`
  // have been collected. A run holding an extent whose current version is
  // under flush (BeginFlush) is not materialised, but its bytes still
  // count toward `max_total_bytes`: the result is exactly the flush-free
  // runs of the full collection, in the same order.
  std::vector<DirtyRun> CollectDirtyRuns(byte_count max_total_bytes,
                                         byte_count max_run_bytes) const;

  // Marks the dirty extent `key` names (a DirtyRange::key() of the
  // current table, not already under flush at that version) as under flush
  // at its version. The mark stays with the entry's left part when it
  // splits and stops counting once the entry is re-dirtied (new version),
  // so a split's right half and a newer version flush again; flushing the
  // newer version moves the mark to it. EndFlush (an aborted flush) and
  // MarkCleanIfVersion (a written one) clear the mark if it still names
  // `key`'s version; the entry may be gone.
  void BeginFlush(const DirtyExtentKey& key);
  void EndFlush(const DirtyExtentKey& key);

  // The flush of [begin, end) at `version` has written it back: ends that
  // flush as EndFlush does, then clears D_flag on the entry exactly
  // spanning [begin, end) iff its version still equals `version` (no write
  // raced the flush). Returns whether the entry was cleaned.
  bool MarkCleanIfVersion(FileIndex file, byte_count begin, byte_count end,
                          std::uint64_t version);

  // Every current mapping (ascending per file, files in first-mapping
  // order). Used for recovery-time cache-space re-reservation and by
  // diagnostics.
  std::vector<RemovedExtent> AllExtents() const;

  // Every mapping, clean or dirty.
  std::size_t entry_count() const { return entry_count_; }
  byte_count mapped_bytes() const { return mapped_bytes_; }
  byte_count dirty_bytes() const { return dirty_bytes_; }

  // Moves whenever mapped coverage changes: on every Insert and every
  // removal (invalidation, eviction, recovery load). Dirty flips, touches
  // and splits leave it alone. The Rebuilder parks space-starved fetch
  // passes on it.
  std::uint64_t coverage_epoch() const { return coverage_epoch_; }

  // --- dirty-age accounting ----------------------------------------------
  // `clock` supplies the current simulated time; with it installed, every
  // clean→dirty transition stamps the extent (already-dirty extents keep
  // their original stamp — the age measures how long the *oldest write* in
  // the extent has been exposed to loss). The stamp is in-memory only: the
  // persisted record format is unchanged, so a recovered DMT restarts ages
  // at load time. No clock (the default) stamps 0 and the summary below
  // degenerates gracefully.
  void SetClock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  struct DirtyAgeSummary {
    std::int64_t dirty_extents = 0;
    SimTime oldest = 0;
    SimTime mean = 0;  // exact over every dirty extent
    SimTime p50 = 0;   // from a deterministic stride-decimation sample
  };
  // Walks the dirty-extent index and summarizes their ages at `now`. The p50
  // comes from a bounded sample thinned by deterministic doubling
  // decimation (no RNG — identical across runs and thread counts).
  DirtyAgeSummary SummarizeDirtyAges(SimTime now) const;

  // Walks the whole table and S4D_CHECKs the representation invariants:
  // each index's own layout (leaf order and minima, its leaf free list),
  // per-file extents sorted and non-overlapping with positive length, each
  // extent index key naming its entry, the slab's free list holding
  // exactly the slots no extent uses, the mapped/dirty byte and entry
  // counters equal to the recomputed sums, the clean LRU index holding
  // exactly the clean extents, the dirty-extent index holding exactly the
  // dirty extents, and versions below the allocator cursor.
  // O(entries log entries); aborts with the violated invariant on failure.
  // Paranoid builds (-DS4D_PARANOID=ON) run it automatically every few
  // mutations; tests call it directly.
  void AuditInvariants() const;

  // Serialized size of one persisted record; reported by bench_metadata to
  // reproduce the §V-E.1 space-overhead estimate.
  static std::size_t ApproxRecordBytes() { return 6 * 4; }

 private:
  friend struct DmtTestPeer;  // corruption injection in test_invariants

  using Slot = FlatBTree<byte_count>::Slot;
  using ExtentIndex = FlatBTree<byte_count>;  // begin -> slot

  // No version reaches this value: the entry is not under flush.
  static constexpr std::uint64_t kNotFlushing = ~std::uint64_t{0};

  struct Entry {
    byte_count begin = 0;
    byte_count end = 0;           // exclusive
    byte_count cache_offset = 0;  // of the entry's begin
    std::uint64_t version = 0;
    std::uint64_t lru_seq = 0;
    // The version a flush in flight snapshotted (BeginFlush). The extent
    // is under flush while this equals `version`. A split's right half
    // starts with no mark, as it has a new begin.
    std::uint64_t flushing = kNotFlushing;
    // When the extent last transitioned clean→dirty (0 = no clock or
    // clean). In-memory only — never persisted. Splits copy the Entry, so
    // both halves keep the original exposure time.
    SimTime dirty_since = 0;
    FileIndex file = 0;
    // The partition the extent's cache bytes are charged to (Insert); a
    // split's halves keep it. In-memory only, like dirty_since: a recovered
    // extent records -1, i.e. partition 0, which holds recovered bytes.
    std::int16_t owner = -1;
    bool dirty = false;
  };
  // The owner fits in what was padding: one entry per cache line.
  static_assert(sizeof(Entry) <= 64, "DMT entry outgrew a cache line");

  // One file's extents and the index of its dirty ones: the flush and
  // dirty-age walks visit only these, in offset order.
  struct File {
    ExtentIndex extents;
    ExtentIndex dirty;
    bool mapped = false;  // listed in order_
  };

  // Grows files_ to hold `file`; its first mapping lists it in order_.
  File& MappedFile(FileIndex file);

  Slot NewSlot();
  // Puts a clean, unindexed entry in the slab and the file's extent index
  // and counts it; the caller sets its D_flag and LRU place.
  Slot AddEntry(FileIndex file, byte_count begin, byte_count end,
                byte_count cache_offset, std::uint64_t version);

  // First entry a range query at `offset` must examine: the entry covering
  // `offset` if any, else the first entry past it.
  ExtentIndex::Iterator FirstOverlap(const ExtentIndex& extents,
                                     byte_count offset) const;

  // Splits the entry containing `pos` (if any) so `pos` becomes a boundary.
  void SplitAt(FileIndex file, byte_count pos);

  // Gives the entry the newest LRU sequence number; a clean entry joins
  // the LRU index under it.
  void IndexLru(Slot slot);

  // Sets an entry's D_flag, keeping dirty_bytes_, the dirty-extent index
  // and the clean LRU index in step. A clean→dirty flip stamps the
  // exposure time; a cleaned entry rejoins the LRU index under the
  // sequence number it kept.
  void SetEntryDirty(Slot slot, bool dirty);

  // Removes an entry from the dirty and LRU indexes, the counters and the
  // store, and frees its slot; the caller erases it from its extent index.
  void ForgetEntry(Slot slot);

  void PersistEntry(const Entry& entry);
  void ErasePersisted(FileIndex file, byte_count begin);

  // Paranoid-build hook: audits every 8th mutation (deterministic stride —
  // the full walk after every mutation would make the fuzz suites
  // quadratic).
#ifdef S4D_PARANOID
  void MaybeAudit() const {
    if ((++audit_tick_ & 7) == 0) AuditInvariants();
  }
  mutable std::uint64_t audit_tick_ = 0;
#else
  void MaybeAudit() const {}
#endif

  SimTime ClockNow() const { return clock_ ? clock_() : 0; }

  kv::KvStore* store_;
  FileTable* names_;
  std::function<SimTime()> clock_;
  std::vector<Entry> slab_;        // by slot, live or free
  std::vector<Slot> free_slots_;   // slots of no entry, reused first
  std::vector<File> files_;        // by file id
  // Files in the order of their first mapping: the order of the flush,
  // dirty-age and AllExtents walks, whatever order the ids came in.
  std::vector<FileIndex> order_;
  // Clean extents only, by lru_seq: the first one is the LRU victim.
  FlatBTree<std::uint64_t> lru_;
  std::uint64_t next_lru_seq_ = 1;
  std::uint64_t next_version_ = 1;
  std::size_t entry_count_ = 0;
  byte_count mapped_bytes_ = 0;
  byte_count dirty_bytes_ = 0;
  std::uint64_t coverage_epoch_ = 0;
};

}  // namespace s4d::core
