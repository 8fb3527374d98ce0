// Test-only friend of DataMappingTable (declared in its header). It reads
// the table's private state for reference walks and corrupts it on purpose
// so the audit tests can prove AuditInvariants() catches each break.
#pragma once

#include <vector>

#include "core/dmt.h"

namespace s4d::core {

struct DmtTestPeer {
  // One table entry as a full scan sees it.
  struct ScannedExtent {
    FileIndex file = 0;
    byte_count begin = 0;
    byte_count end = 0;
    byte_count cache_offset = 0;
    bool dirty = false;
    std::uint64_t version = 0;
    SimTime dirty_since = 0;
    std::uint64_t lru_seq = 0;
  };

  // Every entry, clean or dirty, in file-then-offset order (files in the
  // order of their first mapping).
  static std::vector<ScannedExtent> Scan(const DataMappingTable& dmt) {
    std::vector<ScannedExtent> out;
    for (const FileIndex file : dmt.order_) {
      const auto& extents = dmt.files_[file].extents;
      for (auto it = extents.begin(); it != extents.end(); ++it) {
        const DataMappingTable::Entry& entry = dmt.slab_[it.slot()];
        out.push_back(ScannedExtent{file, entry.begin, entry.end,
                                    entry.cache_offset, entry.dirty,
                                    entry.version, entry.dirty_since,
                                    entry.lru_seq});
      }
    }
    return out;
  }

  // Every flush mark (BeginFlush) as {file, begin, marked version}, in
  // the order Scan lists the entries. A mark may name an older version
  // than its entry's (the entry was re-dirtied under the flush).
  static std::vector<DirtyExtentKey> FlushMarks(const DataMappingTable& dmt) {
    std::vector<DirtyExtentKey> out;
    for (const FileIndex file : dmt.order_) {
      const auto& extents = dmt.files_[file].extents;
      for (auto it = extents.begin(); it != extents.end(); ++it) {
        const DataMappingTable::Entry& entry = dmt.slab_[it.slot()];
        if (entry.flushing != DataMappingTable::kNotFlushing) {
          out.push_back(DirtyExtentKey{file, entry.begin, entry.flushing});
        }
      }
    }
    return out;
  }

  // The version of the extent beginning at `begin`; it must exist.
  static std::uint64_t VersionAt(const DataMappingTable& dmt, FileIndex file,
                                 byte_count begin) {
    return dmt.slab_[dmt.files_.at(file).extents.find(begin).slot()].version;
  }

  static void StretchFirstExtent(DataMappingTable& dmt, byte_count delta) {
    // Makes the first extent overlap its successor (or disagree with the
    // mapped-bytes counter when there is no successor).
    dmt.slab_[dmt.files_.at(0).extents.begin().slot()].end += delta;
  }
  static void SkewMappedBytes(DataMappingTable& dmt, byte_count delta) {
    dmt.mapped_bytes_ += delta;
  }
  static void DropLruEntry(DataMappingTable& dmt) {
    dmt.lru_.erase(dmt.lru_.begin());
  }
  // Forgets file 0's first dirty extent in the dirty-extent index.
  static void DropDirtyIndexEntry(DataMappingTable& dmt) {
    auto& index = dmt.files_.at(0).dirty;
    index.erase(index.begin());
  }
  // Lists file 0's first extent in the dirty-extent index, dirty or not.
  static void IndexFirstExtentAsDirty(DataMappingTable& dmt) {
    auto& file = dmt.files_.at(0);
    file.dirty.insert(file.extents.begin().key(), file.extents.begin().slot());
  }
  // A stale clean LRU index: file 0's first dirty extent stays listed, as
  // if dirtying it had not unindexed it.
  static void IndexFirstDirtyExtentAsClean(DataMappingTable& dmt) {
    const auto slot = dmt.files_.at(0).dirty.begin().slot();
    dmt.lru_.insert(dmt.slab_[slot].lru_seq, slot);
  }
  // Puts a live slot (file 0's first extent's) on the slab's free list.
  static void FreeLiveSlot(DataMappingTable& dmt) {
    dmt.free_slots_.push_back(dmt.files_.at(0).extents.begin().slot());
  }
  // Loses a free slot: it is neither live nor on the free list.
  static void LeakFreeSlot(DataMappingTable& dmt) {
    dmt.free_slots_.pop_back();
  }
  // Rewrites the owner file 0's first extent records.
  static void SetFirstExtentOwner(DataMappingTable& dmt, int owner) {
    dmt.slab_[dmt.files_.at(0).extents.begin().slot()].owner =
        static_cast<std::int16_t>(owner);
  }
  // Points file 0's first extent key at file 0's second entry.
  static void CrossExtentSlots(DataMappingTable& dmt) {
    auto& extents = dmt.files_.at(0).extents;
    auto it = extents.begin();
    const byte_count first = it.key();
    ++it;
    const auto second = it.slot();
    extents.erase(first);
    extents.insert(first, second);
  }
};

// The flush pass's runs as a full-table walk finds them, with no flush in
// flight: every entry of the scan in order, clean ones breaking runs.
inline std::vector<DirtyRun> ReferenceDirtyRuns(
    const std::vector<DmtTestPeer::ScannedExtent>& scan,
    byte_count max_total_bytes, byte_count max_run_bytes) {
  std::vector<DirtyRun> runs;
  byte_count total = 0;
  std::size_t i = 0;
  while (i < scan.size() && total < max_total_bytes) {
    const FileIndex file = scan[i].file;
    DirtyRun run;
    auto emit = [&] {
      if (!run.segments.empty()) {
        total += run.length();
        runs.push_back(std::move(run));
        run = DirtyRun{};
      }
    };
    for (; i < scan.size() && scan[i].file == file; ++i) {
      const DmtTestPeer::ScannedExtent& e = scan[i];
      if (total + run.length() >= max_total_bytes) break;
      if (!e.dirty) {
        emit();
        continue;
      }
      const bool continues = !run.segments.empty() && run.orig_end == e.begin &&
                             run.length() + (e.end - e.begin) <= max_run_bytes;
      if (!continues) emit();
      if (run.segments.empty()) {
        run.file = file;
        run.orig_begin = e.begin;
      }
      run.orig_end = e.end;
      run.segments.push_back(
          DirtyRange{file, e.begin, e.end, e.cache_offset, e.version});
    }
    emit();
    while (i < scan.size() && scan[i].file == file) ++i;  // budget spent
  }
  return runs;
}

}  // namespace s4d::core
