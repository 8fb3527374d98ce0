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
      for (const auto& [begin, entry] : dmt.files_[file].extents) {
        out.push_back(ScannedExtent{file, begin, entry.end,
                                    entry.cache_offset, entry.dirty,
                                    entry.version, entry.dirty_since,
                                    entry.lru_seq});
      }
    }
    return out;
  }

  static void StretchFirstExtent(DataMappingTable& dmt, byte_count delta) {
    // Makes the first extent overlap its successor (or disagree with the
    // mapped-bytes counter when there is no successor).
    dmt.files_.at(0).extents.begin()->second.end += delta;
  }
  static void SkewMappedBytes(DataMappingTable& dmt, byte_count delta) {
    dmt.mapped_bytes_ += delta;
  }
  static void DropLruEntry(DataMappingTable& dmt) {
    dmt.lru_index_.erase(dmt.lru_index_.begin());
  }
  // Forgets file 0's first dirty extent in the dirty-extent index.
  static void DropDirtyIndexEntry(DataMappingTable& dmt) {
    auto& index = dmt.files_.at(0).dirty;
    index.erase(index.begin());
  }
  // Lists file 0's first extent in the dirty-extent index, dirty or not.
  static void IndexFirstExtentAsDirty(DataMappingTable& dmt) {
    auto& file = dmt.files_.at(0);
    file.dirty.emplace(file.extents.begin()->first,
                       &file.extents.begin()->second);
  }
  // A stale clean LRU index: file 0's first dirty extent stays listed, as
  // if dirtying it had not unindexed it.
  static void IndexFirstDirtyExtentAsClean(DataMappingTable& dmt) {
    auto& file = dmt.files_.at(0);
    const auto it = file.extents.find(file.dirty.begin()->first);
    dmt.lru_index_.emplace(it->second.lru_seq,
                           DataMappingTable::LruRef{0, it});
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
