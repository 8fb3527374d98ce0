// Test-only friend of DataMappingTable (declared in its header). It reads
// the table's private state for reference walks and corrupts it on purpose
// so the audit tests can prove AuditInvariants() catches each break.
#pragma once

#include <string>
#include <vector>

#include "core/dmt.h"

namespace s4d::core {

struct DmtTestPeer {
  // One table entry as a full scan sees it.
  struct ScannedExtent {
    std::string file;
    byte_count begin = 0;
    byte_count end = 0;
    byte_count cache_offset = 0;
    bool dirty = false;
    std::uint64_t version = 0;
    SimTime dirty_since = 0;
    std::uint32_t file_index = 0;
  };

  // Every entry, clean or dirty, in file-then-offset order.
  static std::vector<ScannedExtent> Scan(const DataMappingTable& dmt) {
    std::vector<ScannedExtent> out;
    for (std::size_t i = 0; i < dmt.files_.size(); ++i) {
      for (const auto& [begin, entry] : dmt.files_[i]) {
        out.push_back(ScannedExtent{dmt.file_names_[i], begin, entry.end,
                                    entry.cache_offset, entry.dirty,
                                    entry.version, entry.dirty_since,
                                    static_cast<std::uint32_t>(i)});
      }
    }
    return out;
  }

  static void StretchFirstExtent(DataMappingTable& dmt, byte_count delta) {
    // Makes the first extent overlap its successor (or disagree with the
    // mapped-bytes counter when there is no successor).
    dmt.files_.at(0).begin()->second.end += delta;
  }
  static void SkewMappedBytes(DataMappingTable& dmt, byte_count delta) {
    dmt.mapped_bytes_ += delta;
  }
  static void DropLruEntry(DataMappingTable& dmt) {
    dmt.lru_index_.erase(dmt.lru_index_.begin());
  }
  // Forgets file 0's first dirty extent in the dirty-extent index.
  static void DropDirtyIndexEntry(DataMappingTable& dmt) {
    auto& index = dmt.dirty_index_.at(0);
    index.erase(index.begin());
  }
  // Lists file 0's first extent in the dirty-extent index, dirty or not.
  static void IndexFirstExtentAsDirty(DataMappingTable& dmt) {
    dmt.dirty_index_.at(0).insert(dmt.files_.at(0).begin()->first);
  }
};

}  // namespace s4d::core
