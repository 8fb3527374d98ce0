// The DMT as it was before its flat layout: a std::map of extents per
// file, a std::map dirty index per file and a std::map clean LRU index.
// Kept as a reference model: the fuzz suite drives it and the flat table
// through the same seeded mixes and compares every answer. Volatile only
// (no store), no audit, no lookup hint.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/check.h"
#include "core/dmt.h"

namespace s4d::core {

class MapDmtOracle {
 public:
  void SetClock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  std::size_t entry_count() const { return entry_count_; }
  byte_count mapped_bytes() const { return mapped_bytes_; }
  byte_count dirty_bytes() const { return dirty_bytes_; }
  std::uint64_t coverage_epoch() const { return coverage_epoch_; }

  DmtLookup Lookup(FileIndex file, byte_count offset, byte_count size) const {
    DmtLookup result;
    if (size <= 0) return result;
    const byte_count end = offset + size;
    byte_count cursor = offset;
    if (file < files_.size()) {
      const FileMap& map = files_[file].extents;
      for (auto it = FirstOverlap(map, offset);
           it != map.end() && it->first < end; ++it) {
        const byte_count seg_begin = std::max(offset, it->first);
        const byte_count seg_end = std::min(end, it->second.end);
        if (seg_begin >= seg_end) continue;
        if (seg_begin > cursor) result.gaps.emplace_back(cursor, seg_begin);
        MappedSegment seg;
        seg.orig_begin = seg_begin;
        seg.orig_end = seg_end;
        seg.cache_offset = it->second.cache_offset + (seg_begin - it->first);
        seg.dirty = it->second.dirty;
        result.mapped.push_back(seg);
        cursor = seg_end;
      }
    }
    if (cursor < end) result.gaps.emplace_back(cursor, end);
    return result;
  }

  void Insert(FileIndex file, byte_count offset, byte_count size,
              byte_count cache_offset, bool dirty) {
    S4D_CHECK(size > 0);
    FileMap& map = MappedFile(file).extents;
    Entry entry;
    entry.end = offset + size;
    entry.cache_offset = cache_offset;
    entry.version = next_version_++;
    auto [it, inserted] = map.emplace(offset, entry);
    S4D_CHECK(inserted);
    ++entry_count_;
    SetEntryDirty(file, it, dirty);
    IndexLru(file, it);
    mapped_bytes_ += size;
    ++coverage_epoch_;
  }

  std::vector<RemovedExtent> Invalidate(FileIndex file, byte_count offset,
                                        byte_count size) {
    std::vector<RemovedExtent> removed;
    if (size <= 0 || file >= files_.size()) return removed;
    const byte_count end = offset + size;
    SplitAt(file, offset);
    SplitAt(file, end);
    FileMap& map = files_[file].extents;
    auto it = map.lower_bound(offset);
    while (it != map.end() && it->first < end) {
      removed.push_back(RemovedExtent{file, it->first, it->second.end,
                                      it->second.cache_offset,
                                      it->second.dirty});
      EraseEntry(file, it++);
    }
    if (!removed.empty()) ++coverage_epoch_;
    return removed;
  }

  void SetDirty(FileIndex file, byte_count offset, byte_count size,
                bool dirty) {
    if (size <= 0 || file >= files_.size()) return;
    const byte_count end = offset + size;
    SplitAt(file, offset);
    SplitAt(file, end);
    FileMap& map = files_[file].extents;
    for (auto it = map.lower_bound(offset); it != map.end() && it->first < end;
         ++it) {
      SetEntryDirty(file, it, dirty);
      if (dirty) it->second.version = next_version_++;
    }
  }

  void Touch(FileIndex file, byte_count offset, byte_count size) {
    if (size <= 0 || file >= files_.size()) return;
    FileMap& map = files_[file].extents;
    const byte_count end = offset + size;
    auto it = map.upper_bound(offset);
    if (it != map.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > offset) it = prev;
    }
    for (; it != map.end() && it->first < end; ++it) {
      const std::uint64_t seq = next_lru_seq_++;
      if (!it->second.dirty) {
        lru_index_.erase(it->second.lru_seq);
        lru_index_.emplace(seq, LruRef{file, it});
      }
      it->second.lru_seq = seq;
    }
  }

  std::optional<RemovedExtent> EvictLruCleanIf(
      const std::function<bool(const RemovedExtent&)>& pred) {
    for (auto lru_it = lru_index_.begin(); lru_it != lru_index_.end();
         ++lru_it) {
      const auto [file, it] = lru_it->second;
      const RemovedExtent ext{file, it->first, it->second.end,
                              it->second.cache_offset, false};
      if (pred && !pred(ext)) continue;
      mapped_bytes_ -= ext.length();
      --entry_count_;
      ++coverage_epoch_;
      lru_index_.erase(lru_it);
      files_[file].extents.erase(it);
      return ext;
    }
    return std::nullopt;
  }
  std::optional<RemovedExtent> EvictLruClean() {
    return EvictLruCleanIf(nullptr);
  }

  std::vector<DirtyRun> CollectDirtyRuns(byte_count max_total_bytes,
                                         byte_count max_run_bytes) const {
    std::vector<DirtyRun> runs;
    if (dirty_bytes_ == 0) return runs;
    byte_count total = 0;
    for (const FileIndex file : order_) {
      if (total >= max_total_bytes) break;
      DirtyRun run;
      bool open = false;
      bool busy = false;
      auto emit = [&] {
        if (!open) return;
        total += run.length();
        if (!busy) runs.push_back(std::move(run));
        run = DirtyRun{};
        open = false;
        busy = false;
      };
      for (const auto& [begin, entry] : files_[file].dirty) {
        if (total + run.length() >= max_total_bytes) break;
        const bool continues =
            open && run.orig_end == begin &&
            run.length() + (entry->end - begin) <= max_run_bytes;
        if (!continues) emit();
        if (!open) {
          open = true;
          run.file = file;
          run.orig_begin = begin;
        }
        run.orig_end = entry->end;
        if (busy) continue;
        if (entry->flushing == entry->version) {
          busy = true;
          run.segments.clear();
          continue;
        }
        run.segments.push_back(DirtyRange{file, begin, entry->end,
                                          entry->cache_offset,
                                          entry->version});
      }
      emit();
    }
    return runs;
  }

  void BeginFlush(const DirtyExtentKey& key) {
    FileMap& map = files_.at(key.file).extents;
    auto it = map.find(key.begin);
    S4D_CHECK(it != map.end() && it->second.dirty &&
              it->second.version == key.version);
    it->second.flushing = key.version;
  }

  void EndFlush(const DirtyExtentKey& key) {
    if (key.file >= files_.size()) return;
    FileMap& map = files_[key.file].extents;
    auto it = map.find(key.begin);
    if (it != map.end() && it->second.flushing == key.version) {
      it->second.flushing = kNotFlushing;
    }
  }

  bool MarkCleanIfVersion(FileIndex file, byte_count begin, byte_count end,
                          std::uint64_t version) {
    if (file >= files_.size()) return false;
    FileMap& map = files_[file].extents;
    auto it = map.find(begin);
    if (it == map.end()) return false;
    if (it->second.flushing == version) it->second.flushing = kNotFlushing;
    if (it->second.end != end || it->second.version != version ||
        !it->second.dirty) {
      return false;
    }
    SetEntryDirty(file, it, false);
    return true;
  }

  std::vector<RemovedExtent> AllExtents() const {
    std::vector<RemovedExtent> out;
    for (const FileIndex file : order_) {
      for (const auto& [begin, entry] : files_[file].extents) {
        out.push_back(RemovedExtent{file, begin, entry.end,
                                    entry.cache_offset, entry.dirty});
      }
    }
    return out;
  }

  DataMappingTable::DirtyAgeSummary SummarizeDirtyAges(SimTime now) const {
    DataMappingTable::DirtyAgeSummary summary;
    constexpr std::size_t kMaxSample = 512;
    std::vector<SimTime> sample;
    std::uint64_t stride = 1;
    std::uint64_t index = 0;
    long double total = 0.0L;
    for (const FileIndex file : order_) {
      for (const auto& [begin, entry] : files_[file].dirty) {
        const SimTime age =
            now > entry->dirty_since ? now - entry->dirty_since : 0;
        ++summary.dirty_extents;
        summary.oldest = std::max(summary.oldest, age);
        total += static_cast<long double>(age);
        if (index++ % stride == 0) {
          sample.push_back(age);
          if (sample.size() == kMaxSample) {
            std::size_t keep = 0;
            for (std::size_t i = 0; i < sample.size(); i += 2) {
              sample[keep++] = sample[i];
            }
            sample.resize(keep);
            stride *= 2;
          }
        }
      }
    }
    if (summary.dirty_extents > 0) {
      summary.mean = static_cast<SimTime>(
          total / static_cast<long double>(summary.dirty_extents));
    }
    if (!sample.empty()) {
      auto mid =
          sample.begin() + static_cast<std::ptrdiff_t>(sample.size() / 2);
      std::nth_element(sample.begin(), mid, sample.end());
      summary.p50 = *mid;
    }
    return summary;
  }

 private:
  static constexpr std::uint64_t kNotFlushing = ~std::uint64_t{0};

  struct Entry {
    byte_count end = 0;
    byte_count cache_offset = 0;
    bool dirty = false;
    std::uint64_t version = 0;
    std::uint64_t lru_seq = 0;
    std::uint64_t flushing = kNotFlushing;
    SimTime dirty_since = 0;
  };
  using FileMap = std::map<byte_count, Entry>;
  struct File {
    FileMap extents;
    std::map<byte_count, Entry*> dirty;
    bool mapped = false;
  };
  struct LruRef {
    FileIndex file;
    FileMap::iterator it;
  };

  File& MappedFile(FileIndex file) {
    if (file >= files_.size()) files_.resize(std::size_t{file} + 1);
    File& f = files_[file];
    if (!f.mapped) {
      f.mapped = true;
      order_.push_back(file);
    }
    return f;
  }

  static FileMap::const_iterator FirstOverlap(const FileMap& map,
                                              byte_count offset) {
    auto it = map.upper_bound(offset);
    if (it != map.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > offset) it = prev;
    }
    return it;
  }

  void IndexLru(FileIndex file, FileMap::iterator it) {
    it->second.lru_seq = next_lru_seq_++;
    if (!it->second.dirty) {
      lru_index_.emplace(it->second.lru_seq, LruRef{file, it});
    }
  }

  void SetEntryDirty(FileIndex file, FileMap::iterator it, bool dirty) {
    Entry& entry = it->second;
    if (entry.dirty == dirty) return;
    entry.dirty = dirty;
    entry.dirty_since = dirty ? (clock_ ? clock_() : 0) : 0;
    const byte_count len = entry.end - it->first;
    dirty_bytes_ += dirty ? len : -len;
    File& f = files_[file];
    if (dirty) {
      f.dirty.emplace(it->first, &entry);
      if (entry.lru_seq != 0) lru_index_.erase(entry.lru_seq);
    } else {
      f.dirty.erase(it->first);
      lru_index_.emplace(entry.lru_seq, LruRef{file, it});
    }
  }

  void EraseEntry(FileIndex file, FileMap::iterator it) {
    const byte_count len = it->second.end - it->first;
    mapped_bytes_ -= len;
    if (it->second.dirty) {
      dirty_bytes_ -= len;
      files_[file].dirty.erase(it->first);
    } else {
      lru_index_.erase(it->second.lru_seq);
    }
    files_[file].extents.erase(it);
    --entry_count_;
  }

  void SplitAt(FileIndex file, byte_count pos) {
    File& f = files_[file];
    auto it = f.extents.upper_bound(pos);
    if (it == f.extents.begin()) return;
    --it;
    if (it->first >= pos || it->second.end <= pos) return;
    Entry right = it->second;
    right.cache_offset += pos - it->first;
    right.flushing = kNotFlushing;
    it->second.end = pos;
    auto [new_it, inserted] = f.extents.emplace(pos, right);
    S4D_CHECK(inserted);
    ++entry_count_;
    if (right.dirty) f.dirty.emplace(pos, &new_it->second);
    IndexLru(file, new_it);
  }

  std::function<SimTime()> clock_;
  std::vector<File> files_;
  std::vector<FileIndex> order_;
  std::map<std::uint64_t, LruRef> lru_index_;
  std::uint64_t next_lru_seq_ = 1;
  std::uint64_t next_version_ = 1;
  std::size_t entry_count_ = 0;
  byte_count mapped_bytes_ = 0;
  byte_count dirty_bytes_ = 0;
  std::uint64_t coverage_epoch_ = 0;
};

}  // namespace s4d::core
