#include "core/dmt.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "common/check.h"

namespace s4d::core {

namespace {

std::string RecordKey(const std::string& file, byte_count begin) {
  return "D|" + file + "|" + std::to_string(begin);
}

}  // namespace

DataMappingTable::DataMappingTable(kv::KvStore* store) : store_(store) {}

std::uint32_t DataMappingTable::InternFile(const std::string& file) {
  auto [it, inserted] = file_index_.emplace(
      file, static_cast<std::uint32_t>(file_names_.size()));
  if (inserted) {
    file_names_.push_back(file);
    files_.emplace_back();
    dirty_index_.emplace_back();
  }
  return it->second;
}

DataMappingTable::FileMap* DataMappingTable::FindFile(
    const std::string& file) {
  auto it = file_index_.find(file);
  return it == file_index_.end() ? nullptr : &files_[it->second];
}

const DataMappingTable::FileMap* DataMappingTable::FindFile(
    const std::string& file) const {
  auto it = file_index_.find(file);
  return it == file_index_.end() ? nullptr : &files_[it->second];
}

void DataMappingTable::IndexLru(std::uint32_t file_index, byte_count begin,
                                Entry& entry) {
  entry.lru_seq = next_lru_seq_++;
  lru_index_.emplace(entry.lru_seq, LruRef{file_index, begin});
}

void DataMappingTable::UnindexLru(const Entry& entry) {
  lru_index_.erase(entry.lru_seq);
}

void DataMappingTable::SetEntryDirty(std::uint32_t file_index,
                                     byte_count begin, Entry& entry,
                                     bool dirty) {
  if (entry.dirty == dirty) return;
  entry.dirty = dirty;
  entry.dirty_since = dirty ? ClockNow() : 0;
  const byte_count len = entry.end - begin;
  dirty_bytes_ += dirty ? len : -len;
  if (dirty) {
    dirty_index_[file_index].insert(begin);
  } else {
    dirty_index_[file_index].erase(begin);
  }
}

void DataMappingTable::PersistEntry(std::uint32_t file_index,
                                    byte_count begin, const Entry& entry) {
  if (!store_) return;
  char value[96];
  std::snprintf(value, sizeof(value), "%lld %lld %d %llu",
                static_cast<long long>(entry.end),
                static_cast<long long>(entry.cache_offset),
                entry.dirty ? 1 : 0,
                static_cast<unsigned long long>(entry.version));
  const Status s = store_->Put(RecordKey(file_names_[file_index], begin), value);
  S4D_CHECK(s.ok()) << "DMT write-through failed: " << s.ToString();
}

void DataMappingTable::ErasePersisted(std::uint32_t file_index,
                                      byte_count begin) {
  if (!store_) return;
  (void)store_->Delete(RecordKey(file_names_[file_index], begin));
}

Status DataMappingTable::LoadFromStore() {
  InvalidateHint();
  if (!store_) return Status::FailedPrecondition("DMT has no backing store");
  ++coverage_epoch_;
  for (const std::string& key : store_->KeysWithPrefix("D|")) {
    const auto last_sep = key.rfind('|');
    if (last_sep == std::string::npos || last_sep < 2) {
      return Status::Corruption("bad DMT key: " + key);
    }
    const std::string file = key.substr(2, last_sep - 2);
    byte_count begin = 0;
    {
      const char* first = key.data() + last_sep + 1;
      const char* last = key.data() + key.size();
      if (std::from_chars(first, last, begin).ec != std::errc{}) {
        return Status::Corruption("bad DMT key offset: " + key);
      }
    }
    const auto value = store_->Get(key);
    if (!value) return Status::Corruption("DMT record vanished: " + key);
    long long end = 0;
    long long cache_offset = 0;
    int dirty = 0;
    unsigned long long version = 0;
    if (std::sscanf(value->c_str(), "%lld %lld %d %llu", &end, &cache_offset,
                    &dirty, &version) != 4) {
      return Status::Corruption("bad DMT record: " + *value);
    }

    const std::uint32_t file_index = InternFile(file);
    Entry entry;
    entry.end = end;
    entry.cache_offset = cache_offset;
    entry.version = version;
    next_version_ = std::max(next_version_, entry.version + 1);
    auto [it, inserted] = files_[file_index].emplace(begin, entry);
    if (!inserted) return Status::Corruption("duplicate DMT record: " + key);
    mapped_bytes_ += entry.end - begin;
    // The stamp is not persisted; a recovered dirty extent's exposure
    // clock restarts at load time.
    SetEntryDirty(file_index, begin, it->second, dirty != 0);
    IndexLru(file_index, begin, it->second);
  }
#ifdef S4D_PARANOID
  AuditInvariants();
#endif
  return Status::Ok();
}

DataMappingTable::FileMap::const_iterator
DataMappingTable::FirstOverlapCandidate(const FileMap& map,
                                        std::uint32_t file_index,
                                        byte_count offset) const {
  if (hint_valid_ && hint_file_ == file_index) {
    auto h = hint_it_;
    // The hint (or one of its next two neighbours) decides the query
    // locally when it is the floor entry for `offset`.
    for (int step = 0; step < 2 && h->first <= offset; ++step) {
      auto next = std::next(h);
      if (next == map.end() || next->first > offset) {
        return h->second.end > offset ? h : next;
      }
      h = next;
    }
  }
  auto it = map.upper_bound(offset);
  if (it != map.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > offset) it = prev;
  }
  return it;
}

DmtLookup DataMappingTable::Lookup(const std::string& file, byte_count offset,
                                   byte_count size) const {
  DmtLookup result;
  if (size <= 0) return result;
  const byte_count end = offset + size;
  byte_count cursor = offset;
  auto idx_it = file_index_.find(file);
  if (idx_it != file_index_.end()) {
    const std::uint32_t file_index = idx_it->second;
    const FileMap& map = files_[file_index];
    auto it = FirstOverlapCandidate(map, file_index, offset);
    auto last_examined = map.end();
    for (; it != map.end() && it->first < end; ++it) {
      last_examined = it;
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
    if (last_examined != map.end()) {
      hint_valid_ = true;
      hint_file_ = file_index;
      hint_it_ = last_examined;
    }
  }
  if (cursor < end) result.gaps.emplace_back(cursor, end);
  return result;
}

void DataMappingTable::SplitAt(std::uint32_t file_index, byte_count pos) {
  InvalidateHint();
  FileMap& map = files_[file_index];
  auto it = map.upper_bound(pos);
  if (it == map.begin()) return;
  --it;
  if (it->first >= pos || it->second.end <= pos) return;

  Entry right = it->second;
  right.cache_offset += pos - it->first;
  // Halves keep the version: a flush snapshot identifies its target by the
  // exact (begin, end) range, so a split alone invalidates the snapshot
  // match without needing a version bump.
  it->second.end = pos;
  PersistEntry(file_index, it->first, it->second);
  auto [new_it, inserted] = map.emplace(pos, right);
  S4D_CHECK(inserted) << "split position " << pos << " already a boundary";
  if (right.dirty) dirty_index_[file_index].insert(pos);
  IndexLru(file_index, pos, new_it->second);
  PersistEntry(file_index, pos, new_it->second);
}

void DataMappingTable::Insert(const std::string& file, byte_count offset,
                              byte_count size, byte_count cache_offset,
                              bool dirty) {
  S4D_CHECK(size > 0) << "inserting empty mapping for " << file;
  InvalidateHint();
  const std::uint32_t file_index = InternFile(file);
  FileMap& map = files_[file_index];
#ifndef NDEBUG
  {
    const DmtLookup existing = Lookup(file, offset, size);
    S4D_CHECK(existing.mapped.empty())
        << "Insert over an existing mapping: " << file << " [" << offset
        << ", " << offset + size << ")";
  }
#endif
  Entry entry;
  entry.end = offset + size;
  entry.cache_offset = cache_offset;
  entry.version = next_version_++;
  auto [it, inserted] = map.emplace(offset, entry);
  S4D_CHECK(inserted) << "mapping already begins at " << offset << " in "
                      << file;
  SetEntryDirty(file_index, offset, it->second, dirty);
  IndexLru(file_index, offset, it->second);
  PersistEntry(file_index, offset, it->second);
  mapped_bytes_ += size;
  ++coverage_epoch_;
  MaybeAudit();
}

std::vector<RemovedExtent> DataMappingTable::Invalidate(
    const std::string& file, byte_count offset, byte_count size) {
  std::vector<RemovedExtent> removed;
  if (size <= 0) return removed;
  auto idx_it = file_index_.find(file);
  if (idx_it == file_index_.end()) return removed;
  const std::uint32_t file_index = idx_it->second;
  const byte_count end = offset + size;

  SplitAt(file_index, offset);
  SplitAt(file_index, end);
  InvalidateHint();

  FileMap& map = files_[file_index];
  auto it = map.lower_bound(offset);
  while (it != map.end() && it->first < end) {
    S4D_DCHECK(it->second.end <= end);
    RemovedExtent ext;
    ext.file = file;
    ext.orig_begin = it->first;
    ext.orig_end = it->second.end;
    ext.cache_offset = it->second.cache_offset;
    ext.dirty = it->second.dirty;
    removed.push_back(ext);

    mapped_bytes_ -= ext.length();
    if (ext.dirty) {
      dirty_bytes_ -= ext.length();
      dirty_index_[file_index].erase(ext.orig_begin);
    }
    UnindexLru(it->second);
    ErasePersisted(file_index, it->first);
    it = map.erase(it);
  }
  if (!removed.empty()) ++coverage_epoch_;
  MaybeAudit();
  return removed;
}

void DataMappingTable::SetDirty(const std::string& file, byte_count offset,
                                byte_count size, bool dirty) {
  if (size <= 0) return;
  auto idx_it = file_index_.find(file);
  if (idx_it == file_index_.end()) return;
  const std::uint32_t file_index = idx_it->second;
  const byte_count end = offset + size;

  SplitAt(file_index, offset);
  SplitAt(file_index, end);

  FileMap& map = files_[file_index];
  for (auto it = map.lower_bound(offset); it != map.end() && it->first < end;
       ++it) {
    Entry& entry = it->second;
    SetEntryDirty(file_index, it->first, entry, dirty);
    if (dirty) entry.version = next_version_++;
    PersistEntry(file_index, it->first, entry);
  }
  MaybeAudit();
}

void DataMappingTable::Touch(const std::string& file, byte_count offset,
                             byte_count size) {
  if (size <= 0) return;
  auto idx_it = file_index_.find(file);
  if (idx_it == file_index_.end()) return;
  FileMap& map = files_[idx_it->second];
  const byte_count end = offset + size;
  auto it = map.upper_bound(offset);
  if (it != map.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > offset) it = prev;
  }
  for (; it != map.end() && it->first < end; ++it) {
    UnindexLru(it->second);
    IndexLru(idx_it->second, it->first, it->second);
  }
  MaybeAudit();
}

std::optional<RemovedExtent> DataMappingTable::EvictLruClean() {
  InvalidateHint();
  for (auto lru_it = lru_index_.begin(); lru_it != lru_index_.end();
       ++lru_it) {
    const LruRef ref = lru_it->second;
    FileMap& map = files_[ref.file_index];
    auto it = map.find(ref.begin);
    S4D_CHECK(it != map.end() && it->second.lru_seq == lru_it->first)
        << "LRU index out of sync for " << file_names_[ref.file_index]
        << " at " << ref.begin;
    if (it->second.dirty) continue;  // only clean space is reclaimable

    RemovedExtent ext;
    ext.file = file_names_[ref.file_index];
    ext.orig_begin = it->first;
    ext.orig_end = it->second.end;
    ext.cache_offset = it->second.cache_offset;
    ext.dirty = false;

    mapped_bytes_ -= ext.length();
    ++coverage_epoch_;
    lru_index_.erase(lru_it);
    ErasePersisted(ref.file_index, it->first);
    map.erase(it);
    MaybeAudit();
    return ext;
  }
  return std::nullopt;
}

std::optional<RemovedExtent> DataMappingTable::EvictLruCleanIf(
    const std::function<bool(const RemovedExtent&)>& pred) {
  InvalidateHint();
  for (auto lru_it = lru_index_.begin(); lru_it != lru_index_.end();
       ++lru_it) {
    const LruRef ref = lru_it->second;
    FileMap& map = files_[ref.file_index];
    auto it = map.find(ref.begin);
    S4D_CHECK(it != map.end() && it->second.lru_seq == lru_it->first)
        << "LRU index out of sync for " << file_names_[ref.file_index]
        << " at " << ref.begin;
    if (it->second.dirty) continue;  // only clean space is reclaimable

    RemovedExtent ext;
    ext.file = file_names_[ref.file_index];
    ext.orig_begin = it->first;
    ext.orig_end = it->second.end;
    ext.cache_offset = it->second.cache_offset;
    ext.dirty = false;
    if (pred && !pred(ext)) continue;  // outside the caller's partition

    mapped_bytes_ -= ext.length();
    ++coverage_epoch_;
    lru_index_.erase(lru_it);
    ErasePersisted(ref.file_index, it->first);
    map.erase(it);
    MaybeAudit();
    return ext;
  }
  return std::nullopt;
}

std::optional<RemovedExtent> DataMappingTable::EvictCleanOverlapping(
    const std::string& file, byte_count begin, byte_count end) {
  if (begin >= end) return std::nullopt;
  auto idx_it = file_index_.find(file);
  if (idx_it == file_index_.end()) return std::nullopt;
  const std::uint32_t file_index = idx_it->second;
  FileMap& map = files_[file_index];
  auto it = map.upper_bound(begin);
  if (it != map.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > begin) it = prev;
  }
  for (; it != map.end() && it->first < end; ++it) {
    if (it->second.dirty) continue;
    InvalidateHint();
    RemovedExtent ext;
    ext.file = file;
    ext.orig_begin = it->first;
    ext.orig_end = it->second.end;
    ext.cache_offset = it->second.cache_offset;
    ext.dirty = false;

    mapped_bytes_ -= ext.length();
    ++coverage_epoch_;
    UnindexLru(it->second);
    ErasePersisted(file_index, it->first);
    map.erase(it);
    MaybeAudit();
    return ext;
  }
  return std::nullopt;
}

std::vector<DirtyRange> DataMappingTable::CollectDirty(
    std::size_t max_ranges) const {
  std::vector<DirtyRange> out;
  for (const auto& [seq, ref] : lru_index_) {
    if (out.size() >= max_ranges) break;
    const FileMap& map = files_[ref.file_index];
    auto it = map.find(ref.begin);
    S4D_DCHECK(it != map.end());
    if (!it->second.dirty) continue;
    out.push_back(DirtyRange{file_names_[ref.file_index], it->first,
                             it->second.end, it->second.cache_offset,
                             it->second.version, ref.file_index});
  }
  return out;
}

std::vector<DirtyRun> DataMappingTable::CollectDirtyRuns(
    byte_count max_total_bytes, byte_count max_run_bytes,
    const DirtyExtentSet* in_flight) const {
  std::vector<DirtyRun> runs;
  byte_count total = 0;
  for (std::size_t i = 0; i < files_.size() && total < max_total_bytes; ++i) {
    const auto file_index = static_cast<std::uint32_t>(i);
    // The open run spans [run.orig_begin, run.orig_end) once `open`; a busy
    // run (one holding an in-flight extent) keeps only its span.
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
    // Only dirty extents are visited. A clean extent between two dirty ones
    // breaks their adjacency anyway, so the runs match a full-table walk.
    for (const byte_count begin : dirty_index_[i]) {
      if (total + run.length() >= max_total_bytes) break;
      const Entry& entry = files_[i].find(begin)->second;
      const bool continues = open && run.orig_end == begin &&
                             run.length() + (entry.end - begin) <= max_run_bytes;
      if (!continues) emit();
      if (!open) {
        open = true;
        run.orig_begin = begin;
      }
      run.orig_end = entry.end;
      if (busy) continue;
      if (in_flight != nullptr &&
          in_flight->contains({file_index, begin, entry.version})) {
        busy = true;
        run.segments.clear();
        continue;
      }
      if (run.segments.empty()) run.file = file_names_[i];
      run.segments.push_back(DirtyRange{file_names_[i], begin, entry.end,
                                        entry.cache_offset, entry.version,
                                        file_index});
    }
    emit();
  }
  return runs;
}

bool DataMappingTable::MarkCleanIfVersion(const std::string& file,
                                          byte_count begin, byte_count end,
                                          std::uint64_t version) {
  auto idx_it = file_index_.find(file);
  if (idx_it == file_index_.end()) return false;
  FileMap& map = files_[idx_it->second];
  auto it = map.find(begin);
  if (it == map.end() || it->second.end != end ||
      it->second.version != version || !it->second.dirty) {
    return false;  // the extent changed while the flush was in flight
  }
  SetEntryDirty(idx_it->second, begin, it->second, false);
  PersistEntry(idx_it->second, begin, it->second);
  MaybeAudit();
  return true;
}

DataMappingTable::DirtyAgeSummary DataMappingTable::SummarizeDirtyAges(
    SimTime now) const {
  DirtyAgeSummary summary;
  // Bounded p50 sample: take every stride-th dirty extent in table order;
  // when the sample fills, drop every other element and double the stride.
  // Deterministic — same table, same sample — and O(1) memory.
  constexpr std::size_t kMaxSample = 512;
  std::vector<SimTime> sample;
  sample.reserve(kMaxSample);
  std::uint64_t stride = 1;
  std::uint64_t index = 0;
  long double total = 0.0L;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    for (const byte_count begin : dirty_index_[i]) {
      const Entry& entry = files_[i].find(begin)->second;
      const SimTime age =
          now > entry.dirty_since ? now - entry.dirty_since : 0;
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
    auto mid = sample.begin() + static_cast<std::ptrdiff_t>(sample.size() / 2);
    std::nth_element(sample.begin(), mid, sample.end());
    summary.p50 = *mid;
  }
  return summary;
}

std::vector<RemovedExtent> DataMappingTable::AllExtents() const {
  std::vector<RemovedExtent> out;
  out.reserve(lru_index_.size());
  for (std::size_t i = 0; i < files_.size(); ++i) {
    for (const auto& [begin, entry] : files_[i]) {
      RemovedExtent ext;
      ext.file = file_names_[i];
      ext.orig_begin = begin;
      ext.orig_end = entry.end;
      ext.cache_offset = entry.cache_offset;
      ext.dirty = entry.dirty;
      out.push_back(std::move(ext));
    }
  }
  return out;
}

void DataMappingTable::AuditInvariants() const {
  S4D_CHECK(files_.size() == file_names_.size());
  S4D_CHECK(file_index_.size() == file_names_.size());
  S4D_CHECK(dirty_index_.size() == files_.size());
  byte_count mapped = 0;
  byte_count dirty = 0;
  std::size_t entries = 0;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    byte_count prev_end = 0;
    bool first = true;
    std::size_t dirty_entries = 0;
    for (const auto& [begin, entry] : files_[i]) {
      S4D_CHECK(entry.end > begin)
          << "empty/negative extent [" << begin << ", " << entry.end
          << ") in " << file_names_[i];
      S4D_CHECK(first || begin >= prev_end)
          << "overlapping extents in " << file_names_[i] << ": previous ends "
          << prev_end << ", next begins " << begin;
      S4D_CHECK(entry.cache_offset >= 0);
      S4D_CHECK(entry.version < next_version_)
          << "version " << entry.version << " >= allocator cursor "
          << next_version_;
      const auto lru = lru_index_.find(entry.lru_seq);
      S4D_CHECK(lru != lru_index_.end())
          << "extent at " << begin << " in " << file_names_[i]
          << " missing from the LRU index";
      S4D_CHECK(lru->second.file_index == i && lru->second.begin == begin)
          << "LRU index points elsewhere for extent at " << begin;
      mapped += entry.end - begin;
      if (entry.dirty) {
        dirty += entry.end - begin;
        ++dirty_entries;
        S4D_CHECK(dirty_index_[i].count(begin) > 0)
            << "dirty extent at " << begin << " in " << file_names_[i]
            << " missing from the dirty index";
      }
      ++entries;
      prev_end = entry.end;
      first = false;
    }
    // Every dirty extent is indexed, so equal sizes leave no room for a
    // stale index entry.
    S4D_CHECK(dirty_index_[i].size() == dirty_entries)
        << "dirty index holds " << dirty_index_[i].size() << " extents of "
        << file_names_[i] << " but " << dirty_entries << " are dirty";
  }
  S4D_CHECK(entries == lru_index_.size())
      << "LRU index holds " << lru_index_.size() << " refs for " << entries
      << " extents";
  S4D_CHECK(mapped == mapped_bytes_)
      << "mapped_bytes counter " << mapped_bytes_ << " != recomputed "
      << mapped;
  S4D_CHECK(dirty == dirty_bytes_)
      << "dirty_bytes counter " << dirty_bytes_ << " != recomputed " << dirty;
  S4D_CHECK(!hint_valid_ || hint_file_ < files_.size());
}

std::size_t DataMappingTable::entry_count() const {
  return lru_index_.size();
}

byte_count DataMappingTable::mapped_bytes() const { return mapped_bytes_; }
byte_count DataMappingTable::dirty_bytes() const { return dirty_bytes_; }

}  // namespace s4d::core
