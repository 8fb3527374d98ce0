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

DataMappingTable::DataMappingTable(kv::KvStore* store, FileTable* files)
    : store_(store), names_(files) {
  S4D_CHECK(store_ == nullptr || names_ != nullptr)
      << "a persisted DMT needs the file table to name its records";
}

DataMappingTable::File& DataMappingTable::MappedFile(FileIndex file) {
  if (file >= files_.size()) files_.resize(std::size_t{file} + 1);
  File& f = files_[file];
  if (!f.mapped) {
    f.mapped = true;
    order_.push_back(file);
  }
  return f;
}

void DataMappingTable::IndexLru(FileIndex file, FileMap::iterator it) {
  it->second.lru_seq = next_lru_seq_++;
  if (!it->second.dirty) {
    lru_index_.emplace_hint(lru_index_.end(), it->second.lru_seq,
                            LruRef{file, it});
  }
}

void DataMappingTable::UnindexLru(const Entry& entry) {
  if (!entry.dirty) lru_index_.erase(entry.lru_seq);
}

void DataMappingTable::SetEntryDirty(FileIndex file, FileMap::iterator it,
                                     bool dirty) {
  Entry& entry = it->second;
  if (entry.dirty == dirty) return;
  entry.dirty = dirty;
  entry.dirty_since = dirty ? ClockNow() : 0;
  const byte_count len = entry.end - it->first;
  dirty_bytes_ += dirty ? len : -len;
  File& f = files_[file];
  if (dirty) {
    f.dirty.emplace(it->first, &entry);
    // A new entry (sequence 0, not yet indexed) has nothing to unindex.
    if (entry.lru_seq != 0) lru_index_.erase(entry.lru_seq);
  } else {
    f.dirty.erase(it->first);
    lru_index_.emplace(entry.lru_seq, LruRef{file, it});
  }
}

void DataMappingTable::EraseEntry(FileIndex file, FileMap::iterator it) {
  const byte_count len = it->second.end - it->first;
  mapped_bytes_ -= len;
  if (it->second.dirty) {
    dirty_bytes_ -= len;
    files_[file].dirty.erase(it->first);
  }
  UnindexLru(it->second);
  ErasePersisted(file, it->first);
  files_[file].extents.erase(it);
  --entry_count_;
}

void DataMappingTable::PersistEntry(FileIndex file, byte_count begin,
                                    const Entry& entry) {
  if (!store_) return;
  char value[96];
  std::snprintf(value, sizeof(value), "%lld %lld %d %llu",
                static_cast<long long>(entry.end),
                static_cast<long long>(entry.cache_offset),
                entry.dirty ? 1 : 0,
                static_cast<unsigned long long>(entry.version));
  const Status s = store_->Put(RecordKey(names_->name(file), begin), value);
  S4D_CHECK(s.ok()) << "DMT write-through failed: " << s.ToString();
}

void DataMappingTable::ErasePersisted(FileIndex file, byte_count begin) {
  if (!store_) return;
  (void)store_->Delete(RecordKey(names_->name(file), begin));
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
    const std::string name = key.substr(2, last_sep - 2);
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

    const FileIndex file = names_->Intern(name);
    Entry entry;
    entry.end = end;
    entry.cache_offset = cache_offset;
    entry.version = version;
    next_version_ = std::max(next_version_, entry.version + 1);
    auto [it, inserted] = MappedFile(file).extents.emplace(begin, entry);
    if (!inserted) return Status::Corruption("duplicate DMT record: " + key);
    mapped_bytes_ += entry.end - begin;
    ++entry_count_;
    // The stamp is not persisted; a recovered dirty extent's exposure
    // clock restarts at load time.
    SetEntryDirty(file, it, dirty != 0);
    IndexLru(file, it);
  }
#ifdef S4D_PARANOID
  AuditInvariants();
#endif
  return Status::Ok();
}

DataMappingTable::FileMap::const_iterator
DataMappingTable::FirstOverlapCandidate(const FileMap& map, FileIndex file,
                                        byte_count offset) const {
  if (hint_valid_ && hint_file_ == file) {
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

DmtLookup DataMappingTable::Lookup(FileIndex file, byte_count offset,
                                   byte_count size) const {
  DmtLookup result;
  if (size <= 0) return result;
  const byte_count end = offset + size;
  byte_count cursor = offset;
  if (const FileMap* found = FindExtents(file)) {
    const FileMap& map = *found;
    auto it = FirstOverlapCandidate(map, file, offset);
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
      hint_file_ = file;
      hint_it_ = last_examined;
    }
  }
  if (cursor < end) result.gaps.emplace_back(cursor, end);
  return result;
}

void DataMappingTable::SplitAt(FileIndex file, byte_count pos) {
  InvalidateHint();
  File& f = files_[file];
  auto it = f.extents.upper_bound(pos);
  if (it == f.extents.begin()) return;
  --it;
  if (it->first >= pos || it->second.end <= pos) return;

  Entry right = it->second;
  right.cache_offset += pos - it->first;
  // A flush in flight snapshotted the left part's begin, so only the left
  // part keeps the mark.
  right.flushing = kNotFlushing;
  // Halves keep the version: a flush snapshot identifies its target by the
  // exact (begin, end) range, so a split alone invalidates the snapshot
  // match without needing a version bump.
  it->second.end = pos;
  PersistEntry(file, it->first, it->second);
  auto [new_it, inserted] = f.extents.emplace(pos, right);
  S4D_CHECK(inserted) << "split position " << pos << " already a boundary";
  ++entry_count_;
  if (right.dirty) f.dirty.emplace(pos, &new_it->second);
  IndexLru(file, new_it);
  PersistEntry(file, pos, new_it->second);
}

void DataMappingTable::Insert(FileIndex file, byte_count offset,
                              byte_count size, byte_count cache_offset,
                              bool dirty) {
  S4D_CHECK(size > 0) << "inserting empty mapping for file " << file;
  InvalidateHint();
#ifndef NDEBUG
  {
    const DmtLookup existing = Lookup(file, offset, size);
    S4D_CHECK(existing.mapped.empty())
        << "Insert over an existing mapping: file " << file << " [" << offset
        << ", " << offset + size << ")";
  }
#endif
  FileMap& map = MappedFile(file).extents;
  Entry entry;
  entry.end = offset + size;
  entry.cache_offset = cache_offset;
  entry.version = next_version_++;
  auto [it, inserted] = map.emplace(offset, entry);
  S4D_CHECK(inserted) << "mapping already begins at " << offset
                      << " in file " << file;
  ++entry_count_;
  SetEntryDirty(file, it, dirty);
  IndexLru(file, it);
  PersistEntry(file, offset, it->second);
  mapped_bytes_ += size;
  ++coverage_epoch_;
  MaybeAudit();
}

std::vector<RemovedExtent> DataMappingTable::Invalidate(FileIndex file,
                                                        byte_count offset,
                                                        byte_count size) {
  std::vector<RemovedExtent> removed;
  if (size <= 0 || FindExtents(file) == nullptr) return removed;
  const byte_count end = offset + size;

  SplitAt(file, offset);
  SplitAt(file, end);
  InvalidateHint();

  FileMap& map = files_[file].extents;
  auto it = map.lower_bound(offset);
  while (it != map.end() && it->first < end) {
    S4D_DCHECK(it->second.end <= end);
    removed.push_back(RemovedExtent{file, it->first, it->second.end,
                                    it->second.cache_offset,
                                    it->second.dirty});
    EraseEntry(file, it++);
  }
  if (!removed.empty()) ++coverage_epoch_;
  MaybeAudit();
  return removed;
}

void DataMappingTable::SetDirty(FileIndex file, byte_count offset,
                                byte_count size, bool dirty) {
  if (size <= 0 || FindExtents(file) == nullptr) return;
  const byte_count end = offset + size;

  SplitAt(file, offset);
  SplitAt(file, end);

  FileMap& map = files_[file].extents;
  for (auto it = map.lower_bound(offset); it != map.end() && it->first < end;
       ++it) {
    SetEntryDirty(file, it, dirty);
    if (dirty) it->second.version = next_version_++;
    PersistEntry(file, it->first, it->second);
  }
  MaybeAudit();
}

void DataMappingTable::Touch(FileIndex file, byte_count offset,
                             byte_count size) {
  if (size <= 0 || FindExtents(file) == nullptr) return;
  FileMap& map = files_[file].extents;
  const byte_count end = offset + size;
  auto it = map.upper_bound(offset);
  if (it != map.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > offset) it = prev;
  }
  for (; it != map.end() && it->first < end; ++it) {
    Entry& entry = it->second;
    const std::uint64_t seq = next_lru_seq_++;
    if (!entry.dirty) {
      // Re-key the entry's own LRU node to the newest sequence number: the
      // same order as erase plus emplace, without freeing and allocating.
      auto node = lru_index_.extract(entry.lru_seq);
      S4D_DCHECK(!node.empty()) << "LRU index lost the extent at " << it->first;
      node.key() = seq;
      lru_index_.insert(lru_index_.end(), std::move(node));
    }
    entry.lru_seq = seq;
  }
  MaybeAudit();
}

std::optional<RemovedExtent> DataMappingTable::EvictLruClean() {
  return EvictLruCleanIf(nullptr);
}

std::optional<RemovedExtent> DataMappingTable::EvictLruCleanIf(
    const std::function<bool(const RemovedExtent&)>& pred) {
  InvalidateHint();
  // Only clean space is reclaimable, and the index holds nothing else.
  for (auto lru_it = lru_index_.begin(); lru_it != lru_index_.end();
       ++lru_it) {
    const auto [file, it] = lru_it->second;
    S4D_DCHECK(!it->second.dirty && it->second.lru_seq == lru_it->first)
        << "LRU index out of sync for file " << file << " at " << it->first;
    const RemovedExtent ext{file, it->first, it->second.end,
                            it->second.cache_offset, false};
    if (pred && !pred(ext)) continue;  // outside the caller's partition

    mapped_bytes_ -= ext.length();
    --entry_count_;
    ++coverage_epoch_;
    lru_index_.erase(lru_it);
    ErasePersisted(file, ext.orig_begin);
    files_[file].extents.erase(it);
    MaybeAudit();
    return ext;
  }
  return std::nullopt;
}

std::vector<DirtyRun> DataMappingTable::CollectDirtyRuns(
    byte_count max_total_bytes, byte_count max_run_bytes) const {
  std::vector<DirtyRun> runs;
  if (dirty_bytes_ == 0) return runs;  // every tick of an idle drain
  byte_count total = 0;
  for (const FileIndex file : order_) {
    if (total >= max_total_bytes) break;
    // The open run spans [run.orig_begin, run.orig_end) once `open`; a busy
    // run (one holding an extent under flush) keeps only its span.
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
                                        entry->cache_offset, entry->version});
    }
    emit();
  }
  return runs;
}

void DataMappingTable::BeginFlush(const DirtyExtentKey& key) {
  FileMap& map = files_.at(key.file).extents;
  auto it = map.find(key.begin);
  S4D_CHECK(it != map.end() && it->second.dirty &&
            it->second.version == key.version)
      << "flush of a stale snapshot: file " << key.file << " at " << key.begin;
  it->second.flushing = key.version;
}

void DataMappingTable::EndFlush(const DirtyExtentKey& key) {
  if (key.file >= files_.size()) return;
  FileMap& map = files_[key.file].extents;
  // The entry may be gone (invalidated) or re-flushed at a newer version.
  auto it = map.find(key.begin);
  if (it != map.end() && it->second.flushing == key.version) {
    it->second.flushing = kNotFlushing;
  }
}

bool DataMappingTable::MarkCleanIfVersion(FileIndex file, byte_count begin,
                                          byte_count end,
                                          std::uint64_t version) {
  if (FindExtents(file) == nullptr) return false;
  FileMap& map = files_[file].extents;
  auto it = map.find(begin);
  if (it == map.end()) return false;
  if (it->second.flushing == version) it->second.flushing = kNotFlushing;
  if (it->second.end != end || it->second.version != version ||
      !it->second.dirty) {
    return false;  // the extent changed while the flush was in flight
  }
  SetEntryDirty(file, it, false);
  PersistEntry(file, begin, it->second);
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
    auto mid = sample.begin() + static_cast<std::ptrdiff_t>(sample.size() / 2);
    std::nth_element(sample.begin(), mid, sample.end());
    summary.p50 = *mid;
  }
  return summary;
}

std::vector<RemovedExtent> DataMappingTable::AllExtents() const {
  std::vector<RemovedExtent> out;
  out.reserve(entry_count_);
  for (const FileIndex file : order_) {
    for (const auto& [begin, entry] : files_[file].extents) {
      out.push_back(RemovedExtent{file, begin, entry.end, entry.cache_offset,
                                  entry.dirty});
    }
  }
  return out;
}

void DataMappingTable::AuditInvariants() const {
  byte_count mapped = 0;
  byte_count dirty = 0;
  std::size_t entries = 0;
  std::size_t clean_entries = 0;
  std::size_t listed = 0;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    const File& f = files_[i];
    S4D_CHECK(f.mapped || f.extents.empty())
        << "file " << i << " holds extents but is not in the walk order";
    if (f.mapped) ++listed;
    byte_count prev_end = 0;
    bool first = true;
    std::size_t dirty_entries = 0;
    for (const auto& [begin, entry] : f.extents) {
      S4D_CHECK(entry.end > begin)
          << "empty/negative extent [" << begin << ", " << entry.end
          << ") in file " << i;
      S4D_CHECK(first || begin >= prev_end)
          << "overlapping extents in file " << i << ": previous ends "
          << prev_end << ", next begins " << begin;
      S4D_CHECK(entry.cache_offset >= 0);
      S4D_CHECK(entry.version < next_version_)
          << "version " << entry.version << " >= allocator cursor "
          << next_version_;
      S4D_CHECK(entry.lru_seq < next_lru_seq_)
          << "LRU sequence " << entry.lru_seq << " >= cursor " << next_lru_seq_;
      const auto lru = lru_index_.find(entry.lru_seq);
      mapped += entry.end - begin;
      if (entry.dirty) {
        dirty += entry.end - begin;
        ++dirty_entries;
        const auto indexed = f.dirty.find(begin);
        S4D_CHECK(indexed != f.dirty.end() && indexed->second == &entry)
            << "dirty extent at " << begin << " in file " << i
            << " missing from the dirty index";
        S4D_CHECK(lru == lru_index_.end())
            << "dirty extent at " << begin << " in file " << i
            << " listed in the clean LRU index";
      } else {
        ++clean_entries;
        S4D_CHECK(lru != lru_index_.end())
            << "clean extent at " << begin << " in file " << i
            << " missing from the clean LRU index";
        S4D_CHECK(lru->second.file == i && lru->second.it->first == begin &&
                  &lru->second.it->second == &entry)
            << "clean LRU index points elsewhere for extent at " << begin;
      }
      ++entries;
      prev_end = entry.end;
      first = false;
    }
    // Every dirty extent is indexed, so equal sizes leave no room for a
    // stale index entry.
    S4D_CHECK(f.dirty.size() == dirty_entries)
        << "dirty index holds " << f.dirty.size() << " extents of file " << i
        << " but " << dirty_entries << " are dirty";
  }
  S4D_CHECK(listed == order_.size())
      << "walk order lists " << order_.size() << " files, " << listed
      << " are mapped";
  // Every clean extent is indexed under its own sequence number, so equal
  // sizes leave no room for a stale LRU reference.
  S4D_CHECK(clean_entries == lru_index_.size())
      << "clean LRU index holds " << lru_index_.size() << " refs for "
      << clean_entries << " clean extents";
  S4D_CHECK(entries == entry_count_)
      << "entry counter " << entry_count_ << " != recomputed " << entries;
  S4D_CHECK(mapped == mapped_bytes_)
      << "mapped_bytes counter " << mapped_bytes_ << " != recomputed "
      << mapped;
  S4D_CHECK(dirty == dirty_bytes_)
      << "dirty_bytes counter " << dirty_bytes_ << " != recomputed " << dirty;
  S4D_CHECK(!hint_valid_ || hint_file_ < files_.size());
}

}  // namespace s4d::core
