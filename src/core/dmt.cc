#include "core/dmt.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string_view>
#include <tuple>

#include "common/check.h"

namespace s4d::core {

namespace {

std::string RecordKey(const std::string& file, byte_count begin) {
  return "D|" + file + "|" + std::to_string(begin);
}

// Parses all of `text` as one decimal number.
template <typename T>
bool ParseWhole(std::string_view text, T& out) {
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  return ec == std::errc{} && ptr == last;
}

// Parses the decimal number before the first `sep` of `text` and drops it
// and the separator from `text`.
template <typename T>
bool ParseField(std::string_view& text, char sep, T& out) {
  const auto at = text.find(sep);
  if (at == std::string_view::npos || !ParseWhole(text.substr(0, at), out)) {
    return false;
  }
  text.remove_prefix(at + 1);
  return true;
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

DataMappingTable::Slot DataMappingTable::NewSlot() {
  if (free_slots_.empty()) {
    slab_.emplace_back();
    return static_cast<Slot>(slab_.size() - 1);
  }
  const Slot slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

DataMappingTable::Slot DataMappingTable::AddEntry(FileIndex file,
                                                  byte_count begin,
                                                  byte_count end,
                                                  byte_count cache_offset,
                                                  std::uint64_t version) {
  File& f = MappedFile(file);
  const Slot slot = NewSlot();
  Entry& entry = slab_[slot];
  entry = Entry{};
  entry.file = file;
  entry.begin = begin;
  entry.end = end;
  entry.cache_offset = cache_offset;
  entry.version = version;
  const bool inserted = f.extents.insert(begin, slot);
  S4D_CHECK(inserted) << "mapping already begins at " << begin << " in file "
                      << file;
  ++entry_count_;
  mapped_bytes_ += end - begin;
  return slot;
}

void DataMappingTable::IndexLru(Slot slot) {
  Entry& entry = slab_[slot];
  entry.lru_seq = next_lru_seq_++;
  if (!entry.dirty) lru_.insert(entry.lru_seq, slot);
}

void DataMappingTable::SetEntryDirty(Slot slot, bool dirty) {
  Entry& entry = slab_[slot];
  if (entry.dirty == dirty) return;
  entry.dirty = dirty;
  entry.dirty_since = dirty ? ClockNow() : 0;
  const byte_count len = entry.end - entry.begin;
  dirty_bytes_ += dirty ? len : -len;
  File& f = files_[entry.file];
  if (dirty) {
    f.dirty.insert(entry.begin, slot);
    // A new entry (sequence 0, not yet indexed) has nothing to unindex.
    if (entry.lru_seq != 0) lru_.erase(entry.lru_seq);
  } else {
    f.dirty.erase(entry.begin);
    lru_.insert(entry.lru_seq, slot);
  }
}

void DataMappingTable::ForgetEntry(Slot slot) {
  const Entry& entry = slab_[slot];
  const byte_count len = entry.end - entry.begin;
  mapped_bytes_ -= len;
  if (entry.dirty) {
    dirty_bytes_ -= len;
    files_[entry.file].dirty.erase(entry.begin);
  } else {
    lru_.erase(entry.lru_seq);
  }
  ErasePersisted(entry.file, entry.begin);
  free_slots_.push_back(slot);
  --entry_count_;
}

void DataMappingTable::PersistEntry(const Entry& entry) {
  if (!store_) return;
  char value[96];
  std::snprintf(value, sizeof(value), "%lld %lld %d %llu",
                static_cast<long long>(entry.end),
                static_cast<long long>(entry.cache_offset),
                entry.dirty ? 1 : 0,
                static_cast<unsigned long long>(entry.version));
  const Status s =
      store_->Put(RecordKey(names_->name(entry.file), entry.begin), value);
  S4D_CHECK(s.ok()) << "DMT write-through failed: " << s.ToString();
}

void DataMappingTable::ErasePersisted(FileIndex file, byte_count begin) {
  if (!store_) return;
  (void)store_->Delete(RecordKey(names_->name(file), begin));
}

Status DataMappingTable::LoadFromStore() {
  if (!store_) return Status::FailedPrecondition("DMT has no backing store");
  if (entry_count_ != 0) {
    return Status::FailedPrecondition("DMT already holds extents");
  }
  // Parse and check every record before loading any.
  struct Record {
    std::string name;
    byte_count begin = 0;
    byte_count end = 0;
    byte_count cache_offset = 0;
    bool dirty = false;
    std::uint64_t version = 0;
  };
  std::vector<Record> records;
  for (const std::string& key : store_->KeysWithPrefix("D|")) {
    const auto last_sep = key.rfind('|');
    if (last_sep == std::string::npos || last_sep < 2) {
      return Status::Corruption("bad DMT key: " + key);
    }
    Record r;
    r.name = key.substr(2, last_sep - 2);
    if (!ParseWhole(std::string_view(key).substr(last_sep + 1), r.begin) ||
        r.begin < 0) {
      return Status::Corruption("bad DMT key offset: " + key);
    }
    const auto value = store_->Get(key);
    if (!value) return Status::Corruption("DMT record vanished: " + key);
    // "end cache_offset dirty version", as PersistEntry writes it.
    std::string_view rest = *value;
    int dirty = 0;
    if (!ParseField(rest, ' ', r.end) ||
        !ParseField(rest, ' ', r.cache_offset) ||
        !ParseField(rest, ' ', dirty) || !ParseWhole(rest, r.version) ||
        r.end <= r.begin || r.cache_offset < 0 || (dirty != 0 && dirty != 1) ||
        r.version >= kNotFlushing) {
      return Status::Corruption("bad DMT record " + key + ": " + *value);
    }
    r.dirty = dirty != 0;
    records.push_back(std::move(r));
  }
  std::vector<const Record*> sorted;
  sorted.reserve(records.size());
  for (const Record& r : records) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(), [](const Record* a, const Record* b) {
    return std::tie(a->name, a->begin) < std::tie(b->name, b->begin);
  });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const Record& prev = *sorted[i - 1];
    const Record& next = *sorted[i];
    if (prev.name == next.name && prev.end > next.begin) {
      return Status::Corruption(
          "overlapping DMT records in " + next.name + ": [" +
          std::to_string(prev.begin) + ", " + std::to_string(prev.end) +
          ") and [" + std::to_string(next.begin) + ", " +
          std::to_string(next.end) + ")");
    }
  }

  // Load in store order: it sets the file walk order and the LRU order.
  for (const Record& r : records) {
    const Slot slot = AddEntry(names_->Intern(r.name), r.begin, r.end,
                               r.cache_offset, r.version);
    next_version_ = std::max(next_version_, r.version + 1);
    // The stamp is not persisted; a recovered dirty extent's exposure
    // clock restarts at load time.
    SetEntryDirty(slot, r.dirty);
    IndexLru(slot);
  }
#ifdef S4D_PARANOID
  AuditInvariants();
#endif
  return Status::Ok();
}

DataMappingTable::ExtentIndex::Iterator DataMappingTable::FirstOverlap(
    const ExtentIndex& extents, byte_count offset) const {
  auto it = extents.floor(offset);
  if (it == extents.end()) return extents.begin();
  if (slab_[it.slot()].end <= offset) ++it;
  return it;
}

DmtLookup DataMappingTable::Lookup(FileIndex file, byte_count offset,
                                   byte_count size) const {
  DmtLookup result;
  if (size <= 0) return result;
  const byte_count end = offset + size;
  byte_count cursor = offset;
  if (file < files_.size()) {
    const ExtentIndex& extents = files_[file].extents;
    for (auto it = FirstOverlap(extents, offset);
         it != extents.end() && it.key() < end; ++it) {
      const Entry& entry = slab_[it.slot()];
      const byte_count seg_begin = std::max(offset, entry.begin);
      const byte_count seg_end = std::min(end, entry.end);
      if (seg_begin > cursor) result.gaps.emplace_back(cursor, seg_begin);
      MappedSegment seg;
      seg.orig_begin = seg_begin;
      seg.orig_end = seg_end;
      seg.cache_offset = entry.cache_offset + (seg_begin - entry.begin);
      seg.dirty = entry.dirty;
      result.mapped.push_back(seg);
      cursor = seg_end;
    }
  }
  if (cursor < end) result.gaps.emplace_back(cursor, end);
  return result;
}

void DataMappingTable::SplitAt(FileIndex file, byte_count pos) {
  File& f = files_[file];
  const auto it = f.extents.floor(pos);
  if (it == f.extents.end()) return;
  const Slot left = it.slot();
  if (slab_[left].begin >= pos || slab_[left].end <= pos) return;

  const Slot right = NewSlot();  // may move the slab
  Entry& l = slab_[left];
  Entry& r = slab_[right];
  r = l;
  r.begin = pos;
  r.cache_offset += pos - l.begin;
  // A flush in flight snapshotted the left part's begin, so only the left
  // part keeps the mark.
  r.flushing = kNotFlushing;
  // Halves keep the version: a flush snapshot identifies its target by the
  // exact (begin, end) range, so a split alone invalidates the snapshot
  // match without needing a version bump.
  l.end = pos;
  PersistEntry(l);
  const bool inserted = f.extents.insert(pos, right);
  S4D_CHECK(inserted) << "split position " << pos << " already a boundary";
  ++entry_count_;
  if (r.dirty) f.dirty.insert(pos, right);
  IndexLru(right);
  PersistEntry(slab_[right]);
}

void DataMappingTable::Insert(FileIndex file, byte_count offset,
                              byte_count size, byte_count cache_offset,
                              bool dirty, int owner) {
  S4D_CHECK(size > 0) << "inserting empty mapping for file " << file;
  S4D_DCHECK(owner == static_cast<std::int16_t>(owner))
      << "owner " << owner << " does not fit the extent record";
#ifndef NDEBUG
  {
    const DmtLookup existing = Lookup(file, offset, size);
    S4D_CHECK(existing.mapped.empty())
        << "Insert over an existing mapping: file " << file << " [" << offset
        << ", " << offset + size << ")";
  }
#endif
  const Slot slot = AddEntry(file, offset, offset + size, cache_offset,
                             next_version_++);
  slab_[slot].owner = static_cast<std::int16_t>(owner);
  SetEntryDirty(slot, dirty);
  IndexLru(slot);
  PersistEntry(slab_[slot]);
  MaybeAudit();
}

std::vector<RemovedExtent> DataMappingTable::Invalidate(FileIndex file,
                                                        byte_count offset,
                                                        byte_count size) {
  std::vector<RemovedExtent> removed;
  if (size <= 0 || file >= files_.size()) return removed;
  const byte_count end = offset + size;

  SplitAt(file, offset);
  SplitAt(file, end);

  ExtentIndex& extents = files_[file].extents;
  auto it = extents.lower_bound(offset);
  while (it != extents.end() && it.key() < end) {
    const Entry& entry = slab_[it.slot()];
    S4D_DCHECK(entry.end <= end);
    removed.push_back(RemovedExtent{file, entry.begin, entry.end,
                                    entry.cache_offset, entry.dirty,
                                    entry.owner});
    ForgetEntry(it.slot());
    it = extents.erase(it);
  }
  MaybeAudit();
  return removed;
}

void DataMappingTable::SetDirty(FileIndex file, byte_count offset,
                                byte_count size, bool dirty) {
  if (size <= 0 || file >= files_.size()) return;
  const byte_count end = offset + size;

  SplitAt(file, offset);
  SplitAt(file, end);

  // The flips change the dirty and LRU indexes, never the extent index.
  const ExtentIndex& extents = files_[file].extents;
  for (auto it = extents.lower_bound(offset);
       it != extents.end() && it.key() < end; ++it) {
    SetEntryDirty(it.slot(), dirty);
    Entry& entry = slab_[it.slot()];
    if (dirty) entry.version = next_version_++;
    PersistEntry(entry);
  }
  MaybeAudit();
}

void DataMappingTable::Touch(FileIndex file, byte_count offset,
                             byte_count size) {
  if (size <= 0 || file >= files_.size()) return;
  const ExtentIndex& extents = files_[file].extents;
  const byte_count end = offset + size;
  for (auto it = FirstOverlap(extents, offset);
       it != extents.end() && it.key() < end; ++it) {
    Entry& entry = slab_[it.slot()];
    const std::uint64_t seq = next_lru_seq_++;
    if (!entry.dirty) {
      // The newest sequence number: the entry moves to the index's end.
      const bool indexed = lru_.erase(entry.lru_seq);
      S4D_DCHECK(indexed) << "LRU index lost the extent at " << entry.begin;
      lru_.insert(seq, it.slot());
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
  // Only clean space is reclaimable, and the index holds nothing else.
  for (auto lru_it = lru_.begin(); lru_it != lru_.end(); ++lru_it) {
    const Slot slot = lru_it.slot();
    const Entry& entry = slab_[slot];
    S4D_DCHECK(!entry.dirty && entry.lru_seq == lru_it.key())
        << "LRU index out of sync for file " << entry.file << " at "
        << entry.begin;
    const RemovedExtent ext{entry.file, entry.begin, entry.end,
                            entry.cache_offset, false, entry.owner};
    if (pred && !pred(ext)) continue;  // outside the caller's partition

    mapped_bytes_ -= ext.length();
    --entry_count_;
    lru_.erase(lru_it);
    ErasePersisted(ext.file, ext.orig_begin);
    files_[ext.file].extents.erase(ext.orig_begin);
    free_slots_.push_back(slot);
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
    files_[file].dirty.ForEachWhile([&](byte_count, Slot slot) {
      const Entry& entry = slab_[slot];
      if (total + run.length() >= max_total_bytes) return false;
      const bool continues =
          open && run.orig_end == entry.begin &&
          run.length() + (entry.end - entry.begin) <= max_run_bytes;
      if (!continues) emit();
      if (!open) {
        open = true;
        run.file = file;
        run.orig_begin = entry.begin;
      }
      run.orig_end = entry.end;
      if (busy) return true;
      if (entry.flushing == entry.version) {
        busy = true;
        run.segments.clear();
        return true;
      }
      run.segments.push_back(DirtyRange{file, entry.begin, entry.end,
                                        entry.cache_offset, entry.version});
      return true;
    });
    emit();
  }
  return runs;
}

void DataMappingTable::BeginFlush(const DirtyExtentKey& key) {
  const ExtentIndex& extents = files_.at(key.file).extents;
  const auto it = extents.find(key.begin);
  S4D_CHECK(it != extents.end() && slab_[it.slot()].dirty &&
            slab_[it.slot()].version == key.version)
      << "flush of a stale snapshot: file " << key.file << " at " << key.begin;
  S4D_DCHECK(slab_[it.slot()].flushing != key.version)
      << "flush issued twice for file " << key.file << " at " << key.begin;
  slab_[it.slot()].flushing = key.version;
}

void DataMappingTable::EndFlush(const DirtyExtentKey& key) {
  if (key.file >= files_.size()) return;
  const ExtentIndex& extents = files_[key.file].extents;
  // The entry may be gone (invalidated) or re-flushed at a newer version.
  const auto it = extents.find(key.begin);
  if (it == extents.end()) return;
  Entry& entry = slab_[it.slot()];
  if (entry.flushing == key.version) entry.flushing = kNotFlushing;
}

bool DataMappingTable::MarkCleanIfVersion(FileIndex file, byte_count begin,
                                          byte_count end,
                                          std::uint64_t version) {
  if (file >= files_.size()) return false;
  const ExtentIndex& extents = files_[file].extents;
  const auto it = extents.find(begin);
  if (it == extents.end()) return false;
  const Slot slot = it.slot();
  Entry& entry = slab_[slot];
  if (entry.flushing == version) entry.flushing = kNotFlushing;
  if (entry.end != end || entry.version != version || !entry.dirty) {
    return false;  // the extent changed while the flush was in flight
  }
  SetEntryDirty(slot, false);
  PersistEntry(entry);
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
    const ExtentIndex& dirty = files_[file].dirty;
    for (auto it = dirty.begin(); it != dirty.end(); ++it) {
      const Entry& entry = slab_[it.slot()];
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
  out.reserve(entry_count_);
  for (const FileIndex file : order_) {
    const ExtentIndex& extents = files_[file].extents;
    for (auto it = extents.begin(); it != extents.end(); ++it) {
      const Entry& entry = slab_[it.slot()];
      out.push_back(RemovedExtent{file, entry.begin, entry.end,
                                  entry.cache_offset, entry.dirty,
                                  entry.owner});
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
  std::vector<char> used(slab_.size(), 0);  // by slot
  lru_.AuditInvariants();
  for (std::size_t i = 0; i < files_.size(); ++i) {
    const File& f = files_[i];
    f.extents.AuditInvariants();
    f.dirty.AuditInvariants();
    S4D_CHECK(f.mapped || f.extents.empty())
        << "file " << i << " holds extents but is not in the walk order";
    if (f.mapped) ++listed;
    byte_count prev_end = 0;
    bool first = true;
    std::size_t dirty_entries = 0;
    for (auto it = f.extents.begin(); it != f.extents.end(); ++it) {
      const byte_count begin = it.key();
      const Slot slot = it.slot();
      S4D_CHECK(slot < slab_.size() && used[slot] == 0)
          << "extent at " << begin << " in file " << i << " names slot "
          << slot << ", out of range or already used";
      used[slot] = 1;
      const Entry& entry = slab_[slot];
      S4D_CHECK(entry.file == i && entry.begin == begin)
          << "extent index of file " << i << " lists " << begin
          << " for the entry of file " << entry.file << " at " << entry.begin;
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
      const auto lru = lru_.find(entry.lru_seq);
      mapped += entry.end - begin;
      if (entry.dirty) {
        dirty += entry.end - begin;
        ++dirty_entries;
        const auto indexed = f.dirty.find(begin);
        S4D_CHECK(indexed != f.dirty.end() && indexed.slot() == slot)
            << "dirty extent at " << begin << " in file " << i
            << " missing from the dirty index";
        S4D_CHECK(lru == lru_.end())
            << "dirty extent at " << begin << " in file " << i
            << " listed in the clean LRU index";
      } else {
        ++clean_entries;
        S4D_CHECK(lru != lru_.end())
            << "clean extent at " << begin << " in file " << i
            << " missing from the clean LRU index";
        S4D_CHECK(lru.slot() == slot)
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
  for (const Slot slot : free_slots_) {
    S4D_CHECK(slot < slab_.size() && used[slot] == 0)
        << "free slot " << slot << " is out of range, live or listed twice";
    used[slot] = 1;
  }
  S4D_CHECK(entries + free_slots_.size() == slab_.size())
      << "slab holds " << slab_.size() << " slots: " << entries
      << " live and " << free_slots_.size() << " free";
  S4D_CHECK(listed == order_.size())
      << "walk order lists " << order_.size() << " files, " << listed
      << " are mapped";
  // Every clean extent is indexed under its own sequence number, so equal
  // sizes leave no room for a stale LRU reference.
  S4D_CHECK(clean_entries == lru_.size())
      << "clean LRU index holds " << lru_.size() << " refs for "
      << clean_entries << " clean extents";
  S4D_CHECK(entries == entry_count_)
      << "entry counter " << entry_count_ << " != recomputed " << entries;
  S4D_CHECK(mapped == mapped_bytes_)
      << "mapped_bytes counter " << mapped_bytes_ << " != recomputed "
      << mapped;
  S4D_CHECK(dirty == dirty_bytes_)
      << "dirty_bytes counter " << dirty_bytes_ << " != recomputed " << dirty;
}

}  // namespace s4d::core
