#include "core/cdt.h"

#include <unordered_set>

#include "common/check.h"

namespace s4d::core {

bool CriticalDataTable::Add(const CdtKey& key) {
  // Find first: emplace would build (and free) a node, with a copy of the
  // file name, for every request that is already recorded.
  if (entries_.find(key) != entries_.end()) return false;
  entries_.emplace(key, Info{});
  ++mutation_epoch_;
  insertion_order_.push_back(key);
  while (entries_.size() > max_entries_ && !insertion_order_.empty()) {
    // The victim may equal the key just inserted only if max_entries_ == 0;
    // the FIFO guarantees oldest-first otherwise.
    auto victim = entries_.find(insertion_order_.front());
    S4D_CHECK(victim != entries_.end()) << "CDT FIFO holds a dead key";
    if (victim->second.c_flag) --flagged_count_;
    entries_.erase(victim);
    insertion_order_.pop_front();
    ++evictions_;
  }
  MaybeAudit();
  return true;
}

bool CriticalDataTable::SetCacheFlag(const CdtKey& key, int owner) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  ++mutation_epoch_;
  if (!it->second.c_flag) {
    it->second.c_flag = true;
    ++flagged_count_;
    flagged_.push_back(key);
  }
  it->second.flag_owner = owner;
  MaybeAudit();
  return true;
}

void CriticalDataTable::ClearCacheFlag(const CdtKey& key) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++mutation_epoch_;
    if (it->second.c_flag) --flagged_count_;
    it->second.c_flag = false;
    it->second.flag_owner = -1;
  }
}

bool CriticalDataTable::CacheFlag(const CdtKey& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.c_flag;
}

std::vector<PendingFetch> CriticalDataTable::PendingFetches(
    std::size_t limit) {
  std::vector<PendingFetch> out;
  // Pop the walked prefix off the queue, dropping stale keys (cleared
  // flags, evicted entries), then push the live ones back in their order:
  // the queue ends exactly as an in-place prune would leave it.
  while (!flagged_.empty() && out.size() < limit) {
    auto it = entries_.find(flagged_.front());
    if (it != entries_.end() && it->second.c_flag) {
      out.push_back(PendingFetch{std::move(flagged_.front()),
                                 it->second.flag_owner});
    }
    flagged_.pop_front();
  }
  for (auto live = out.rbegin(); live != out.rend(); ++live) {
    flagged_.push_front(live->key);
  }
  return out;
}

void CriticalDataTable::AuditInvariants() const {
  S4D_CHECK(max_entries_ == 0 || entries_.size() <= max_entries_)
      << "CDT holds " << entries_.size() << " entries, bound is "
      << max_entries_;
  // Add() pushes each key exactly once and eviction pops it, so the FIFO
  // holds exactly the live keys.
  S4D_CHECK(insertion_order_.size() == entries_.size())
      << "CDT FIFO holds " << insertion_order_.size() << " keys for "
      << entries_.size() << " entries";
  for (const CdtKey& key : insertion_order_) {
    S4D_CHECK(entries_.find(key) != entries_.end())
        << "CDT FIFO key " << key.file << ":" << key.offset << "+"
        << key.length << " not in the table";
  }
  // flagged_ is pruned lazily, so stale keys are fine — but every live
  // C_flag must be queued or the Rebuilder will never fetch it.
  std::unordered_set<const CdtKey*> queued;
  queued.reserve(flagged_.size());
  for (const CdtKey& key : flagged_) {
    auto it = entries_.find(key);
    if (it != entries_.end()) queued.insert(&it->first);
  }
  std::size_t flagged = 0;
  for (const auto& [key, info] : entries_) {
    S4D_CHECK(!info.c_flag || queued.count(&key) > 0)
        << "C_flagged entry " << key.file << ":" << key.offset << "+"
        << key.length << " missing from the fetch queue";
    if (info.c_flag) ++flagged;
  }
  S4D_CHECK(flagged == flagged_count_)
      << "CDT counts " << flagged_count_ << " live C_flags, " << flagged
      << " entries carry one";
}

}  // namespace s4d::core
