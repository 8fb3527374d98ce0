#include "core/cdt.h"

#include <cstddef>
#include <unordered_set>

#include "common/check.h"

namespace s4d::core {

bool CriticalDataTable::Add(const CdtKey& key) {
  // Find first: emplace would build (and free) a node for every request
  // that is already recorded.
  if (entries_.find(key) != entries_.end()) return false;
  entries_.emplace(key, Info{});
  insertion_order_.push_back(key);
  while (entries_.size() > max_entries_ && !insertion_order_.empty()) {
    // The victim may equal the key just inserted only if max_entries_ == 0;
    // the FIFO guarantees oldest-first otherwise.
    auto victim = entries_.find(insertion_order_.front());
    S4D_CHECK(victim != entries_.end()) << "CDT FIFO holds a dead key";
    if (victim->second.queued_seq != 0) --flagged_count_;
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
  if (it->second.queued_seq == 0) {
    it->second.queued_seq = ++queued_total_;
    flagged_.push_back(QueuedKey{key, queued_total_});
    ++flagged_count_;
  }
  it->second.flag_owner = owner;
  MaybeAudit();
  return true;
}

bool CriticalDataTable::CacheFlag(const CdtKey& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.queued_seq != 0;
}

std::vector<PendingFetch> CriticalDataTable::TakePendingFetches(
    std::size_t limit) {
  std::vector<PendingFetch> out;
  while (!flagged_.empty() && out.size() < limit) {
    const QueuedKey queued = flagged_.front();
    flagged_.pop_front();
    auto it = entries_.find(queued.key);
    if (it == entries_.end() || it->second.queued_seq != queued.seq) {
      continue;  // left behind by an evicted entry
    }
    it->second.queued_seq = 0;
    --flagged_count_;
    out.push_back(PendingFetch{queued.key, it->second.flag_owner});
  }
  MaybeAudit();
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
        << "CDT FIFO key file " << key.file << ":" << key.offset << "+"
        << key.length << " not in the table";
  }
  // flagged_ is pruned lazily, so stale copies are fine — but no live
  // entry may be queued twice (one take would name it twice), and each
  // flagged entry's queued_seq must name a copy in the queue, or the
  // Rebuilder will never fetch it.
  std::unordered_set<const CdtKey*> queued;
  queued.reserve(flagged_.size());
  for (const QueuedKey& copy : flagged_) {
    auto it = entries_.find(copy.key);
    if (it == entries_.end() || it->second.queued_seq != copy.seq) continue;
    S4D_CHECK(queued.insert(&it->first).second)
        << "CDT key file " << copy.key.file << ":" << copy.key.offset << "+"
        << copy.key.length << " queued twice for fetching";
  }
  std::size_t flagged = 0;
  for (const auto& [key, info] : entries_) {
    const bool has_copy = queued.count(&key) > 0;
    S4D_CHECK((info.queued_seq != 0) == has_copy)
        << "CDT entry file " << key.file << ":" << key.offset << "+"
        << key.length << " records queue copy " << info.queued_seq << ", "
        << (has_copy ? "found" : "not found") << " in the fetch queue";
    if (info.queued_seq != 0) ++flagged;
  }
  S4D_CHECK(flagged == flagged_count_)
      << "CDT counts " << flagged_count_ << " live C_flags, " << flagged
      << " entries carry one";
}

}  // namespace s4d::core
