#include "tenant/ghost_cache.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"

namespace s4d::tenant {

void GhostCache::Erase(const std::string& file, byte_count begin) {
  auto fit = ranges_.find(file);
  S4D_DCHECK(fit != ranges_.end());
  auto rit = fit->second.find(begin);
  S4D_DCHECK(rit != fit->second.end());
  fifo_.erase(rit->second.seq);
  fit->second.erase(rit);
  if (fit->second.empty()) ranges_.erase(fit);
}

void GhostCache::Insert(const std::string& file, byte_count begin,
                        byte_count end) {
  if (capacity_ == 0 || begin >= end) return;
  // Absorb overlapping remembered ranges so per-file ranges stay disjoint
  // (re-evicting a range refreshes its FIFO position).
  auto& file_ranges = ranges_[file];
  auto it = file_ranges.upper_bound(begin);
  if (it != file_ranges.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > begin) it = prev;
  }
  while (it != file_ranges.end() && it->first < end) {
    begin = std::min(begin, it->first);
    end = std::max(end, it->second.end);
    fifo_.erase(it->second.seq);
    it = file_ranges.erase(it);
  }
  const std::uint64_t seq = next_seq_++;
  file_ranges[begin] = Range{end, seq};
  fifo_[seq] = {file, begin};
  while (fifo_.size() > capacity_) {
    const auto& [old_file, old_begin] = fifo_.begin()->second;
    Erase(old_file, old_begin);
  }
}

bool GhostCache::Contains(const std::string& file, byte_count begin,
                          byte_count end) const {
  const auto fit = ranges_.find(file);
  if (fit == ranges_.end()) return false;
  auto it = fit->second.upper_bound(begin);
  if (it != fit->second.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > begin) return true;
  }
  return it != fit->second.end() && it->first < end;
}

bool GhostCache::Probe(const std::string& file, byte_count begin,
                       byte_count end) {
  auto fit = ranges_.find(file);
  if (fit == ranges_.end()) return false;
  auto it = fit->second.upper_bound(begin);
  if (it != fit->second.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > begin) it = prev;
  }
  bool hit = false;
  while (it != fit->second.end() && it->first < end) {
    fifo_.erase(it->second.seq);
    it = fit->second.erase(it);
    hit = true;
  }
  if (fit->second.empty()) ranges_.erase(fit);
  if (hit) ++hits_;
  return hit;
}

void GhostCache::AuditInvariants() const {
  S4D_CHECK(fifo_.size() <= capacity_ || capacity_ == 0)
      << "ghost cache over capacity: " << fifo_.size() << " > " << capacity_;
  std::size_t counted = 0;
  for (const auto& [file, file_ranges] : ranges_) {
    byte_count last_end = 0;
    bool first = true;
    for (const auto& [begin, range] : file_ranges) {
      S4D_CHECK(range.end > begin)
          << "ghost range empty: " << file << " [" << begin << ", "
          << range.end << ")";
      S4D_CHECK(first || begin >= last_end)
          << "ghost ranges overlap in " << file << " at " << begin;
      first = false;
      last_end = range.end;
      const auto fit = fifo_.find(range.seq);
      S4D_CHECK(fit != fifo_.end() && fit->second.first == file &&
                fit->second.second == begin)
          << "ghost FIFO missing entry for " << file << " @" << begin;
      ++counted;
    }
  }
  S4D_CHECK(counted == fifo_.size())
      << "ghost FIFO size " << fifo_.size() << " != indexed " << counted;
}

}  // namespace s4d::tenant
