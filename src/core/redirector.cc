#include "core/redirector.h"

#include "common/check.h"

namespace s4d::core {

namespace {

IoSegment CacheSegment(byte_count cache_offset, byte_count orig_offset,
                       byte_count size) {
  IoSegment seg;
  seg.target = IoSegment::Target::kCServers;
  seg.offset = cache_offset;
  seg.orig_offset = orig_offset;
  seg.size = size;
  return seg;
}

IoSegment DServerSegment(byte_count orig_offset, byte_count size) {
  IoSegment seg;
  seg.target = IoSegment::Target::kDServers;
  seg.offset = orig_offset;
  seg.orig_offset = orig_offset;
  seg.size = size;
  return seg;
}

}  // namespace

bool Redirector::FreeAllocationAllowed(byte_count size) const {
  if (extensions_ == nullptr) return true;
  for (CacheExtension* extension : extensions_->attached) {
    if (!extension->AllowFreeAllocation(size)) return false;
  }
  return true;
}

void Redirector::Release(const RemovedExtent& extent, bool evicted) {
  if (on_release_) {
    on_release_(extent.file, extent.cache_offset, extent.length());
  }
  if (extensions_ != nullptr) {
    for (CacheExtension* extension : extensions_->attached) {
      extension->OnRemoved(extent, evicted);
    }
  }
  space_.Free(extent.cache_offset, extent.length());
}

std::optional<byte_count> Redirector::AllocateCacheSpace(byte_count size) {
  // Algorithm 1: first look for free space (line 4); if none, reclaim clean
  // space chosen by the eviction policy (line 9; clean-LRU unless an
  // extension selects victims) until the allocation fits or nothing clean
  // remains. The tenant gate can veto free-space allocation for an
  // over-allowance tenant; the loop then reclaims via the victim selector
  // (which the tenant subsystem restricts to the offender's own partition,
  // so each eviction re-opens its allowance and the loop terminates).
  CacheExtension* selector =
      extensions_ != nullptr ? extensions_->victim_selector : nullptr;
  while (true) {
    if (FreeAllocationAllowed(size)) {
      if (auto offset = space_.Allocate(size)) return offset;
    }
    auto victim = selector != nullptr ? selector->SelectVictim(dmt_)
                                      : dmt_.EvictLruClean();
    if (!victim) return std::nullopt;
    Release(*victim, /*evicted=*/true);
    ++stats_.evictions;
  }
}

std::vector<RemovedExtent> Redirector::InvalidateAndRelease(
    const std::string& file, byte_count offset, byte_count size) {
  auto removed = dmt_.Invalidate(file, offset, size);
  for (const RemovedExtent& ext : removed) {
    Release(ext, /*evicted=*/false);
    ++stats_.invalidated_extents;
  }
  return removed;
}

void Redirector::InvalidateCleanAndRelease(const std::string& file,
                                           byte_count offset,
                                           byte_count size) {
  const DmtLookup lookup = dmt_.Lookup(file, offset, size);
  for (const MappedSegment& seg : lookup.mapped) {
    if (seg.dirty) continue;
    (void)InvalidateAndRelease(file, seg.orig_begin,
                               seg.orig_end - seg.orig_begin);
  }
}

RoutingPlan Redirector::PlanDegradedWrite(const std::string& file,
                                          byte_count offset, byte_count size) {
  // Cache tier unreachable: the whole write goes to DServers. Overlapping
  // mappings — clean or dirty — are superseded by the new data over the
  // clipped overlap, so invalidating them loses nothing; dirty extents
  // *outside* the write keep their mapping and will flush after recovery.
  ++stats_.degraded_writes;
  RoutingPlan plan;
  const auto removed = InvalidateAndRelease(file, offset, size);
  plan.dmt_mutated = !removed.empty();
  plan.segments.push_back(DServerSegment(offset, size));
  ++stats_.write_to_dservers;
  return plan;
}

RoutingPlan Redirector::PlanDegradedRead(const std::string& file,
                                         byte_count offset, byte_count size) {
  // Clean mapped data has an identical DServer copy, so a full-range
  // DServer read serves it correctly. Dirty overlap means the only
  // up-to-date bytes are unreachable: flag the plan and let the caller
  // queue or knowingly serve stale.
  ++stats_.degraded_reads;
  RoutingPlan plan;
  const DmtLookup lookup = dmt_.Lookup(file, offset, size);
  for (const MappedSegment& seg : lookup.mapped) {
    if (seg.dirty) {
      plan.blocked_on_cache = true;
      ++stats_.degraded_dirty_reads;
      break;
    }
  }
  plan.segments.push_back(DServerSegment(offset, size));
  return plan;
}

RoutingPlan Redirector::PlanWrite(const std::string& file, byte_count offset,
                                  byte_count size, bool critical) {
  ++stats_.write_requests;
  if (!tier_.Reachable()) return PlanDegradedWrite(file, offset, size);
  RoutingPlan plan;
  const DmtLookup lookup = dmt_.Lookup(file, offset, size);

  if (lookup.fully_mapped()) {
    // Algorithm 1 line 22: already mapped — write lands in CServers.
    ++stats_.write_cache_hits;
    plan.dmt_mutated = true;
    dmt_.SetDirty(file, offset, size, true);
    dmt_.Touch(file, offset, size);
    for (const MappedSegment& seg : lookup.mapped) {
      plan.segments.push_back(CacheSegment(seg.cache_offset, seg.orig_begin,
                                           seg.orig_end - seg.orig_begin));
    }
    plan.served_fully_by_cache = true;
    return plan;
  }

  bool admit = ShouldAdmit(critical);
  if (admit && tier_.Saturated()) {
    // Load shedding: a saturated cache tier stops attracting new
    // admissions; the not-admitted DServer path below handles overlap
    // consistency exactly as for a non-critical write.
    admit = false;
    ++stats_.saturation_write_bypasses;
  }
  if (admit) {
    // Admit the unmapped parts; keep the mapped parts where they are.
    // Mark the already-mapped parts dirty FIRST: gap allocation below may
    // evict clean LRU extents, and the mapped segments of this very range
    // are clean candidates until dirtied — evicting them mid-admission
    // would silently drop part of the write.
    if (!lookup.mapped.empty()) {
      dmt_.SetDirty(file, offset, size, true);
    }
    InlineVector<std::pair<byte_count, byte_count>, 4> allocated;  // off, size
    InlineVector<std::pair<byte_count, byte_count>, 4> gap_ranges;
    bool ok = true;
    for (const auto& [gap_begin, gap_end] : lookup.gaps) {
      const byte_count gap_size = gap_end - gap_begin;
      auto cache_offset = AllocateCacheSpace(gap_size);
      if (!cache_offset) {
        ok = false;
        break;
      }
      allocated.emplace_back(*cache_offset, gap_size);
      gap_ranges.emplace_back(gap_begin, gap_end);
    }
    if (ok) {
      for (std::size_t i = 0; i < allocated.size(); ++i) {
        dmt_.Insert(file, gap_ranges[i].first,
                    gap_ranges[i].second - gap_ranges[i].first,
                    allocated[i].first, /*dirty=*/true);
      }
      dmt_.Touch(file, offset, size);
      // Re-resolve: the whole range is now mapped.
      const DmtLookup mapped_now = dmt_.Lookup(file, offset, size);
      S4D_DCHECK(mapped_now.fully_mapped());
      for (const MappedSegment& seg : mapped_now.mapped) {
        plan.segments.push_back(CacheSegment(
            seg.cache_offset, seg.orig_begin, seg.orig_end - seg.orig_begin));
      }
      plan.served_fully_by_cache = true;
      plan.admitted = true;
      plan.dmt_mutated = true;
      ++stats_.write_admissions;
      return plan;
    }
    // Roll back partial allocations; fall through to the DServer path.
    for (const auto& [cache_offset, alloc_size] : allocated) {
      space_.Free(cache_offset, alloc_size);
    }
    ++stats_.admission_failures;
  }

  // Not admitted: the whole write goes to DServers (Algorithm 1's else).
  // Any overlapping cached data is now stale and must be dropped — flushing
  // an old dirty extent over this write later would corrupt the file.
  const auto removed = dmt_.Invalidate(file, offset, size);
  for (const RemovedExtent& ext : removed) {
    Release(ext, /*evicted=*/false);
    ++stats_.invalidated_extents;
    plan.dmt_mutated = true;
  }
  plan.segments.push_back(DServerSegment(offset, size));
  ++stats_.write_to_dservers;
  return plan;
}

RoutingPlan Redirector::PlanRead(const std::string& file, byte_count offset,
                                 byte_count size, bool critical) {
  ++stats_.read_requests;
  if (!tier_.Reachable()) return PlanDegradedRead(file, offset, size);
  // A saturated tier (still reachable, so dirty data keeps coming from it)
  // sheds what it can: clean hits and new fetch work.
  const bool saturated = tier_.Saturated();
  RoutingPlan plan;
  const DmtLookup lookup = dmt_.Lookup(file, offset, size);

  // Clean-hit bypass: if every cached byte of the range is clean, the
  // DServers hold identical data — and when the cost model says this
  // request streams well on the HDD array (B <= 0, e.g. a once-random
  // range now being scanned sequentially), serving it there is faster AND
  // keeps the CServers free for requests that need them. Dirty data has no
  // DServer copy and always comes from the cache. A saturated tier extends
  // the bypass to critical requests — shedding reads it can shed.
  if (policy_ == AdmissionPolicy::kCostModel && (!critical || saturated) &&
      !lookup.mapped.empty()) {
    bool any_dirty = false;
    for (const MappedSegment& seg : lookup.mapped) {
      if (seg.dirty) {
        any_dirty = true;
        break;
      }
    }
    if (!any_dirty) {
      if (critical) {
        ++stats_.saturation_read_bypasses;
      } else {
        ++stats_.read_clean_bypasses;
      }
      plan.segments.push_back(DServerSegment(offset, size));
      return plan;
    }
  }

  if (lookup.fully_mapped()) {
    ++stats_.read_cache_hits;
    dmt_.Touch(file, offset, size);
    for (const MappedSegment& seg : lookup.mapped) {
      plan.segments.push_back(CacheSegment(seg.cache_offset, seg.orig_begin,
                                           seg.orig_end - seg.orig_begin));
    }
    plan.served_fully_by_cache = true;
    return plan;
  }

  // Miss (or partial miss): Algorithm 1 lines 16–19 — a critical read is
  // cached lazily: mark C_flag so the Rebuilder fetches it in the
  // background, but serve the miss from DServers now.
  if (ShouldAdmit(critical) && policy_ == AdmissionPolicy::kCostModel) {
    if (saturated) {
      // No new background fetch work for a tier already over its depth.
      ++stats_.saturation_fetch_suppressions;
    } else if (cdt_.SetCacheFlag(CdtKey{file, offset, size}, charge_owner_)) {
      plan.lazy_fetch_marked = true;
      ++stats_.lazy_fetch_marks;
    }
  } else if (policy_ == AdmissionPolicy::kAlways) {
    // Ablation: track every miss for fetching.
    cdt_.Add(CdtKey{file, offset, size});
    if (cdt_.SetCacheFlag(CdtKey{file, offset, size}, charge_owner_)) {
      plan.lazy_fetch_marked = true;
      ++stats_.lazy_fetch_marks;
    }
  }

  if (lookup.fully_unmapped()) {
    ++stats_.read_misses;
    plan.segments.push_back(DServerSegment(offset, size));
    return plan;
  }

  // Partial hit: mapped pieces (which may hold dirty data found nowhere
  // else) come from CServers; gaps come from DServers.
  ++stats_.read_partial_hits;
  dmt_.Touch(file, offset, size);
  for (const MappedSegment& seg : lookup.mapped) {
    plan.segments.push_back(CacheSegment(seg.cache_offset, seg.orig_begin,
                                         seg.orig_end - seg.orig_begin));
  }
  for (const auto& [gap_begin, gap_end] : lookup.gaps) {
    plan.segments.push_back(DServerSegment(gap_begin, gap_end - gap_begin));
  }
  return plan;
}

}  // namespace s4d::core
