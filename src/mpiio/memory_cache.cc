#include "mpiio/memory_cache.h"

#include "common/check.h"

namespace s4d::mpiio {

MemoryCacheDispatch::MemoryCacheDispatch(sim::Engine& engine,
                                         IoDispatch& backend,
                                         MemoryCacheConfig config)
    : engine_(engine), backend_(backend), config_(config) {
  S4D_CHECK(config_.page_size > 0)
      << "memory cache page size " << config_.page_size << " must be > 0";
  max_pages_ = static_cast<std::size_t>(
      std::max<byte_count>(1, config_.capacity / config_.page_size));
}

bool MemoryCacheDispatch::FullyCached(const std::string& file,
                                      byte_count offset, byte_count size) {
  const byte_count first = offset / config_.page_size;
  const byte_count last = (offset + size - 1) / config_.page_size;
  for (byte_count page = first; page <= last; ++page) {
    auto it = pages_.find(PageKey{file, page});
    if (it == pages_.end()) return false;
    // Touch for LRU.
    lru_.splice(lru_.begin(), lru_, it->second);
  }
  return true;
}

void MemoryCacheDispatch::InsertPages(const std::string& file,
                                      byte_count offset, byte_count size) {
  const byte_count first = offset / config_.page_size;
  const byte_count last = (offset + size - 1) / config_.page_size;
  for (byte_count page = first; page <= last; ++page) {
    const PageKey key{file, page};
    auto it = pages_.find(key);
    if (it != pages_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      continue;
    }
    lru_.push_front(key);
    pages_.emplace(key, lru_.begin());
    while (pages_.size() > max_pages_) {
      pages_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
    }
  }
}

void MemoryCacheDispatch::Read(const FileRequest& request, IoCompletion done) {
  if (request.size > 0 && FullyCached(request.file, request.offset,
                                      request.size)) {
    ++stats_.read_hits;
    engine_.ScheduleAfter(config_.hit_latency,
                          [this, done = std::move(done)]() {
                            if (done) done(engine_.now());
                          });
    return;
  }
  ++stats_.read_misses;
  backend_.Read(request, [this, request, done = std::move(done)](SimTime t) {
    InsertPages(request.file, request.offset, request.size);
    if (done) done(t);
  });
}

void MemoryCacheDispatch::Write(const FileRequest& request,
                                IoCompletion done) {
  ++stats_.writes;
  // Write-through. Only pages the write covers *fully* become cached —
  // a partially-written page would otherwise count as a hit for bytes the
  // client never fetched. (Content correctness is unaffected either way;
  // the backend stays authoritative.)
  if (request.size > 0) {
    const byte_count begin_aligned =
        CeilDiv(request.offset, config_.page_size) * config_.page_size;
    const byte_count end_aligned =
        (request.offset + request.size) / config_.page_size *
        config_.page_size;
    if (end_aligned > begin_aligned) {
      InsertPages(request.file, begin_aligned, end_aligned - begin_aligned);
    }
  }
  backend_.Write(request, std::move(done));
}

}  // namespace s4d::mpiio
