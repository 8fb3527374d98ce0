#include "pfs/file_system.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace s4d::pfs {

FileSystem::FileSystem(sim::Engine& engine, FsConfig config,
                       DeviceFactory factory)
    : engine_(engine), config_(std::move(config)) {
  S4D_CHECK(config_.stripe.server_count >= 1)
      << "file system needs at least one server, got "
      << config_.stripe.server_count;
  servers_.reserve(static_cast<std::size_t>(config_.stripe.server_count));
  for (int i = 0; i < config_.stripe.server_count; ++i) {
    servers_.push_back(std::make_unique<FileServer>(
        engine_, factory(i), net::LinkModel(config_.link),
        config_.name + "/server" + std::to_string(i)));
  }
}

FileId FileSystem::OpenOrCreate(const std::string& name) {
  // Find first: emplace builds its node (and a copy of the name) before it
  // looks the key up, and nearly every call names an open file.
  if (auto it = files_by_name_.find(name); it != files_by_name_.end()) {
    return it->second;
  }
  const auto id = static_cast<FileId>(file_names_.size());
  files_by_name_.emplace(name, id);
  file_names_.push_back(name);
  if (config_.track_content) contents_.emplace_back();
  return id;
}

FileId FileSystem::Lookup(const std::string& name) const {
  auto it = files_by_name_.find(name);
  return it == files_by_name_.end() ? kInvalidFile : it->second;
}

byte_count FileSystem::FileBaseLba(FileId file) const {
  return static_cast<byte_count>(file) * config_.file_reservation_per_server;
}

void FileSystem::SetObservability(obs::Observability* obs) {
  for (const auto& server : servers_) {
    server->SetObservability(obs, config_.name);
  }
  if (obs == nullptr) return;
  // Tier-level load signals, evaluated lazily at sample/export time.
  obs->metrics.SetGaugeFn("pfs." + config_.name + ".queue_depth", [this] {
    std::size_t depth = 0;
    for (const auto& server : servers_) depth += server->queue_depth();
    return static_cast<double>(depth);
  });
  obs->metrics.SetGaugeFn("pfs." + config_.name + ".link_busy_ns", [this] {
    SimTime busy = 0;
    for (const auto& server : servers_) busy += server->link().stats().wire_time;
    return static_cast<double>(busy);
  });
}

void FileSystem::SetSubRequestSink(SubRequestSink* sink, std::uint32_t tag) {
  for (int i = 0; i < server_count(); ++i) {
    servers_[static_cast<std::size_t>(i)]->SetSubRequestSink(sink, tag, i);
  }
}

std::int64_t FileSystem::outstanding_subs() const {
  std::int64_t held = 0;
  for (const auto& server : servers_) {
    held += static_cast<std::int64_t>(server->held_jobs());
  }
  return held;
}

FileSystem::Fanout* FileSystem::AcquireFanout() {
  if (fanout_free_.empty()) {
    fanout_pool_.push_back(std::make_unique<Fanout>());
    fanout_free_.push_back(fanout_pool_.back().get());
  }
  Fanout* fanout = fanout_free_.back();
  fanout_free_.pop_back();
  return fanout;
}

void FileSystem::OnJobResolved(std::uint64_t cookie, SimTime time,
                               bool failed) {
  Fanout* fanout = reinterpret_cast<Fanout*>(cookie);
  S4D_DCHECK(fanout->remaining > 0)
      << "sub-request completion after the request already finished";
  fanout->last = std::max(fanout->last, time);
  if (failed) fanout->failed = true;
  if (--fanout->remaining > 0) return;
  // Move the callbacks out and recycle *before* firing: the callback may
  // submit a follow-up request that re-acquires this very Fanout.
  auto on_complete = std::move(fanout->on_complete);
  auto on_failure = std::move(fanout->on_failure);
  const bool request_failed = fanout->failed;
  const SimTime last = fanout->last;
  fanout->on_complete = nullptr;
  fanout->on_failure = nullptr;
  fanout_free_.push_back(fanout);
  if (request_failed) {
    ++stats_.failed_requests;
    auto& cb = on_failure ? on_failure : on_complete;
    if (cb) cb(last);
  } else if (on_complete) {
    on_complete(last);
  }
}

void FileSystem::Submit(FileId file, device::IoKind kind, byte_count offset,
                        byte_count size, Priority priority,
                        std::function<void(SimTime)> on_complete,
                        std::function<void(SimTime)> on_failure,
                        obs::SpanId parent_span) {
  S4D_CHECK(file >= 0 && static_cast<std::size_t>(file) < file_names_.size())
      << "I/O on unopened file id " << file << " (" << file_names_.size()
      << " files open)";
  S4D_CHECK(offset >= 0) << "negative file offset " << offset;

  // Split into reused storage. It is taken out of the member for the call,
  // so a Submit re-entered from an observer splits into storage of its own.
  std::vector<SubRequest> subs = std::move(split_scratch_);
  SplitRequestInto(config_.stripe, offset, size, subs);
  if (subs.empty()) {
    split_scratch_ = std::move(subs);
    engine_.ScheduleAfter(0, [cb = std::move(on_complete), this]() {
      if (cb) cb(engine_.now());
    });
    return;
  }

  ++stats_.requests;
  stats_.bytes += size;

  RequestRecord record;
  record.file = file;
  record.kind = kind;
  record.offset = offset;
  record.size = size;
  record.priority = priority;
  record.issue_time = engine_.now();
  record.server_count = static_cast<int>(subs.size());
  for (const auto& observer : observers_) observer(record);

  // Failure-aware join: the request resolves when the last sub-request
  // does; it fails as a whole if any sub-request failed.
  Fanout* state = AcquireFanout();
  state->remaining = static_cast<int>(subs.size());
  state->last = 0;
  state->failed = false;
  state->on_complete = std::move(on_complete);
  state->on_failure = std::move(on_failure);

  ServerJob job;
  job.kind = kind;
  job.priority = priority;
  job.sink = this;
  job.cookie = reinterpret_cast<std::uintptr_t>(state);
  job.parent_span = parent_span;
  const byte_count base = FileBaseLba(file);
  for (const SubRequest& sub : subs) {
    job.lba = base + sub.server_offset;
    job.size = sub.size;
    servers_[static_cast<std::size_t>(sub.server)]->Submit(job);
  }
  split_scratch_ = std::move(subs);
}

bool FileSystem::AllServersReachable() const {
  for (const auto& server : servers_) {
    if (!server->reachable()) return false;
  }
  return true;
}

int FileSystem::DownServerCount() const {
  int down = 0;
  for (const auto& server : servers_) {
    if (!server->up()) ++down;
  }
  return down;
}

double FileSystem::WorstDeviceDegrade() const {
  double worst = 1.0;
  for (const auto& server : servers_) {
    worst = std::max(worst, server->device().degrade());
  }
  return worst;
}

double FileSystem::WorstWearFraction() const {
  double worst = 0.0;
  for (const auto& server : servers_) {
    worst = std::max(worst, server->device().WearFraction());
  }
  return worst;
}

double FileSystem::MeanQueueDepth() const {
  if (servers_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& server : servers_) {
    sum += static_cast<double>(server->queue_depth());
  }
  return sum / static_cast<double>(servers_.size());
}

void FileSystem::StampContent(FileId file, byte_count offset, byte_count size,
                              std::uint64_t token) {
  if (!config_.track_content || size <= 0) return;
  S4D_CHECK(file >= 0 && static_cast<std::size_t>(file) < contents_.size())
      << "stamping unopened file id " << file;
  contents_[static_cast<std::size_t>(file)].Assign(offset, offset + size,
                                                   token);
}

void FileSystem::EraseContent(FileId file, byte_count offset,
                              byte_count size) {
  if (!config_.track_content || size <= 0) return;
  S4D_CHECK(file >= 0 && static_cast<std::size_t>(file) < contents_.size())
      << "erasing content of unopened file id " << file;
  contents_[static_cast<std::size_t>(file)].Erase(offset, offset + size);
}

std::vector<FileSystem::ContentMap::Entry> FileSystem::ReadContent(
    FileId file, byte_count offset, byte_count size) const {
  if (!config_.track_content || size <= 0) return {};
  S4D_CHECK(file >= 0 && static_cast<std::size_t>(file) < contents_.size())
      << "reading content of unopened file id " << file;
  return contents_[static_cast<std::size_t>(file)].Overlapping(offset,
                                                               offset + size);
}

ServerStats FileSystem::TotalServerStats() const {
  ServerStats total;
  for (const auto& server : servers_) {
    const ServerStats& s = server->stats();
    total.requests += s.requests;
    total.background_requests += s.background_requests;
    total.bytes += s.bytes;
    total.background_bytes += s.background_bytes;
    total.busy_time += s.busy_time;
    total.positioning_time += s.positioning_time;
    total.queue_wait_time += s.queue_wait_time;
    total.zero_positioning_jobs += s.zero_positioning_jobs;
  }
  return total;
}

}  // namespace s4d::pfs
