#include "pfs/file_server.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace s4d::pfs {

FileServer::FileServer(sim::Engine& engine,
                       std::unique_ptr<device::DeviceModel> device,
                       net::LinkModel link, std::string name,
                       SimTime background_idle_grace)
    : engine_(engine),
      device_(std::move(device)),
      link_(std::move(link)),
      name_(std::move(name)),
      background_idle_grace_(background_idle_grace),
      jitter_rng_(std::hash<std::string>{}(name_) | 1),
      fault_rng_(std::hash<std::string>{}(name_) ^ 0xfa01dULL) {
  S4D_CHECK(device_ != nullptr) << "server " << name_ << " has no device";
}

void FileServer::SetObservability(obs::Observability* obs,
                                  const std::string& fs_label) {
  obs_ = obs;
  if (obs_ == nullptr) return;
  lane_ = obs_->tracer.Lane(name_);
  const std::string prefix = "pfs." + fs_label + ".";
  obs_jobs_ = obs_->metrics.GetCounter(prefix + "jobs");
  obs_bytes_ = obs_->metrics.GetCounter(prefix + "bytes");
  obs_failed_jobs_ = obs_->metrics.GetCounter(prefix + "failed_jobs");
  obs_service_ns_ = obs_->metrics.GetHistogram(prefix + "service_ns");
  obs_queue_wait_ns_ = obs_->metrics.GetHistogram(prefix + "queue_wait_ns");
  // Live health signal: recent per-access service time (degradation
  // included), evaluated lazily from DeviceStats at export/sample time.
  obs_->metrics.SetGaugeFn(
      "pfs." + name_ + ".ewma_service_us",
      [this] { return device_->stats().ewma_service_ns / 1000.0; });
}

FileServer::Slot FileServer::Store(const ServerJob& job) {
  const auto held = static_cast<std::int32_t>(held_jobs());
  Slot slot;
  if (free_slots_.empty()) {
    slot = static_cast<Slot>(slab_.size());
    slab_.push_back(SlabEntry{job, kNoSlot, held});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot].job = job;
    slab_[slot].depth_at_submit = held;
  }
  slab_[slot].job.enqueued_at = engine_.now();
  return slot;
}

void FileServer::Resolve(Slot slot, bool failed) {
  const SlabEntry& entry = slab_[slot];
  JobSink* const sink = entry.job.sink;
  const std::uint64_t cookie = entry.job.cookie;
  free_slots_.push_back(slot);
  if (sub_sink_ != nullptr) {
    // The freed entry is read before anything can store into it.
    sub_sink_->OnSubRequestResolved(SubRequestSample{
        sub_sink_tag_, sub_sink_server_, entry.job.kind, entry.job.priority,
        entry.job.size, entry.depth_at_submit, entry.job.enqueued_at,
        engine_.now(), !failed});
  }
  sink->OnJobResolved(cookie, engine_.now(), failed);
}

void FileServer::Push(Fifo& fifo, Slot slot) {
  slab_[slot].next = kNoSlot;
  if (fifo.tail == kNoSlot) {
    fifo.head = slot;
  } else {
    slab_[fifo.tail].next = slot;
  }
  fifo.tail = slot;
  ++fifo.size;
}

FileServer::Slot FileServer::Pop(Fifo& fifo) {
  const Slot slot = fifo.head;
  fifo.head = slab_[slot].next;
  if (fifo.head == kNoSlot) fifo.tail = kNoSlot;
  --fifo.size;
  return slot;
}

void FileServer::Enqueue(Slot slot) {
  if (JobAt(slot).priority == Priority::kNormal) {
    last_normal_activity_ = engine_.now();
    Push(normal_queue_, slot);
  } else {
    Push(background_queue_, slot);
  }
}

void FileServer::FailJob(Slot slot) {
  ++stats_.failed_jobs;
  if (obs_ != nullptr) {
    obs_failed_jobs_->Inc();
    if (obs_->tracing()) {
      obs_->tracer.Instant(lane_, "job_failed", "pfs", engine_.now(),
                           JobAt(slot).parent_span);
    }
  }
  // Failures resolve on the next engine step, not inline: Crash/Submit may
  // themselves run inside an event callback, and re-entering the caller's
  // completion chain synchronously would reorder its state updates.
  engine_.ScheduleAfter(0,
                        [this, slot]() { Resolve(slot, /*failed=*/true); });
}

void FileServer::Submit(const ServerJob& job) {
  S4D_CHECK(job.size > 0)
      << "server " << name_ << " got a job of " << job.size << " bytes";
  S4D_CHECK(job.sink != nullptr)
      << "server " << name_ << " got a job with no sink";
  const Slot slot = Store(job);
  if (!up_) {
    // Connection refused: the client learns of the failure after the RPC
    // attempt, modelled as an immediate failure.
    FailJob(slot);
    return;
  }
  // Network arrival jitter: near-simultaneous requests reach the server in
  // slightly perturbed order, exactly as on a real switch fabric.
  const SimTime jitter_bound = link_.profile().arrival_jitter;
  if (jitter_bound > 0) {
    const SimTime jitter = static_cast<SimTime>(
        jitter_rng_.NextBelow(static_cast<std::uint64_t>(jitter_bound)));
    engine_.ScheduleAfter(jitter, [this, slot]() {
      if (!up_) {
        FailJob(slot);
        return;
      }
      Enqueue(slot);
      MaybeStartNext();
    });
    return;
  }
  Enqueue(slot);
  MaybeStartNext();
}

void FileServer::Crash() {
  if (!up_) return;
  up_ = false;
  ++stats_.crashes;
  // The in-flight job dies with its connection: cancel the scheduled
  // completion and fail it now.
  if (busy_) {
    engine_.Cancel(inflight_event_);
    inflight_event_ = sim::kInvalidEvent;
    busy_ = false;
    if (inflight_ != kNoSlot) {
      const Slot slot = inflight_;
      inflight_ = kNoSlot;
      FailJob(slot);
    }
  }
  // Every queued job fails at crash time.
  while (normal_queue_.size > 0) FailJob(Pop(normal_queue_));
  while (background_queue_.size > 0) FailJob(Pop(background_queue_));
}

void FileServer::Restart() {
  if (up_) return;
  up_ = true;
  ++stats_.restarts;
  device_->Reset();  // spin-up / remount: positional state forgotten
  MaybeStartNext();
}

void FileServer::SetPartitioned(bool partitioned) {
  if (partitioned_ == partitioned) return;
  partitioned_ = partitioned;
  if (!partitioned_) MaybeStartNext();
}

void FileServer::SetBackgroundErrorRate(double rate, std::uint64_t seed) {
  background_error_rate_ = std::clamp(rate, 0.0, 1.0);
  fault_rng_.Seed(seed ^ (std::hash<std::string>{}(name_) | 1));
}

void FileServer::MaybeStartNext() {
  if (busy_ || !up_ || partitioned_) return;
  Slot slot;
  if (normal_queue_.size > 0) {
    slot = Pop(normal_queue_);
    last_normal_activity_ = engine_.now();
  } else if (background_queue_.size > 0) {
    // Anticipatory idling: hold background work until the server has been
    // genuinely idle for the grace period.
    const SimTime idle_until = last_normal_activity_ + background_idle_grace_;
    if (engine_.now() < idle_until) {
      if (!idle_check_scheduled_) {
        idle_check_scheduled_ = true;
        engine_.ScheduleAt(idle_until, [this]() {
          idle_check_scheduled_ = false;
          MaybeStartNext();
        });
      }
      return;
    }
    slot = Pop(background_queue_);
  } else {
    return;
  }
  busy_ = true;
  Serve(slot);
}

void FileServer::Serve(Slot slot) {
  const SimTime now = engine_.now();
  const ServerJob& j = JobAt(slot);
  const SimTime wait = now - j.enqueued_at;
  inflight_ = slot;
  // Injected transient error: the job occupies the request slot for the
  // RPC round-trip (the client had to talk to the server to get the error)
  // but moves no data.
  if (j.priority == Priority::kBackground && background_error_rate_ > 0.0 &&
      fault_rng_.NextBool(background_error_rate_)) {
    ++stats_.failed_jobs;
    if (obs_ != nullptr) {
      obs_failed_jobs_->Inc();
      if (obs_->tracing()) {
        obs_->tracer.Instant(lane_, "bg_error", "pfs", now, j.parent_span);
      }
    }
    const SimTime service = link_.RpcOverhead();
    inflight_event_ = engine_.ScheduleAfter(service, [this, slot]() {
      inflight_event_ = sim::kInvalidEvent;
      inflight_ = kNoSlot;
      busy_ = false;
      Resolve(slot, /*failed=*/true);
      MaybeStartNext();
    });
    return;
  }

  // Serve (not Access): the device applies its own degradation multiplier
  // and updates DeviceStats, which backs the EWMA health gauge.
  const device::AccessCosts costs = device_->Serve(j.kind, j.lba, j.size);
  // The device transfer and the wire transfer of the same bytes are
  // pipelined; the slower of the two gates the request.
  const SimTime wire = link_.OccupyTransfer(j.size);
  const SimTime data_phase = std::max(costs.transfer, wire);
  const SimTime service = link_.RpcOverhead() + costs.positioning + data_phase;

  if (j.priority == Priority::kNormal) {
    ++stats_.requests;
    stats_.bytes += j.size;
  } else {
    ++stats_.background_requests;
    stats_.background_bytes += j.size;
  }
  stats_.busy_time += service;
  stats_.positioning_time += costs.positioning;
  stats_.queue_wait_time += wait;
  if (costs.positioning == 0) ++stats_.zero_positioning_jobs;

  if (obs_ != nullptr) {
    obs_jobs_->Inc();
    obs_bytes_->Add(j.size);
    obs_service_ns_->Record(service);
    obs_queue_wait_ns_->Record(wait);
    if (obs_->tracing()) {
      const obs::SpanId id = obs_->tracer.Complete(
          lane_, device::IoKindName(j.kind),
          j.priority == Priority::kNormal ? "pfs" : "pfs.bg", now, service,
          j.parent_span);
      obs_->tracer.AddArg(id, "size", j.size);
      obs_->tracer.AddArg(id, "wait_ns", wait);
      obs_->tracer.AddArg(id, "pos_ns", costs.positioning);
      obs_->tracer.AddArg(id, "dev_ns", costs.transfer);
      obs_->tracer.AddArg(id, "net_ns", wire);
    }
  }

  inflight_event_ = engine_.ScheduleAfter(service, [this, slot]() {
    inflight_event_ = sim::kInvalidEvent;
    inflight_ = kNoSlot;
    if (JobAt(slot).priority == Priority::kNormal) {
      last_normal_activity_ = engine_.now();
    }
    Resolve(slot, /*failed=*/false);
    busy_ = false;
    MaybeStartNext();
  });
}

}  // namespace s4d::pfs
