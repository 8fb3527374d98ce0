// One simulated file server: a storage device behind a network link, with a
// two-level (normal / background) FIFO request queue.
//
// The server serves one sub-request at a time — the device is the serial
// resource — and overlaps the device transfer with the network transfer of
// the same bytes (PVFS2's flow protocol pipelines them). Background jobs
// (the Rebuilder's reorganization I/O, §III-F) are only dequeued when no
// normal job is waiting, reproducing the paper's low-priority I/O.
//
// A job names who resolves it, `{JobSink* sink, cookie}`, so it is a
// trivially copyable 56-byte record; the server tells the sink, exactly
// once per job, that the job with that cookie completed or failed.
//
// The server's slab entry is the one record of a sub-request in flight: it
// holds the job from Submit until the sink is told, so the jobs it holds
// are exactly the sub-requests its client has outstanding on it. With a
// SubRequestSink installed, the server reports each job as its client saw
// it (submitted when that many jobs were held, resolved now) just before
// telling the job's sink.
//
// Fault awareness: a server can crash (all pending and in-flight jobs fail,
// later submissions fail until Restart), be partitioned from the network
// (jobs queue but none start until the partition heals), serve through a
// degraded device or link (multipliers on the service-time phases), and
// probabilistically fail background jobs (deterministic, seeded). A failed
// job reaches its sink with `failed = true`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "device/device_model.h"
#include "net/link_model.h"
#include "obs/observability.h"
#include "sim/engine.h"

namespace s4d::pfs {

enum class Priority { kNormal = 0, kBackground = 1 };

// Resolves the jobs that name it. The server calls OnJobResolved exactly
// once per submitted job, at the simulated time the job completed
// (`failed` = false) or failed (`failed` = true: refused by a crashed
// server, dropped by a crash while queued or in service, or failed by an
// injected background error). The job's slot is already free when the call
// runs, so the sink may submit to the same server. Jobs hold a sink's
// address, so a sink is neither copyable nor movable.
class JobSink {
 public:
  virtual void OnJobResolved(std::uint64_t cookie, SimTime time,
                             bool failed) = 0;

 protected:
  JobSink() = default;
  JobSink(const JobSink&) = delete;
  JobSink& operator=(const JobSink&) = delete;
  ~JobSink() = default;
};

struct ServerJob {
  device::IoKind kind = device::IoKind::kRead;
  Priority priority = Priority::kNormal;
  byte_count lba = 0;  // absolute device address
  byte_count size = 0;
  // Who resolves the job, and the cookie it is told. Required.
  JobSink* sink = nullptr;
  std::uint64_t cookie = 0;
  // Tracing: the request-level span this sub-request belongs to; the
  // server's service span links to it as its parent.
  obs::SpanId parent_span = obs::kNoSpan;
  // Stamped by Submit; queue-wait time is measured from here.
  SimTime enqueued_at = -1;
};
static_assert(std::is_trivially_copyable_v<ServerJob>,
              "a job is copied into its slab slot once, byte for byte");

// One resolved sub-request, as the *client* observed it: submitted at
// `submit_time` when `depth_at_submit` subs were already outstanding on that
// server, resolved at `complete_time`. Failed subs are emitted too
// (ok = false).
struct SubRequestSample {
  std::uint32_t tag = 0;  // echo of the SetSubRequestSink tag (tier id)
  std::int32_t server = 0;
  device::IoKind kind = device::IoKind::kRead;
  Priority priority = Priority::kNormal;
  byte_count size = 0;
  std::int32_t depth_at_submit = 0;
  SimTime submit_time = 0;
  SimTime complete_time = 0;
  bool ok = true;
};

class SubRequestSink {
 public:
  virtual ~SubRequestSink() = default;
  virtual void OnSubRequestResolved(const SubRequestSample& sample) = 0;
};

struct ServerStats {
  std::int64_t requests = 0;             // normal-priority jobs served
  std::int64_t background_requests = 0;  // background jobs served
  byte_count bytes = 0;
  byte_count background_bytes = 0;
  SimTime busy_time = 0;
  SimTime positioning_time = 0;
  SimTime queue_wait_time = 0;  // enqueue -> service start, summed
  // Jobs that required no positioning (head already in place) — a direct
  // measure of how sequential the stream arriving at this server is.
  std::int64_t zero_positioning_jobs = 0;
  // Fault accounting.
  std::int64_t failed_jobs = 0;      // crash-dropped / rejected / injected
  std::int64_t crashes = 0;
  std::int64_t restarts = 0;
};

class FileServer {
 public:
  // `background_idle_grace`: a background job may only start once the
  // server has seen no normal-priority activity for this long
  // (anticipatory idling). Without it, a long seek-heavy background write
  // pops into every micro-gap between foreground requests and — being
  // non-preemptive — stalls them, exactly the interference §III-F's
  // low-priority I/O is meant to avoid.
  FileServer(sim::Engine& engine, std::unique_ptr<device::DeviceModel> device,
             net::LinkModel link, std::string name,
             SimTime background_idle_grace = FromMillis(2));

  FileServer(const FileServer&) = delete;
  FileServer& operator=(const FileServer&) = delete;

  // Copies `job` into a slab slot and enqueues it; it will be served in
  // FIFO order within its priority. On a crashed server the job fails
  // immediately (next engine step). `job.sink` must be set.
  void Submit(const ServerJob& job);

  // --- fault injection ---------------------------------------------------
  // Crash: every queued job and the in-flight job (if any) fail at the
  // current simulated time; subsequent Submits fail until Restart. The
  // device's positional state is NOT touched — a crash does not destroy
  // media contents (wipes are modelled a layer up, in the middleware's
  // mapping table).
  void Crash();
  // Brings a crashed server back; the device re-initializes its positional
  // state (spin-up / remount) and queued work resumes.
  void Restart();
  bool up() const { return up_; }

  // Network partition: the server is unreachable but alive — jobs queue
  // and wait (distinct from Crash, which fails them). Healing re-kicks the
  // queue.
  void SetPartitioned(bool partitioned);
  bool partitioned() const { return partitioned_; }
  // Reachable = up and not partitioned: a request sent now would be served.
  bool reachable() const { return up_ && !partitioned_; }

  // Probabilistic failure of *background* jobs (flush/fetch I/O), applied
  // at service time with a deterministic, seeded draw. Models the paper's
  // write-back window being widened by transient background-I/O errors.
  void SetBackgroundErrorRate(double rate, std::uint64_t seed);

  // Installs the per-sub-request observation sink (null = off). Every
  // job resolved from now on is reported once, `server` and `tag` echoed,
  // just before its own sink is told.
  void SetSubRequestSink(SubRequestSink* sink, std::uint32_t tag,
                         std::int32_t server) {
    sub_sink_ = sink;
    sub_sink_tag_ = tag;
    sub_sink_server_ = server;
  }

  // Attaches the shared observability bundle. `fs_label` scopes the shared
  // per-file-system metrics (all servers of one FileSystem resolve the same
  // registry slots); the per-device EWMA service-latency gauge is published
  // under this server's own name. Null detaches.
  void SetObservability(obs::Observability* obs, const std::string& fs_label);

  const ServerStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  device::DeviceModel& device() { return *device_; }
  const device::DeviceModel& device() const { return *device_; }
  const net::LinkModel& link() const { return link_; }
  net::LinkModel& mutable_link() { return link_; }
  std::size_t queue_depth() const {
    return normal_queue_.size + background_queue_.size;
  }
  bool busy() const { return busy_; }
  // Slots the job slab has grown to: the most jobs this server has held at
  // once.
  std::size_t slab_slots() const { return slab_.size(); }
  // Jobs held now, from Submit until their sink is told: in jitter flight,
  // queued, in service or waiting for their failure event.
  std::size_t held_jobs() const { return slab_.size() - free_slots_.size(); }

 private:
  // Every job the server holds — in jitter flight, queued, in service or
  // waiting for its failure event — lives in one slab slot from Submit
  // until its sink is told. Events capture {this, slot}, and the FIFOs are
  // intrusive lists through the slots, so a job is copied once and
  // queueing allocates nothing once the slab is warm.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};
  struct SlabEntry {
    ServerJob job;
    Slot next = kNoSlot;  // FIFO successor while queued
    // Jobs held when this one was stored (its depth at submit, stamped
    // with job.enqueued_at).
    std::int32_t depth_at_submit = 0;
  };
  static_assert(sizeof(SlabEntry) <= 64, "a slab entry fits a cache line");
  struct Fifo {
    Slot head = kNoSlot;
    Slot tail = kNoSlot;
    std::size_t size = 0;
  };

  ServerJob& JobAt(Slot slot) { return slab_[slot].job; }
  Slot Store(const ServerJob& job);
  // Frees the slot, reports the job to the SubRequestSink if one is
  // installed, then tells the job's sink how it ended. Freeing first
  // matters: the sink may submit to this server and grow (reallocate) the
  // slab.
  void Resolve(Slot slot, bool failed);
  void Push(Fifo& fifo, Slot slot);
  Slot Pop(Fifo& fifo);
  void Enqueue(Slot slot);
  void MaybeStartNext();
  void Serve(Slot slot);
  void FailJob(Slot slot);

  sim::Engine& engine_;
  std::unique_ptr<device::DeviceModel> device_;
  net::LinkModel link_;
  std::string name_;

  std::vector<SlabEntry> slab_;
  std::vector<Slot> free_slots_;
  Fifo normal_queue_;
  Fifo background_queue_;
  bool busy_ = false;
  SimTime background_idle_grace_;
  SimTime last_normal_activity_ = 0;
  bool idle_check_scheduled_ = false;
  Rng jitter_rng_;
  ServerStats stats_;

  // Fault state.
  bool up_ = true;
  bool partitioned_ = false;
  // The in-flight job's completion event and slot, kept so Crash can
  // cancel the completion and fail the job at crash time instead.
  sim::EventId inflight_event_ = sim::kInvalidEvent;
  Slot inflight_ = kNoSlot;
  double background_error_rate_ = 0.0;
  Rng fault_rng_{1};

  // Sub-request observation (null = off); fires from Resolve().
  SubRequestSink* sub_sink_ = nullptr;
  std::uint32_t sub_sink_tag_ = 0;
  std::int32_t sub_sink_server_ = 0;

  // Observability (null = not observed). Handles are resolved once in
  // SetObservability so the service path pays pointer arithmetic only.
  obs::Observability* obs_ = nullptr;
  std::uint32_t lane_ = 0;
  obs::Counter* obs_jobs_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  obs::Counter* obs_failed_jobs_ = nullptr;
  obs::Histogram* obs_service_ns_ = nullptr;
  obs::Histogram* obs_queue_wait_ns_ = nullptr;
};

}  // namespace s4d::pfs
