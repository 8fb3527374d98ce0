// A simulated parallel file system (the role PVFS2 plays in the paper).
//
// The system stripes each file round-robin across its servers
// (src/pfs/striping.h), fans a request out into per-server sub-requests,
// and completes the request when the *last* sub-request finishes — the
// max-over-servers behaviour the paper's cost model analyses. It keeps one
// pooled join record per request; a sub-request in flight is recorded only
// by the server holding it, so outstanding counts and per-sub samples
// (SetSubRequestSink) are read from the servers.
//
// Two independent instances are built in an S4D deployment: the OPFS over
// HDD DServers and the CPFS over SSD CServers.
//
// For correctness verification the file system can optionally track file
// *contents* as version tokens over byte ranges (no payload bytes are
// simulated). Content effects are applied at request submission time; the
// middleware serializes its decisions per request, so this is a
// deterministic linearization.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interval_map.h"
#include "common/status.h"
#include "pfs/file_server.h"
#include "pfs/striping.h"

namespace s4d::pfs {

using FileId = std::int32_t;
inline constexpr FileId kInvalidFile = -1;

struct FsConfig {
  std::string name = "pfs";
  StripeConfig stripe;
  net::LinkProfile link;  // one such link per server
  // Per-server device-address reservation per file: file i's server-local
  // offsets map to LBA [i * reservation, (i+1) * reservation).
  byte_count file_reservation_per_server = 8 * GiB;
  bool track_content = false;
};

// Every request submitted to the file system is reported to observers —
// this is the hook the IOSIG-like trace collector attaches to.
struct RequestRecord {
  FileId file = kInvalidFile;
  device::IoKind kind = device::IoKind::kRead;
  byte_count offset = 0;
  byte_count size = 0;
  Priority priority = Priority::kNormal;
  SimTime issue_time = 0;
  int server_count = 0;
};

struct FsStats {
  std::int64_t requests = 0;
  byte_count bytes = 0;
  // Requests in which at least one sub-request failed (crashed server,
  // injected error).
  std::int64_t failed_requests = 0;
};

// The file system is the JobSink of its servers' jobs, so jobs in flight
// hold its address: like every JobSink, it is neither copyable nor movable.
class FileSystem final : private JobSink {
 public:
  using DeviceFactory =
      std::function<std::unique_ptr<device::DeviceModel>(int server_index)>;
  using ContentMap = IntervalMap<std::uint64_t>;

  FileSystem(sim::Engine& engine, FsConfig config, DeviceFactory factory);

  // Opens `name`, creating it on first open. Open is idempotent: the same
  // name always yields the same FileId.
  FileId OpenOrCreate(const std::string& name);

  // Returns the id of an existing file, or kInvalidFile.
  FileId Lookup(const std::string& name) const;

  // Issues a striped request. `on_complete` fires once, at the simulated
  // time the last sub-request finishes. Zero-size requests complete
  // immediately (next engine step).
  //
  // `on_failure` (optional): invoked instead of `on_complete` — still
  // exactly once, when the last sub-request resolves — if any sub-request
  // failed (its server crashed, or a fault injector failed it). Callers
  // that pass no `on_failure`, written before fault injection, keep their
  // exactly-once completion: a failed request resolves through
  // `on_complete`, and only FsStats records the failure.
  // `parent_span` (optional): the request-level span the per-server
  // sub-request spans attach to when tracing is enabled.
  void Submit(FileId file, device::IoKind kind, byte_count offset,
              byte_count size, Priority priority,
              std::function<void(SimTime)> on_complete,
              std::function<void(SimTime)> on_failure = nullptr,
              obs::SpanId parent_span = obs::kNoSpan);

  // Attaches the shared observability bundle to this file system and all
  // its servers; metrics are scoped "pfs.<config.name>.*". Null detaches.
  void SetObservability(obs::Observability* obs);

  // --- content tracking (only when config.track_content) ---------------
  // Records that [offset, offset+size) of `file` now holds `token`.
  void StampContent(FileId file, byte_count offset, byte_count size,
                    std::uint64_t token);
  // Forgets any content in [offset, offset+size) — used when storage space
  // is recycled for a new purpose (a hole must not expose a previous
  // tenant's bytes).
  void EraseContent(FileId file, byte_count offset, byte_count size);
  // Returns the tokens covering [offset, offset+size), clipped.
  std::vector<ContentMap::Entry> ReadContent(FileId file, byte_count offset,
                                             byte_count size) const;

  void AddObserver(std::function<void(const RequestRecord&)> observer) {
    observers_.push_back(std::move(observer));
  }

  const FsConfig& config() const { return config_; }
  int server_count() const { return static_cast<int>(servers_.size()); }
  FileServer& server(int i) { return *servers_[static_cast<std::size_t>(i)]; }
  const FileServer& server(int i) const {
    return *servers_[static_cast<std::size_t>(i)];
  }
  const FsStats& stats() const { return stats_; }
  sim::Engine& engine() { return engine_; }

  // Sub-requests submitted and not yet resolved: the jobs the servers
  // hold, summed (the sampler's per-tier load probe).
  std::int64_t outstanding_subs() const;

  // Installs the per-sub-request observation sink (src/calib) on every
  // server; null removes it. `tag` is echoed in every sample so one sink
  // can serve several FileSystems, and each sample names its server by
  // index. With no sink the submit/complete paths do no sampling work.
  void SetSubRequestSink(SubRequestSink* sink, std::uint32_t tag);

  // Aggregates across servers (for reports).
  ServerStats TotalServerStats() const;

  // --- fault state and health probes -------------------------------------
  // Faults are injected on the servers themselves (server(i).Crash(), ...);
  // these aggregate live server state for the middleware.
  //
  // All servers up and none partitioned — a request issued now would not
  // fail or stall. The middleware's degraded-mode routing polls this.
  bool AllServersReachable() const;
  int DownServerCount() const;
  double WorstDeviceDegrade() const;
  double WorstWearFraction() const;
  double MeanQueueDepth() const;

 private:
  byte_count FileBaseLba(FileId file) const;

  // Failure-aware join state for one striped request, pooled and reused so
  // the submit hot path performs no per-request heap allocation.
  struct Fanout {
    int remaining = 0;
    SimTime last = 0;
    bool failed = false;
    std::function<void(SimTime)> on_complete;
    std::function<void(SimTime)> on_failure;
  };
  Fanout* AcquireFanout();

  // Each sub-request job names this file system as its sink and its
  // request's Fanout* as its cookie: joins the sub into its request.
  void OnJobResolved(std::uint64_t cookie, SimTime time, bool failed) override;

  sim::Engine& engine_;
  FsConfig config_;
  std::vector<std::unique_ptr<FileServer>> servers_;
  std::unordered_map<std::string, FileId> files_by_name_;
  std::vector<std::string> file_names_;
  std::vector<ContentMap> contents_;
  std::vector<std::function<void(const RequestRecord&)>> observers_;
  std::vector<std::unique_ptr<Fanout>> fanout_pool_;
  std::vector<Fanout*> fanout_free_;
  // Submit's split storage, reused across requests.
  std::vector<SubRequest> split_scratch_;
  FsStats stats_;
};

}  // namespace s4d::pfs
