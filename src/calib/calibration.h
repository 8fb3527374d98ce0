// Online cost-model calibration (DESIGN.md §3m).
//
// The Identifier's benefit B = T_D − T_C (Eqs. 1-8) is computed from static
// Table II device parameters, so it cannot notice when the cluster stops
// behaving like Table II: a saturated cache tier (LBICA's failure mode), a
// degraded device, or a link that caps below the datasheet rate all make
// the static model mispredict — and keep admitting into the bottleneck.
//
// The CalibrationEngine closes that loop from live telemetry. It takes one
// client-side observation per *sub-request* (server, kind, size, the
// outstanding depth on that server at submit, submit→completion latency)
// from both FileSystems' servers, and fits, per server and I/O kind, an
// exponentially-forgetting least-squares model (forgetting factor 0.99)
//
//     latency ≈ a + b·size + c·depth
//
// (a = startup: RPC + mean positioning for the live access mix, b = per-byte
// transfer time as the device actually delivers it, c = queue delay per
// outstanding sub-request). The fitted parameters replace the static
// per-class estimates through CostModel's CostCalibration hook:
//
//   T_C(s, size): fully fitted — max over involved CServers of
//                 a_s + b_s·share_s + c_s·depth_s. The queue term is what
//                 lets B flip negative when the cache tier saturates.
//   T_D(s, size): the distance-dependent startup stays *structural* (the
//                 paper's Eq. 2-4 / streaming refinement — it is the
//                 Identifier's selectivity signal and a per-mix intercept
//                 must not flatten it); the per-byte and queue terms are
//                 fitted: startup_static + max_s(b_s·share_s + c_s·depth_s).
//
// Below `min_samples` per involved fit cell the provider declines and the
// static model is used unchanged — a cold start is byte-identical to the
// paper default, and so is any run without a `[calib]` config section.
// Both tiers are always fitted. Past `saturation_depth` the engine also
// reports the cache tier saturated (the Redirector's load shedding).
//
// Every input to a *decision* is something the client knows: when it
// submitted a sub-request, how many it had outstanding on that server, and
// when it was told the result. All three are read from the one record the
// simulator keeps of a sub-request in flight, the file server's job slab:
// a server holds a job from Submit until it tells the job's sink, so the
// jobs it holds are the client's outstanding subs on it. The report table
// and the trace export read the servers' ServerStats (jobs, bytes, summed
// queue wait and service time); no mid-run decision does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/units.h"
#include "core/cost_model.h"
#include "device/device_model.h"
#include "pfs/file_server.h"
#include "pfs/file_system.h"

namespace s4d::obs {
struct Observability;
}

namespace s4d::core {
class S4DCache;
}

namespace s4d::calib {

struct CalibConfig {
  // Fit cells with fewer (undecayed) samples than this decline, falling
  // back to the static model.
  std::int64_t min_samples = 32;
  // Mean outstanding sub-requests per CServer beyond which the cache tier
  // is reported saturated (the Redirector's load shedding). 0 disables the
  // saturation signal.
  double saturation_depth = 0.0;
};

struct CalibStats {
  std::int64_t samples = 0;           // ok sub-observations fitted
  std::int64_t failed_samples = 0;    // failed subs (depth-only, not fitted)
  std::int64_t dserver_estimates = 0; // calibrated T_D estimates served
  std::int64_t cserver_estimates = 0; // calibrated T_C estimates served
  std::int64_t declines = 0;          // estimates declined (cold cells)
  std::int64_t saturation_polls = 0;  // saturation signal consultations
  std::int64_t saturated_polls = 0;   // ... that reported saturation
};

// One fitted estimator cell: exponentially-forgetting least squares of
// sub-request latency (ns) against size (bytes) and outstanding depth at
// submit. Moments are decayed by `forget` before each add; the closed-form
// solve runs on centered covariances with degenerate-direction fallbacks
// (a fixed-size workload cannot identify b; an unloaded server cannot
// identify c), so the cell always yields a usable — if partially static —
// parameter set once warm.
class ServerFit {
 public:
  void Add(double forget, double size, double depth, double latency);

  std::int64_t samples() const { return samples_; }
  bool Ready(std::int64_t min_samples) const {
    return samples_ >= min_samples;
  }

  // Solves the fit. `static_beta` fills the per-byte slope when the size
  // direction is degenerate. All parameters are clamped non-negative.
  struct Params {
    double startup_ns = 0.0;   // a: intercept at size 0, depth 0
    double ns_per_byte = 0.0;  // b
    double queue_ns = 0.0;     // c: delay per outstanding sub-request
  };
  Params Solve(double static_beta) const;

  double mean_latency_ns() const { return w_ > 0.0 ? sy_ / w_ : 0.0; }
  double mean_depth() const { return w_ > 0.0 ? sq_ / w_ : 0.0; }

 private:
  double w_ = 0.0;  // decayed weight
  double sx_ = 0.0, sq_ = 0.0, sy_ = 0.0;
  double sxx_ = 0.0, sqq_ = 0.0, sxq_ = 0.0;
  double sxy_ = 0.0, sqy_ = 0.0;
  std::int64_t samples_ = 0;  // undecayed count (warmup gate)
};

class CalibrationEngine final : public core::CostCalibration,
                                public pfs::SubRequestSink {
 public:
  // `model` supplies the static fallback slopes (beta_d, beta_c) and the
  // two tiers' stripe configurations for the involved-server arithmetic.
  CalibrationEngine(CalibConfig config, const core::CostModelParams& params);

  // Wires the engine into a live stack: installs itself as both
  // FileSystems' sub-request sink and as `cache`'s cost-calibration
  // provider — which also makes it the source of the cache's queue depth
  // and saturation signals (core::TierSignals). Registers `calib.*` gauges
  // when `obs` is non-null. Call once, before any I/O (the report rows
  // count every job the servers served).
  void Attach(core::S4DCache& cache, pfs::FileSystem& dserver_fs,
              pfs::FileSystem& cserver_fs, obs::Observability* obs);

  // --- core::CostCalibration ---------------------------------------------
  SimTime DServerEstimate(SimTime static_startup, byte_count offset,
                          byte_count size) const override;
  SimTime CServerEstimate(device::IoKind kind, byte_count offset,
                          byte_count size) const override;

  // --- pfs::SubRequestSink -----------------------------------------------
  void OnSubRequestResolved(const pfs::SubRequestSample& sample) override;

  // Mean outstanding sub-requests per CServer (the jobs they hold).
  double MeanCServerDepth() const override;
  // Mean depth beyond `saturation_depth`; always false (and no poll
  // counted) when unbounded.
  bool CacheTierSaturated() const override;

  // One per-server row, read from the servers' live ServerStats. `fitted`
  // solves the read-kind cell for DServers and the busier kind for
  // CServers — the report table's summary view. Empty before Attach.
  struct ServerRow {
    std::string name;
    bool cache_tier = false;
    std::int64_t jobs = 0;      // served jobs, foreground and background
    std::int64_t bytes = 0;
    double mean_wait_us = 0.0;  // enqueue -> service start, per served job
    double mean_service_us = 0.0;
    std::int64_t fit_samples = 0;  // client-side fitted cell (read+write)
    ServerFit::Params fitted;      // solved with the tier's static beta
  };
  std::vector<ServerRow> Rows() const;

  const CalibStats& stats() const { return stats_; }
  const CalibConfig& config() const { return config_; }

  // Writes the per-server table.
  void PrintReport(std::ostream& out) const;
  // Emits one "calib.server" trace instant per server, stamped `at` (the
  // caller's post-run now). No-op when tracing is disabled.
  void ExportTrace(obs::Observability& obs, SimTime at) const;

  // Sink tags (the `tag` field of SubRequestSample).
  static constexpr std::uint32_t kDServerTier = 0;
  static constexpr std::uint32_t kCServerTier = 1;

 private:
  struct TierState {
    // Fit cells. The cache tier is read/write asymmetric (SSD), so it keeps
    // one cell per [server * 2 + kind]; the DServer tier mirrors the static
    // model's kind-blind T_D with one cell per server.
    std::vector<ServerFit> fits;
    const pfs::FileSystem* fs = nullptr;  // held jobs, stats and names
  };

  const ServerFit& Cell(const TierState& tier, bool cache_tier, int server,
                        device::IoKind kind) const;
  ServerFit& MutableCell(TierState& tier, bool cache_tier, int server,
                         device::IoKind kind);
  SimTime TierEstimate(const TierState& tier, const pfs::StripeConfig& stripe,
                       bool cache_tier, double static_beta,
                       SimTime static_startup, device::IoKind kind,
                       byte_count offset, byte_count size,
                       std::int64_t* served_counter) const;

  CalibConfig config_;
  core::CostModelParams params_;
  pfs::StripeConfig d_stripe_;
  pfs::StripeConfig c_stripe_;
  TierState dservers_;
  TierState cservers_;
  mutable CalibStats stats_;
  bool attached_ = false;
};

}  // namespace s4d::calib
