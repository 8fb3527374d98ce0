// The data-access cost model of §III-B (Eqs. 1–8, Tables I & II).
//
// For a parallel request with offset f, size r, and stream distance d:
//
//   T_D = T_s + T_t                                             (Eq. 1)
//   startup per HDD server alpha ~ U[a, b], a = F(d)+R, b = S+R (Eq. 2)
//   T_s = E[max of m draws]  = a + m/(m+1) * (b - a)            (Eqs. 3–4)
//   T_t = s_m * beta_D                                          (Eq. 5)
//   m   = involved-server count under round-robin striping      (Eq. 6)
//   s_m = maximum per-server sub-request size                   (Table II)
//
//   T_C = S_n * beta_C (+ per-op SSD latency)                   (Eq. 7)
//   B   = T_D - T_C                                             (Eq. 8)
//
// The model is the *predictor* the Data Identifier uses; the simulator is
// the ground truth it is judged against (see bench_ablation).
#pragma once

#include "common/sim_time.h"
#include "common/units.h"
#include "device/hdd_model.h"
#include "device/ssd_model.h"
#include "net/link_model.h"
#include "pfs/striping.h"

namespace s4d::core {

// Live calibration provider (src/calib, DESIGN.md §3m): supplies
// per-server, load-aware estimates fitted from observed sub-request
// latencies, and the cache tier's load signals. Either estimate may
// *decline* by returning a negative value, in which case the static Table
// II arithmetic below is used unchanged — a cold provider is
// byte-identical to the paper default.
class CostCalibration {
 public:
  virtual ~CostCalibration() = default;

  // Calibrated T_D. `static_startup` is the model's distance-dependent
  // positioning estimate (Eqs. 2-4 or the streaming refinement) — the
  // provider composes it with fitted per-byte and queue-delay terms, so
  // the Identifier's sequential/random selectivity signal survives
  // calibration.
  virtual SimTime DServerEstimate(SimTime static_startup, byte_count offset,
                                  byte_count size) const = 0;
  // Calibrated T_C, fully fitted (startup + per-byte + queue delay). The
  // fitted parameters already reflect any device degradation the cluster
  // is actually exhibiting, so the health `scale` is NOT re-applied on top.
  virtual SimTime CServerEstimate(device::IoKind kind, byte_count offset,
                                  byte_count size) const = 0;

  // The cache tier's load as the provider sees it, read by TierSignals.
  // Mean outstanding sub-requests per CServer (client-side counters).
  virtual double MeanCServerDepth() const = 0;
  // Whether the tier is past the provider's saturation bound; always false
  // when no bound is configured. Each call under a bound counts as a poll.
  virtual bool CacheTierSaturated() const = 0;
};

struct CostModelParams {
  int hdd_servers = 8;   // M
  int ssd_servers = 4;   // N (N < M in the paper's deployments)
  byte_count stripe_size = 64 * KiB;  // str, for both file systems

  // HDD timing (Table I): R = average rotation delay, S = maximum seek,
  // beta_D = cost per byte. F(d) comes from the profiled seek curve.
  device::HddProfile hdd;
  // Effective HDD unit cost includes the per-server network cap: a server
  // cannot deliver faster than the slower of its disk and its link.
  double beta_d_ns_per_byte = 0.0;

  // SSD timing: per-byte cost (read/write asymmetric) + fixed latency.
  double beta_c_read_ns_per_byte = 0.0;
  double beta_c_write_ns_per_byte = 0.0;
  SimTime ssd_read_latency = 0;
  SimTime ssd_write_latency = 0;

  // Derives all unit costs from device and link profiles.
  static CostModelParams FromProfiles(int hdd_servers, int ssd_servers,
                                      byte_count stripe_size,
                                      const device::HddProfile& hdd,
                                      const device::SsdProfile& ssd,
                                      const net::LinkProfile& link);
};

class CostModel {
 public:
  explicit CostModel(CostModelParams params);

  // Expected access time if the request is served by the M DServers.
  // `distance` is the *signed* logical address gap f_i - end(r_{i-1}) in
  // the issuing process's stream (d in Table I, with direction kept):
  // a small forward gap is served by the buffered servers' readahead, a
  // backward jump always repositions.
  SimTime DServerCost(byte_count distance, byte_count offset,
                      byte_count size) const;

  // Expected access time if served by the N CServers (Eq. 7).
  // `scale` >= 1 is the cache tier's current health multiplier (worst
  // per-device degradation): a degraded SSD serves every phase slower, so
  // the whole T_C stretches by the factor. 1.0 = the healthy profile.
  SimTime CServerCost(device::IoKind kind, byte_count offset, byte_count size,
                      double scale = 1.0) const;

  // B = T_D - T_C (Eq. 8). Positive => performance-critical request.
  SimTime Benefit(device::IoKind kind, byte_count distance, byte_count offset,
                  byte_count size, double cserver_scale = 1.0) const;

  bool IsCritical(device::IoKind kind, byte_count distance, byte_count offset,
                  byte_count size, double cserver_scale = 1.0) const {
    return Benefit(kind, distance, offset, size, cserver_scale) > 0;
  }

  // Eq. 4 in isolation, for tests: expected max of m U[a,b] draws.
  static SimTime ExpectedMaxStartup(SimTime a, SimTime b, int m);

  // Installs (or clears, with nullptr) the live calibration provider. Not
  // owned; must outlive the model. Both cost queries consult it first and
  // fall back to the static arithmetic when it declines.
  void SetCalibration(const CostCalibration* calibration) {
    calibration_ = calibration;
  }
  const CostCalibration* calibration() const { return calibration_; }

  const CostModelParams& params() const { return params_; }

 private:
  CostModelParams params_;
  pfs::StripeConfig d_stripe_;
  pfs::StripeConfig c_stripe_;
  const CostCalibration* calibration_ = nullptr;
};

}  // namespace s4d::core
