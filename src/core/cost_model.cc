#include "core/cost_model.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"

namespace s4d::core {

CostModelParams CostModelParams::FromProfiles(int hdd_servers, int ssd_servers,
                                              byte_count stripe_size,
                                              const device::HddProfile& hdd,
                                              const device::SsdProfile& ssd,
                                              const net::LinkProfile& link) {
  CostModelParams p;
  p.hdd_servers = hdd_servers;
  p.ssd_servers = ssd_servers;
  p.stripe_size = stripe_size;
  p.hdd = hdd;
  // A server's delivery rate is capped by the slower of media and wire.
  const double hdd_bps = std::min(hdd.transfer_bps, link.bandwidth_bps);
  const double ssd_read_bps = std::min(ssd.read_bps, link.bandwidth_bps);
  const double ssd_write_bps = std::min(ssd.write_bps, link.bandwidth_bps);
  p.beta_d_ns_per_byte = 1e9 / hdd_bps;
  p.beta_c_read_ns_per_byte = 1e9 / ssd_read_bps;
  p.beta_c_write_ns_per_byte = 1e9 / ssd_write_bps;
  // RPC latency is common to both sides, so it cancels out of Eq. 8 and is
  // omitted; only the devices' own per-request latencies enter T_C.
  p.ssd_read_latency = ssd.read_latency;
  p.ssd_write_latency = ssd.write_latency;
  return p;
}

CostModel::CostModel(CostModelParams params) : params_(std::move(params)) {
  S4D_CHECK(params_.hdd_servers >= 1)
      << "cost model needs a DServer, got " << params_.hdd_servers;
  S4D_CHECK(params_.ssd_servers >= 1)
      << "cost model needs a CServer, got " << params_.ssd_servers;
  d_stripe_ = pfs::StripeConfig{params_.hdd_servers, params_.stripe_size};
  c_stripe_ = pfs::StripeConfig{params_.ssd_servers, params_.stripe_size};
}

SimTime CostModel::ExpectedMaxStartup(SimTime a, SimTime b, int m) {
  S4D_CHECK(m >= 1) << "Eq. 4 over " << m << " servers";
  S4D_CHECK(b >= a) << "Eq. 4 bounds inverted: a = " << a << ", b = " << b;
  // Eq. 4: E[max(alpha_1..alpha_m)] for alpha ~ U[a, b].
  const double span = static_cast<double>(b - a);
  const double frac = static_cast<double>(m) / static_cast<double>(m + 1);
  return a + static_cast<SimTime>(frac * span);
}

SimTime CostModel::DServerCost(byte_count distance, byte_count offset,
                               byte_count size) const {
  if (size <= 0) return 0;
  const int m = pfs::InvolvedServerCount(d_stripe_, offset, size);  // Eq. 6
  SimTime startup = 0;
  // A forward file-space gap of d bytes spreads over the M servers of the
  // round-robin layout: each server sees only ~d/M of it locally. A small
  // backward gap lands on data the stream just passed — still in the
  // server's page cache (charge no gap).
  const byte_count per_server_gap =
      std::max<byte_count>(0, distance) / params_.hdd_servers;
  const bool behind_in_cache =
      distance < 0 && (-distance) / params_.hdd_servers <
                          params_.hdd.readahead_window;
  if (behind_in_cache ||
      (distance >= 0 && per_server_gap < params_.hdd.readahead_window)) {
    // Streaming refinement: a request continuing within a server's
    // readahead window pays neither seek nor rotation (the buffered PVFS2
    // server already holds or is fetching those bytes) — it costs the
    // media transfer of the skipped gap instead. The paper's Eq. 2 bounds
    // a = F(d)+R, b = S+R model head-position *uncertainty*; inside the
    // window there is none. Without this case the model scores sequential
    // and small-stride streams nearly as expensive as random ones and
    // would admit everything — contradicting the paper's own Table III,
    // where sequential requests stay on DServers. This is what deriving F
    // "from an offline profiling of the HDD storage" yields on a buffered
    // file server.
    startup = params_.hdd.command_overhead +
              static_cast<SimTime>(static_cast<double>(per_server_gap) *
                                   params_.beta_d_ns_per_byte);
  } else {
    // Eq. 2's bounds: a = F(d) + R, b = S + R.
    const SimTime rotation = params_.hdd.average_rotation_delay();
    const SimTime a =
        device::SeekTimeForProfile(params_.hdd, std::llabs(distance)) +
        rotation;
    const SimTime b = params_.hdd.max_seek + rotation;
    startup = ExpectedMaxStartup(a, std::max(a, b), m);  // Eq. 4
  }
  // Calibrated path: the provider composes the structural startup with its
  // fitted per-byte and queue-delay terms; a negative return declines.
  if (calibration_ != nullptr) {
    const SimTime calibrated =
        calibration_->DServerEstimate(startup, offset, size);
    if (calibrated >= 0) return calibrated;
  }
  // Eq. 5 / Table II: transfer gated by the largest per-server share.
  const byte_count s_m = pfs::MaxSubRequestSize(d_stripe_, offset, size);
  const auto transfer = static_cast<SimTime>(
      static_cast<double>(s_m) * params_.beta_d_ns_per_byte);
  return startup + transfer;  // Eq. 1
}

SimTime CostModel::CServerCost(device::IoKind kind, byte_count offset,
                               byte_count size, double scale) const {
  if (size <= 0) return 0;
  // Calibrated path: fitted parameters already embody the tier's realized
  // speed (including degradation), so `scale` is not re-applied.
  if (calibration_ != nullptr) {
    const SimTime calibrated = calibration_->CServerEstimate(kind, offset, size);
    if (calibrated >= 0) return calibrated;
  }
  // Eq. 7: no seek term — SSDs are insensitive to spatial locality. S_n is
  // the max per-server share when the request spreads over the N CServers.
  const byte_count s_n = pfs::MaxSubRequestSize(c_stripe_, offset, size);
  SimTime cost;
  if (kind == device::IoKind::kRead) {
    cost = params_.ssd_read_latency +
           static_cast<SimTime>(static_cast<double>(s_n) *
                                params_.beta_c_read_ns_per_byte);
  } else {
    cost = params_.ssd_write_latency +
           static_cast<SimTime>(static_cast<double>(s_n) *
                                params_.beta_c_write_ns_per_byte);
  }
  return scale <= 1.0 ? cost
                      : static_cast<SimTime>(static_cast<double>(cost) * scale);
}

SimTime CostModel::Benefit(device::IoKind kind, byte_count distance,
                           byte_count offset, byte_count size,
                           double cserver_scale) const {
  return DServerCost(distance, offset, size) -
         CServerCost(kind, offset, size, cserver_scale);  // Eq. 8
}

}  // namespace s4d::core
