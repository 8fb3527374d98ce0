#include "calib/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/check.h"
#include "core/s4d_cache.h"
#include "obs/observability.h"

namespace s4d::calib {

namespace {

// Relative degeneracy guards for the centered covariances: a direction
// whose variance is below epsilon relative to its mean square carries no
// usable signal (a fixed-size workload, an always-idle server).
constexpr double kVarEps = 1e-6;
// Collinearity guard on the 2x2 solve: when size and depth move together
// (load tracks request size), the joint solve is ill-conditioned and we
// fall back to fitting the size direction alone.
constexpr double kDetEps = 1e-3;
// Per-sample exponential forgetting factor of the least-squares moments:
// 0.99 halves a sample's weight every ~69 samples — fast enough to track
// load phases, slow enough to smooth noise.
constexpr double kForget = 0.99;

int KindIndex(device::IoKind kind) {
  return kind == device::IoKind::kWrite ? 1 : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// ServerFit

void ServerFit::Add(double forget, double size, double depth, double latency) {
  w_ *= forget;
  sx_ *= forget;
  sq_ *= forget;
  sy_ *= forget;
  sxx_ *= forget;
  sqq_ *= forget;
  sxq_ *= forget;
  sxy_ *= forget;
  sqy_ *= forget;
  w_ += 1.0;
  sx_ += size;
  sq_ += depth;
  sy_ += latency;
  sxx_ += size * size;
  sqq_ += depth * depth;
  sxq_ += size * depth;
  sxy_ += size * latency;
  sqy_ += depth * latency;
  ++samples_;
}

ServerFit::Params ServerFit::Solve(double static_beta) const {
  Params p;
  p.ns_per_byte = std::max(0.0, static_beta);
  if (w_ <= 0.0) return p;
  const double mx = sx_ / w_;
  const double mq = sq_ / w_;
  const double my = sy_ / w_;
  const double cxx = sxx_ / w_ - mx * mx;
  const double cqq = sqq_ / w_ - mq * mq;
  const double cxq = sxq_ / w_ - mx * mq;
  const double cxy = sxy_ / w_ - mx * my;
  const double cqy = sqy_ / w_ - mq * my;
  const bool x_ok = cxx > kVarEps * (mx * mx + 1.0);
  const bool q_ok = cqq > kVarEps * (mq * mq + 1.0);
  double b;
  double c;
  const double det = cxx * cqq - cxq * cxq;
  if (x_ok && q_ok && det > kDetEps * cxx * cqq) {
    b = (cxy * cqq - cqy * cxq) / det;
    c = (cqy * cxx - cxy * cxq) / det;
  } else if (x_ok) {
    // Depth direction flat (unloaded or constant load): size slope alone.
    b = cxy / cxx;
    c = 0.0;
  } else if (q_ok) {
    // Size direction flat (fixed-size workload): keep the static per-byte
    // slope and fit the queue slope on the residual.
    b = std::max(0.0, static_beta);
    c = (cqy - b * cxq) / cqq;
  } else {
    b = std::max(0.0, static_beta);
    c = 0.0;
  }
  p.ns_per_byte = std::max(0.0, b);
  p.queue_ns = std::max(0.0, c);
  p.startup_ns = std::max(0.0, my - p.ns_per_byte * mx - p.queue_ns * mq);
  return p;
}

// ---------------------------------------------------------------------------
// CalibrationEngine

CalibrationEngine::CalibrationEngine(CalibConfig config,
                                     const core::CostModelParams& params)
    : config_(config), params_(params) {
  d_stripe_.server_count = params_.hdd_servers;
  d_stripe_.stripe_size = params_.stripe_size;
  c_stripe_.server_count = params_.ssd_servers;
  c_stripe_.stripe_size = params_.stripe_size;
  dservers_.fits.resize(static_cast<std::size_t>(params_.hdd_servers));
  cservers_.fits.resize(static_cast<std::size_t>(params_.ssd_servers) * 2);
}

void CalibrationEngine::Attach(core::S4DCache& cache,
                               pfs::FileSystem& dserver_fs,
                               pfs::FileSystem& cserver_fs,
                               obs::Observability* obs) {
  S4D_CHECK(!attached_);
  S4D_CHECK(dserver_fs.server_count() == params_.hdd_servers);
  S4D_CHECK(cserver_fs.server_count() == params_.ssd_servers);
  attached_ = true;
  dservers_.fs = &dserver_fs;
  cservers_.fs = &cserver_fs;
  dserver_fs.SetSubRequestSink(this, kDServerTier);
  cserver_fs.SetSubRequestSink(this, kCServerTier);
  cache.SetCostCalibration(this);
  if (obs != nullptr) {
    // Lazy gauges: resolved at export time.
    obs->metrics.SetGaugeFn("calib.samples", [this] {
      return static_cast<double>(stats_.samples);
    });
    obs->metrics.SetGaugeFn("calib.failed_samples", [this] {
      return static_cast<double>(stats_.failed_samples);
    });
    obs->metrics.SetGaugeFn("calib.dserver_estimates", [this] {
      return static_cast<double>(stats_.dserver_estimates);
    });
    obs->metrics.SetGaugeFn("calib.cserver_estimates", [this] {
      return static_cast<double>(stats_.cserver_estimates);
    });
    obs->metrics.SetGaugeFn("calib.declines", [this] {
      return static_cast<double>(stats_.declines);
    });
    obs->metrics.SetGaugeFn("calib.saturated_polls", [this] {
      return static_cast<double>(stats_.saturated_polls);
    });
    obs->metrics.SetGaugeFn("calib.cserver_mean_depth",
                            [this] { return MeanCServerDepth(); });
  }
}

const ServerFit& CalibrationEngine::Cell(const TierState& tier,
                                         bool cache_tier, int server,
                                         device::IoKind kind) const {
  const std::size_t index =
      cache_tier ? static_cast<std::size_t>(server) * 2 +
                       static_cast<std::size_t>(KindIndex(kind))
                 : static_cast<std::size_t>(server);
  return tier.fits[index];
}

ServerFit& CalibrationEngine::MutableCell(TierState& tier, bool cache_tier,
                                          int server, device::IoKind kind) {
  return const_cast<ServerFit&>(Cell(tier, cache_tier, server, kind));
}

SimTime CalibrationEngine::TierEstimate(
    const TierState& tier, const pfs::StripeConfig& stripe, bool cache_tier,
    double static_beta, SimTime static_startup, device::IoKind kind,
    byte_count offset, byte_count size, std::int64_t* served_counter) const {
  if (tier.fs == nullptr || size <= 0) return -1;
  const int involved = pfs::InvolvedServerCount(stripe, offset, size);
  const byte_count share = pfs::MaxSubRequestSize(stripe, offset, size);
  const byte_count first_stripe = offset / stripe.stripe_size;
  double worst = 0.0;
  for (int j = 0; j < involved; ++j) {
    const int server = static_cast<int>(
        (first_stripe + j) % static_cast<byte_count>(stripe.server_count));
    const ServerFit& fit = Cell(tier, cache_tier, server, kind);
    if (!fit.Ready(config_.min_samples)) {
      ++stats_.declines;
      return -1;
    }
    const ServerFit::Params p = fit.Solve(static_beta);
    // DServer estimates keep the model's structural (distance-dependent)
    // startup; the cache tier's startup is fully fitted.
    const double start = cache_tier ? p.startup_ns
                                    : static_cast<double>(static_startup);
    const double depth =
        static_cast<double>(tier.fs->server(server).held_jobs());
    const double t = start + p.ns_per_byte * static_cast<double>(share) +
                     p.queue_ns * depth;
    worst = std::max(worst, t);
  }
  ++*served_counter;
  return static_cast<SimTime>(std::llround(worst));
}

SimTime CalibrationEngine::DServerEstimate(SimTime static_startup,
                                           byte_count offset,
                                           byte_count size) const {
  // T_D is kind-blind in the static model (Eq. 5 has a single beta_D), so
  // the fitted cells are too; kRead is the shared cell's canonical key.
  return TierEstimate(dservers_, d_stripe_, /*cache_tier=*/false,
                      params_.beta_d_ns_per_byte, static_startup,
                      device::IoKind::kRead, offset, size,
                      &stats_.dserver_estimates);
}

SimTime CalibrationEngine::CServerEstimate(device::IoKind kind,
                                           byte_count offset,
                                           byte_count size) const {
  const double beta = kind == device::IoKind::kWrite
                          ? params_.beta_c_write_ns_per_byte
                          : params_.beta_c_read_ns_per_byte;
  return TierEstimate(cservers_, c_stripe_, /*cache_tier=*/true, beta,
                      /*static_startup=*/0, kind, offset, size,
                      &stats_.cserver_estimates);
}

void CalibrationEngine::OnSubRequestResolved(
    const pfs::SubRequestSample& sample) {
  if (!sample.ok) {
    // A failed sub's latency is a timeout/failure artifact, not a device
    // characteristic: it is counted, not fitted.
    ++stats_.failed_samples;
    return;
  }
  // Background traffic (flush/fetch) rides a lower priority class whose
  // latency is not what a foreground request would see; it still loads the
  // server, which the depth term of *other* samples picks up.
  if (sample.priority != pfs::Priority::kNormal) return;
  const bool cache_tier = sample.tag == kCServerTier;
  TierState& tier = cache_tier ? cservers_ : dservers_;
  ++stats_.samples;
  MutableCell(tier, cache_tier, sample.server, sample.kind)
      .Add(kForget, static_cast<double>(sample.size),
           static_cast<double>(sample.depth_at_submit),
           static_cast<double>(sample.complete_time - sample.submit_time));
}

double CalibrationEngine::MeanCServerDepth() const {
  if (cservers_.fs == nullptr) return 0.0;
  return static_cast<double>(cservers_.fs->outstanding_subs()) /
         static_cast<double>(cservers_.fs->server_count());
}

bool CalibrationEngine::CacheTierSaturated() const {
  if (config_.saturation_depth <= 0.0) return false;
  ++stats_.saturation_polls;
  const bool saturated = MeanCServerDepth() > config_.saturation_depth;
  if (saturated) ++stats_.saturated_polls;
  return saturated;
}

std::vector<CalibrationEngine::ServerRow> CalibrationEngine::Rows() const {
  std::vector<ServerRow> rows;
  const TierState* tiers[2] = {&dservers_, &cservers_};
  for (int t = 0; t < 2; ++t) {
    const TierState& tier = *tiers[t];
    const bool cache_tier = t == 1;
    if (tier.fs == nullptr) continue;
    for (int s = 0; s < tier.fs->server_count(); ++s) {
      const pfs::FileServer& server = tier.fs->server(s);
      const pfs::ServerStats& served = server.stats();
      ServerRow row;
      row.name = server.name();
      row.cache_tier = cache_tier;
      row.jobs = served.requests + served.background_requests;
      row.bytes = served.bytes + served.background_bytes;
      if (row.jobs > 0) {
        const double jobs = static_cast<double>(row.jobs);
        row.mean_wait_us =
            static_cast<double>(served.queue_wait_time) / jobs / 1e3;
        row.mean_service_us =
            static_cast<double>(served.busy_time) / jobs / 1e3;
      }
      if (cache_tier) {
        const ServerFit& rd = Cell(tier, true, s, device::IoKind::kRead);
        const ServerFit& wr = Cell(tier, true, s, device::IoKind::kWrite);
        row.fit_samples = rd.samples() + wr.samples();
        const bool use_write = wr.samples() >= rd.samples();
        row.fitted = use_write
                         ? wr.Solve(params_.beta_c_write_ns_per_byte)
                         : rd.Solve(params_.beta_c_read_ns_per_byte);
      } else {
        const ServerFit& fit = Cell(tier, false, s, device::IoKind::kRead);
        row.fit_samples = fit.samples();
        row.fitted = fit.Solve(params_.beta_d_ns_per_byte);
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

void CalibrationEngine::PrintReport(std::ostream& out) const {
  char line[256];
  std::snprintf(line, sizeof(line), "%-18s %-5s %8s %12s %12s %8s %10s %9s %9s\n",
                "server", "tier", "jobs", "mean_wait_us", "mean_svc_us",
                "fit_n", "startup_us", "ns_per_kb", "queue_us");
  out << line;
  for (const ServerRow& row : Rows()) {
    std::snprintf(
        line, sizeof(line),
        "%-18s %-5s %8lld %12.1f %12.1f %8lld %10.1f %9.1f %9.2f\n",
        row.name.c_str(), row.cache_tier ? "ssd" : "hdd",
        static_cast<long long>(row.jobs), row.mean_wait_us,
        row.mean_service_us, static_cast<long long>(row.fit_samples),
        row.fitted.startup_ns / 1e3, row.fitted.ns_per_byte * 1024.0,
        row.fitted.queue_ns / 1e3);
    out << line;
  }
  std::snprintf(line, sizeof(line),
                "samples=%lld failed=%lld est_d=%lld est_c=%lld declines=%lld "
                "saturated_polls=%lld/%lld\n",
                static_cast<long long>(stats_.samples),
                static_cast<long long>(stats_.failed_samples),
                static_cast<long long>(stats_.dserver_estimates),
                static_cast<long long>(stats_.cserver_estimates),
                static_cast<long long>(stats_.declines),
                static_cast<long long>(stats_.saturated_polls),
                static_cast<long long>(stats_.saturation_polls));
  out << line;
}

void CalibrationEngine::ExportTrace(obs::Observability& obs,
                                    SimTime at) const {
  if (!obs.tracing()) return;
  const std::uint32_t lane = obs.tracer.Lane("calib");
  for (const ServerRow& row : Rows()) {
    const obs::SpanId id =
        obs.tracer.Instant(lane, "calib.server", "calib", at);
    obs.tracer.AddArg(id, "server", row.name);
    obs.tracer.AddArg(id, "tier", std::string(row.cache_tier ? "ssd" : "hdd"));
    obs.tracer.AddArg(id, "jobs", row.jobs);
    obs.tracer.AddArg(id, "bytes", row.bytes);
    obs.tracer.AddArg(id, "mean_wait_us_x10",
                      static_cast<std::int64_t>(
                          std::llround(row.mean_wait_us * 10.0)));
    obs.tracer.AddArg(id, "mean_svc_us_x10",
                      static_cast<std::int64_t>(
                          std::llround(row.mean_service_us * 10.0)));
    obs.tracer.AddArg(id, "fit_n", row.fit_samples);
    obs.tracer.AddArg(id, "startup_us_x10",
                      static_cast<std::int64_t>(
                          std::llround(row.fitted.startup_ns / 1e3 * 10.0)));
    obs.tracer.AddArg(id, "ns_per_kb_x10",
                      static_cast<std::int64_t>(
                          std::llround(row.fitted.ns_per_byte * 1024.0 * 10.0)));
    obs.tracer.AddArg(id, "queue_us_x100",
                      static_cast<std::int64_t>(
                          std::llround(row.fitted.queue_ns / 1e3 * 100.0)));
  }
}

}  // namespace s4d::calib
