#include "calib/calibration.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/driver.h"
#include "harness/testbed.h"
#include "mpiio/mpi_io.h"
#include "obs/observability.h"
#include "workloads/ior.h"

namespace s4d::calib {
namespace {

// --- ServerFit: the per-(server,kind) forgetting least-squares core -------

TEST(ServerFit, RecoversLinearModel) {
  // latency = 200 us + 50 ns/B * size + 30 us * depth, exactly.
  ServerFit fit;
  for (int pass = 0; pass < 8; ++pass) {
    for (const double size : {4096.0, 16384.0, 65536.0}) {
      for (int depth = 0; depth < 8; ++depth) {
        fit.Add(0.99, size, depth, 200e3 + 50.0 * size + 30e3 * depth);
      }
    }
  }
  const ServerFit::Params p = fit.Solve(/*static_beta=*/999.0);
  EXPECT_NEAR(p.ns_per_byte, 50.0, 0.5);
  EXPECT_NEAR(p.queue_ns, 30e3, 300.0);
  EXPECT_NEAR(p.startup_ns, 200e3, 2e3);
}

TEST(ServerFit, DegenerateSizeFallsBackToStaticBeta) {
  // All sub-requests the same size: the size direction carries no signal,
  // so the fit must keep the static per-byte slope and still recover the
  // queue term from the depth spread.
  ServerFit fit;
  for (int pass = 0; pass < 32; ++pass) {
    for (int depth = 0; depth < 8; ++depth) {
      fit.Add(0.99, 16384.0, depth, 100e3 + 13.0 * 16384.0 + 25e3 * depth);
    }
  }
  const ServerFit::Params p = fit.Solve(/*static_beta=*/13.0);
  EXPECT_DOUBLE_EQ(p.ns_per_byte, 13.0);
  EXPECT_NEAR(p.queue_ns, 25e3, 250.0);
}

TEST(ServerFit, StepChangeConverges) {
  // Regime A: fast server. Regime B: the server slows 4x (degradation).
  // The exponential forgetting must walk the fit to the new regime.
  ServerFit fit;
  for (int i = 0; i < 500; ++i) {
    for (const double size : {8192.0, 32768.0}) {
      fit.Add(0.95, size, 0.0, 100e3 + 10.0 * size);
    }
  }
  ServerFit::Params p = fit.Solve(999.0);
  EXPECT_NEAR(p.ns_per_byte, 10.0, 0.1);
  for (int i = 0; i < 200; ++i) {
    for (const double size : {8192.0, 32768.0}) {
      fit.Add(0.95, size, 0.0, 400e3 + 40.0 * size);
    }
  }
  p = fit.Solve(999.0);
  EXPECT_NEAR(p.ns_per_byte, 40.0, 1.0);
  EXPECT_NEAR(p.startup_ns, 400e3, 10e3);
}

TEST(ServerFit, QueueDelayEstimateIsMonotoneInDepth) {
  ServerFit fit;
  for (int pass = 0; pass < 8; ++pass) {
    for (const double size : {4096.0, 65536.0}) {
      for (int depth = 0; depth < 6; ++depth) {
        fit.Add(0.99, size, depth, 150e3 + 20.0 * size + 40e3 * depth);
      }
    }
  }
  const ServerFit::Params p = fit.Solve(999.0);
  EXPECT_GT(p.queue_ns, 0.0);
  // The composed estimate startup + b*size + c*depth must strictly grow
  // with observed depth — the property the admission veto relies on.
  double last = -1.0;
  for (int depth = 0; depth < 32; ++depth) {
    const double t = p.startup_ns + p.ns_per_byte * 16384.0 + p.queue_ns * depth;
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(ServerFit, WarmupGateCountsUndecayedSamples) {
  ServerFit fit;
  for (int i = 0; i < 31; ++i) fit.Add(0.5, 4096.0, 0.0, 1e6);
  EXPECT_FALSE(fit.Ready(32));
  fit.Add(0.5, 4096.0, 0.0, 1e6);
  EXPECT_TRUE(fit.Ready(32));
}

// --- Engine-level: report rows and determinism ----------------------------

// One server's own served-job totals (foreground + background).
struct ServedTotals {
  std::string name;
  std::int64_t jobs = 0;
  std::int64_t bytes = 0;
  std::int64_t background_jobs = 0;
  SimTime wait_ns = 0;
  SimTime service_ns = 0;
};

struct CalibRun {
  std::string report;
  CalibStats stats;
  std::vector<CalibrationEngine::ServerRow> rows;
  std::vector<ServedTotals> served;  // Rows() order: DServers, then CServers
  // Per tier (OPFS, then CPFS): the sums of the obs histograms that record
  // each served job's queue wait and service time.
  std::int64_t observed_wait_ns[2] = {};
  std::int64_t observed_service_ns[2] = {};
};

// One small random-write IOR run with the calibration armed; returns the
// per-server report and rows, the engine's counters, and every server's
// own stats.
CalibRun RunCalibrated(std::uint64_t seed = 7) {
  obs::Observability obs;
  harness::TestbedConfig bed_cfg;
  bed_cfg.dservers = 4;
  bed_cfg.cservers = 2;
  bed_cfg.seed = seed;
  bed_cfg.obs = &obs;
  harness::Testbed bed(bed_cfg);

  core::S4DConfig cfg;
  cfg.cache_capacity = 8 * MiB;
  auto s4d = bed.MakeS4D(cfg);

  CalibConfig cc;
  cc.min_samples = 8;
  cc.saturation_depth = 64.0;
  CalibrationEngine cal(cc, bed.MakeCostModel().params());
  cal.Attach(*s4d, bed.dservers(), bed.cservers(), nullptr);

  mpiio::MpiIoLayer layer(bed.engine(), *s4d);
  workloads::IorConfig wcfg;
  wcfg.file = "calib-test.dat";
  wcfg.ranks = 8;
  wcfg.file_size = 8 * MiB;
  wcfg.request_size = 16 * KiB;
  wcfg.random = true;
  wcfg.kind = device::IoKind::kWrite;
  wcfg.seed = seed;
  workloads::IorWorkload wl(wcfg);
  harness::RunClosedLoop(layer, wl);

  CalibRun run;
  std::ostringstream out;
  cal.PrintReport(out);
  run.report = out.str();
  run.stats = cal.stats();
  run.rows = cal.Rows();
  const pfs::FileSystem* tiers[2] = {&bed.dservers(), &bed.cservers()};
  for (int t = 0; t < 2; ++t) {
    const pfs::FileSystem& fs = *tiers[t];
    for (int i = 0; i < fs.server_count(); ++i) {
      const pfs::ServerStats& st = fs.server(i).stats();
      run.served.push_back({fs.server(i).name(),
                            st.requests + st.background_requests,
                            st.bytes + st.background_bytes,
                            st.background_requests, st.queue_wait_time,
                            st.busy_time});
    }
    const std::string prefix = "pfs." + fs.config().name + ".";
    run.observed_wait_ns[t] =
        obs.metrics.histograms().at(prefix + "queue_wait_ns").sum();
    run.observed_service_ns[t] =
        obs.metrics.histograms().at(prefix + "service_ns").sum();
  }
  return run;
}

TEST(CalibrationEngine, RowsMatchServerStats) {
  // Rows() reads each server's own stats. Every served job, foreground or
  // background, counts there once, with the queue wait and service time
  // that the pfs.<fs>.queue_wait_ns and service_ns histograms record.
  const CalibRun run = RunCalibrated();
  EXPECT_GT(run.stats.samples, 0);
  EXPECT_NE(run.report.find("CPFS/server0"), std::string::npos);
  ASSERT_EQ(run.rows.size(), run.served.size());
  std::int64_t jobs = 0;
  std::int64_t background_jobs = 0;
  std::int64_t wait_ns[2] = {};
  std::int64_t service_ns[2] = {};
  for (std::size_t i = 0; i < run.rows.size(); ++i) {
    const ServedTotals& served = run.served[i];
    const CalibrationEngine::ServerRow& row = run.rows[i];
    EXPECT_EQ(row.name, served.name);
    EXPECT_EQ(row.jobs, served.jobs) << served.name;
    EXPECT_EQ(row.bytes, served.bytes) << served.name;
    ASSERT_GT(served.jobs, 0) << served.name;
    const double n = static_cast<double>(served.jobs);
    EXPECT_DOUBLE_EQ(row.mean_wait_us,
                     static_cast<double>(served.wait_ns) / n / 1e3)
        << served.name;
    EXPECT_DOUBLE_EQ(row.mean_service_us,
                     static_cast<double>(served.service_ns) / n / 1e3)
        << served.name;
    wait_ns[row.cache_tier ? 1 : 0] += served.wait_ns;
    service_ns[row.cache_tier ? 1 : 0] += served.service_ns;
    jobs += served.jobs;
    background_jobs += served.background_jobs;
  }
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(wait_ns[t], run.observed_wait_ns[t]) << "tier " << t;
    EXPECT_EQ(service_ns[t], run.observed_service_ns[t]) << "tier " << t;
  }
  EXPECT_GT(wait_ns[0] + wait_ns[1], 0);
  // Both branches of the sum are exercised: the Rebuilder's flushes are
  // background jobs.
  EXPECT_GT(jobs, background_jobs);
  EXPECT_GT(background_jobs, 0);
}

TEST(CalibrationEngine, DeterminismGuard) {
  // Two identical runs must produce identical fitted parameters, counters,
  // and report text — the calibration adds no hidden nondeterminism.
  const CalibRun a = RunCalibrated();
  const CalibRun b = RunCalibrated();
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.stats.samples, b.stats.samples);
  EXPECT_EQ(a.stats.failed_samples, b.stats.failed_samples);
  EXPECT_EQ(a.stats.declines, b.stats.declines);
  EXPECT_EQ(a.stats.saturated_polls, b.stats.saturated_polls);
}

TEST(CalibrationEngine, ColdEngineDeclinesEveryEstimate) {
  harness::TestbedConfig bed_cfg;
  bed_cfg.dservers = 4;
  bed_cfg.cservers = 2;
  harness::Testbed bed(bed_cfg);
  core::S4DConfig cfg;
  cfg.cache_capacity = 8 * MiB;
  auto s4d = bed.MakeS4D(cfg);
  CalibConfig cc;
  CalibrationEngine cal(cc, bed.MakeCostModel().params());
  cal.Attach(*s4d, bed.dservers(), bed.cservers(), nullptr);
  // No samples yet: every estimate must decline (return -1), leaving the
  // cost model on its static closed forms.
  EXPECT_EQ(cal.CServerEstimate(device::IoKind::kWrite, 0, 64 * KiB), -1);
  EXPECT_EQ(cal.DServerEstimate(FromMillis(3), 0, 64 * KiB), -1);
  EXPECT_EQ(cal.stats().declines, 2);
  EXPECT_FALSE(cal.CacheTierSaturated());
}

}  // namespace
}  // namespace s4d::calib
