// Feedback-driven admission control (closing the loop the paper leaves
// open) plus an LBICA-style pressure veto.
//
// The Data Identifier admits a request when its *predicted* benefit
// B = T_D - T_C is positive (Eqs. 1-8). The prediction is per-request and
// blind to queueing: under bursty random traffic the 4 CServers can be far
// slower than the model thinks, and under light load far faster. The
// AdmissionController measures the *realized* gain of every cache-served
// admitted request — predicted DServer cost minus the latency actually
// observed at completion — and maintains an EWMA of realized/predicted. A
// persistently under-delivering cache raises the admission threshold on B
// (only clearly-beneficial requests get in); an over-delivering one decays
// it back toward the paper's B > 0 rule.
//
// The pressure veto is LBICA's argument applied at admission time: when the
// CServers' mean queue depth (read from core::TierSignals) exceeds the
// configured bound, new admissions are vetoed outright so the backlog
// drains through both tiers instead of piling onto the cache.
//
// Everything is deterministic: the threshold moves in fixed integer steps
// of simulated time, and all inputs are simulation-derived.
#pragma once

#include <cstdint>

#include "common/sim_time.h"
#include "core/tier_signals.h"

namespace s4d::policy {

struct AdmissionControllerConfig {
  // Master switch for the EWMA feedback; off = fixed threshold 0 (the
  // paper's B > 0 rule) with only the pressure veto active (if bounded).
  bool feedback = false;
  double ewma_alpha = 0.125;      // smoothing of the realized-gain ratio
  std::int64_t warmup_samples = 16;  // completions before the threshold moves
  SimTime threshold_step = FromMicros(50);
  SimTime threshold_max = FromMillis(5);
  // Realized/predicted gain bands: below `low_gain` the threshold rises,
  // above `high_gain` it decays.
  double low_gain = 0.5;
  double high_gain = 0.9;
  // Pressure veto: mean CServer queue depth beyond which admissions are
  // vetoed. 0 disables the veto. The one admission-stage veto on
  // cache-tier load.
  double pressure_max_queue = 0.0;
};

struct AdmissionControllerStats {
  std::int64_t decisions = 0;
  std::int64_t admits = 0;
  std::int64_t threshold_rejects = 0;  // B positive but below the threshold
  std::int64_t pressure_vetoes = 0;
  std::int64_t feedback_samples = 0;
  std::int64_t threshold_raises = 0;
  std::int64_t threshold_decays = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionControllerConfig config)
      : config_(config) {}

  // Admission verdict. `model_critical` is the verdict this stage receives
  // (the Identifier's B > 0 after the health veto), `benefit` the
  // health-scaled B. The pressure veto reads the live mean queue depth
  // from `tier` only while its bound is set (a detached tier is idle).
  bool Admit(SimTime benefit, bool model_critical,
             const core::TierSignals& tier = {});

  // Feedback sample: an admitted, fully-cache-served request completed.
  // `predicted_dserver` is what the model said the DServers would have
  // taken; `latency` is what the cache path actually took.
  void OnCompletion(SimTime predicted_benefit, SimTime predicted_dserver,
                    SimTime latency);

  SimTime threshold() const { return threshold_; }
  double ewma_gain() const { return ewma_gain_; }
  const AdmissionControllerStats& stats() const { return stats_; }
  const AdmissionControllerConfig& config() const { return config_; }

  // S4D_CHECKs counter consistency and threshold bounds.
  void AuditInvariants() const;

 private:
  AdmissionControllerConfig config_;
  SimTime threshold_ = 0;
  double ewma_gain_ = 1.0;  // optimistic start: trust the model until data
  AdmissionControllerStats stats_;
};

}  // namespace s4d::policy
