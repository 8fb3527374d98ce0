// PolicyEngine: the policy subsystem's front door.
//
// Takes part in an S4DCache's decisions as a core::CacheExtension (the
// core never depends on this library) with one admission stage: the Data
// Identifier's verdict runs through an AdmissionController — the EWMA
// feedback threshold on B and the LBICA-style pressure veto. Eviction
// stays the paper's clean-LRU and destage the Rebuilder's coalesced
// file-order runs; the engine selects neither.
//
// With PolicyMode::kPaperDefault the engine must not be constructed at
// all — s4dsim skips it entirely, leaving the cache with no extension,
// which the core guarantees is byte-identical to the pre-policy behaviour.
// kAdaptive with fixed admission (no feedback, no pressure bound) attaches
// the engine but reproduces the paper's decisions exactly (the equivalence
// test pins this).
#pragma once

#include <cstdint>

#include "common/config_parser.h"
#include "common/status.h"
#include "core/s4d_cache.h"
#include "obs/observability.h"
#include "policy/admission.h"

namespace s4d::policy {

enum class PolicyMode : std::uint8_t { kPaperDefault, kAdaptive };

const char* PolicyModeName(PolicyMode mode);

struct PolicyConfig {
  PolicyMode mode = PolicyMode::kPaperDefault;
  AdmissionControllerConfig admission;
};

// Parses the [policy] section:
//   mode               = paper-default | adaptive
//   admission          = fixed | feedback
//   ewma_alpha         = <0..1>
//   threshold_step     = <duration>
//   threshold_max      = <duration>
//   pressure_max_queue = <mean queue depth; 0 disables the veto>
// Unknown keys are rejected by the caller's schema validation; this
// function rejects a value that does not parse, an out-of-range value, and
// any non-mode key present alongside mode=paper-default (those keys would
// silently do nothing otherwise).
Result<PolicyConfig> ParsePolicyConfig(const ConfigParser& config);

struct PolicyEngineStats {
  // Always 0: the engine switches nothing. perfbench reads it as
  // policy.switches.
  std::int64_t policy_switches = 0;
};

class PolicyEngine final : public core::CacheExtension {
 public:
  explicit PolicyEngine(PolicyConfig config);

  // Attaches the engine to `cache` as an extension. Call once, before
  // traffic and before any TenantManager::Attach; the cache must outlive
  // the engine's use. `obs` (nullable) receives policy.* metrics.
  void Attach(core::S4DCache& cache, obs::Observability* obs = nullptr);

  // --- core::CacheExtension ----------------------------------------------
  // The AdmissionController's verdict on the earlier stages' verdict.
  bool Admit(const core::AdmissionContext& ctx, bool verdict) override;
  // Feedback samples from admitted, fully cache-served requests.
  void OnOutcome(const core::RequestOutcome& outcome) override;
  // Audits the controller's invariants; runs with the cache's audits,
  // including the paranoid-build periodic ones.
  void AuditInvariants() const override;

  const PolicyConfig& config() const { return config_; }
  const AdmissionController& admission() const { return controller_; }
  const PolicyEngineStats& stats() const { return stats_; }

 private:
  PolicyConfig config_;
  core::S4DCache* cache_ = nullptr;
  AdmissionController controller_;
  PolicyEngineStats stats_;
};

}  // namespace s4d::policy
