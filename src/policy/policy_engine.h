// PolicyEngine: the adaptive policy subsystem's front door.
//
// Owns the three policy axes and takes part in an S4DCache's decisions as
// a core::CacheExtension (the core never depends on this library):
//
//   eviction   — a pluggable EvictionPolicy is the cache's victim selector
//                and learns from every removal and outcome.
//   admission  — the engine's Admit stage runs the Data Identifier's
//                verdict through an AdmissionController: ghost-assisted
//                admission, EWMA feedback threshold, LBICA pressure veto.
//   destage    — the Rebuilder's flush ordering (set_flush_order).
//
// In kAdaptive mode a WorkloadCharacterizer watches the request stream and,
// at window boundaries, re-selects the eviction policy and destage order
// for the detected phase (ReCA-style reconfiguration):
//
//   sequential -> lru + file-run destage   (streams recycle cleanly; big
//                                           coalesced write-back wins)
//   random     -> arc + lru-first destage  (reuse matters; clean what the
//                                           policy wants to reclaim next)
//   mixed      -> selective-lru + file-runs (LRU order with ghost evidence
//                                           feeding admission)
//
// With PolicyMode::kPaperDefault the engine must not be constructed at
// all — s4dsim skips it entirely, leaving the cache with no extension,
// which the core guarantees is byte-identical to the pre-policy behaviour.
// kFixed with eviction=lru and admission=fixed attaches the engine but
// reproduces the paper's decisions exactly (the equivalence test pins
// this).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/config_parser.h"
#include "common/status.h"
#include "core/s4d_cache.h"
#include "obs/observability.h"
#include "policy/admission.h"
#include "policy/characterizer.h"
#include "policy/eviction.h"

namespace s4d::policy {

enum class PolicyMode : std::uint8_t { kPaperDefault, kFixed, kAdaptive };

const char* PolicyModeName(PolicyMode mode);

struct PolicyConfig {
  PolicyMode mode = PolicyMode::kPaperDefault;
  EvictionKind eviction = EvictionKind::kLru;  // kFixed starting point
  core::FlushOrder destage = core::FlushOrder::kFileRuns;
  std::size_t ghost_capacity = 4096;  // entries per ghost list
  AdmissionControllerConfig admission;
  CharacterizerConfig characterizer;
};

// Parses the [policy] section:
//   mode             = paper-default | fixed | adaptive
//   eviction         = lru | arc | selective-lru
//   admission        = fixed | feedback
//   destage          = file-runs | lru-first
//   ghost_capacity   = <count>
//   window_requests  = <count>
//   seq_distance_max = <size>
//   ewma_alpha       = <0..1>
//   threshold_step   = <duration>
//   threshold_max    = <duration>
//   pressure_max_queue = <mean queue depth; 0 disables the veto>
// Unknown keys are rejected by the caller's schema validation; this
// function rejects invalid *values* and any non-mode key present alongside
// mode=paper-default (those keys would silently do nothing otherwise).
Result<PolicyConfig> ParsePolicyConfig(const ConfigParser& config);

struct PolicyEngineStats {
  std::int64_t policy_switches = 0;  // eviction policy changed at a window
};

class PolicyEngine final : public core::CacheExtension {
 public:
  explicit PolicyEngine(PolicyConfig config);

  // Attaches the engine to `cache` as an extension and its victim selector,
  // and sets the Rebuilder's destage order. Call once, before traffic and
  // before any TenantManager::Attach; the cache must outlive the engine's
  // use. `obs` (nullable) receives policy.* metrics and policy-switch trace
  // instants.
  void Attach(core::S4DCache& cache, obs::Observability* obs = nullptr);

  // --- core::CacheExtension ----------------------------------------------
  // Feeds the characterizer (switching policy at a window close), probes
  // the ghost list and returns the AdmissionController's verdict.
  bool Admit(const core::AdmissionContext& ctx, bool verdict) override;
  std::optional<core::RemovedExtent> SelectVictim(
      core::DataMappingTable& dmt) override;
  void OnRemoved(const core::RemovedExtent& extent, bool evicted) override;
  // Recency on hits, admission bookkeeping, and feedback samples.
  void OnOutcome(const core::RequestOutcome& outcome) override;
  // Audits the controller, characterizer and eviction-policy invariants;
  // runs with the cache's audits, including the paranoid-build periodic
  // ones.
  void AuditInvariants() const override;

  const PolicyConfig& config() const { return config_; }
  const AdmissionController& admission() const { return controller_; }
  const WorkloadCharacterizer& characterizer() const { return characterizer_; }
  const EvictionPolicy& eviction() const { return *eviction_; }
  EvictionKind eviction_kind() const { return eviction_kind_; }
  const PolicyEngineStats& stats() const { return stats_; }

 private:
  void OnWindow(const WindowSummary& summary);
  void SwitchEviction(EvictionKind kind);

  PolicyConfig config_;
  core::S4DCache* cache_ = nullptr;
  std::unique_ptr<EvictionPolicy> eviction_;
  EvictionKind eviction_kind_;
  AdmissionController controller_;
  WorkloadCharacterizer characterizer_;
  PolicyEngineStats stats_;

  obs::Observability* obs_ = nullptr;
  std::uint32_t lane_ = 0;
};

}  // namespace s4d::policy
