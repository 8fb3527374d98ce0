#include "policy/policy_engine.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace s4d::policy {

const char* PolicyModeName(PolicyMode mode) {
  switch (mode) {
    case PolicyMode::kPaperDefault: return "paper-default";
    case PolicyMode::kFixed: return "fixed";
    case PolicyMode::kAdaptive: return "adaptive";
  }
  return "?";
}

Result<PolicyConfig> ParsePolicyConfig(const ConfigParser& config) {
  PolicyConfig out;
  const std::string mode = config.StringOr("policy", "mode", "paper-default");
  if (mode == "paper-default") {
    out.mode = PolicyMode::kPaperDefault;
  } else if (mode == "fixed") {
    out.mode = PolicyMode::kFixed;
  } else if (mode == "adaptive") {
    out.mode = PolicyMode::kAdaptive;
  } else {
    return Status::InvalidArgument("policy.mode: unknown mode '" + mode +
                                   "' (paper-default | fixed | adaptive)");
  }

  if (out.mode == PolicyMode::kPaperDefault) {
    // paper-default means *no engine at all*; any other [policy] key would
    // silently do nothing, so reject the combination loudly.
    for (const auto& [full_key, value] : config.entries()) {
      if (full_key.rfind("policy.", 0) == 0 && full_key != "policy.mode") {
        return Status::InvalidArgument(
            "policy.mode = paper-default is incompatible with '" + full_key +
            "' (the policy engine is disabled; remove the key or pick "
            "mode = fixed | adaptive)");
      }
    }
    return out;
  }

  const std::string eviction = config.StringOr("policy", "eviction", "lru");
  if (eviction == "lru") {
    out.eviction = EvictionKind::kLru;
  } else if (eviction == "arc") {
    out.eviction = EvictionKind::kArc;
  } else if (eviction == "selective-lru") {
    out.eviction = EvictionKind::kSelectiveLru;
  } else {
    return Status::InvalidArgument("policy.eviction: unknown policy '" +
                                   eviction +
                                   "' (lru | arc | selective-lru)");
  }

  const std::string admission = config.StringOr("policy", "admission", "fixed");
  if (admission == "fixed") {
    out.admission.feedback = false;
  } else if (admission == "feedback") {
    out.admission.feedback = true;
  } else {
    return Status::InvalidArgument("policy.admission: unknown controller '" +
                                   admission + "' (fixed | feedback)");
  }

  const std::string destage = config.StringOr("policy", "destage", "file-runs");
  if (destage == "file-runs") {
    out.destage = core::FlushOrder::kFileRuns;
  } else if (destage == "lru-first") {
    out.destage = core::FlushOrder::kLruFirst;
  } else {
    return Status::InvalidArgument("policy.destage: unknown order '" +
                                   destage + "' (file-runs | lru-first)");
  }

  const std::int64_t ghosts =
      config.IntOr("policy", "ghost_capacity",
                   static_cast<std::int64_t>(out.ghost_capacity));
  if (ghosts < 0) {
    return Status::InvalidArgument("policy.ghost_capacity must be >= 0");
  }
  out.ghost_capacity = static_cast<std::size_t>(ghosts);

  const std::int64_t window = config.IntOr(
      "policy", "window_requests", out.characterizer.window_requests);
  if (window <= 0) {
    return Status::InvalidArgument("policy.window_requests must be > 0");
  }
  out.characterizer.window_requests = window;

  out.characterizer.seq_distance_max = config.SizeOr(
      "policy", "seq_distance_max", out.characterizer.seq_distance_max);
  if (out.characterizer.seq_distance_max <= 0) {
    return Status::InvalidArgument("policy.seq_distance_max must be > 0");
  }

  out.admission.ewma_alpha =
      config.DoubleOr("policy", "ewma_alpha", out.admission.ewma_alpha);
  if (out.admission.ewma_alpha <= 0.0 || out.admission.ewma_alpha > 1.0) {
    return Status::InvalidArgument("policy.ewma_alpha must be in (0, 1]");
  }

  out.admission.threshold_step = config.DurationOr(
      "policy", "threshold_step", out.admission.threshold_step);
  if (out.admission.threshold_step <= 0) {
    return Status::InvalidArgument("policy.threshold_step must be > 0");
  }
  out.admission.threshold_max = config.DurationOr(
      "policy", "threshold_max", out.admission.threshold_max);
  if (out.admission.threshold_max < out.admission.threshold_step) {
    return Status::InvalidArgument(
        "policy.threshold_max must be >= policy.threshold_step");
  }

  out.admission.pressure_max_queue = config.DoubleOr(
      "policy", "pressure_max_queue", out.admission.pressure_max_queue);
  if (out.admission.pressure_max_queue < 0.0) {
    return Status::InvalidArgument("policy.pressure_max_queue must be >= 0");
  }

  out.admission.pressure_max_delay = config.DurationOr(
      "policy", "pressure_max_delay", out.admission.pressure_max_delay);
  if (out.admission.pressure_max_delay < 0) {
    return Status::InvalidArgument("policy.pressure_max_delay must be >= 0");
  }

  return out;
}

PolicyEngine::PolicyEngine(PolicyConfig config)
    : config_(config),
      eviction_(MakeEvictionPolicy(config.eviction, config.ghost_capacity)),
      eviction_kind_(config.eviction),
      controller_(config.admission),
      characterizer_(config.characterizer) {
  S4D_CHECK(config_.mode != PolicyMode::kPaperDefault)
      << "paper-default mode must not construct a PolicyEngine";
}

void PolicyEngine::Attach(core::S4DCache& cache, obs::Observability* obs) {
  S4D_CHECK(cache_ == nullptr) << "PolicyEngine attached twice";
  cache_ = &cache;
  obs_ = obs;

  cache.Attach(*this, /*selects_victims=*/true);
  cache.rebuilder().set_flush_order(config_.destage);

  if (obs_ != nullptr) {
    lane_ = obs_->tracer.Lane("policy");
    obs::MetricsRegistry& m = obs_->metrics;
    m.SetGaugeFn("policy.admission_threshold_ns", [this] {
      return static_cast<double>(controller_.threshold());
    });
    m.SetGaugeFn("policy.ewma_gain", [this] { return controller_.ewma_gain(); });
    m.SetGaugeFn("policy.admits", [this] {
      return static_cast<double>(controller_.stats().admits);
    });
    m.SetGaugeFn("policy.ghost_admits", [this] {
      return static_cast<double>(controller_.stats().ghost_admits);
    });
    m.SetGaugeFn("policy.threshold_rejects", [this] {
      return static_cast<double>(controller_.stats().threshold_rejects);
    });
    m.SetGaugeFn("policy.pressure_vetoes", [this] {
      return static_cast<double>(controller_.stats().pressure_vetoes);
    });
    m.SetGaugeFn("policy.ghost_size", [this] {
      return static_cast<double>(eviction_->ghost_size());
    });
    m.SetGaugeFn("policy.ghost_hits", [this] {
      return static_cast<double>(eviction_->ghost_hits());
    });
    m.SetGaugeFn("policy.switches", [this] {
      return static_cast<double>(stats_.policy_switches);
    });
    m.SetGaugeFn("policy.window_seq_fraction", [this] {
      return characterizer_.last_window().seq_fraction;
    });
  }
}

bool PolicyEngine::Admit(const core::AdmissionContext& ctx, bool verdict) {
  if (auto window = characterizer_.Observe(ctx.file, ctx.kind, ctx.offset,
                                           ctx.size, ctx.distance)) {
    OnWindow(*window);
  }
  const bool ghost_hit =
      eviction_->GhostProbe(ctx.file, ctx.offset, ctx.offset + ctx.size);
  return controller_.Admit(ctx.benefit, verdict, ghost_hit, cache_->tier());
}

std::optional<core::RemovedExtent> PolicyEngine::SelectVictim(
    core::DataMappingTable& dmt) {
  return eviction_->SelectVictim(dmt);
}

void PolicyEngine::OnRemoved(const core::RemovedExtent& extent,
                             bool evicted) {
  eviction_->OnRemoved(extent, evicted);
}

void PolicyEngine::OnOutcome(const core::RequestOutcome& outcome) {
  if (outcome.admitted) {
    eviction_->OnAdmit(outcome.file, outcome.offset, outcome.size);
  } else if (outcome.cache_bytes > 0) {
    eviction_->OnAccess(outcome.file, outcome.offset, outcome.size);
  }
  // Feedback only from requests the cache served alone: a split request's
  // latency mixes both tiers and says nothing about the cache's delivery.
  if (outcome.admitted && outcome.cache_bytes > 0 &&
      outcome.dserver_bytes == 0) {
    controller_.OnCompletion(outcome.benefit, outcome.predicted_dserver,
                             outcome.latency);
  }
}

void PolicyEngine::OnWindow(const WindowSummary& summary) {
  if (config_.mode != PolicyMode::kAdaptive) return;
  EvictionKind want = eviction_kind_;
  core::FlushOrder destage = core::FlushOrder::kFileRuns;
  switch (summary.phase) {
    case WorkloadPhase::kSequential:
      want = EvictionKind::kLru;
      destage = core::FlushOrder::kFileRuns;
      break;
    case WorkloadPhase::kRandom:
      want = EvictionKind::kArc;
      destage = core::FlushOrder::kLruFirst;
      break;
    case WorkloadPhase::kMixed:
      want = EvictionKind::kSelectiveLru;
      destage = core::FlushOrder::kFileRuns;
      break;
    case WorkloadPhase::kUnknown:
      return;
  }
  cache_->rebuilder().set_flush_order(destage);
  if (want == eviction_kind_) return;
  SwitchEviction(want);
  if (obs_ != nullptr && obs_->tracing()) {
    const obs::SpanId i =
        obs_->tracer.Instant(lane_, "policy_switch", "policy", cache_->now());
    obs_->tracer.AddArg(i, "to", std::string(EvictionKindName(want)));
    obs_->tracer.AddArg(i, "phase",
                        std::string(WorkloadPhaseName(summary.phase)));
    obs_->tracer.AddArg(i, "window", summary.index);
  }
}

void PolicyEngine::SwitchEviction(EvictionKind kind) {
  // The replacement starts cold (empty recency/ghost state) — phase
  // switches are rare and the new policy warms within a window.
  eviction_ = MakeEvictionPolicy(kind, config_.ghost_capacity);
  eviction_kind_ = kind;
  ++stats_.policy_switches;
}

void PolicyEngine::AuditInvariants() const {
  controller_.AuditInvariants();
  characterizer_.AuditInvariants();
  eviction_->AuditInvariants();
}

}  // namespace s4d::policy
