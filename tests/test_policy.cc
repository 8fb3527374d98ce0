#include "policy/policy_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "common/config_parser.h"
#include "common/rng.h"
#include "harness/testbed.h"
#include "policy/admission.h"
#include "policy/characterizer.h"
#include "policy/eviction.h"

namespace s4d::policy {
namespace {

// --- GhostCache ------------------------------------------------------------

TEST(GhostCache, ProbeConsumesContainsDoesNot) {
  GhostCache ghost(8);
  ghost.Insert("f", 0, 100);
  EXPECT_TRUE(ghost.Contains("f", 50, 60));
  EXPECT_TRUE(ghost.Contains("f", 50, 60)) << "Contains must not consume";
  EXPECT_FALSE(ghost.Contains("f", 100, 200)) << "end is exclusive";
  EXPECT_FALSE(ghost.Contains("g", 0, 100));
  EXPECT_TRUE(ghost.Probe("f", 50, 60));
  EXPECT_FALSE(ghost.Contains("f", 50, 60)) << "Probe must consume the range";
  EXPECT_FALSE(ghost.Probe("f", 50, 60));
  EXPECT_EQ(ghost.hits(), 1);
  EXPECT_EQ(ghost.size(), 0u);
  ghost.AuditInvariants();
}

TEST(GhostCache, InsertAbsorbsOverlaps) {
  GhostCache ghost(8);
  ghost.Insert("f", 0, 100);
  ghost.Insert("f", 200, 300);
  ghost.Insert("f", 50, 250);  // bridges both -> one range [0, 300)
  EXPECT_EQ(ghost.size(), 1u);
  EXPECT_TRUE(ghost.Contains("f", 0, 1));
  EXPECT_TRUE(ghost.Contains("f", 299, 300));
  ghost.AuditInvariants();
  EXPECT_TRUE(ghost.Probe("f", 150, 160));
  EXPECT_FALSE(ghost.Contains("f", 0, 300)) << "absorbed range is one entry";
}

TEST(GhostCache, FifoEvictsOldestAtCapacity) {
  GhostCache ghost(2);
  ghost.Insert("f", 0, 10);
  ghost.Insert("f", 20, 30);
  ghost.Insert("f", 40, 50);  // evicts [0, 10)
  EXPECT_EQ(ghost.size(), 2u);
  EXPECT_FALSE(ghost.Contains("f", 0, 10));
  EXPECT_TRUE(ghost.Contains("f", 20, 30));
  EXPECT_TRUE(ghost.Contains("f", 40, 50));
  ghost.AuditInvariants();
}

TEST(GhostCache, ZeroCapacityRemembersNothing) {
  GhostCache ghost(0);
  ghost.Insert("f", 0, 100);
  EXPECT_EQ(ghost.size(), 0u);
  EXPECT_FALSE(ghost.Contains("f", 0, 100));
  ghost.AuditInvariants();
}

// --- Eviction policies -----------------------------------------------------

TEST(LruPolicy, MatchesDmtEvictLruClean) {
  core::DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, /*dirty=*/false);
  dmt.Insert("f", 200, 100, 100, /*dirty=*/false);
  LruPolicy policy;
  const auto victim = policy.SelectVictim(dmt);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->orig_begin, 0) << "oldest clean extent first";
  EXPECT_EQ(policy.ghost_size(), 0u);
}

TEST(SelectiveLruPolicy, EvictionPopulatesGhostInvalidationDoesNot) {
  SelectiveLruPolicy policy(16);
  core::RemovedExtent evicted{"f", 0, 100, 0, false};
  core::RemovedExtent invalidated{"f", 200, 300, 100, false};
  policy.OnRemoved(evicted, /*evicted=*/true);
  policy.OnRemoved(invalidated, /*evicted=*/false);
  EXPECT_EQ(policy.ghost_size(), 1u);
  EXPECT_TRUE(policy.GhostProbe("f", 50, 60));
  EXPECT_FALSE(policy.GhostProbe("f", 200, 300));
  EXPECT_EQ(policy.ghost_hits(), 1);
  policy.AuditInvariants();
}

TEST(ArcPolicy, AdmitLandsInT1AccessPromotesToT2) {
  ArcPolicy policy(16);
  policy.OnAdmit("f", 0, 100);
  EXPECT_EQ(policy.t1_size(), 1u);
  EXPECT_EQ(policy.t2_size(), 0u);
  policy.OnAccess("f", 0, 100);
  EXPECT_EQ(policy.t1_size(), 0u);
  EXPECT_EQ(policy.t2_size(), 1u);
  EXPECT_EQ(policy.promotions(), 1);
  policy.AuditInvariants();
}

TEST(ArcPolicy, B1GhostHitGrowsTargetP) {
  ArcPolicy policy(16);
  policy.OnAdmit("f", 0, 100);  // T1
  core::RemovedExtent removed{"f", 0, 100, 0, false};
  policy.OnRemoved(removed, /*evicted=*/true);  // -> B1
  EXPECT_EQ(policy.t1_size(), 0u);
  EXPECT_EQ(policy.ghost_size(), 1u);
  EXPECT_EQ(policy.target_p(), 0);
  // GhostProbe is a non-consuming peek: it must not eat the B1 entry that
  // the subsequent OnAdmit needs for the p adaptation.
  EXPECT_TRUE(policy.GhostProbe("f", 0, 100));
  policy.OnAdmit("f", 0, 100);
  EXPECT_GT(policy.target_p(), 0) << "B1 hit must grow p";
  EXPECT_EQ(policy.t2_size(), 1u) << "ghost-hit readmission goes to T2";
  policy.AuditInvariants();
}

TEST(ArcPolicy, SelectVictimValidatesAgainstLiveTable) {
  core::DataMappingTable dmt;
  ArcPolicy policy(16);
  // Tracked range that no longer exists in the DMT (stale candidate) plus a
  // live clean one.
  policy.OnAdmit("f", 0, 100);
  dmt.Insert("f", 200, 100, 0, /*dirty=*/false);
  policy.OnAdmit("f", 200, 100);
  const auto victim = policy.SelectVictim(dmt);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->orig_begin, 200);
  EXPECT_EQ(policy.stale_candidates(), 1) << "missing range dropped";
  policy.AuditInvariants();
}

TEST(ArcPolicy, FallsBackToCleanLruWhenTrackingEmpty) {
  core::DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, /*dirty=*/false);
  ArcPolicy policy(16);  // tracks nothing
  const auto victim = policy.SelectVictim(dmt);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->orig_begin, 0);
}

// --- AdmissionController ---------------------------------------------------

TEST(AdmissionController, FixedModeIsPaperRule) {
  AdmissionController ctl(AdmissionControllerConfig{});
  EXPECT_TRUE(ctl.Admit(FromMicros(10), /*model_critical=*/true, false));
  EXPECT_FALSE(ctl.Admit(FromMicros(10), /*model_critical=*/false, false));
  // Feedback off: completions never move the threshold.
  for (int i = 0; i < 64; ++i) {
    ctl.OnCompletion(FromMicros(100), FromMicros(200), FromMicros(500));
  }
  EXPECT_EQ(ctl.threshold(), 0);
  EXPECT_TRUE(ctl.Admit(1, /*model_critical=*/true, false));
  ctl.AuditInvariants();
}

TEST(AdmissionController, GhostHitOverridesModelVerdict) {
  AdmissionController ctl(AdmissionControllerConfig{});
  EXPECT_TRUE(ctl.Admit(-FromMicros(5), /*model_critical=*/false,
                        /*ghost_hit=*/true));
  EXPECT_EQ(ctl.stats().ghost_admits, 1);
  ctl.AuditInvariants();
}

// A calibration provider that declines every estimate and reports a
// settable cache-tier queue depth, which TierSignals then reads.
class DepthCalibration final : public core::CostCalibration {
 public:
  SimTime DServerEstimate(SimTime, byte_count, byte_count) const override {
    return -1;
  }
  SimTime CServerEstimate(device::IoKind, byte_count,
                          byte_count) const override {
    return -1;
  }
  double MeanCServerDepth() const override { return depth; }
  SimTime CServerQueueDelayEstimate() const override { return 0; }
  bool CacheTierSaturated() const override { return false; }
  double depth = 0.0;
};

TEST(AdmissionController, PressureVetoBlocksEverything) {
  AdmissionControllerConfig config;
  config.pressure_max_queue = 4.0;
  AdmissionController ctl(config);
  harness::Testbed bed{harness::TestbedConfig{}};
  core::CostModel model = bed.MakeCostModel();
  DepthCalibration calibration;
  model.SetCalibration(&calibration);
  const core::TierSignals tier(bed.cservers(), model);
  calibration.depth = 10.0;
  EXPECT_FALSE(ctl.Admit(FromMillis(1), /*model_critical=*/true, false, tier));
  EXPECT_FALSE(ctl.Admit(FromMillis(1), /*model_critical=*/false,
                         /*ghost_hit=*/true, tier))
      << "veto outranks ghost evidence";
  EXPECT_EQ(ctl.stats().pressure_vetoes, 2);
  calibration.depth = 1.0;  // backlog drained
  EXPECT_TRUE(ctl.Admit(FromMillis(1), /*model_critical=*/true, false, tier));
  ctl.AuditInvariants();
}

TEST(AdmissionController, FeedbackRaisesThresholdWhenUnderDelivering) {
  AdmissionControllerConfig config;
  config.feedback = true;
  config.warmup_samples = 4;
  AdmissionController ctl(config);
  // Realized gain ~0 of the promised benefit: the cache path took exactly
  // what the DServers were predicted to take.
  for (int i = 0; i < 32; ++i) {
    ctl.OnCompletion(FromMicros(100), FromMicros(200), FromMicros(200));
  }
  EXPECT_GT(ctl.threshold(), 0);
  EXPECT_LE(ctl.threshold(), config.threshold_max);
  EXPECT_GT(ctl.stats().threshold_raises, 0);
  // A marginal request the paper would admit is now rejected.
  EXPECT_FALSE(ctl.Admit(1, /*model_critical=*/true, false));
  EXPECT_EQ(ctl.stats().threshold_rejects, 1);
  // Over-delivering completions decay the threshold back to the B > 0 rule.
  for (int i = 0; i < 256 && ctl.threshold() > 0; ++i) {
    ctl.OnCompletion(FromMicros(100), FromMicros(200), FromMicros(50));
  }
  EXPECT_EQ(ctl.threshold(), 0);
  EXPECT_GT(ctl.stats().threshold_decays, 0);
  ctl.AuditInvariants();
}

TEST(AdmissionController, ThresholdNeverExceedsMax) {
  AdmissionControllerConfig config;
  config.feedback = true;
  config.warmup_samples = 1;
  config.threshold_max = FromMicros(200);
  config.threshold_step = FromMicros(75);
  AdmissionController ctl(config);
  for (int i = 0; i < 64; ++i) {
    ctl.OnCompletion(FromMicros(100), FromMicros(200), FromMicros(600));
    ctl.AuditInvariants();
  }
  EXPECT_EQ(ctl.threshold(), config.threshold_max);
}

// --- WorkloadCharacterizer -------------------------------------------------

CharacterizerConfig SmallWindow() {
  CharacterizerConfig config;
  config.window_requests = 16;
  return config;
}

TEST(WorkloadCharacterizer, ClassifiesSequentialWindow) {
  WorkloadCharacterizer wc(SmallWindow());
  for (int i = 0; i < 16; ++i) {
    wc.Observe("f", device::IoKind::kWrite, i * 64 * KiB, 64 * KiB, 64 * KiB);
  }
  EXPECT_EQ(wc.windows_closed(), 1);
  EXPECT_EQ(wc.phase(), WorkloadPhase::kSequential);
  EXPECT_DOUBLE_EQ(wc.last_window().seq_fraction, 1.0);
  EXPECT_DOUBLE_EQ(wc.last_window().read_fraction, 0.0);
  wc.AuditInvariants();
}

TEST(WorkloadCharacterizer, ClassifiesRandomAndMixedWindows) {
  WorkloadCharacterizer wc(SmallWindow());
  // All requests far from any stream tail -> random.
  for (int i = 0; i < 16; ++i) {
    wc.Observe("f", device::IoKind::kRead, i * 512 * MiB, 16 * KiB, 300 * MiB);
  }
  EXPECT_EQ(wc.phase(), WorkloadPhase::kRandom);
  EXPECT_DOUBLE_EQ(wc.last_window().read_fraction, 1.0);
  // Half sequential, half random -> mixed.
  for (int i = 0; i < 16; ++i) {
    const byte_count distance = (i % 2 == 0) ? 4 * KiB : 900 * MiB;
    wc.Observe("f", device::IoKind::kWrite, i * 1 * MiB, 16 * KiB, distance);
  }
  EXPECT_EQ(wc.phase(), WorkloadPhase::kMixed);
  wc.AuditInvariants();
}

TEST(WorkloadCharacterizer, DetectsPhaseSwitchMidRun) {
  WorkloadCharacterizer wc(SmallWindow());
  std::vector<WorkloadPhase> phases;
  const auto observe = [&](byte_count offset, byte_count size,
                           byte_count distance) {
    if (auto window =
            wc.Observe("f", device::IoKind::kWrite, offset, size, distance)) {
      phases.push_back(window->phase);
    }
  };
  for (int i = 0; i < 32; ++i) observe(i * 64 * KiB, 64 * KiB, 0);
  for (int i = 0; i < 32; ++i) observe(i * 700 * MiB, 16 * KiB, 650 * MiB);
  ASSERT_EQ(phases.size(), 4u);
  EXPECT_EQ(phases[0], WorkloadPhase::kSequential);
  EXPECT_EQ(phases[1], WorkloadPhase::kSequential);
  EXPECT_EQ(phases[2], WorkloadPhase::kRandom);
  EXPECT_EQ(phases[3], WorkloadPhase::kRandom);
}

TEST(WorkloadCharacterizer, ReuseSketchStaysBounded) {
  CharacterizerConfig config = SmallWindow();
  config.reuse_max_blocks = 8;
  WorkloadCharacterizer wc(config);
  for (int i = 0; i < 64; ++i) {
    wc.Observe("f", device::IoKind::kRead, i * 1 * MiB, 4 * KiB, 500 * MiB);
    wc.AuditInvariants();  // sketch bound checked after every observation
  }
  // Re-touching a recent block registers as reuse in the next window.
  for (int i = 0; i < 16; ++i) {
    wc.Observe("f", device::IoKind::kRead, 63 * MiB, 4 * KiB, 0);
  }
  EXPECT_GT(wc.last_window().reuse_fraction, 0.0);
  wc.AuditInvariants();
}

// The reuse sketch was two std::maps: (file, block) -> last-seen index and
// last-seen index -> block. OracleCharacterizer keeps that implementation,
// with the window accumulators, as the reference the slab-and-list sketch
// must match summary for summary.
class OracleCharacterizer {
 public:
  explicit OracleCharacterizer(CharacterizerConfig config) : config_(config) {}

  void Observe(const std::string& file, device::IoKind kind,
               byte_count offset, byte_count size, byte_count distance) {
    ++observed_;
    ++win_requests_;
    if (kind == device::IoKind::kRead) ++win_reads_;
    const byte_count magnitude = distance < 0 ? -distance : distance;
    if (magnitude <= config_.seq_distance_max) ++win_sequential_;
    if (config_.reuse_max_blocks > 0 && config_.reuse_block > 0 && size > 0) {
      const BlockKey key{file, offset / config_.reuse_block};
      auto it = last_seen_.find(key);
      if (it != last_seen_.end()) {
        ++win_reuse_hits_;
        std::int64_t gap = std::max<std::int64_t>(observed_ - it->second, 1);
        std::int64_t bits = 0;
        while (gap > 1) {
          gap >>= 1;
          ++bits;
        }
        win_reuse_log2_sum_ += bits;
        by_age_.erase(it->second);
        it->second = observed_;
      } else {
        last_seen_[key] = observed_;
        while (last_seen_.size() > config_.reuse_max_blocks) {
          const auto oldest = by_age_.begin();
          last_seen_.erase(oldest->second);
          by_age_.erase(oldest);
        }
      }
      by_age_[observed_] = key;
    }
    if (win_requests_ < config_.window_requests) return;
    WindowSummary summary;
    summary.index = windows_closed_;
    summary.requests = win_requests_;
    const auto total = static_cast<double>(win_requests_);
    summary.seq_fraction = static_cast<double>(win_sequential_) / total;
    summary.read_fraction = static_cast<double>(win_reads_) / total;
    summary.reuse_fraction = static_cast<double>(win_reuse_hits_) / total;
    summary.mean_reuse_log2 =
        win_reuse_hits_ > 0 ? static_cast<double>(win_reuse_log2_sum_) /
                                  static_cast<double>(win_reuse_hits_)
                            : 0.0;
    if (summary.seq_fraction >= config_.seq_high) {
      summary.phase = WorkloadPhase::kSequential;
    } else if (summary.seq_fraction <= config_.seq_low) {
      summary.phase = WorkloadPhase::kRandom;
    } else {
      summary.phase = WorkloadPhase::kMixed;
    }
    last_ = summary;
    ++windows_closed_;
    win_requests_ = win_sequential_ = win_reads_ = win_reuse_hits_ = 0;
    win_reuse_log2_sum_ = 0;
  }

  const WindowSummary& last_window() const { return last_; }
  std::int64_t windows_closed() const { return windows_closed_; }
  std::size_t sketch_blocks() const { return last_seen_.size(); }

 private:
  using BlockKey = std::pair<std::string, std::int64_t>;
  CharacterizerConfig config_;
  std::int64_t win_requests_ = 0;
  std::int64_t win_sequential_ = 0;
  std::int64_t win_reads_ = 0;
  std::int64_t win_reuse_hits_ = 0;
  std::int64_t win_reuse_log2_sum_ = 0;
  std::map<BlockKey, std::int64_t> last_seen_;
  std::map<std::int64_t, BlockKey> by_age_;
  std::int64_t observed_ = 0;
  std::int64_t windows_closed_ = 0;
  WindowSummary last_;
};

// Seeded multi-file mixes: strided streams (misses), a small hot span
// (hits at short reuse distances), a wide random span (misses and evictions)
// and zero-size requests (no sketch update), under every sketch bound.
TEST(WorkloadCharacterizer, ReuseSketchMatchesTwoMapOracle) {
  const std::string files[] = {"a", "b",
                               "a-file-name-longer-than-the-sso-buffer"};
  for (const std::size_t max_blocks : {1, 2, 64, 4096}) {
    for (const byte_count block : {4 * KiB, 64 * KiB}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        CharacterizerConfig config;
        config.window_requests = 16;
        config.reuse_max_blocks = max_blocks;
        config.reuse_block = block;
        WorkloadCharacterizer wc(config);
        OracleCharacterizer oracle(config);
        Rng rng(seed * 1000 + max_blocks);
        byte_count stream[3] = {0, 0, 0};
        std::int64_t hits = 0;
        for (int step = 0; step < 10000; ++step) {
          const std::size_t f = rng.NextBelow(3);
          byte_count offset = 0;
          switch (rng.NextBelow(4)) {
            case 0:
              offset = stream[f];
              stream[f] += 16 * KiB;
              break;
            case 1:
              offset = rng.NextInRange(0, 32) * 4 * KiB;
              break;
            default:
              offset = rng.NextInRange(0, 1 << 20) * 4 * KiB;
          }
          const byte_count size = rng.NextBool(0.05) ? 0 : 16 * KiB;
          const auto kind = rng.NextBool(0.5) ? device::IoKind::kRead
                                              : device::IoKind::kWrite;
          const byte_count distance = rng.NextInRange(-4 * MiB, 4 * MiB);
          wc.Observe(files[f], kind, offset, size, distance);
          oracle.Observe(files[f], kind, offset, size, distance);
          const WindowSummary& got = wc.last_window();
          const WindowSummary& want = oracle.last_window();
          const std::string where = "blocks " + std::to_string(max_blocks) +
                                    " block " + std::to_string(block) +
                                    " seed " + std::to_string(seed) +
                                    " step " + std::to_string(step);
          ASSERT_EQ(wc.sketch_blocks(), oracle.sketch_blocks()) << where;
          ASSERT_EQ(wc.windows_closed(), oracle.windows_closed()) << where;
          ASSERT_EQ(got.index, want.index) << where;
          ASSERT_EQ(got.requests, want.requests) << where;
          ASSERT_EQ(got.seq_fraction, want.seq_fraction) << where;
          ASSERT_EQ(got.read_fraction, want.read_fraction) << where;
          ASSERT_EQ(got.reuse_fraction, want.reuse_fraction) << where;
          ASSERT_EQ(got.mean_reuse_log2, want.mean_reuse_log2) << where;
          ASSERT_EQ(got.phase, want.phase) << where;
          if (step % 64 == 0) wc.AuditInvariants();
          hits += got.reuse_fraction > 0.0 ? 1 : 0;
        }
        wc.AuditInvariants();
        EXPECT_GT(hits, 0) << "the mix must produce reuse hits";
        // More distinct blocks than the bound: the sketch filled and evicted.
        EXPECT_EQ(wc.sketch_blocks(), max_blocks);
      }
    }
  }
}

// --- ParsePolicyConfig -----------------------------------------------------

Result<PolicyConfig> ParseFrom(const std::string& text) {
  ConfigParser config;
  const Status st = config.Parse(text);
  S4D_CHECK(st.ok()) << st.ToString();
  return ParsePolicyConfig(config);
}

TEST(ParsePolicyConfig, EmptyConfigIsPaperDefault) {
  const auto result = ParseFrom("");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().mode, PolicyMode::kPaperDefault);
}

TEST(ParsePolicyConfig, FullSectionParses) {
  const auto result = ParseFrom(
      "[policy]\n"
      "mode = adaptive\n"
      "eviction = arc\n"
      "admission = feedback\n"
      "destage = lru-first\n"
      "ghost_capacity = 512\n"
      "window_requests = 128\n"
      "seq_distance_max = 2m\n"
      "ewma_alpha = 0.25\n"
      "threshold_step = 25us\n"
      "threshold_max = 2ms\n"
      "pressure_max_queue = 12\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PolicyConfig& pc = result.value();
  EXPECT_EQ(pc.mode, PolicyMode::kAdaptive);
  EXPECT_EQ(pc.eviction, EvictionKind::kArc);
  EXPECT_TRUE(pc.admission.feedback);
  EXPECT_EQ(pc.destage, core::FlushOrder::kLruFirst);
  EXPECT_EQ(pc.ghost_capacity, 512u);
  EXPECT_EQ(pc.characterizer.window_requests, 128);
  EXPECT_EQ(pc.characterizer.seq_distance_max, 2 * MiB);
  EXPECT_DOUBLE_EQ(pc.admission.ewma_alpha, 0.25);
  EXPECT_EQ(pc.admission.threshold_step, FromMicros(25));
  EXPECT_EQ(pc.admission.threshold_max, FromMillis(2));
  EXPECT_DOUBLE_EQ(pc.admission.pressure_max_queue, 12.0);
}

TEST(ParsePolicyConfig, RejectsInvalidValues) {
  EXPECT_FALSE(ParseFrom("[policy]\nmode = turbo\n").ok());
  EXPECT_FALSE(ParseFrom("[policy]\nmode = fixed\neviction = mru\n").ok());
  EXPECT_FALSE(ParseFrom("[policy]\nmode = fixed\nadmission = psychic\n").ok());
  EXPECT_FALSE(ParseFrom("[policy]\nmode = fixed\newma_alpha = 1.5\n").ok());
  EXPECT_FALSE(ParseFrom("[policy]\nmode = fixed\nghost_capacity = -1\n").ok());
  EXPECT_FALSE(
      ParseFrom("[policy]\nmode = fixed\nwindow_requests = 0\n").ok());
  EXPECT_FALSE(ParseFrom("[policy]\nmode = fixed\n"
                         "threshold_step = 1ms\nthreshold_max = 1us\n")
                   .ok());
}

TEST(ParsePolicyConfig, PaperDefaultRejectsInertKeys) {
  // Any policy knob alongside mode=paper-default would silently do nothing;
  // that's a config error, not a shrug.
  const auto result =
      ParseFrom("[policy]\nmode = paper-default\neviction = arc\n");
  EXPECT_FALSE(result.ok());
}

// --- ValidateKnownKeys (config schema) -------------------------------------

TEST(ValidateKnownKeys, RejectsTypoedKeyAndUnknownSection) {
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[policy]\nevction = arc\n").ok());
  const std::map<std::string, std::vector<std::string>> schema = {
      {"policy", {"mode", "eviction"}}};
  const Status st = config.ValidateKnownKeys(schema);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("evction"), std::string::npos) << st.ToString();

  ConfigParser bad_section;
  ASSERT_TRUE(bad_section.Parse("[polcy]\nmode = fixed\n").ok());
  EXPECT_FALSE(bad_section.ValidateKnownKeys(schema).ok());

  ConfigParser good;
  ASSERT_TRUE(good.Parse("[policy]\nmode = fixed\neviction = lru\n").ok());
  EXPECT_TRUE(good.ValidateKnownKeys(schema).ok());
}

TEST(ValidateKnownKeys, StarSuffixMatchesPrefixedKeys) {
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[faults]\nfault3 = crash\nfault12 = wipe\n").ok());
  const std::map<std::string, std::vector<std::string>> schema = {
      {"faults", {"fault*"}}};
  EXPECT_TRUE(config.ValidateKnownKeys(schema).ok());
  ConfigParser bad;
  ASSERT_TRUE(bad.Parse("[faults]\nflaut3 = crash\n").ok());
  EXPECT_FALSE(bad.ValidateKnownKeys(schema).ok());
}

// --- PolicyEngine integration ---------------------------------------------

harness::TestbedConfig SmallTestbed() {
  harness::TestbedConfig cfg;
  cfg.file_reservation = 2 * GiB;
  return cfg;
}

core::S4DConfig TightCache() {
  core::S4DConfig cfg;
  cfg.cache_capacity = 2 * MiB;  // small enough that evictions happen
  cfg.enable_rebuilder = false;
  return cfg;
}

void DoIo(harness::Testbed& bed, mpiio::IoDispatch& dispatch,
          device::IoKind kind, const std::string& file, int rank,
          byte_count offset, byte_count size) {
  SimTime completed = -1;
  mpiio::FileRequest req{file, rank, offset, size, 0};
  if (kind == device::IoKind::kWrite) {
    dispatch.Write(req, [&](SimTime t) { completed = t; });
  } else {
    dispatch.Read(req, [&](SimTime t) { completed = t; });
  }
  bed.engine().Run();
  ASSERT_GE(completed, 0) << "request never completed";
}

// A deterministic mixed workload: interleaved distant small writes (cache
// candidates), sequential large writes (DServer traffic) and re-reads.
void DriveMixedWorkload(harness::Testbed& bed, core::S4DCache& s4d,
                        std::uint64_t seed, int requests) {
  Rng rng(seed);
  byte_count seq_offset = 0;
  for (int i = 0; i < requests; ++i) {
    switch (rng.NextBelow(4)) {
      case 0: {
        const auto offset =
            static_cast<byte_count>(rng.NextBelow(1536)) * 1 * MiB;
        DoIo(bed, s4d, device::IoKind::kWrite, "data", 0, offset, 64 * KiB);
        break;
      }
      case 1:
        DoIo(bed, s4d, device::IoKind::kWrite, "data", 1, seq_offset, 1 * MiB);
        seq_offset += 1 * MiB;
        break;
      case 2: {
        const auto offset =
            static_cast<byte_count>(rng.NextBelow(1536)) * 1 * MiB;
        DoIo(bed, s4d, device::IoKind::kRead, "data", 2, offset, 64 * KiB);
        break;
      }
      default: {
        const auto offset =
            static_cast<byte_count>(rng.NextBelow(64)) * 64 * KiB;
        DoIo(bed, s4d, device::IoKind::kRead, "data", 3, offset, 64 * KiB);
        break;
      }
    }
  }
}

// With mode=fixed, eviction=lru and fixed admission, the engine's hooks are
// installed but every decision must match the paper-default path exactly.
TEST(PolicyEngine, FixedLruIsEquivalentToPaperDefault) {
  harness::Testbed baseline_bed(SmallTestbed());
  auto baseline = baseline_bed.MakeS4D(TightCache());
  baseline->Open("data");
  DriveMixedWorkload(baseline_bed, *baseline, 42, 160);

  harness::Testbed policy_bed(SmallTestbed());
  auto cache = policy_bed.MakeS4D(TightCache());
  PolicyConfig pc;
  pc.mode = PolicyMode::kFixed;
  PolicyEngine engine(pc);
  engine.Attach(*cache);
  cache->Open("data");
  DriveMixedWorkload(policy_bed, *cache, 42, 160);

  EXPECT_EQ(baseline_bed.engine().now(), policy_bed.engine().now());
  EXPECT_EQ(baseline->counters().dserver_requests,
            cache->counters().dserver_requests);
  EXPECT_EQ(baseline->counters().cserver_requests,
            cache->counters().cserver_requests);
  EXPECT_EQ(baseline->counters().cserver_bytes,
            cache->counters().cserver_bytes);
  EXPECT_EQ(baseline->redirector_stats().write_admissions,
            cache->redirector_stats().write_admissions);
  EXPECT_EQ(baseline->redirector_stats().evictions,
            cache->redirector_stats().evictions);
  EXPECT_EQ(baseline->redirector_stats().read_cache_hits,
            cache->redirector_stats().read_cache_hits);
  EXPECT_EQ(baseline->dmt().mapped_bytes(), cache->dmt().mapped_bytes());
  EXPECT_EQ(baseline->dmt().dirty_bytes(), cache->dmt().dirty_bytes());
  // Every admission decision flowed through the controller.
  EXPECT_EQ(engine.admission().stats().threshold_rejects, 0);
  EXPECT_EQ(engine.admission().stats().pressure_vetoes, 0);
  engine.AuditInvariants();
  cache->AuditInvariants();
}

// Same seed + same policy => identical simulated end time and decisions.
TEST(PolicyEngine, AdaptiveRunsAreDeterministic) {
  auto run = [](SimTime* end_time, AdmissionControllerStats* stats,
                std::int64_t* switches) {
    harness::Testbed bed(SmallTestbed());
    auto cache = bed.MakeS4D(TightCache());
    PolicyConfig pc;
    pc.mode = PolicyMode::kAdaptive;
    pc.admission.feedback = true;
    pc.admission.pressure_max_queue = 8.0;
    pc.characterizer.window_requests = 32;
    PolicyEngine engine(pc);
    engine.Attach(*cache);
    cache->Open("data");
    DriveMixedWorkload(bed, *cache, 7, 200);
    engine.AuditInvariants();
    cache->AuditInvariants();
    *end_time = bed.engine().now();
    *stats = engine.admission().stats();
    *switches = engine.stats().policy_switches;
  };
  SimTime end_a = 0;
  SimTime end_b = 0;
  AdmissionControllerStats stats_a;
  AdmissionControllerStats stats_b;
  std::int64_t switches_a = 0;
  std::int64_t switches_b = 0;
  run(&end_a, &stats_a, &switches_a);
  run(&end_b, &stats_b, &switches_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_EQ(stats_a.decisions, stats_b.decisions);
  EXPECT_EQ(stats_a.admits, stats_b.admits);
  EXPECT_EQ(stats_a.ghost_admits, stats_b.ghost_admits);
  EXPECT_EQ(stats_a.threshold_rejects, stats_b.threshold_rejects);
  EXPECT_EQ(stats_a.pressure_vetoes, stats_b.pressure_vetoes);
  EXPECT_EQ(stats_a.feedback_samples, stats_b.feedback_samples);
  EXPECT_EQ(switches_a, switches_b);
  EXPECT_GT(stats_a.decisions, 0);
}

// Sequential traffic then random traffic must flip the detected phase and
// make the adaptive engine swap eviction policies at a window boundary.
TEST(PolicyEngine, AdaptiveSwitchesPolicyAtPhaseBoundary) {
  harness::Testbed bed(SmallTestbed());
  auto cache = bed.MakeS4D(TightCache());
  PolicyConfig pc;
  pc.mode = PolicyMode::kAdaptive;
  pc.characterizer.window_requests = 32;
  PolicyEngine engine(pc);
  engine.Attach(*cache);
  cache->Open("data");
  // Phase 1: pure sequential stream from one rank.
  byte_count offset = 0;
  for (int i = 0; i < 64; ++i) {
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 0, offset, 256 * KiB);
    offset += 256 * KiB;
  }
  EXPECT_EQ(engine.characterizer().phase(), WorkloadPhase::kSequential);
  EXPECT_EQ(engine.eviction_kind(), EvictionKind::kLru);
  // Phase 2: scattered small requests from many ranks.
  Rng rng(11);
  for (int i = 0; i < 96; ++i) {
    const auto at = static_cast<byte_count>(rng.NextBelow(1800)) * 1 * MiB;
    DoIo(bed, *cache, device::IoKind::kWrite, "data",
         static_cast<int>(rng.NextBelow(4)), at, 16 * KiB);
  }
  EXPECT_EQ(engine.characterizer().phase(), WorkloadPhase::kRandom);
  EXPECT_EQ(engine.eviction_kind(), EvictionKind::kArc);
  EXPECT_GE(engine.stats().policy_switches, 1);
  engine.AuditInvariants();
  cache->AuditInvariants();
}

}  // namespace
}  // namespace s4d::policy
