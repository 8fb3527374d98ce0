// TierSignals: the one reader of the cache tier's state. It answers five
// questions from the CServer file system and, when the calibration
// subsystem is attached (DESIGN.md §3m), from the CostCalibration provider
// the cost model holds: that provider's client-side counters replace the
// servers' queue lengths, and only it reports saturation. A copy reads the
// same live state. A detached (default-constructed) source reports a
// healthy, idle tier.
#pragma once

#include "core/cost_model.h"
#include "pfs/file_system.h"

namespace s4d::core {

class TierSignals {
 public:
  TierSignals() = default;
  TierSignals(const pfs::FileSystem& cservers, const CostModel& model)
      : cservers_(&cservers), model_(&model) {}

  // Every CServer is up and reachable.
  bool Reachable() const {
    return cservers_ == nullptr || cservers_->AllServersReachable();
  }
  // Worst per-device degradation factor (1.0 = healthy).
  double Slowdown() const {
    return cservers_ != nullptr ? cservers_->WorstDeviceDegrade() : 1.0;
  }
  // Worst SSD wear fraction; 0.0 without a wear budget.
  double WearFraction() const {
    return cservers_ != nullptr ? cservers_->WorstWearFraction() : 0.0;
  }
  // Mean per-server queue depth.
  double MeanQueueDepth() const {
    if (const CostCalibration* calibration = Calibration()) {
      return calibration->MeanCServerDepth();
    }
    return cservers_ != nullptr ? cservers_->MeanQueueDepth() : 0.0;
  }
  // Past the calibration's saturation bound; false without calibration.
  bool Saturated() const {
    const CostCalibration* calibration = Calibration();
    return calibration != nullptr && calibration->CacheTierSaturated();
  }

 private:
  const CostCalibration* Calibration() const {
    return model_ != nullptr ? model_->calibration() : nullptr;
  }

  const pfs::FileSystem* cservers_ = nullptr;
  const CostModel* model_ = nullptr;
};

}  // namespace s4d::core
