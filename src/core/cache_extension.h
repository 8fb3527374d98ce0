// CacheExtension: the one interface through which an optional subsystem
// (the policy engine, the tenant manager, a bench's scorer) takes part in
// the middleware's per-request decision; the core never depends on them.
// Every method defaults to a no-op (Admit passes the verdict on, and
// SelectVictim takes the paper's clean-LRU victim). Per foreground request
// the cache calls OnRequestStart before the Data Identifier runs, folds
// Admit over the extensions in attach order starting from the model's
// post-health verdict (B > 0), and calls OnOutcome at completion. The
// Redirector's allocations and releases, the Rebuilder's included, call
// AllowFreeAllocation, SelectVictim and OnRemoved.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/units.h"
#include "core/dmt.h"
#include "device/device_model.h"
#include "mpiio/io_dispatch.h"

namespace s4d::core {

// Everything the Identifier knows about a request at decision time.
struct AdmissionContext {
  const std::string& file;
  int rank;  // issuing MPI rank (tenant attribution)
  device::IoKind kind;
  byte_count offset;
  byte_count size;
  byte_count distance;   // signed stream distance d
  SimTime benefit;       // health-scaled B
  SimTime dserver_cost;  // model's T_D at decision time
  SimTime cserver_cost;  // model's health-scaled T_C at decision time
};

// Per-request completion record: everything needed to compare the cost
// model's promise against what the routed request actually experienced.
struct RequestOutcome {
  std::string file;
  int rank = -1;  // issuing MPI rank (tenant attribution)
  device::IoKind kind = device::IoKind::kRead;
  byte_count offset = 0;
  byte_count size = 0;
  SimTime benefit = 0;            // health-scaled B at decision time
  SimTime predicted_dserver = 0;  // model's T_D at decision time
  SimTime predicted_cserver = 0;  // model's health-scaled T_C at decision time
  bool admitted = false;          // the plan created a new mapping
  byte_count cache_bytes = 0;
  byte_count dserver_bytes = 0;
  SimTime issued_at = 0;
  SimTime latency = 0;
};

class CacheExtension {
 public:
  virtual ~CacheExtension() = default;

  virtual void OnRequestStart(const mpiio::FileRequest& /*request*/,
                              device::IoKind /*kind*/) {}
  // One admission stage: its verdict, given the earlier stages' verdict.
  virtual bool Admit(const AdmissionContext& /*ctx*/, bool verdict) {
    return verdict;
  }
  // False vetoes an allocation from free space: the allocation loop turns
  // to victim selection, and a free-only allocation fails.
  virtual bool AllowFreeAllocation(byte_count /*size*/) { return true; }
  // Removes one clean mapping and returns it (nullopt: none left). Only
  // the extension attached as the victim selector is asked.
  virtual std::optional<RemovedExtent> SelectVictim(DataMappingTable& dmt) {
    return dmt.EvictLruClean();
  }
  // A mapping's cache extent is released (`evicted`: by capacity eviction,
  // else by invalidation). Runs after the range was scrubbed and before
  // the allocator frees it, so its owner is still on record.
  virtual void OnRemoved(const RemovedExtent& /*extent*/, bool /*evicted*/) {}
  virtual void OnOutcome(const RequestOutcome& /*outcome*/) {}
  // S4D_CHECKs the extension's own state; runs with the cache's audits.
  virtual void AuditInvariants() const {}
};

// The attached extensions in attach order, and the one victim selector
// (null: the paper's clean-LRU). At most one extension selects victims.
struct ExtensionList {
  std::vector<CacheExtension*> attached;
  CacheExtension* victim_selector = nullptr;
};

}  // namespace s4d::core
