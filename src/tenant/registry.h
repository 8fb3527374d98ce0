// Tenant registry: groups MPI ranks into jobs/tenants and resolves each
// tenant's share of the cache capacity.
//
// Tenants come from the [tenants] config section. Each `tenantN` entry
// describes one job in a small token language:
//
//   tenant1 = jobA ranks 0-7 quota 40% floor 10% write_budget 50m
//   tenant2 = jobB ranks 8-63 quota 60%
//   tenant3 = scratch ranks *
//
//   name          first token; must be unique
//   ranks A-B     inclusive rank range (also `ranks A`, or `ranks *` for a
//                 catch-all)
//   quota X       allowance of the cache capacity — `40%` or a size (`512m`);
//                 omitted quotas share whatever the explicit ones leave
//   floor X       hard-protected minimum (same forms); never reclaimed by
//                 other tenants' evictions. Default 0.
//   write_budget X  endurance budget: sustained cache-write rate (bytes/sec,
//                 size suffixes allowed) beyond which admissions are vetoed.
//                 Default 0 = unlimited.
//
// With no tenant entries the registry holds one catch-all tenant. Ranks no
// tenant claims — and rank-less internal requests — fall to tenant 0.
#pragma once

#include <string>
#include <vector>

#include "common/config_parser.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/units.h"

namespace s4d::tenant {

// observe — account per-tenant usage and hit ratios, but never change any
//           decision (shared-pool behaviour, measured).
// enforce — partition gate, partition-constrained victim selection and the
//           (optional) endurance veto are live.
enum class TenantMode { kObserve, kEnforce };

const char* TenantModeName(TenantMode mode);

struct TenantSpec {
  std::string name;
  int rank_begin = 0;  // inclusive
  int rank_end = -1;   // inclusive
  bool all_ranks = false;
  double quota_fraction = -1.0;  // of capacity; < 0 = unset
  byte_count quota_bytes = -1;   // absolute; < 0 = unset
  double floor_fraction = -1.0;
  byte_count floor_bytes = -1;
  double write_budget_bps = 0.0;  // 0 = unlimited
};

struct TenantsConfig {
  TenantMode mode = TenantMode::kEnforce;
  std::vector<TenantSpec> specs;
  // Online partition re-sizing period (ECI-Cache-style useful-hit-ratio
  // division). 0 = static quotas.
  SimTime sizer_interval = 0;
  // Endurance-aware admission (wear model + per-tenant write budgets).
  bool endurance = false;
  // Benefit scaling: an admission must beat utilization x size x this cost
  // (ns per byte) once a tenant approaches its write budget. 0 keeps only
  // the hard over-budget veto.
  double write_cost_ns_per_byte = 0.0;
};

// Parses and validates the [tenants] section. `capacity` is the resolved
// cache capacity the quotas are checked against. Rejects (InvalidArgument):
// a present value that does not parse as its key's type (naming
// `tenants.<key>`), malformed tenant specs, duplicate names, overlapping
// rank ranges, quota/floor sums exceeding the capacity, per-tenant
// floor > quota, and floors that raise the resolved quotas
// (TenantRegistry::ResolveQuotas) past the capacity, naming the tenant
// whose floor does not fit. Returns a config with no specs when the section
// is absent (tenancy disabled).
Result<TenantsConfig> ParseTenantsConfig(const ConfigParser& config,
                                         byte_count capacity);

class TenantRegistry {
 public:
  // The int is the run's rank count; tenants come from the specs alone, so
  // it is unused.
  explicit TenantRegistry(TenantsConfig config, int /*ranks*/ = 0);

  int count() const { return static_cast<int>(config_.specs.size()); }
  const TenantSpec& spec(int t) const { return config_.specs.at(t); }
  const TenantsConfig& config() const { return config_; }

  // The tenant owning `rank`; 0 for unclaimed or negative ranks.
  int TenantOf(int rank) const;

  struct Partition {
    std::vector<byte_count> quota;
    std::vector<byte_count> floor;
  };
  // Resolves quotas/floors against `capacity`: absolute sizes as given,
  // fractions of capacity, unset quotas share the remainder evenly (the
  // last sharer absorbing rounding, so the quotas sum to the capacity
  // unless every quota is explicit and undershoots).
  Partition ResolveQuotas(byte_count capacity) const;

 private:
  TenantsConfig config_;
};

}  // namespace s4d::tenant
