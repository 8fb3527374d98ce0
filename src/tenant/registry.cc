#include "tenant/registry.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/check.h"

namespace s4d::tenant {

namespace {

// Parses "512", "64k", "2m", "1g" (binary suffixes, case-insensitive).
bool ParseSizeToken(const std::string& token, byte_count* out) {
  if (token.empty()) return false;
  std::size_t digits = 0;
  while (digits < token.size() &&
         (std::isdigit(static_cast<unsigned char>(token[digits])) ||
          token[digits] == '.')) {
    ++digits;
  }
  if (digits == 0) return false;
  double value = 0.0;
  try {
    value = std::stod(token.substr(0, digits));
  } catch (...) {
    return false;
  }
  const std::string suffix = token.substr(digits);
  byte_count unit = 1;
  if (suffix.empty()) {
    unit = 1;
  } else if (suffix == "k" || suffix == "K") {
    unit = KiB;
  } else if (suffix == "m" || suffix == "M") {
    unit = MiB;
  } else if (suffix == "g" || suffix == "G") {
    unit = GiB;
  } else {
    return false;
  }
  *out = static_cast<byte_count>(value * static_cast<double>(unit));
  return *out >= 0;
}

// Parses a quota/floor token: "40%" (fraction of capacity) or a size.
bool ParseShareToken(const std::string& token, double* fraction,
                     byte_count* bytes) {
  if (!token.empty() && token.back() == '%') {
    try {
      *fraction = std::stod(token.substr(0, token.size() - 1)) / 100.0;
    } catch (...) {
      return false;
    }
    return *fraction >= 0.0;
  }
  return ParseSizeToken(token, bytes);
}

Status ParseTenantSpec(const std::string& key, const std::string& value,
                       TenantSpec* spec) {
  std::istringstream in(value);
  if (!(in >> spec->name) || spec->name.empty()) {
    return Status::InvalidArgument("tenants." + key + ": missing tenant name");
  }
  std::string word;
  bool have_ranks = false;
  while (in >> word) {
    std::string arg;
    if (!(in >> arg)) {
      return Status::InvalidArgument("tenants." + key + ": '" + word +
                                     "' needs an argument");
    }
    if (word == "ranks") {
      have_ranks = true;
      if (arg == "*") {
        spec->all_ranks = true;
        continue;
      }
      const std::size_t dash = arg.find('-');
      try {
        if (dash == std::string::npos) {
          spec->rank_begin = spec->rank_end = std::stoi(arg);
        } else {
          spec->rank_begin = std::stoi(arg.substr(0, dash));
          spec->rank_end = std::stoi(arg.substr(dash + 1));
        }
      } catch (...) {
        return Status::InvalidArgument("tenants." + key + ": bad rank range '" +
                                       arg + "'");
      }
      if (spec->rank_begin < 0 || spec->rank_end < spec->rank_begin) {
        return Status::InvalidArgument("tenants." + key + ": bad rank range '" +
                                       arg + "'");
      }
    } else if (word == "quota") {
      if (!ParseShareToken(arg, &spec->quota_fraction, &spec->quota_bytes)) {
        return Status::InvalidArgument("tenants." + key + ": bad quota '" +
                                       arg + "'");
      }
    } else if (word == "floor") {
      if (!ParseShareToken(arg, &spec->floor_fraction, &spec->floor_bytes)) {
        return Status::InvalidArgument("tenants." + key + ": bad floor '" +
                                       arg + "'");
      }
    } else if (word == "write_budget") {
      byte_count bps = 0;
      if (!ParseSizeToken(arg, &bps)) {
        return Status::InvalidArgument("tenants." + key +
                                       ": bad write_budget '" + arg + "'");
      }
      spec->write_budget_bps = static_cast<double>(bps);
    } else {
      return Status::InvalidArgument("tenants." + key + ": unknown token '" +
                                     word + "'");
    }
  }
  if (!have_ranks) {
    return Status::InvalidArgument("tenants." + key +
                                   ": missing 'ranks' clause");
  }
  return Status::Ok();
}

byte_count ResolveShare(double fraction, byte_count bytes, byte_count capacity,
                        byte_count fallback) {
  if (bytes >= 0) return bytes;
  if (fraction >= 0.0) {
    return static_cast<byte_count>(fraction * static_cast<double>(capacity));
  }
  return fallback;
}

}  // namespace

const char* TenantModeName(TenantMode mode) {
  return mode == TenantMode::kObserve ? "observe" : "enforce";
}

Result<TenantsConfig> ParseTenantsConfig(const ConfigParser& config,
                                         byte_count capacity) {
  TenantsConfig out;

  const std::string mode = config.StringOr("tenants", "mode", "enforce");
  if (mode == "observe") {
    out.mode = TenantMode::kObserve;
  } else if (mode == "enforce") {
    out.mode = TenantMode::kEnforce;
  } else {
    return Status::InvalidArgument("tenants.mode: unknown mode '" + mode +
                                   "' (observe | enforce)");
  }

  // Absent keys keep TenantsConfig's defaults; a present value that does
  // not parse is an error naming the key.
  std::int64_t groups = out.auto_group_ranks;
  auto ghosts = static_cast<std::int64_t>(out.ghost_capacity);
  for (const Status& st :
       {config.Read("tenants", "auto_group_ranks", &ConfigParser::GetInt,
                    &groups),
        config.Read("tenants", "sizer_interval", &ConfigParser::GetDuration,
                    &out.sizer_interval),
        config.Read("tenants", "ghost_capacity", &ConfigParser::GetInt,
                    &ghosts),
        config.Read("tenants", "endurance", &ConfigParser::GetBool,
                    &out.endurance),
        config.Read("tenants", "write_cost_ns_per_byte",
                    &ConfigParser::GetDouble, &out.write_cost_ns_per_byte),
        config.Read("tenants", "pressure_max_queue", &ConfigParser::GetDouble,
                    &out.pressure_max_queue),
        config.Read("tenants", "wear_veto_fraction", &ConfigParser::GetDouble,
                    &out.wear_veto_fraction)}) {
    if (!st.ok()) return st;
  }
  out.auto_group_ranks = static_cast<int>(groups);
  if (out.auto_group_ranks < 0) {
    return Status::InvalidArgument("tenants.auto_group_ranks must be >= 0");
  }
  if (out.sizer_interval < 0) {
    return Status::InvalidArgument("tenants.sizer_interval must be >= 0");
  }
  if (ghosts < 0) {
    return Status::InvalidArgument("tenants.ghost_capacity must be >= 0");
  }
  out.ghost_capacity = static_cast<std::size_t>(ghosts);
  if (out.write_cost_ns_per_byte < 0 || out.pressure_max_queue < 0 ||
      out.wear_veto_fraction <= 0) {
    return Status::InvalidArgument(
        "tenants: write_cost_ns_per_byte / pressure_max_queue must be >= 0 "
        "and wear_veto_fraction > 0");
  }

  // Numbered tenant entries, in key order (tenant1 < tenant2 < ...).
  for (const auto& [full_key, value] : config.entries()) {
    if (full_key.rfind("tenants.tenant", 0) != 0) continue;
    const std::string key = full_key.substr(std::string("tenants.").size());
    TenantSpec spec;
    Status st = ParseTenantSpec(key, value, &spec);
    if (!st.ok()) return st;
    out.specs.push_back(std::move(spec));
  }

  if (out.auto_group_ranks > 0 && !out.specs.empty()) {
    return Status::InvalidArgument(
        "tenants: auto_group_ranks and explicit tenant* entries are mutually "
        "exclusive");
  }

  // Cross-spec validation.
  double fraction_sum = 0.0;
  byte_count quota_bytes_sum = 0;
  for (std::size_t i = 0; i < out.specs.size(); ++i) {
    const TenantSpec& a = out.specs[i];
    for (std::size_t j = 0; j < i; ++j) {
      const TenantSpec& b = out.specs[j];
      if (a.name == b.name) {
        return Status::InvalidArgument("tenants: duplicate tenant name '" +
                                       a.name + "'");
      }
      const bool overlap =
          a.all_ranks || b.all_ranks ||
          (a.rank_begin <= b.rank_end && b.rank_begin <= a.rank_end);
      if (overlap) {
        return Status::InvalidArgument("tenants: rank ranges of '" + b.name +
                                       "' and '" + a.name + "' overlap");
      }
    }
    const byte_count quota =
        ResolveShare(a.quota_fraction, a.quota_bytes, capacity, -1);
    const byte_count floor =
        ResolveShare(a.floor_fraction, a.floor_bytes, capacity, 0);
    if (quota >= 0 && floor > quota) {
      return Status::InvalidArgument("tenants: tenant '" + a.name +
                                     "' floor exceeds its quota");
    }
    if (floor > capacity) {
      return Status::InvalidArgument("tenants: tenant '" + a.name +
                                     "' floor exceeds the cache capacity");
    }
    if (a.quota_fraction >= 0.0) fraction_sum += a.quota_fraction;
    if (a.quota_bytes >= 0) quota_bytes_sum += a.quota_bytes;
  }
  if (fraction_sum > 1.0 + 1e-9) {
    return Status::InvalidArgument(
        "tenants: quota fractions sum to more than 100%");
  }
  const auto fraction_bytes =
      static_cast<byte_count>(fraction_sum * static_cast<double>(capacity));
  if (quota_bytes_sum + fraction_bytes > capacity) {
    return Status::InvalidArgument(
        "tenants: quotas sum to more than the cache capacity");
  }
  return out;
}

TenantRegistry::TenantRegistry(TenantsConfig config, int total_ranks)
    : config_(std::move(config)) {
  if (config_.auto_group_ranks > 0) {
    S4D_CHECK(config_.specs.empty())
        << "auto grouping with explicit tenant specs";
    const int group = config_.auto_group_ranks;
    const int groups =
        std::max(1, static_cast<int>(CeilDiv(std::max(total_ranks, 1), group)));
    for (int g = 0; g < groups; ++g) {
      TenantSpec spec;
      spec.name = "group" + std::to_string(g);
      spec.rank_begin = g * group;
      spec.rank_end = (g + 1) * group - 1;
      config_.specs.push_back(std::move(spec));
    }
    config_.auto_group_ranks = 0;
  }
  if (config_.specs.empty()) {
    // Single catch-all tenant — the configuration equivalent of "no
    // partitioning" (and pinned byte-identical to it by the tests).
    TenantSpec spec;
    spec.name = "all";
    spec.all_ranks = true;
    config_.specs.push_back(std::move(spec));
  }
}

int TenantRegistry::TenantOf(int rank) const {
  if (rank >= 0) {
    for (int t = 0; t < count(); ++t) {
      const TenantSpec& spec = config_.specs[static_cast<std::size_t>(t)];
      if (spec.all_ranks ||
          (rank >= spec.rank_begin && rank <= spec.rank_end)) {
        return t;
      }
    }
  }
  return 0;  // unclaimed ranks and internal (rank-less) requests
}

TenantRegistry::Partition TenantRegistry::ResolveQuotas(
    byte_count capacity) const {
  Partition out;
  const auto n = static_cast<std::size_t>(count());
  out.quota.assign(n, -1);
  out.floor.assign(n, 0);
  byte_count remaining = capacity;
  std::size_t unset = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const TenantSpec& spec = config_.specs[t];
    out.floor[t] = ResolveShare(spec.floor_fraction, spec.floor_bytes,
                                capacity, 0);
    const byte_count quota =
        ResolveShare(spec.quota_fraction, spec.quota_bytes, capacity, -1);
    if (quota >= 0) {
      out.quota[t] = quota;
      remaining -= quota;
    } else {
      ++unset;
    }
  }
  remaining = std::max<byte_count>(remaining, 0);
  // Unset quotas share the remainder evenly; the last sharer absorbs the
  // division remainder so explicit + implicit quotas cover the capacity.
  std::size_t sharers_left = unset;
  for (std::size_t t = 0; t < n && sharers_left > 0; ++t) {
    if (out.quota[t] >= 0) continue;
    const byte_count share =
        sharers_left == 1
            ? remaining
            : remaining / static_cast<byte_count>(sharers_left);
    out.quota[t] = share;
    remaining -= share;
    --sharers_left;
  }
  for (std::size_t t = 0; t < n; ++t) {
    out.quota[t] = std::max(out.quota[t], out.floor[t]);
  }
  return out;
}

}  // namespace s4d::tenant
