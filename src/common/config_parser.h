// Minimal INI-style configuration parser for the s4dsim CLI tool.
//
// Format:
//   # comment            ; comment
//   [section]
//   key = value
//
// Values keep their raw text; typed getters parse on demand. Size values
// accept binary suffixes (k/m/g, case-insensitive, meaning KiB/MiB/GiB);
// duration values accept ns/us/ms/s suffixes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "common/units.h"

namespace s4d {

class ConfigParser {
 public:
  // Parses the given text; returns a Status describing the first syntax
  // error (with line number), if any.
  Status Parse(const std::string& text);

  // Loads and parses a file.
  Status ParseFile(const std::string& path);

  bool Has(const std::string& section, const std::string& key) const;

  // Sets/overrides a value programmatically.
  void Set(const std::string& section, const std::string& key,
           std::string value);

  std::optional<std::string> GetString(const std::string& section,
                                       const std::string& key) const;
  std::optional<std::int64_t> GetInt(const std::string& section,
                                     const std::string& key) const;
  std::optional<double> GetDouble(const std::string& section,
                                  const std::string& key) const;
  std::optional<bool> GetBool(const std::string& section,
                              const std::string& key) const;
  // "64k" -> 65536, "2m" -> 2 MiB, "1g" -> 1 GiB, "123" -> 123.
  std::optional<byte_count> GetSize(const std::string& section,
                                    const std::string& key) const;
  // "250ms" -> FromMillis(250), "2s", "100us", "50ns", bare number = ns.
  std::optional<SimTime> GetDuration(const std::string& section,
                                     const std::string& key) const;

  // Reads `section.key` with getter `get` into `*out` when the key is
  // present, and leaves `*out` alone when it is absent. A present value
  // that does not parse is InvalidArgument naming `section.key` and the
  // value, never a silent fallback to the default (which the *Or variants
  // below are).
  template <typename T>
  Status Read(const std::string& section, const std::string& key,
              std::optional<T> (ConfigParser::*get)(const std::string&,
                                                    const std::string&) const,
              T* out) const {
    const std::optional<std::string> raw = GetString(section, key);
    if (!raw) return Status::Ok();
    const std::optional<T> value = (this->*get)(section, key);
    if (!value) {
      return Status::InvalidArgument(section + "." + key +
                                     ": cannot parse '" + *raw + "'");
    }
    *out = *value;
    return Status::Ok();
  }

  // Convenience with-default variants.
  std::string StringOr(const std::string& section, const std::string& key,
                       std::string fallback) const;
  std::int64_t IntOr(const std::string& section, const std::string& key,
                     std::int64_t fallback) const;
  double DoubleOr(const std::string& section, const std::string& key,
                  double fallback) const;
  bool BoolOr(const std::string& section, const std::string& key,
              bool fallback) const;
  byte_count SizeOr(const std::string& section, const std::string& key,
                    byte_count fallback) const;
  SimTime DurationOr(const std::string& section, const std::string& key,
                     SimTime fallback) const;

  std::size_t entry_count() const { return values_.size(); }

  // All parsed entries, keyed "section.key" ("" section = top level).
  const std::map<std::string, std::string>& entries() const { return values_; }

  // Schema check: every parsed entry must appear in `schema` (section ->
  // allowed keys; a key ending in '*' matches any key with that prefix,
  // e.g. "fault*" for fault1..faultN). Returns InvalidArgument naming the
  // first unknown section or key — a typo like `evction` fails loudly
  // instead of being silently ignored.
  Status ValidateKnownKeys(
      const std::map<std::string, std::vector<std::string>>& schema) const;

 private:
  // key = "section.key" (section may be empty for top-level entries)
  std::map<std::string, std::string> values_;
};

}  // namespace s4d
