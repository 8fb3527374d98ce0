#include "common/config_parser.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace s4d {

namespace {

std::string Trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

Status ConfigParser::Parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::string section;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Strip comments (full-line or trailing).
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = Trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        return Status::InvalidArgument("bad section header at line " +
                                       std::to_string(line_number));
      }
      section = Trim(line.substr(1, line.size() - 2));
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("missing '=' at line " +
                                     std::to_string(line_number));
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key.empty()) {
      return Status::InvalidArgument("empty key at line " +
                                     std::to_string(line_number));
    }
    values_[section + "." + key] = value;
  }
  return Status::Ok();
}

Status ConfigParser::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str());
}

bool ConfigParser::Has(const std::string& section,
                       const std::string& key) const {
  return values_.count(section + "." + key) > 0;
}

void ConfigParser::Set(const std::string& section, const std::string& key,
                       std::string value) {
  values_[section + "." + key] = std::move(value);
}

std::optional<std::string> ConfigParser::GetString(
    const std::string& section, const std::string& key) const {
  auto it = values_.find(section + "." + key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::int64_t> ConfigParser::GetInt(const std::string& section,
                                                 const std::string& key) const {
  const auto raw = GetString(section, key);
  if (!raw) return std::nullopt;
  std::int64_t value = 0;
  const char* first = raw->data();
  const char* last = raw->data() + raw->size();
  const auto result = std::from_chars(first, last, value);
  if (result.ec != std::errc{} || result.ptr != last) return std::nullopt;
  return value;
}

std::optional<double> ConfigParser::GetDouble(const std::string& section,
                                              const std::string& key) const {
  const auto raw = GetString(section, key);
  if (!raw) return std::nullopt;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(*raw, &consumed);
    if (consumed != raw->size() || !std::isfinite(value)) return std::nullopt;
    return value;
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<bool> ConfigParser::GetBool(const std::string& section,
                                          const std::string& key) const {
  const auto raw = GetString(section, key);
  if (!raw) return std::nullopt;
  const std::string lower = ToLower(*raw);
  if (lower == "true" || lower == "yes" || lower == "on" || lower == "1") {
    return true;
  }
  if (lower == "false" || lower == "no" || lower == "off" || lower == "0") {
    return false;
  }
  return std::nullopt;
}

std::optional<byte_count> ConfigParser::GetSize(const std::string& section,
                                                const std::string& key) const {
  const auto raw = GetString(section, key);
  if (!raw || raw->empty()) return std::nullopt;
  std::string digits = *raw;
  byte_count multiplier = 1;
  const char suffix =
      static_cast<char>(std::tolower(static_cast<unsigned char>(digits.back())));
  if (suffix == 'k' || suffix == 'm' || suffix == 'g') {
    multiplier = suffix == 'k' ? KiB : suffix == 'm' ? MiB : GiB;
    digits.pop_back();
  }
  std::int64_t value = 0;
  const char* first = digits.data();
  const char* last = digits.data() + digits.size();
  const auto result = std::from_chars(first, last, value);
  if (result.ec != std::errc{} || result.ptr != last || value < 0) {
    return std::nullopt;
  }
  return value * multiplier;
}

std::optional<SimTime> ConfigParser::GetDuration(const std::string& section,
                                                 const std::string& key) const {
  const auto raw = GetString(section, key);
  if (!raw || raw->empty()) return std::nullopt;
  std::string text = ToLower(*raw);
  SimTime multiplier = 1;  // bare value = nanoseconds
  auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::string(suffix).size();
    return text.size() > n && text.compare(text.size() - n, n, suffix) == 0;
  };
  if (ends_with("ns")) {
    text.resize(text.size() - 2);
  } else if (ends_with("us")) {
    multiplier = kMicrosecond;
    text.resize(text.size() - 2);
  } else if (ends_with("ms")) {
    multiplier = kMillisecond;
    text.resize(text.size() - 2);
  } else if (ends_with("s")) {
    multiplier = kSecond;
    text.resize(text.size() - 1);
  }
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size() || value < 0) return std::nullopt;
    // NaN, infinity and anything past SimTime's range (2^63 ns) have no
    // SimTime; converting them would be undefined behaviour.
    const double ns = value * static_cast<double>(multiplier);
    if (!(ns < 0x1p63)) return std::nullopt;
    return static_cast<SimTime>(ns);
  } catch (...) {
    return std::nullopt;
  }
}

std::string ConfigParser::StringOr(const std::string& section,
                                   const std::string& key,
                                   std::string fallback) const {
  return GetString(section, key).value_or(std::move(fallback));
}
std::int64_t ConfigParser::IntOr(const std::string& section,
                                 const std::string& key,
                                 std::int64_t fallback) const {
  return GetInt(section, key).value_or(fallback);
}
double ConfigParser::DoubleOr(const std::string& section,
                              const std::string& key, double fallback) const {
  return GetDouble(section, key).value_or(fallback);
}
bool ConfigParser::BoolOr(const std::string& section, const std::string& key,
                          bool fallback) const {
  return GetBool(section, key).value_or(fallback);
}
byte_count ConfigParser::SizeOr(const std::string& section,
                                const std::string& key,
                                byte_count fallback) const {
  return GetSize(section, key).value_or(fallback);
}
SimTime ConfigParser::DurationOr(const std::string& section,
                                 const std::string& key,
                                 SimTime fallback) const {
  return GetDuration(section, key).value_or(fallback);
}

Status ConfigParser::ValidateKnownKeys(
    const std::map<std::string, std::vector<std::string>>& schema) const {
  for (const auto& [full_key, value] : values_) {
    const auto dot = full_key.find('.');
    const std::string section =
        dot == std::string::npos ? "" : full_key.substr(0, dot);
    const std::string key =
        dot == std::string::npos ? full_key : full_key.substr(dot + 1);
    const auto sit = schema.find(section);
    if (sit == schema.end()) {
      return Status::InvalidArgument("unknown config section [" + section +
                                     "]");
    }
    bool known = false;
    for (const std::string& pattern : sit->second) {
      if (!pattern.empty() && pattern.back() == '*') {
        known = key.size() >= pattern.size() - 1 &&
                key.compare(0, pattern.size() - 1, pattern, 0,
                            pattern.size() - 1) == 0;
      } else {
        known = key == pattern;
      }
      if (known) break;
    }
    if (!known) {
      return Status::InvalidArgument("unknown key '" + key +
                                     "' in section [" + section + "]");
    }
  }
  return Status::Ok();
}

}  // namespace s4d
