#include "obs/span.h"

#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "obs/json.h"

namespace s4d::obs {
namespace {

// ts/dur in microseconds with exactly three decimals (millinanoseconds):
// SimTime is integer nanoseconds, so this is lossless and byte-stable.
void WriteMicros(std::ostream& out, SimTime ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03d", ns / 1000,
                static_cast<int>(ns % 1000));
  out << buf;
}

void WriteArgs(std::ostream& out, const SpanRecord& r) {
  out << "\"args\":{";
  bool first = true;
  for (const SpanArg& a : r.args) {
    if (!first) out << ',';
    first = false;
    WriteJsonString(out, a.key);
    out << ':' << a.value;
  }
  out << '}';
}

}  // namespace

std::uint32_t Tracer::Lane(const std::string& name) {
  const auto it = lane_ids_.find(name);
  if (it != lane_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(lane_names_.size());
  lane_ids_.emplace(name, id);
  lane_names_.push_back(name);
  return id;
}

SpanId Tracer::Begin(std::uint32_t lane, const char* name, const char* cat,
                     SimTime start, SpanId parent) {
  if (!enabled_) return kNoSpan;
  SpanRecord r;
  r.id = records_.size() + 1;
  r.parent = parent;
  r.lane = lane;
  r.name = name;
  r.cat = cat;
  r.start = start;
  records_.push_back(std::move(r));
  return records_.back().id;
}

void Tracer::End(SpanId id, SimTime end) {
  if (SpanRecord* r = Record(id)) r->end = end;
}

SpanId Tracer::Complete(std::uint32_t lane, const char* name, const char* cat,
                        SimTime start, SimTime duration, SpanId parent) {
  const SpanId id = Begin(lane, name, cat, start, parent);
  End(id, start + duration);
  return id;
}

SpanId Tracer::Instant(std::uint32_t lane, const char* name, const char* cat,
                       SimTime at, SpanId parent) {
  const SpanId id = Begin(lane, name, cat, at, parent);
  if (SpanRecord* r = Record(id)) {
    r->instant = true;
    r->end = at;
  }
  return id;
}

void Tracer::AddArg(SpanId id, const char* key, std::int64_t value) {
  if (SpanRecord* r = Record(id)) {
    r->args.push_back({key, std::to_string(value)});
  }
}

void Tracer::AddArg(SpanId id, const char* key, const std::string& value) {
  SpanRecord* r = Record(id);
  if (r == nullptr) return;
  std::string quoted = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  quoted += '"';
  r->args.push_back({key, std::move(quoted)});
}

void Tracer::WriteChromeTrace(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t lane = 0; lane < lane_names_.size(); ++lane) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << lane
        << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    WriteJsonString(out, lane_names_[lane]);
    out << "}}";
  }
  for (const SpanRecord& r : records_) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"" << (r.instant ? 'i' : 'X') << "\",\"pid\":1,\"tid\":"
        << r.lane << ",\"name\":";
    WriteJsonString(out, r.name);
    out << ",\"cat\":";
    WriteJsonString(out, r.cat);
    out << ",\"ts\":";
    WriteMicros(out, r.start);
    if (r.instant) {
      out << ",\"s\":\"t\"";
    } else {
      out << ",\"dur\":";
      WriteMicros(out, r.end > r.start ? r.end - r.start : 0);
    }
    out << ",\"id\":" << r.id;
    if (r.parent != kNoSpan || !r.args.empty()) {
      out << ',';
      if (r.parent != kNoSpan && !r.args.empty()) {
        out << "\"args\":{\"parent\":" << r.parent;
        for (const SpanArg& a : r.args) {
          out << ',';
          WriteJsonString(out, a.key);
          out << ':' << a.value;
        }
        out << '}';
      } else if (r.parent != kNoSpan) {
        out << "\"args\":{\"parent\":" << r.parent << '}';
      } else {
        WriteArgs(out, r);
      }
    }
    out << '}';
  }
  out << "\n]}\n";
}

}  // namespace s4d::obs
