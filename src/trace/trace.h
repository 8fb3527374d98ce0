// IOSIG-like trace collection (§V-B cites IOSIG for Table III's request
// distribution). A TraceCollector attaches to one or more simulated file
// systems and records every request issued to them; queries then compute
// the request distribution between server groups in a time window and
// the fraction of sequential requests per server group.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "pfs/file_system.h"

namespace s4d::trace {

struct TraceEvent {
  std::string system;  // label given at Attach time, e.g. "DServers"
  pfs::RequestRecord record;
};

struct Distribution {
  // label -> foreground request count (and byte count) in the window.
  std::map<std::string, std::int64_t> requests;
  std::map<std::string, byte_count> bytes;

  std::int64_t total_requests() const {
    std::int64_t n = 0;
    for (const auto& [label, count] : requests) n += count;
    return n;
  }
  double RequestPercent(const std::string& label) const;
};

class TraceCollector {
 public:
  // Registers an observer on `fs`; events are recorded for the collector's
  // lifetime. The collector must outlive the file system's submissions.
  void Attach(pfs::FileSystem& fs, std::string label);

  std::size_t event_count() const { return events_.size(); }
  const std::vector<TraceEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

  // Foreground (normal-priority) request distribution across labels within
  // issue-time window [begin, end). Table III uses a 5-second window.
  Distribution RequestDistribution(SimTime begin, SimTime end) const;

  // Fraction of foreground requests to `label` in the window that continue
  // exactly where the previous request on the same (label, file) left off.
  double SequentialFraction(const std::string& label, SimTime begin,
                            SimTime end) const;

  // Dumps all events as CSV (header + one row per event):
  //   system,file,kind,offset,size,priority,issue_ns,servers
  void WriteCsv(std::ostream& out) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace s4d::trace
