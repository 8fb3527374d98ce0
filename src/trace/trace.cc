#include "trace/trace.h"

#include <ostream>
#include <unordered_map>

namespace s4d::trace {

double Distribution::RequestPercent(const std::string& label) const {
  const std::int64_t total = total_requests();
  if (total == 0) return 0.0;
  auto it = requests.find(label);
  if (it == requests.end()) return 0.0;
  return 100.0 * static_cast<double>(it->second) / static_cast<double>(total);
}

void TraceCollector::Attach(pfs::FileSystem& fs, std::string label) {
  fs.AddObserver([this, label](const pfs::RequestRecord& record) {
    events_.push_back(TraceEvent{label, record});
  });
}

Distribution TraceCollector::RequestDistribution(SimTime begin,
                                                 SimTime end) const {
  Distribution dist;
  for (const TraceEvent& event : events_) {
    const auto& r = event.record;
    if (r.priority != pfs::Priority::kNormal) continue;
    if (r.issue_time < begin || r.issue_time >= end) continue;
    dist.requests[event.system] += 1;
    dist.bytes[event.system] += r.size;
  }
  return dist;
}

double TraceCollector::SequentialFraction(const std::string& label,
                                          SimTime begin, SimTime end) const {
  std::unordered_map<pfs::FileId, byte_count> last_end;
  std::int64_t considered = 0;
  std::int64_t sequential = 0;
  for (const TraceEvent& event : events_) {
    if (event.system != label) continue;
    const auto& r = event.record;
    if (r.priority != pfs::Priority::kNormal) continue;
    if (r.issue_time >= end) break;
    auto it = last_end.find(r.file);
    if (r.issue_time >= begin && it != last_end.end()) {
      ++considered;
      if (it->second == r.offset) ++sequential;
    }
    last_end[r.file] = r.offset + r.size;
  }
  if (considered == 0) return 0.0;
  return static_cast<double>(sequential) / static_cast<double>(considered);
}

void TraceCollector::WriteCsv(std::ostream& out) const {
  out << "system,file,kind,offset,size,priority,issue_ns,servers\n";
  for (const TraceEvent& event : events_) {
    const auto& r = event.record;
    out << event.system << ',' << r.file << ','
        << device::IoKindName(r.kind) << ',' << r.offset << ',' << r.size
        << ',' << (r.priority == pfs::Priority::kNormal ? "normal" : "bg")
        << ',' << r.issue_time << ',' << r.server_count << '\n';
  }
}

}  // namespace s4d::trace
