// Network-link model for a file server.
//
// The paper's cluster uses Gigabit Ethernet, whose ~125 MB/s per-link cap is
// what bounds large-request throughput per server (and is why DServers'
// higher parallelism beats CServers for large sequential requests). Each
// file server owns one full-duplex link; a sub-request's data transfer
// occupies that link for bytes/bandwidth and pays a fixed one-way message
// latency. Link occupancy is serialized by the server's request loop, so no
// separate queueing state is needed here.
#pragma once

#include <string>

#include "common/sim_time.h"
#include "common/units.h"

namespace s4d::net {

struct LinkProfile {
  std::string name = "gigabit-ethernet";
  double bandwidth_bps = 125.0e6;       // bytes per second on the wire
  SimTime message_latency = FromMicros(50);  // one-way, per RPC
  // Uniform per-request arrival jitter [0, this). Real networks reorder
  // near-simultaneous requests; without it, a perfectly deterministic
  // baseline gets an unrealistically ideal arrival order that any
  // middleware latency would then "break". Zero for unit tests.
  SimTime arrival_jitter = 0;
};

LinkProfile GigabitEthernet();

// Wire-occupancy accounting per link, fed by OccupyTransfer on the
// service path and exported as obs gauges (pfs.<fs>.link_busy_ns).
struct LinkStats {
  std::int64_t transfers = 0;
  byte_count bytes = 0;
  SimTime wire_time = 0;  // sum of TransferTime over all transfers
};

class LinkModel {
 public:
  explicit LinkModel(LinkProfile profile) : profile_(std::move(profile)) {}

  // Time the link is occupied moving `bytes` of payload.
  SimTime TransferTime(byte_count bytes) const {
    const SimTime t = static_cast<SimTime>(
        static_cast<double>(bytes) / profile_.bandwidth_bps * 1e9);
    return degrade_ == 1.0
               ? t
               : static_cast<SimTime>(static_cast<double>(t) * degrade_);
  }

  // TransferTime plus accounting: the service path calls this so link
  // utilization is observable without a second bandwidth computation.
  SimTime OccupyTransfer(byte_count bytes) {
    const SimTime t = TransferTime(bytes);
    ++stats_.transfers;
    stats_.bytes += bytes;
    stats_.wire_time += t;
    return t;
  }

  const LinkStats& stats() const { return stats_; }

  // Fixed request/response round-trip overhead for one RPC.
  SimTime RpcOverhead() const {
    const SimTime t = 2 * profile_.message_latency;
    return degrade_ == 1.0
               ? t
               : static_cast<SimTime>(static_cast<double>(t) * degrade_);
  }

  // Fault injection: slows the link by `factor` >= 1 (effective bandwidth
  // divided by, and message latency multiplied by, the factor) — a
  // congested or renegotiated-down Ethernet link. 1.0 restores the healthy
  // profile.
  void SetDegrade(double factor) { degrade_ = factor < 1.0 ? 1.0 : factor; }
  double degrade() const { return degrade_; }

  const LinkProfile& profile() const { return profile_; }

 private:
  LinkProfile profile_;
  double degrade_ = 1.0;
  LinkStats stats_;
};

}  // namespace s4d::net
