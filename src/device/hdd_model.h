// Hard-disk-drive service-time model.
//
// Positioning = seek(F) + rotational delay, where the seek time F(d) is a
// function of the byte distance d between the new access and the current
// head position. Following the profiling approach of FS2 [Huang et al.,
// SOSP'05] that the paper cites for deriving F, we use the standard
// two-regime curve fitted to desktop drives:
//
//   F(0)      = 0                                  (streaming, no seek)
//   F(d)      = t2t + (avg - t2t) * sqrt(frac)     short seeks
//               where frac = d / capacity, for frac <= 1/3
//   F(d)      = lerp(avg .. max)                   long seeks, frac > 1/3
//
// Rotational delay is drawn uniformly from [0, full_rotation) — its mean is
// the R = half-rotation used in the paper's cost model. Purely sequential
// accesses (d == 0) skip both seek and rotation, which is what lets the
// simulated drive reach its sustained streaming rate.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "device/device_model.h"

namespace s4d::device {

struct HddProfile {
  std::string name = "generic-7200rpm";
  byte_count capacity = 250 * GiB;
  double rpm = 7200.0;
  SimTime track_to_track_seek = FromMillis(0.8);
  SimTime average_seek = FromMillis(8.5);
  SimTime max_seek = FromMillis(17.0);
  // Sustained media transfer rate, bytes/second.
  double transfer_bps = 78.0e6;
  // Fixed controller/command overhead per request.
  SimTime command_overhead = FromMicros(200);
  // Multi-stream readahead/writeback model (the PVFS2 server does buffered
  // I/O through the local file system, so the OS page cache serves
  // per-stream sequential runs without repositioning even when many
  // process streams interleave at one server; see HddModel). An access
  // continuing an active stream within this forward window is served at
  // media rate, paying transfer for any skipped gap, with no seek.
  byte_count readahead_window = 512 * KiB;
  int max_streams = 64;

  SimTime full_rotation() const {
    return static_cast<SimTime>(60.0e9 / rpm);
  }
  SimTime average_rotation_delay() const { return full_rotation() / 2; }
};

// The drive used on the paper's DServers (Seagate ST32502NS, 250 GB SATA).
HddProfile SeagateST32502NS();

// The deterministic seek-time curve F(d) for a profile — shared by the
// device simulation and the paper's analytic cost model (§III-B derives F
// from offline profiling of the HDD; here both sides use the same curve).
SimTime SeekTimeForProfile(const HddProfile& profile, byte_count distance);

class HddModel final : public DeviceModel {
 public:
  // `seed` drives the rotational-delay draw; two models with the same seed
  // and access sequence behave identically.
  explicit HddModel(HddProfile profile, std::uint64_t seed = 1);

  AccessCosts Access(IoKind kind, byte_count offset, byte_count size) override;
  void Reset() override;
  std::string Describe() const override;

  // Deterministic seek-time curve F(d); exposed so the cost model and tests
  // can share the exact function the paper derives from device profiling.
  SimTime SeekTime(byte_count distance) const;

  const HddProfile& profile() const { return profile_; }
  byte_count head_position() const { return head_position_; }
  int active_streams() const { return static_cast<int>(streams_.size()); }

 private:
  // One recently active sequential stream: its expected next offset and
  // the access-clock value of its last use (larger = more recent).
  struct Stream {
    byte_count tail = 0;
    std::uint64_t stamp = 0;
    std::int32_t next = -1;   // next stream in the same chain, or -1
    std::uint32_t chain = 0;  // index into chains_
  };
  // log2 of the chain count. Streams chain by tail / readahead_window, so
  // a lookup walks three short chains instead of every stream.
  static constexpr int kChainBits = 8;

  // Multiplicative (Fibonacci) hash: every rank's stream on a striped
  // server sits a fixed number of buckets from the next, and a plain mask
  // would put them all in one chain.
  static std::uint32_t HashBucket(byte_count bucket) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(bucket) * 0x9e3779b97f4a7c15ULL) >>
        (64 - kChainBits));
  }
  // floor(x / readahead_window); the window must be positive.
  byte_count BucketOf(byte_count x) const;
  std::uint32_t ChainOf(byte_count tail) const;
  // The most recently used stream whose tail continues `offset`, or -1.
  std::int32_t FindStream(byte_count offset) const;
  void Link(std::int32_t slot, std::uint32_t chain);
  void Unlink(std::int32_t slot);
  void AddStream(byte_count tail);

  HddProfile profile_;
  Rng rng_;
  byte_count head_position_ = 0;
  // Bounded by profile_.max_streams; grows on demand, and an evicted
  // stream's slot is reused in place.
  std::vector<Stream> streams_;
  std::uint64_t clock_ = 0;
  // Inline so that constructing a model allocates nothing.
  std::array<std::int32_t, std::size_t{1} << kChainBits> chains_;
};

}  // namespace s4d::device
