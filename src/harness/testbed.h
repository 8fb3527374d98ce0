// Testbed: the simulated counterpart of the paper's experimental cluster
// (§V-A) — M HDD-backed DServers under one PVFS2-like file system, N
// SSD-backed CServers under another, Gigabit-Ethernet links, and a choice
// of middleware (stock passthrough or S4D-Cache). Every bench and most
// integration tests build one of these.
#pragma once

#include <memory>

#include "common/config_parser.h"
#include "core/cost_model.h"
#include "core/s4d_cache.h"
#include "device/hdd_model.h"
#include "device/ssd_model.h"
#include "mpiio/mpi_io.h"
#include "mpiio/stock_dispatch.h"
#include "net/link_model.h"
#include "obs/observability.h"
#include "pfs/file_system.h"
#include "sim/engine.h"

namespace s4d::harness {

struct TestbedConfig {
  int dservers = 8;  // the paper's deployment: 8 DServers, 4 CServers
  int cservers = 4;
  byte_count stripe_size = 64 * KiB;  // PVFS2 default
  device::HddProfile hdd = device::SeagateST32502NS();
  device::SsdProfile ssd = device::OczRevoDriveX2Effective();
  net::LinkProfile link = net::GigabitEthernet();
  bool track_content = false;
  // Per-server LBA reservation per file; must exceed the largest
  // per-server share of any file in the experiment.
  byte_count file_reservation = 16 * GiB;
  std::uint64_t seed = 1;
  // Shared observability bundle; null = not observed. Not owned — must
  // outlive the testbed. Both file systems attach to it, and MakeS4D
  // defaults the middleware's bundle to it.
  obs::Observability* obs = nullptr;
};

// Applies schema-validated `cluster.*` overrides from an INI config onto
// the testbed's device/link profiles, so experiments can model a different
// cluster (faster disks, slower links) without recompiling. Only keys that
// are present override; everything else keeps the paper's Table I/II
// defaults. Key -> field:
//   hdd_transfer_bps     -> hdd.transfer_bps       (double, bytes/s)
//   hdd_rpm              -> hdd.rpm                (double)
//   hdd_avg_seek         -> hdd.average_seek       (duration)
//   hdd_max_seek         -> hdd.max_seek           (duration)
//   hdd_track_seek       -> hdd.track_to_track_seek (duration)
//   hdd_command_overhead -> hdd.command_overhead   (duration)
//   hdd_readahead        -> hdd.readahead_window   (size)
//   ssd_read_bps         -> ssd.read_bps           (double, bytes/s)
//   ssd_write_bps        -> ssd.write_bps          (double, bytes/s)
//   ssd_read_latency     -> ssd.read_latency       (duration)
//   ssd_write_latency    -> ssd.write_latency      (duration)
//   link_bps             -> link.bandwidth_bps     (double, bytes/s)
//   link_latency         -> link.message_latency   (duration)
// Returns InvalidArgument naming `cluster.<key>` on a present value that
// does not parse, and on non-positive values; the CostModel derives
// its T_D/T_C parameters from these profiles, so overrides flow into the
// paper's Eqs. 1-8 automatically.
Status ApplyClusterOverrides(const ConfigParser& config, TestbedConfig& bed);

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);

  sim::Engine& engine() { return engine_; }
  pfs::FileSystem& dservers() { return *dservers_; }
  pfs::FileSystem& cservers() { return *cservers_; }
  mpiio::StockDispatch& stock() { return *stock_; }
  const TestbedConfig& config() const { return config_; }

  // The analytic cost model matching this testbed's hardware.
  core::CostModel MakeCostModel() const;

  // Builds an S4D-Cache middleware over this testbed. The caller owns it.
  std::unique_ptr<core::S4DCache> MakeS4D(core::S4DConfig s4d_config,
                                          kv::KvStore* dmt_store = nullptr);

 private:
  TestbedConfig config_;
  sim::Engine engine_;
  std::unique_ptr<pfs::FileSystem> dservers_;
  std::unique_ptr<pfs::FileSystem> cservers_;
  std::unique_ptr<mpiio::StockDispatch> stock_;
};

}  // namespace s4d::harness
