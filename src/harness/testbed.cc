#include "harness/testbed.h"

namespace s4d::harness {

Status ApplyClusterOverrides(const ConfigParser& config, TestbedConfig& bed) {
  device::HddProfile& hdd = bed.hdd;
  device::SsdProfile& ssd = bed.ssd;
  net::LinkProfile& link = bed.link;
  hdd.transfer_bps =
      config.DoubleOr("cluster", "hdd_transfer_bps", hdd.transfer_bps);
  hdd.rpm = config.DoubleOr("cluster", "hdd_rpm", hdd.rpm);
  hdd.average_seek =
      config.DurationOr("cluster", "hdd_avg_seek", hdd.average_seek);
  hdd.max_seek = config.DurationOr("cluster", "hdd_max_seek", hdd.max_seek);
  hdd.track_to_track_seek =
      config.DurationOr("cluster", "hdd_track_seek", hdd.track_to_track_seek);
  hdd.command_overhead = config.DurationOr("cluster", "hdd_command_overhead",
                                           hdd.command_overhead);
  hdd.readahead_window =
      config.SizeOr("cluster", "hdd_readahead", hdd.readahead_window);
  ssd.read_bps = config.DoubleOr("cluster", "ssd_read_bps", ssd.read_bps);
  ssd.write_bps = config.DoubleOr("cluster", "ssd_write_bps", ssd.write_bps);
  ssd.read_latency =
      config.DurationOr("cluster", "ssd_read_latency", ssd.read_latency);
  ssd.write_latency =
      config.DurationOr("cluster", "ssd_write_latency", ssd.write_latency);
  link.bandwidth_bps =
      config.DoubleOr("cluster", "link_bps", link.bandwidth_bps);
  link.message_latency =
      config.DurationOr("cluster", "link_latency", link.message_latency);
  if (hdd.transfer_bps <= 0 || hdd.rpm <= 0 || ssd.read_bps <= 0 ||
      ssd.write_bps <= 0 || link.bandwidth_bps <= 0) {
    return Status::InvalidArgument(
        "cluster.*_bps and cluster.hdd_rpm must be > 0");
  }
  if (hdd.average_seek <= 0 || hdd.max_seek < hdd.average_seek ||
      hdd.track_to_track_seek <= 0) {
    return Status::InvalidArgument(
        "cluster hdd seek overrides must satisfy 0 < track_seek, "
        "0 < avg_seek <= max_seek");
  }
  if (hdd.command_overhead < 0 || ssd.read_latency < 0 ||
      ssd.write_latency < 0 || link.message_latency <= 0) {
    return Status::InvalidArgument(
        "cluster latency overrides must be >= 0 (link_latency > 0)");
  }
  if (hdd.readahead_window < 0) {
    return Status::InvalidArgument("cluster.hdd_readahead must be >= 0");
  }
  return Status::Ok();
}

Testbed::Testbed(TestbedConfig config) : config_(std::move(config)) {
  pfs::FsConfig d_config;
  d_config.name = "OPFS";
  d_config.stripe = pfs::StripeConfig{config_.dservers, config_.stripe_size};
  d_config.link = config_.link;
  d_config.file_reservation_per_server = config_.file_reservation;
  d_config.track_content = config_.track_content;
  dservers_ = std::make_unique<pfs::FileSystem>(
      engine_, d_config, [this](int index) {
        return std::make_unique<device::HddModel>(
            config_.hdd, config_.seed * 1000003 + static_cast<std::uint64_t>(index));
      });

  pfs::FsConfig c_config;
  c_config.name = "CPFS";
  c_config.stripe = pfs::StripeConfig{config_.cservers, config_.stripe_size};
  c_config.link = config_.link;
  c_config.file_reservation_per_server = config_.file_reservation;
  c_config.track_content = config_.track_content;
  cservers_ = std::make_unique<pfs::FileSystem>(
      engine_, c_config, [this](int index) {
        (void)index;
        return std::make_unique<device::SsdModel>(config_.ssd);
      });

  stock_ = std::make_unique<mpiio::StockDispatch>(*dservers_);

  if (config_.obs != nullptr) {
    dservers_->SetObservability(config_.obs);
    cservers_->SetObservability(config_.obs);
  }
}

core::CostModel Testbed::MakeCostModel() const {
  return core::CostModel(core::CostModelParams::FromProfiles(
      config_.dservers, config_.cservers, config_.stripe_size, config_.hdd,
      config_.ssd, config_.link));
}

std::unique_ptr<core::S4DCache> Testbed::MakeS4D(core::S4DConfig s4d_config,
                                                 kv::KvStore* dmt_store) {
  if (s4d_config.obs == nullptr) s4d_config.obs = config_.obs;
  return std::make_unique<core::S4DCache>(engine_, *dservers_, *cservers_,
                                          MakeCostModel(),
                                          std::move(s4d_config), dmt_store);
}

}  // namespace s4d::harness
