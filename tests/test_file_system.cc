#include "pfs/file_system.h"

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>

#include "device/hdd_model.h"
#include "device/ssd_model.h"

namespace s4d::pfs {
namespace {

// Every job in flight names its file system as its sink, by address.
static_assert(!std::is_copy_constructible_v<FileSystem> &&
              !std::is_move_constructible_v<FileSystem> &&
              !std::is_copy_assignable_v<FileSystem> &&
              !std::is_move_assignable_v<FileSystem>);

FsConfig SsdFsConfig(int servers, bool track_content = false) {
  FsConfig cfg;
  cfg.name = "test";
  cfg.stripe = StripeConfig{servers, 64 * KiB};
  cfg.link = net::GigabitEthernet();
  cfg.track_content = track_content;
  return cfg;
}

FileSystem::DeviceFactory SsdFactory() {
  return [](int) {
    return std::make_unique<device::SsdModel>(device::OczRevoDriveX2());
  };
}

TEST(FileSystem, OpenIsIdempotent) {
  sim::Engine engine;
  FileSystem fs(engine, SsdFsConfig(4), SsdFactory());
  const FileId a = fs.OpenOrCreate("f1");
  const FileId b = fs.OpenOrCreate("f1");
  const FileId c = fs.OpenOrCreate("f2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(fs.Lookup("f1"), a);
  EXPECT_EQ(fs.Lookup("nope"), kInvalidFile);
}

TEST(FileSystem, CompletesRequestAtLastSubRequest) {
  sim::Engine engine;
  FileSystem fs(engine, SsdFsConfig(4), SsdFactory());
  const FileId f = fs.OpenOrCreate("f");
  SimTime completed = -1;
  // Spans 4 stripes -> 4 servers in parallel.
  fs.Submit(f, device::IoKind::kWrite, 0, 4 * 64 * KiB, Priority::kNormal,
            [&](SimTime t) { completed = t; });
  engine.Run();
  ASSERT_GT(completed, 0);
  // Parallel service: roughly one stripe's time, not four.
  SimTime serial_estimate = completed * 4;
  sim::Engine engine2;
  FileSystem fs2(engine2, SsdFsConfig(1), SsdFactory());
  const FileId f2 = fs2.OpenOrCreate("f");
  SimTime serial_completed = -1;
  fs2.Submit(f2, device::IoKind::kWrite, 0, 4 * 64 * KiB, Priority::kNormal,
             [&](SimTime t) { serial_completed = t; });
  engine2.Run();
  // One server serving 4 stripes must be slower than 4 servers in parallel
  // but cheaper than 4x (single sub-request, one fixed latency).
  EXPECT_GT(serial_completed, completed);
  EXPECT_LT(serial_completed, serial_estimate);
}

TEST(FileSystem, ZeroSizeRequestCompletesImmediately) {
  sim::Engine engine;
  FileSystem fs(engine, SsdFsConfig(2), SsdFactory());
  const FileId f = fs.OpenOrCreate("f");
  bool completed = false;
  fs.Submit(f, device::IoKind::kRead, 0, 0, Priority::kNormal,
            [&](SimTime) { completed = true; });
  engine.Run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(fs.stats().requests, 0);  // not counted as I/O
}

TEST(FileSystem, RequestsFanOutToDistinctServers) {
  sim::Engine engine;
  FileSystem fs(engine, SsdFsConfig(4), SsdFactory());
  const FileId f = fs.OpenOrCreate("f");
  fs.Submit(f, device::IoKind::kWrite, 0, 4 * 64 * KiB, Priority::kNormal,
            nullptr);
  engine.Run();
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(fs.server(s).stats().requests, 1) << "server " << s;
    EXPECT_EQ(fs.server(s).stats().bytes, 64 * KiB);
  }
}

TEST(FileSystem, DistinctFilesUseDistinctLbaRegions) {
  sim::Engine engine;
  auto cfg = SsdFsConfig(1);
  cfg.file_reservation_per_server = 1 * GiB;
  // Use an HDD so LBA placement is observable through head position.
  FileSystem fs(engine, cfg, [](int) {
    return std::make_unique<device::HddModel>(device::SeagateST32502NS(), 1);
  });
  const FileId a = fs.OpenOrCreate("a");
  const FileId b = fs.OpenOrCreate("b");
  fs.Submit(a, device::IoKind::kWrite, 0, 4 * KiB, Priority::kNormal, nullptr);
  engine.Run();
  auto& hdd = static_cast<device::HddModel&>(fs.server(0).device());
  const byte_count after_a = hdd.head_position();
  fs.Submit(b, device::IoKind::kWrite, 0, 4 * KiB, Priority::kNormal, nullptr);
  engine.Run();
  const byte_count after_b = hdd.head_position();
  EXPECT_EQ(after_a, 4 * KiB);
  EXPECT_EQ(after_b, 1 * GiB + 4 * KiB);
}

TEST(FileSystem, ObserversSeeEveryRequest) {
  sim::Engine engine;
  FileSystem fs(engine, SsdFsConfig(2), SsdFactory());
  const FileId f = fs.OpenOrCreate("f");
  std::vector<RequestRecord> records;
  fs.AddObserver([&](const RequestRecord& r) { records.push_back(r); });
  fs.Submit(f, device::IoKind::kWrite, 0, 128 * KiB, Priority::kNormal, nullptr);
  fs.Submit(f, device::IoKind::kRead, 64 * KiB, 4 * KiB, Priority::kBackground,
            nullptr);
  engine.Run();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, device::IoKind::kWrite);
  EXPECT_EQ(records[0].size, 128 * KiB);
  EXPECT_EQ(records[0].server_count, 2);
  EXPECT_EQ(records[1].priority, Priority::kBackground);
}

TEST(FileSystem, ContentTrackingRoundTrip) {
  sim::Engine engine;
  FileSystem fs(engine, SsdFsConfig(2, /*track_content=*/true), SsdFactory());
  const FileId f = fs.OpenOrCreate("f");
  fs.StampContent(f, 0, 100, 7);
  fs.StampContent(f, 50, 100, 9);
  const auto entries = fs.ReadContent(f, 0, 200);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].value, 7u);
  EXPECT_EQ(entries[0].end, 50);
  EXPECT_EQ(entries[1].value, 9u);
  EXPECT_EQ(entries[1].begin, 50);
  EXPECT_EQ(entries[1].end, 150);
}

TEST(FileSystem, ContentTrackingDisabledReturnsNothing) {
  sim::Engine engine;
  FileSystem fs(engine, SsdFsConfig(2, /*track_content=*/false), SsdFactory());
  const FileId f = fs.OpenOrCreate("f");
  fs.StampContent(f, 0, 100, 7);
  EXPECT_TRUE(fs.ReadContent(f, 0, 100).empty());
}

TEST(FileSystem, TotalServerStatsAggregates) {
  sim::Engine engine;
  FileSystem fs(engine, SsdFsConfig(4), SsdFactory());
  const FileId f = fs.OpenOrCreate("f");
  fs.Submit(f, device::IoKind::kWrite, 0, 4 * 64 * KiB, Priority::kNormal,
            nullptr);
  engine.Run();
  const ServerStats total = fs.TotalServerStats();
  EXPECT_EQ(total.requests, 4);
  EXPECT_EQ(total.bytes, 4 * 64 * KiB);
}

}  // namespace
}  // namespace s4d::pfs
