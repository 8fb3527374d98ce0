#include "pfs/file_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/file_table.h"
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

// FileTable::Intern and FileSystem::OpenOrCreate give first-seen ids that
// agree with a reference map over alternating, repeated and new names,
// names one character apart and names past the small-string buffer. With
// content tracking on, each open stamps its own token on the file it
// resolved to, so a file's content holds the token of its name's last open
// only if every id indexed the right content map.
TEST(FileSystem, NameResolutionMatchesReferenceMap) {
  sim::Engine engine;
  FileSystem fs(engine, SsdFsConfig(4, /*track_content=*/true), SsdFactory());
  core::FileTable table;
  std::map<std::string, int> reference;
  std::map<std::string, std::uint64_t> last_token;
  const std::string long_name(40, 'x');
  const std::vector<std::string> fixed = {
      "ior.0", "ior.1", "ior.10", "ior.01", "", long_name, long_name + "y",
      std::string(39, 'x') + "z"};
  Rng rng(7);
  std::vector<std::string> names;
  for (int step = 0; step < 4000; ++step) {
    switch (rng.NextBelow(4)) {
      case 0:  // alternating
        names.push_back(fixed[static_cast<std::size_t>(step % 2)]);
        break;
      case 1:  // repeat the previous name
        names.push_back(names.empty() ? fixed[0] : names.back());
        break;
      case 2:  // a fixed name
        names.push_back(fixed[rng.NextBelow(fixed.size())]);
        break;
      default:  // a name seen before or new
        names.push_back("f" + std::to_string(rng.NextBelow(400)));
        break;
    }
  }
  std::uint64_t token = 0;
  for (const std::string& name : names) {
    const int expected =
        reference.emplace(name, static_cast<int>(reference.size()))
            .first->second;
    const core::FileIndex interned = table.Intern(name);
    const FileId opened = fs.OpenOrCreate(name);
    ASSERT_EQ(interned, static_cast<core::FileIndex>(expected)) << name;
    ASSERT_EQ(opened, expected) << name;
    ASSERT_EQ(table.name(interned), name);
    ASSERT_EQ(fs.Lookup(name), opened);
    fs.StampContent(opened, 0, 4 * KiB, ++token);
    last_token[name] = token;
  }
  for (const auto& [name, id] : reference) {
    const auto content = fs.ReadContent(id, 0, 4 * KiB);
    ASSERT_EQ(content.size(), 1u) << name;
    EXPECT_EQ(content[0].value, last_token[name]) << name;
    EXPECT_EQ(table.Intern(name), static_cast<core::FileIndex>(id));
    EXPECT_EQ(fs.OpenOrCreate(name), id);
  }
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

// What a SubRequestSample says about one sub-request that the client
// also knows at Submit: its server, size, kind and priority, how many of
// its server's subs it had submitted and not yet seen sampled, and when.
struct SubRecord {
  int server = 0;
  byte_count size = 0;
  device::IoKind kind = device::IoKind::kRead;
  Priority priority = Priority::kNormal;
  std::int32_t depth = 0;
  SimTime submit_time = 0;

  auto operator<=>(const SubRecord&) const = default;
};

// Derives every sample from the client's own bookkeeping: Submit splits
// the request as the file system does and counts each sub against its
// server; each sample takes one count off again. A sub is expected to fail
// if its server is down when it is submitted or crashes while the sub is
// unsampled.
class SubmitAccounting final : public SubRequestSink {
 public:
  SubmitAccounting(sim::Engine& engine, FileSystem& fs)
      : engine_(engine),
        fs_(fs),
        unsampled_(static_cast<std::size_t>(fs.server_count()), 0) {}

  void Submit(FileId file, device::IoKind kind, byte_count offset,
              byte_count size, Priority priority,
              std::function<void(SimTime)> done = nullptr) {
    for (const SubRequest& sub :
         SplitRequest(fs_.config().stripe, offset, size)) {
      const SubRecord want{sub.server, sub.size, kind, priority,
                           unsampled_[static_cast<std::size_t>(sub.server)]++,
                           engine_.now()};
      expected.push_back(want);
      open.push_back({want, !fs_.server(sub.server).up()});
    }
    fs_.Submit(file, kind, offset, size, priority, std::move(done));
  }

  // Crashes server `s`: every sub it holds now is expected to fail.
  void Crash(int s) {
    for (auto& [sub, fails] : open) {
      if (sub.server == s) fails = true;
    }
    fs_.server(s).Crash();
  }

  void OnSubRequestResolved(const SubRequestSample& sample) override {
    --unsampled_[static_cast<std::size_t>(sample.server)];
    const SubRecord got{sample.server,          sample.size,
                        sample.kind,            sample.priority,
                        sample.depth_at_submit, sample.submit_time};
    sampled.push_back(got);
    EXPECT_EQ(sample.tag, 7u);
    EXPECT_GE(sample.complete_time, sample.submit_time);
    if (!sample.ok) ++failed;
    if (got.depth >= 2) ++deep;
    if (sample.priority == Priority::kBackground) ++background;
    if (!sample.ok && sample.complete_time == sample.submit_time) ++refused;
    const auto it = std::find_if(open.begin(), open.end(), [&](const auto& o) {
      return o.first == got;
    });
    if (it == open.end()) {
      ADD_FAILURE() << "sample of no submitted sub: server " << got.server
                    << " depth " << got.depth << " at " << got.submit_time;
      return;
    }
    EXPECT_EQ(sample.ok, !it->second)
        << "server " << got.server << " depth " << got.depth << " at "
        << got.submit_time;
    open.erase(it);
  }

  std::vector<SubRecord> expected;
  std::vector<SubRecord> sampled;
  std::vector<std::pair<SubRecord, bool>> open;  // unsampled, fails?
  std::int64_t failed = 0;
  std::int64_t deep = 0;        // samples with depth_at_submit >= 2
  std::int64_t background = 0;  // background-priority samples
  std::int64_t refused = 0;     // failed at the instant of their submit

 private:
  sim::Engine& engine_;
  FileSystem& fs_;
  std::vector<std::int32_t> unsampled_;
};

// The sub-request samples carry exactly what the client's own accounting
// derives at each Submit, on a jittered four-server file system through
// bursts, a request spanning more than one stripe round, background jobs,
// a crash with jobs queued and in service, a submit to the crashed server
// and a restart.
TEST(FileSystem, SubRequestSamplesMatchSubmitAccounting) {
  sim::Engine engine;
  FsConfig cfg = SsdFsConfig(4);
  cfg.link.arrival_jitter = FromMicros(20);
  FileSystem fs(engine, cfg, SsdFactory());
  SubmitAccounting acct(engine, fs);
  fs.SetSubRequestSink(&acct, 7);
  const FileId f = fs.OpenOrCreate("f");
  constexpr byte_count kStripe = 64 * KiB;

  Rng rng(11);
  auto burst = [&](int requests) {
    for (int i = 0; i < requests; ++i) {
      const byte_count offset = rng.NextInRange(0, 255) * 4 * KiB;
      const byte_count size = rng.NextInRange(1, 48) * 4 * KiB;
      acct.Submit(f,
                  rng.NextBool(0.5) ? device::IoKind::kRead
                                    : device::IoKind::kWrite,
                  offset, size,
                  rng.NextBool(0.25) ? Priority::kBackground
                                     : Priority::kNormal);
    }
  };
  // A closed loop: each completion submits the next request from inside
  // the completion chain, right after the sample that freed its server.
  int chain_left = 12;
  std::function<void(SimTime)> chain = [&](SimTime) {
    if (chain_left-- <= 0) return;
    acct.Submit(f, device::IoKind::kWrite,
                rng.NextInRange(0, 63) * kStripe, kStripe, Priority::kNormal,
                chain);
  };

  engine.ScheduleAt(0, [&] {
    // Stripes 0-6: servers 0-2 each serve two stripes of it.
    acct.Submit(f, device::IoKind::kWrite, kStripe / 2, 6 * kStripe,
                Priority::kNormal);
    burst(16);
    chain(0);
  });
  const SimTime crash_at = FromMicros(400);
  engine.ScheduleAt(crash_at, [&] {
    burst(8);
    ASSERT_TRUE(fs.server(1).busy()) << "a job in service at the crash";
    ASSERT_GT(fs.server(1).queue_depth(), 0u) << "jobs queued at the crash";
    acct.Crash(1);
  });
  engine.ScheduleAt(crash_at + FromMicros(100), [&] {
    // Stripes 0-3: server 1 is down and refuses its sub.
    acct.Submit(f, device::IoKind::kRead, 0, 4 * kStripe, Priority::kNormal);
    burst(4);
  });
  std::int64_t served_before_restart = 0;
  engine.ScheduleAt(crash_at + FromMillis(2), [&] {
    served_before_restart = fs.server(1).stats().requests;
    fs.server(1).Restart();
    burst(16);
  });
  engine.Run();

  EXPECT_TRUE(acct.open.empty()) << acct.open.size() << " subs unsampled";
  std::vector<SubRecord> want = acct.expected;
  std::vector<SubRecord> got = acct.sampled;
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_TRUE(got == want) << got.size() << " samples, " << want.size()
                           << " subs submitted";
  std::int64_t failed_jobs = 0;
  for (int s = 0; s < fs.server_count(); ++s) {
    failed_jobs += fs.server(s).stats().failed_jobs;
  }
  EXPECT_EQ(acct.failed, failed_jobs);
  // Every case the test names was reached.
  EXPECT_GT(acct.failed, acct.refused);
  EXPECT_GT(acct.refused, 0);
  EXPECT_GT(acct.deep, 0);
  EXPECT_GT(acct.background, 0);
  EXPECT_LE(chain_left, 0);
  EXPECT_GT(fs.server(1).stats().requests, served_before_restart)
      << "served after the restart";
  EXPECT_EQ(fs.outstanding_subs(), 0);
}

}  // namespace
}  // namespace s4d::pfs
