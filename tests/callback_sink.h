// JobSink for the file-server tests: every job it makes carries its own
// callbacks, found by the job's cookie when the server resolves it. The
// sink also holds the server to its side of the contract: a cookie it never
// handed out, or one resolved twice, fails the test.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "pfs/file_server.h"

namespace s4d::testing {

class CallbackSink final : public pfs::JobSink {
 public:
  using Callback = std::function<void(SimTime)>;

  // A job resolved through this sink: `on_complete` runs if it completes,
  // `on_failure` if it fails. Either may be null.
  pfs::ServerJob Job(device::IoKind kind, byte_count lba, byte_count size,
                     pfs::Priority priority, Callback on_complete,
                     Callback on_failure = nullptr) {
    pfs::ServerJob job;
    job.kind = kind;
    job.priority = priority;
    job.lba = lba;
    job.size = size;
    job.sink = this;
    job.cookie = entries_.size();
    entries_.push_back({std::move(on_complete), std::move(on_failure)});
    return job;
  }

  void OnJobResolved(std::uint64_t cookie, SimTime time,
                     bool failed) override {
    ASSERT_LT(cookie, entries_.size()) << "unknown cookie";
    Entry& entry = entries_[cookie];
    ASSERT_FALSE(entry.resolved) << "job " << cookie << " resolved twice";
    entry.resolved = true;
    // Moved out first: the callback may make jobs and grow entries_.
    Callback callback =
        std::move(failed ? entry.on_failure : entry.on_complete);
    entry.on_complete = nullptr;
    entry.on_failure = nullptr;
    if (callback) callback(time);
  }

 private:
  struct Entry {
    Callback on_complete;
    Callback on_failure;
    bool resolved = false;
  };
  std::vector<Entry> entries_;
};

}  // namespace s4d::testing
