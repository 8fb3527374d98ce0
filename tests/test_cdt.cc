#include "core/cdt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace s4d::core {

// Reads and corrupts the table's private bookkeeping.
struct CdtTestPeer {
  // AnyPendingFetch() as it was before the table counted its live flags: a
  // walk over the fetch queue for a key whose entry is still flagged.
  static bool QueueHoldsLiveFlag(const CriticalDataTable& cdt) {
    for (const auto& copy : cdt.flagged_) {
      auto it = cdt.entries_.find(copy.key);
      if (it != cdt.entries_.end() && it->second.queued_seq == copy.seq) {
        return true;
      }
    }
    return false;
  }
  static void MiscountFlags(CriticalDataTable& cdt) { ++cdt.flagged_count_; }
  // Queues the front copy a second time.
  static void QueueFrontTwice(CriticalDataTable& cdt) {
    cdt.flagged_.push_back(cdt.flagged_.front());
  }
};

namespace {

// File ids of two files.
constexpr FileIndex kFile = 0;
constexpr FileIndex kOther = 1;

const CdtKey kA{kFile, 0, 16384};
const CdtKey kB{kFile, 16384, 16384};
const CdtKey kC{kOther, 0, 16384};

TEST(Cdt, AddAndContains) {
  CriticalDataTable cdt;
  EXPECT_FALSE(cdt.Contains(kA));
  EXPECT_TRUE(cdt.Add(kA));
  EXPECT_TRUE(cdt.Contains(kA));
  EXPECT_FALSE(cdt.Add(kA)) << "duplicate add must be a no-op";
  EXPECT_EQ(cdt.size(), 1u);
}

TEST(Cdt, ExactMatchSemantics) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  EXPECT_FALSE(cdt.Contains(CdtKey{kFile, 0, 8192}));
  EXPECT_FALSE(cdt.Contains(CdtKey{kFile, 1, 16384}));
  EXPECT_FALSE(cdt.Contains(kC));
}

TEST(Cdt, CacheFlagLifecycle) {
  CriticalDataTable cdt;
  EXPECT_FALSE(cdt.SetCacheFlag(kA)) << "unknown entry cannot be flagged";
  cdt.Add(kA);
  EXPECT_FALSE(cdt.CacheFlag(kA));
  EXPECT_TRUE(cdt.SetCacheFlag(kA));
  EXPECT_TRUE(cdt.CacheFlag(kA));
  EXPECT_TRUE(cdt.AnyPendingFetch());
  const auto taken = cdt.TakePendingFetches(10);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].key, kA);
  EXPECT_FALSE(cdt.CacheFlag(kA)) << "taking the mark clears C_flag";
  EXPECT_FALSE(cdt.AnyPendingFetch());
  EXPECT_TRUE(cdt.Contains(kA)) << "the entry stays";
  EXPECT_TRUE(cdt.SetCacheFlag(kA)) << "a later miss marks it again";
  EXPECT_TRUE(cdt.CacheFlag(kA));
}

TEST(Cdt, TakePendingFetchesOldestFirstAndLimited) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.Add(kB);
  cdt.Add(kC);
  cdt.SetCacheFlag(kB);
  cdt.SetCacheFlag(kA);
  cdt.SetCacheFlag(kC);
  auto two = cdt.TakePendingFetches(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].key, kB);
  EXPECT_EQ(two[1].key, kA);
  // Taken marks are consumed: only C is left.
  const auto rest = cdt.TakePendingFetches(10);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].key, kC);
  EXPECT_TRUE(cdt.TakePendingFetches(10).empty());
  EXPECT_FALSE(cdt.AnyPendingFetch());
}

TEST(Cdt, ReflaggingDoesNotDuplicate) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.SetCacheFlag(kA);
  cdt.SetCacheFlag(kA);
  EXPECT_EQ(cdt.TakePendingFetches(10).size(), 1u);
}

TEST(Cdt, RemarkedKeyQueuesBehindLaterMarks) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.Add(kB);
  cdt.SetCacheFlag(kA);
  cdt.SetCacheFlag(kB);
  const auto first = cdt.TakePendingFetches(1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].key, kA);
  cdt.SetCacheFlag(kA, /*owner=*/2);  // marked again by a later miss
  cdt.AuditInvariants();
  const auto pending = cdt.TakePendingFetches(10);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].key, kB);
  EXPECT_EQ(pending[1].key, kA);
  EXPECT_EQ(pending[1].owner, 2);
}

TEST(Cdt, TakePendingFetchesCarryFlagOwner) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.Add(kB);
  cdt.SetCacheFlag(kA, 3);
  cdt.SetCacheFlag(kB);
  cdt.SetCacheFlag(kA, 5);  // re-flagging retags, keeps the queue position
  const auto pending = cdt.TakePendingFetches(10);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].key, kA);
  EXPECT_EQ(pending[0].owner, 5);
  EXPECT_EQ(pending[1].key, kB);
  EXPECT_EQ(pending[1].owner, -1);
}

TEST(Cdt, TakePendingFetchesDropsStaleCopiesInOneCall) {
  // 10,000 marks in a table of 10 entries: 9,990 entries are evicted and
  // leave their queue copies behind. One call walks the queue once, drops
  // every stale copy and returns the survivors in mark order.
  constexpr int kKeys = 10000;
  constexpr std::size_t kBound = 10;
  CriticalDataTable cdt(kBound);
  std::vector<CdtKey> live;
  for (int i = 0; i < kKeys; ++i) {
    const CdtKey key{kFile, static_cast<byte_count>(i) * 4096, 4096};
    cdt.Add(key);
    cdt.SetCacheFlag(key);
    if (i >= kKeys - static_cast<int>(kBound)) live.push_back(key);
  }
  const auto pending = cdt.TakePendingFetches(256);
  ASSERT_EQ(pending.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(pending[i].key, live[i]) << "position " << i;
  }
  cdt.AuditInvariants();
  EXPECT_FALSE(cdt.AnyPendingFetch());
  EXPECT_TRUE(cdt.TakePendingFetches(256).empty());
}

TEST(Cdt, FifoEvictionWhenFull) {
  CriticalDataTable cdt(/*max_entries=*/3);
  for (int i = 0; i < 5; ++i) {
    cdt.Add(CdtKey{kFile, i * 100, 100});
  }
  EXPECT_EQ(cdt.size(), 3u);
  EXPECT_EQ(cdt.evictions(), 2);
  EXPECT_FALSE(cdt.Contains(CdtKey{kFile, 0, 100}));
  EXPECT_FALSE(cdt.Contains(CdtKey{kFile, 100, 100}));
  EXPECT_TRUE(cdt.Contains(CdtKey{kFile, 400, 100}));
}

TEST(Cdt, EvictedFlaggedEntryDisappearsFromPending) {
  CriticalDataTable cdt(/*max_entries=*/2);
  cdt.Add(kA);
  cdt.SetCacheFlag(kA);
  cdt.Add(kB);
  cdt.Add(kC);  // evicts kA
  EXPECT_FALSE(cdt.Contains(kA));
  EXPECT_TRUE(cdt.TakePendingFetches(10).empty());
  EXPECT_FALSE(cdt.AnyPendingFetch());
}

TEST(Cdt, LiveFlagCountMatchesQueueWalk) {
  CriticalDataTable cdt(/*max_entries=*/2);
  auto expect_agree = [&](const char* step) {
    EXPECT_EQ(cdt.AnyPendingFetch(), CdtTestPeer::QueueHoldsLiveFlag(cdt))
        << step;
    cdt.AuditInvariants();
  };
  expect_agree("empty");
  cdt.Add(kA);
  cdt.Add(kB);
  expect_agree("added, unflagged");
  EXPECT_TRUE(cdt.SetCacheFlag(kA));
  expect_agree("flag A");
  EXPECT_TRUE(cdt.AnyPendingFetch());
  EXPECT_TRUE(cdt.SetCacheFlag(kA, /*owner=*/1));
  expect_agree("re-flag A");
  EXPECT_EQ(cdt.TakePendingFetches(8).size(), 1u);
  expect_agree("take A");
  EXPECT_FALSE(cdt.AnyPendingFetch());
  EXPECT_TRUE(cdt.TakePendingFetches(8).empty());
  expect_agree("take from an empty queue");
  EXPECT_TRUE(cdt.SetCacheFlag(kA));
  EXPECT_TRUE(cdt.SetCacheFlag(kB));
  expect_agree("flag A and B");
  // A is the oldest entry: adding C evicts it, flag and all.
  cdt.Add(kC);
  expect_agree("FIFO-evict flagged A");
  EXPECT_FALSE(cdt.CacheFlag(kA));
  EXPECT_TRUE(cdt.AnyPendingFetch());
  // B is next: evicting it leaves no live flag, only stale queue keys.
  cdt.Add(kA);
  expect_agree("FIFO-evict flagged B");
  EXPECT_FALSE(cdt.AnyPendingFetch());
  EXPECT_TRUE(cdt.SetCacheFlag(kC));
  expect_agree("flag C");
  // Taking drops the stale keys in front of C and takes C.
  const auto pending = cdt.TakePendingFetches(8);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].key, kC);
  expect_agree("take C");
  EXPECT_FALSE(cdt.AnyPendingFetch());
  EXPECT_TRUE(cdt.TakePendingFetches(8).empty());
  expect_agree("take from an empty queue again");
}

TEST(Cdt, ReaddedKeyIsListedOnce) {
  CriticalDataTable cdt(/*max_entries=*/2);
  cdt.Add(kA);
  cdt.SetCacheFlag(kA);
  cdt.Add(kB);
  cdt.SetCacheFlag(kB);
  cdt.Add(kC);  // evicts kA; its queue copy stays behind
  cdt.Add(kA);  // evicts kB; kA is a new entry
  cdt.SetCacheFlag(kA);
  cdt.AuditInvariants();
  const auto pending = cdt.TakePendingFetches(10);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].key, kA);
  cdt.AuditInvariants();
  EXPECT_TRUE(cdt.TakePendingFetches(10).empty());
}

// Drives Add, SetCacheFlag and TakePendingFetches against a model of the
// entries (FIFO-bounded) and their marks in mark order. Every take must
// name the model's oldest marks with the owner that last marked them, as
// many as the limit allows, and consume them: a taken key is not listed
// again until it is marked again, and an evicted-then-re-added key is
// listed once. A third of the steps reuse the last key, so a key is often
// marked, taken and marked again between takes.
TEST(Cdt, FuzzedListingsNameEachFlaggedKeyOnce) {
  constexpr std::size_t kMaxEntries = 6;
  using Tuple = std::tuple<FileIndex, byte_count, byte_count>;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    CriticalDataTable cdt(kMaxEntries);
    std::deque<CdtKey> fifo;
    std::vector<std::pair<Tuple, int>> marks;  // mark order, with owners
    std::set<Tuple> live;
    auto tuple_of = [](const CdtKey& k) {
      return std::make_tuple(k.file, k.offset, k.length);
    };
    auto mark_of = [&marks](const Tuple& k) {
      return std::find_if(marks.begin(), marks.end(),
                          [&k](const auto& m) { return m.first == k; });
    };
    Rng rng(seed);
    CdtKey last{kFile, 0, 4096};
    for (int step = 0; step < 4000; ++step) {
      CdtKey key = last;
      if (rng.NextBelow(3) != 0) {
        key = CdtKey{static_cast<FileIndex>(rng.NextBelow(2)),
                     static_cast<byte_count>(rng.NextBelow(10)) * 4096, 4096};
      }
      last = key;
      const Tuple k = tuple_of(key);
      switch (rng.NextBelow(3)) {
        case 0: {
          const bool added = live.count(k) == 0;
          ASSERT_EQ(cdt.Add(key), added) << "step " << step;
          if (added) {
            live.insert(k);
            fifo.push_back(key);
            while (fifo.size() > kMaxEntries) {
              const Tuple victim = tuple_of(fifo.front());
              live.erase(victim);
              if (auto m = mark_of(victim); m != marks.end()) marks.erase(m);
              fifo.pop_front();
            }
          }
          break;
        }
        case 1: {
          const int owner = static_cast<int>(rng.NextBelow(3)) - 1;
          ASSERT_EQ(cdt.SetCacheFlag(key, owner), live.count(k) > 0)
              << "step " << step;
          if (live.count(k) == 0) break;
          if (auto m = mark_of(k); m != marks.end()) {
            m->second = owner;  // a re-mark keeps its place
          } else {
            marks.emplace_back(k, owner);
          }
          break;
        }
        default: {
          const auto limit = static_cast<std::size_t>(rng.NextBelow(17));
          const auto taken = cdt.TakePendingFetches(limit);
          const std::size_t want = std::min(limit, marks.size());
          ASSERT_EQ(taken.size(), want) << "step " << step;
          for (std::size_t i = 0; i < want; ++i) {
            ASSERT_TRUE(tuple_of(taken[i].key) == marks[i].first)
                << "step " << step << " position " << i;
            EXPECT_EQ(taken[i].owner, marks[i].second) << "step " << step;
            EXPECT_FALSE(cdt.CacheFlag(taken[i].key)) << "step " << step;
          }
          marks.erase(marks.begin(),
                      marks.begin() + static_cast<std::ptrdiff_t>(want));
          break;
        }
      }
      ASSERT_EQ(cdt.AnyPendingFetch(), !marks.empty()) << "step " << step;
      ASSERT_EQ(cdt.pending_fetches(), marks.size()) << "step " << step;
      ASSERT_EQ(cdt.size(), live.size()) << "step " << step;
      cdt.AuditInvariants();
    }
  }
}

TEST(Cdt, AuditCatchesAKeyQueuedTwice) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.SetCacheFlag(kA);
  cdt.AuditInvariants();
  CdtTestPeer::QueueFrontTwice(cdt);
  EXPECT_DEATH(cdt.AuditInvariants(), "queued twice");
}

TEST(Cdt, AuditCatchesAMiscountedFlag) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.SetCacheFlag(kA);
  cdt.AuditInvariants();
  CdtTestPeer::MiscountFlags(cdt);
  EXPECT_DEATH(cdt.AuditInvariants(), "live C_flags");
}

}  // namespace
}  // namespace s4d::core
