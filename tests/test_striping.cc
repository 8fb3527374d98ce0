#include "pfs/striping.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"

namespace s4d::pfs {
namespace {

// Brute-force reference: walk the request stripe fragment by stripe
// fragment and coalesce each server's fragments into one entry, in server
// order. Every fragment after a server's first must continue that server's
// local range, or round-robin placement is not what the split assumes.
std::vector<SubRequest> ReferenceSplit(const StripeConfig& cfg,
                                       byte_count offset, byte_count size) {
  std::map<int, SubRequest> per_server;
  byte_count pos = offset;
  byte_count remaining = size;
  while (remaining > 0) {
    const byte_count stripe = pos / cfg.stripe_size;
    const int server = static_cast<int>(stripe % cfg.server_count);
    const byte_count within = pos % cfg.stripe_size;
    const byte_count frag = std::min(remaining, cfg.stripe_size - within);
    const byte_count local =
        (stripe / cfg.server_count) * cfg.stripe_size + within;
    auto [it, first] =
        per_server.try_emplace(server, SubRequest{server, pos, local, 0});
    EXPECT_TRUE(first || it->second.server_offset + it->second.size == local)
        << "server " << server << " fragment at local offset " << local
        << " does not continue its range";
    it->second.size += frag;
    pos += frag;
    remaining -= frag;
  }
  std::vector<SubRequest> out;
  for (const auto& [server, sub] : per_server) out.push_back(sub);
  return out;
}

// SplitRequest must equal the reference field for field and in order, and
// Eq. 6 and Table II must agree with it.
void ExpectMatchesReference(const StripeConfig& cfg, byte_count offset,
                            byte_count size) {
  SCOPED_TRACE(::testing::Message()
               << "M=" << cfg.server_count << " str=" << cfg.stripe_size
               << " offset=" << offset << " size=" << size);
  const auto subs = SplitRequest(cfg, offset, size);
  const auto reference = ReferenceSplit(cfg, offset, size);
  ASSERT_EQ(subs.size(), reference.size());
  byte_count largest = 0;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    EXPECT_EQ(subs[i].server, reference[i].server) << "entry " << i;
    EXPECT_EQ(subs[i].file_offset, reference[i].file_offset) << "entry " << i;
    EXPECT_EQ(subs[i].server_offset, reference[i].server_offset)
        << "entry " << i;
    EXPECT_EQ(subs[i].size, reference[i].size) << "entry " << i;
    largest = std::max(largest, reference[i].size);
  }
  EXPECT_EQ(MaxSubRequestSize(cfg, offset, size), largest);
  EXPECT_EQ(InvolvedServerCount(cfg, offset, size),
            static_cast<int>(reference.size()));
}

TEST(Striping, EmptyRequest) {
  StripeConfig cfg{4, 64 * KiB};
  EXPECT_TRUE(SplitRequest(cfg, 0, 0).empty());
  EXPECT_EQ(InvolvedServerCount(cfg, 0, 0), 0);
  EXPECT_EQ(MaxSubRequestSize(cfg, 0, 0), 0);
}

TEST(Striping, SingleStripeRequest) {
  StripeConfig cfg{4, 64 * KiB};
  const auto subs = SplitRequest(cfg, 10 * KiB, 16 * KiB);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].server, 0);
  EXPECT_EQ(subs[0].file_offset, 10 * KiB);
  EXPECT_EQ(subs[0].server_offset, 10 * KiB);
  EXPECT_EQ(subs[0].size, 16 * KiB);
  EXPECT_EQ(InvolvedServerCount(cfg, 10 * KiB, 16 * KiB), 1);
}

TEST(Striping, SecondStripeLandsOnSecondServer) {
  StripeConfig cfg{4, 64 * KiB};
  const auto subs = SplitRequest(cfg, 64 * KiB, 10 * KiB);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].server, 1);
  EXPECT_EQ(subs[0].server_offset, 0);
}

TEST(Striping, WrapAroundCoalescesPerServer) {
  StripeConfig cfg{2, 64 * KiB};
  // 4 full stripes from 0: stripes 0,2 -> server 0; stripes 1,3 -> server 1.
  const auto subs = SplitRequest(cfg, 0, 256 * KiB);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].server, 0);
  EXPECT_EQ(subs[0].size, 128 * KiB);
  EXPECT_EQ(subs[0].server_offset, 0);
  EXPECT_EQ(subs[1].server, 1);
  EXPECT_EQ(subs[1].size, 128 * KiB);
  EXPECT_EQ(subs[1].server_offset, 0);
}

TEST(Striping, WrapPastLastServerEmitsInServerOrder) {
  StripeConfig cfg{4, 64 * KiB};
  // Stripe 3 (server 3) then stripe 4 (server 0): server 0 comes first.
  const auto subs = SplitRequest(cfg, 3 * 64 * KiB + 32 * KiB, 64 * KiB);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].server, 0);
  EXPECT_EQ(subs[0].file_offset, 256 * KiB);
  EXPECT_EQ(subs[0].server_offset, 64 * KiB);
  EXPECT_EQ(subs[0].size, 32 * KiB);
  EXPECT_EQ(subs[1].server, 3);
  EXPECT_EQ(subs[1].file_offset, 224 * KiB);
  EXPECT_EQ(subs[1].server_offset, 32 * KiB);
  EXPECT_EQ(subs[1].size, 32 * KiB);
}

TEST(Striping, InvolvedServersCapsAtM) {
  StripeConfig cfg{4, 64 * KiB};
  EXPECT_EQ(InvolvedServerCount(cfg, 0, 64 * KiB), 1);
  EXPECT_EQ(InvolvedServerCount(cfg, 0, 65 * KiB), 2);
  EXPECT_EQ(InvolvedServerCount(cfg, 0, 4 * 64 * KiB), 4);
  EXPECT_EQ(InvolvedServerCount(cfg, 0, 100 * 64 * KiB), 4);
}

TEST(Striping, AlignedEndDoesNotSpillToPhantomStripe) {
  StripeConfig cfg{4, 64 * KiB};
  // Exactly one stripe, aligned: must involve exactly 1 server.
  EXPECT_EQ(InvolvedServerCount(cfg, 0, 64 * KiB), 1);
  EXPECT_EQ(MaxSubRequestSize(cfg, 0, 64 * KiB), 64 * KiB);
}

// Table II case checks (M = 4, str = 64 KiB).
TEST(Striping, TableIICase1SingleStripe) {
  StripeConfig cfg{4, 64 * KiB};
  EXPECT_EQ(MaxSubRequestSize(cfg, 3 * KiB, 5 * KiB), 5 * KiB);
}

TEST(Striping, TableIICase2DeltaMultipleOfM) {
  StripeConfig cfg{4, 64 * KiB};
  // offset in stripe 0, end in stripe 4 => delta = 4, same server holds both
  // fragments: b + e + 0 full stripes vs 1 full stripe.
  const byte_count offset = 32 * KiB;                // b = 32 KiB
  const byte_count size = 4 * 64 * KiB + 16 * KiB;   // e = 48 KiB
  const byte_count expect = std::max<byte_count>(32 * KiB + 48 * KiB, 64 * KiB);
  EXPECT_EQ(MaxSubRequestSize(cfg, offset, size), expect);
}

TEST(Striping, TableIICase3DeltaModM1) {
  StripeConfig cfg{4, 64 * KiB};
  // delta = 5: B-server gets b + 1 full stripe (80 KiB), E-server gets
  // e + 1 full stripe. e = (48K + 328K - 1) % 64K + 1 = 56 KiB -> 120 KiB.
  const byte_count offset = 48 * KiB;               // b = 16 KiB
  const byte_count size = 5 * 64 * KiB + 8 * KiB;   // e = 56 KiB (stripe 5)
  const byte_count expect = 56 * KiB + 64 * KiB;
  EXPECT_EQ(MaxSubRequestSize(cfg, offset, size), expect);
}

TEST(Striping, TableIICase4Interior) {
  StripeConfig cfg{4, 64 * KiB};
  // delta = 2 (mod 4): an interior server holds ceil(2/4)=1 full stripe.
  const byte_count offset = 60 * KiB;  // b = 4 KiB
  const byte_count size = 4 * KiB + 64 * KiB + 4 * KiB;
  EXPECT_EQ(MaxSubRequestSize(cfg, offset, size), 64 * KiB);
}

// --- property sweeps -------------------------------------------------------

struct StripingParam {
  int servers;
  byte_count stripe;
};

class StripingProperty : public ::testing::TestWithParam<StripingParam> {};

TEST_P(StripingProperty, SplitIsExactPartition) {
  const auto [servers, stripe] = GetParam();
  const StripeConfig cfg{servers, stripe};
  Rng rng(static_cast<std::uint64_t>(servers) * 7919 +
          static_cast<std::uint64_t>(stripe));
  for (int i = 0; i < 300; ++i) {
    const byte_count offset = rng.NextInRange(0, 20 * stripe);
    const byte_count size = rng.NextInRange(1, 12 * stripe);

    // Sum of sub-request sizes equals the request size.
    byte_count total = 0;
    for (const auto& sub : SplitRequest(cfg, offset, size)) total += sub.size;
    ASSERT_EQ(total, size);

    ExpectMatchesReference(cfg, offset, size);
  }
}

TEST_P(StripingProperty, MaxSubRequestSizeMatchesReference) {
  const auto [servers, stripe] = GetParam();
  const StripeConfig cfg{servers, stripe};
  Rng rng(static_cast<std::uint64_t>(servers) * 104729 +
          static_cast<std::uint64_t>(stripe));
  for (int i = 0; i < 500; ++i) {
    const byte_count offset = rng.NextInRange(0, 30 * stripe);
    const byte_count size = rng.NextInRange(1, 16 * stripe);
    ExpectMatchesReference(cfg, offset, size);
  }
}

// Boundary shapes the random sweeps rarely draw, on every layout.
TEST_P(StripingProperty, EdgeCasesMatchReference) {
  const auto [servers, stripe] = GetParam();
  const StripeConfig cfg{servers, stripe};
  const byte_count m = servers;
  const byte_count far = byte_count{1} << 40;
  struct Case {
    byte_count offset;
    byte_count size;
  };
  const Case cases[] = {
      // Wraps past server M-1 to server 0.
      {(m - 1) * stripe + stripe / 2, stripe},
      {(m - 1) * stripe + 1, m * stripe},
      // Size 1, at and around stripe boundaries.
      {0, 1},
      {stripe - 1, 1},
      {stripe, 1},
      {m * stripe - 1, 1},
      // Stripe-aligned begin and end.
      {3 * stripe, 2 * stripe},
      // Exactly M stripes, aligned and not.
      {0, m * stripe},
      {stripe / 2 + 1, m * stripe},
      // M + 1 stripes, aligned and not.
      {0, (m + 1) * stripe},
      {stripe - 1, (m + 1) * stripe},
      // Offsets near 2^40.
      {far - 1, 1},
      {far - stripe / 2 - 1, (2 * m + 1) * stripe + 3},
      {far + 7 * stripe, 3 * stripe},
  };
  for (const Case& c : cases) ExpectMatchesReference(cfg, c.offset, c.size);
}

TEST_P(StripingProperty, SubRequestsWithinServerLocalBounds) {
  const auto [servers, stripe] = GetParam();
  const StripeConfig cfg{servers, stripe};
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const byte_count offset = rng.NextInRange(0, 10 * stripe);
    const byte_count size = rng.NextInRange(1, 10 * stripe);
    for (const auto& sub : SplitRequest(cfg, offset, size)) {
      EXPECT_GE(sub.server, 0);
      EXPECT_LT(sub.server, servers);
      EXPECT_GE(sub.server_offset, 0);
      EXPECT_GT(sub.size, 0);
      // A server's local share cannot exceed its stripes' span of the file.
      EXPECT_LE(sub.server_offset + sub.size,
                (offset + size + stripe * servers) / servers + stripe);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StripingProperty,
    ::testing::Values(StripingParam{1, 64 * KiB}, StripingParam{2, 64 * KiB},
                      StripingParam{4, 64 * KiB}, StripingParam{8, 64 * KiB},
                      StripingParam{3, 17},        // pathological: odd sizes
                      StripingParam{5, 4 * KiB},
                      StripingParam{8, 1 * MiB},
                      StripingParam{16, 64 * KiB}),
    [](const auto& info) {
      return "M" + std::to_string(info.param.servers) + "_str" +
             std::to_string(info.param.stripe);
    });

}  // namespace
}  // namespace s4d::pfs
