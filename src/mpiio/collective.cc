#include "mpiio/collective.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace s4d::mpiio {

CollectiveIo::CollectiveIo(sim::Engine& engine, IoDispatch& dispatch,
                           CollectiveConfig config)
    : engine_(engine),
      dispatch_(dispatch),
      config_(config),
      interconnect_(config.interconnect) {
  assert(config_.aggregators >= 1);
  assert(config_.buffer_size >= 1);
}

void CollectiveIo::Write(const std::string& file, std::vector<RankSpan> spans,
                         IoCompletion done) {
  Run(device::IoKind::kWrite, file, std::move(spans), std::move(done));
}

void CollectiveIo::Read(const std::string& file, std::vector<RankSpan> spans,
                        IoCompletion done) {
  Run(device::IoKind::kRead, file, std::move(spans), std::move(done));
}

void CollectiveIo::Run(device::IoKind kind, const std::string& file,
                       std::vector<RankSpan> spans, IoCompletion done) {
  ++stats_.collective_calls;
  // Drop empty spans.
  spans.erase(std::remove_if(spans.begin(), spans.end(),
                             [](const RankSpan& s) { return s.size <= 0; }),
              spans.end());
  if (spans.empty()) {
    engine_.ScheduleAfter(0, [this, done = std::move(done)]() {
      if (done) done(engine_.now());
    });
    return;
  }

  // Merge all ranks' spans into disjoint covered extents (issue order wins
  // on overlap, matching the dispatch's stamp-at-issue linearization).
  IntervalMap<std::uint64_t> covered;
  byte_count lo = spans.front().offset;
  byte_count hi = lo;
  for (const RankSpan& span : spans) {
    covered.Assign(span.offset, span.offset + span.size, span.token);
    lo = std::min(lo, span.offset);
    hi = std::max(hi, span.offset + span.size);
  }

  // Split [lo, hi) into contiguous aggregator file domains.
  const byte_count domain =
      std::max<byte_count>(1, CeilDiv(hi - lo, config_.aggregators));
  auto join = std::make_shared<sim::CompletionJoin>(
      config_.aggregators, [done = std::move(done)](SimTime t) {
        if (done) done(t);
      });

  for (int a = 0; a < config_.aggregators; ++a) {
    const byte_count d_begin = lo + a * domain;
    const byte_count d_end = std::min(hi, d_begin + domain);
    auto state = std::make_shared<Rounds>();
    std::vector<Round>& rounds = state->rounds;
    if (d_begin < d_end) {
      Round round;
      auto flush_round = [&] {
        if (!round.extents.empty()) {
          rounds.push_back(std::move(round));
          round = Round{};
        }
      };
      for (const auto& entry : covered.Overlapping(d_begin, d_end)) {
        // Chop the extent so no round spans more than the collective
        // buffer (large contiguous extents take several rounds).
        byte_count piece_begin = entry.begin;
        while (piece_begin < entry.end) {
          if (!round.extents.empty() &&
              entry.end - round.begin > config_.buffer_size &&
              piece_begin + 1 - round.begin > config_.buffer_size) {
            flush_round();
          }
          if (round.extents.empty()) round.begin = piece_begin;
          const byte_count piece_end =
              std::min(entry.end, round.begin + config_.buffer_size);
          assert(piece_end > piece_begin);
          round.end = piece_end;
          round.covered += piece_end - piece_begin;
          round.extents.push_back(Extent{piece_begin, piece_end, entry.value});
          piece_begin = piece_end;
          if (round.end - round.begin >= config_.buffer_size) flush_round();
        }
      }
      flush_round();
    }
    if (rounds.empty()) {
      engine_.ScheduleAfter(
          0, [this, join]() { join->Arrive(engine_.now()); });
      continue;
    }
    state->kind = kind;
    state->file = file;
    state->on_done = [join](SimTime t) { join->Arrive(t); };
    RunRounds(std::move(state), 0);
  }
}

void CollectiveIo::RunRounds(std::shared_ptr<Rounds> state,
                             std::size_t index) {
  if (index >= state->rounds.size()) {
    state->on_done(engine_.now());
    return;
  }
  const Round& round = state->rounds[index];
  ++stats_.rounds;
  stats_.shuffled_bytes += round.covered;

  // Phase 1: exchange the round's data between ranks and this aggregator.
  const SimTime shuffle =
      interconnect_.RpcOverhead() + interconnect_.TransferTime(round.covered);

  engine_.ScheduleAfter(shuffle, [this, state, index]() {
    const device::IoKind kind = state->kind;
    const std::string& file = state->file;
    const Round& r = state->rounds[index];
    auto next = [this, state, index](SimTime) { RunRounds(state, index + 1); };

    // Phase 2: the aggregator's contiguous I/O for this round.
    if (kind == device::IoKind::kRead) {
      const byte_count span = r.end - r.begin;
      const double density =
          static_cast<double>(r.covered) / static_cast<double>(span);
      if (density >= config_.sieve_threshold) {
        // Data sieving: one large read including the holes.
        ++stats_.backend_requests;
        stats_.sieved_hole_bytes += span - r.covered;
        FileRequest req{file, /*rank=*/0, r.begin, span, 0};
        dispatch_.Read(req, std::move(next));
        return;
      }
      auto piece_join = std::make_shared<sim::CompletionJoin>(
          static_cast<int>(r.extents.size()), std::move(next));
      for (const Extent& e : r.extents) {
        ++stats_.backend_requests;
        FileRequest req{file, 0, e.begin, e.end - e.begin, 0};
        dispatch_.Read(req, [piece_join](SimTime t) { piece_join->Arrive(t); });
      }
      return;
    }

    // Writes: issue the covered extents (already maximally coalesced).
    auto piece_join = std::make_shared<sim::CompletionJoin>(
        static_cast<int>(r.extents.size()), std::move(next));
    for (const Extent& e : r.extents) {
      ++stats_.backend_requests;
      FileRequest req{file, 0, e.begin, e.end - e.begin, 0};
      dispatch_.Write(req, [piece_join](SimTime t) { piece_join->Arrive(t); });
      // Per-span tokens cannot ride the merged request; stamp them at the
      // same instant, after the routing decision the Write just made.
      if (e.token != 0) {
        dispatch_.StampContent(file, e.begin, e.end - e.begin, e.token);
      }
    }
  });
}

}  // namespace s4d::mpiio
