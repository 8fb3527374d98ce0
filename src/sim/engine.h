// Deterministic discrete-event simulation engine.
//
// The engine owns the simulated clock and a priority queue of events.
// Events with equal timestamps fire in scheduling order (a monotonically
// increasing generation counter breaks ties), so a run is a pure function
// of its inputs — there is no wall-clock anywhere in the simulator.
//
// Hot-path layout (see DESIGN.md "Engine internals & performance"):
//   * Callbacks live in a slab of reusable slots; an EventId packs
//     {generation:40, slot:24}, so Schedule/Cancel/dispatch never touch a
//     hash map and Cancel is an O(1) generation retire.
//   * The slab is chunked (stable addresses), so a firing callback is
//     invoked in place — no per-event relocation — even if it schedules
//     events that grow the slab.
//   * The binary heap stores 16-byte {time, id} entries, compares them
//     with one branchless 128-bit key, and pops bottom-up (Wegener) with a
//     hole instead of swap chains. A cancelled event's heap entry is left
//     in place and recognized in O(1) at pop time (its generation no
//     longer matches the slot), so each cancel costs one amortized pop —
//     no tombstone rescans.
//   * Events scheduled at the current time — the simulator's most common
//     case (zero-delay dispatch hops) — bypass the heap through a FIFO
//     ring that is always drained before the clock advances.
//   * Callbacks are InlineCallback (48-byte inline storage, no heap
//     fallback), not std::function, so scheduling an event performs zero
//     heap allocations once the slab and heap vectors are warm.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "sim/inline_callback.h"

namespace s4d::sim {

// Packs {generation:40, slot:24}. Generations start at 1, so no valid id
// is ever 0.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Engine {
 public:
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxGeneration =
      (std::uint64_t{1} << (64 - kSlotBits)) - 1;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute simulated time `t` (>= now).
  template <typename F>
  EventId ScheduleAt(SimTime t, F&& fn) {
    S4D_DCHECK(t >= now_) << "scheduling into the past: " << t << " < "
                          << now_;
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slot_count_);
      S4D_CHECK(slot_count_ < kSlotMask) << "event slab exhausted";
      if ((slot_count_ & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
      }
      ++slot_count_;
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    const std::uint64_t gen = next_generation_;
    // Wraps after ~10^12 schedulings. FIFO tie-breaking and stale-entry
    // detection both compare generations, so a wrap is only observable if
    // events separated by a full 2^40 schedulings coexist.
    if (gen == kMaxGeneration) generation_wrapped_ = true;
    next_generation_ = gen == kMaxGeneration ? 1 : gen + 1;
    Slot& s = SlotRef(slot);
    s.generation = gen;
    s.fn.Emplace(std::forward<F>(fn));
    const EventId id = (gen << kSlotBits) | slot;
    if (t == now_) {
      // Same-time fast path: zero-delay hops (server dispatch, collective
      // turnarounds) are the most common schedule in the simulator. They
      // are FIFO among themselves and the clock cannot advance while any
      // are pending, so a ring buffer replaces both heap operations; the
      // generation compare in Step keeps ordering against same-time heap
      // entries exact.
      ring_.push_back(id);
    } else {
      HeapPush(t, id);
    }
    ++live_events_;
    MaybeAudit();
    return id;
  }

  // Schedules `fn` after a non-negative delay from now.
  template <typename F>
  EventId ScheduleAfter(SimTime delay, F&& fn) {
    S4D_DCHECK(delay >= 0) << "negative delay " << delay;
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Cancels a pending event. Safe to call on already-fired or unknown ids;
  // returns whether an event was actually cancelled. O(1): the slot's
  // generation is retired and the capture destroyed; the heap entry stays
  // behind and is skipped (one generation compare) when it surfaces. The
  // schedule-then-cancel pattern (timeouts that did not trip) usually
  // cancels the most recently scheduled event, whose entry is still the
  // last heap/ring element — that one is trimmed on the spot, also O(1).
  bool Cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
    if (id == kInvalidEvent || slot >= slot_count_) return false;
    Slot& s = SlotRef(slot);
    if (s.generation != (id >> kSlotBits)) return false;
    s.fn = InlineCallback();  // destroy the capture eagerly
    s.generation = 0;
    free_slots_.push_back(slot);
    --live_events_;
    if (!heap_.empty() && heap_.back().id == id) {
      heap_.pop_back();
    } else if (ring_head_ < ring_.size() && ring_.back() == id) {
      ring_.pop_back();
      if (ring_head_ == ring_.size()) {
        ring_.clear();
        ring_head_ = 0;
      }
    }
    MaybeAudit();
    return true;
  }

  // Fires the next pending event, if any. Returns false when idle.
  bool Step() {
    for (;;) {
      if (ring_head_ < ring_.size()) {
        const EventId rid = ring_[ring_head_];
        // Every ring entry is at time now_. The heap top only precedes it
        // if it is also ripe (time <= now_) and was scheduled earlier
        // (smaller generation).
        if (heap_.empty() || heap_.front().time > now_ ||
            heap_.front().id > rid) {
          PopRing();
          if (Fire(rid, now_)) return true;
          continue;
        }
      }
      if (heap_.empty()) return false;
      const HeapEntry ev = heap_.front();
      HeapPop();
      if (Fire(ev.id, ev.time)) return true;
    }
  }

  // Runs until no events remain.
  void Run() {
    while (Step()) {
    }
  }

  // Runs events with time <= deadline; afterwards now() == deadline
  // (even if the queue drained earlier).
  void RunUntil(SimTime deadline) {
    // Step() fails only when idle, the one case a deadline of kNoEvent
    // would otherwise never leave.
    while (NextEventTime() <= deadline && Step()) {
    }
    if (now_ < deadline) now_ = deadline;
  }

  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  // The time the next live event fires: now() while a same-time event is
  // pending, else the earliest live heap entry's; kNoEvent when idle.
  // Drops cancelled heads on the way (each cancelled entry is popped only
  // once), so a stale entry can't stand for a live one.
  SimTime NextEventTime() {
    while (ring_head_ < ring_.size() && !IsLive(ring_[ring_head_])) {
      PopRing();
    }
    if (ring_head_ < ring_.size()) return now_;  // ring entries fire at now_
    while (!heap_.empty() && !IsLive(heap_.front().id)) HeapPop();
    return heap_.empty() ? kNoEvent : heap_.front().time;
  }

  bool idle() const { return live_events_ == 0; }
  // Exact count of schedulable (non-cancelled, non-fired) events.
  std::size_t pending_events() const { return live_events_; }
  // Queued entries (heap + same-time ring), including not-yet-popped
  // cancelled ones; >= pending_events().
  std::size_t queue_depth() const {
    return heap_.size() + (ring_.size() - ring_head_);
  }
  std::uint64_t events_fired() const { return events_fired_; }

  // Test-only: jumps the generation counter (e.g. near kMaxGeneration to
  // exercise wraparound).
  void set_next_generation_for_test(std::uint64_t gen) {
    S4D_CHECK(gen >= 1 && gen <= kMaxGeneration);
    next_generation_ = gen;
  }

  // S4D_CHECKs the queue structures: the heap property over (time, id)
  // keys with no ripe entry below now(), slab slot liveness consistent
  // with the live-event count and the free list, and same-time ring FIFO
  // order (monotonic generations, skipped once the generation counter has
  // wrapped). O(slots + heap + ring); paranoid builds run it every 256
  // schedule/cancel operations, tests call it directly.
  void AuditInvariants() const {
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      S4D_CHECK(!Before(heap_[i], heap_[(i - 1) / 2]))
          << "heap property violated at index " << i;
    }
    if (!heap_.empty()) {
      S4D_CHECK(heap_.front().time >= now_)
          << "heap top at " << heap_.front().time
          << " is in the past of now=" << now_;
    }
    std::size_t live = 0;
    for (std::uint32_t slot = 0; slot < slot_count_; ++slot) {
      const Slot& s = chunks_[slot >> kChunkShift][slot & kChunkMask];
      if (s.generation != 0) {
        S4D_CHECK(s.generation <= kMaxGeneration);
        ++live;
      }
    }
    S4D_CHECK(live == live_events_)
        << live << " live slab slots but live_events_=" << live_events_;
    for (const std::uint32_t slot : free_slots_) {
      S4D_CHECK(slot < slot_count_);
      S4D_CHECK(chunks_[slot >> kChunkShift][slot & kChunkMask].generation ==
                0)
          << "free-listed slot " << slot << " still holds a live generation";
    }
    S4D_CHECK(free_slots_.size() + live_events_ <= slot_count_)
        << free_slots_.size() << " free + " << live_events_
        << " live exceeds " << slot_count_ << " slots";
    S4D_CHECK(ring_head_ <= ring_.size());
    if (!generation_wrapped_) {
      std::uint64_t prev_gen = 0;
      for (std::size_t i = ring_head_; i < ring_.size(); ++i) {
        const std::uint64_t gen = ring_[i] >> kSlotBits;
        S4D_CHECK(gen > prev_gen)
            << "ring FIFO order violated at index " << i;
        prev_gen = gen;
      }
    }
  }

 private:
  // Paranoid-build hook: the audit walks the whole slab, so stride it to
  // keep event-heavy suites from going quadratic (the tick is
  // deterministic).
#ifdef S4D_PARANOID
  void MaybeAudit() const {
    if ((++audit_tick_ & 255) == 0) AuditInvariants();
  }
  mutable std::uint64_t audit_tick_ = 0;
#else
  void MaybeAudit() const {}
#endif

  // 4096 slots x 64 bytes = 256 KiB per chunk.
  static constexpr std::uint32_t kChunkShift = 12;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSlots - 1;

  struct Slot {
    std::uint64_t generation = 0;  // 0 = free; live slots match their id
    InlineCallback fn;
  };

  struct HeapEntry {
    SimTime time;
    EventId id;  // generation in the high bits doubles as the FIFO tie-break
  };

  // Single branchless 128-bit compare of (time, id). The simulated clock
  // starts at 0 and never goes backwards, so the sign-free cast preserves
  // ordering.
  static unsigned __int128 Key(const HeapEntry& e) {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(e.time))
            << 64) |
           e.id;
  }

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return Key(a) < Key(b);
  }

  Slot& SlotRef(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  bool IsLive(EventId id) {
    return SlotRef(static_cast<std::uint32_t>(id & kSlotMask)).generation ==
           (id >> kSlotBits);
  }

  void PopRing() {
    if (++ring_head_ == ring_.size()) {
      ring_.clear();
      ring_head_ = 0;
    }
  }

  // Fires `id` at time `t` if it is still live; returns whether it fired.
  bool Fire(EventId id, SimTime t) {
    const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
    Slot& s = SlotRef(slot);
    if (s.generation != (id >> kSlotBits)) return false;  // cancelled
    // Retire the slot before invoking (Cancel on the firing id is a no-op,
    // matching fired-event semantics) but return it to the free list only
    // afterwards: the callback runs in place in the slab, so its storage
    // must not be reused while it executes. Chunked storage keeps the
    // address stable even if the callback grows the slab.
    s.generation = 0;
    --live_events_;
    S4D_DCHECK(t >= now_) << "firing at " << t << " before now=" << now_;
    now_ = t;
    ++events_fired_;
    s.fn();
    s.fn = InlineCallback();
    free_slots_.push_back(slot);
    MaybeAudit();
    return true;
  }

  void HeapPush(SimTime t, EventId id) {
    const HeapEntry e{t, id};
    heap_.push_back(e);
    std::size_t hole = heap_.size() - 1;
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!Before(e, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = e;
  }

  // Bottom-up (Wegener) pop: descend the hole to a leaf comparing only
  // sibling pairs (one branchless select per level), then bubble the last
  // element up from the leaf. Cheaper than the textbook sift-down because
  // the displaced last element is leaf-sized and rarely bubbles far, and
  // the descent has no data-dependent exit branch per level.
  void HeapPop() {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child + 1 < n) {
      child += static_cast<std::size_t>(Before(heap_[child + 1], heap_[child]));
      heap_[hole] = heap_[child];
      hole = child;
      child = 2 * hole + 1;
    }
    if (child < n) {
      heap_[hole] = heap_[child];
      hole = child;
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!Before(last, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = last;
  }

  SimTime now_ = 0;
  std::uint64_t next_generation_ = 1;
  // Set once the generation counter wraps; relaxes the ring-FIFO audit,
  // whose monotonicity argument only holds pre-wrap.
  bool generation_wrapped_ = false;
  std::uint64_t events_fired_ = 0;
  std::size_t live_events_ = 0;
  std::size_t slot_count_ = 0;
  std::vector<HeapEntry> heap_;
  // FIFO of events scheduled at the current time; always drained before
  // the clock advances, so every entry's time is exactly now_.
  std::vector<EventId> ring_;
  std::size_t ring_head_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace s4d::sim
