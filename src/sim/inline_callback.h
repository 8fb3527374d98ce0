// InlineCallback: a move-only `void()` callable with small-buffer storage.
//
// The event engine schedules millions of short-lived callbacks per run;
// std::function heap-allocates any capture bigger than its tiny SBO
// (16 bytes on libstdc++), which made allocation the dominant cost of
// ScheduleAt. InlineCallback stores every capture in place, within
// kInlineBytes; an oversized capture is a compile error, never a heap
// allocation. Keep captures to a few pointers and ids: state that does not
// fit belongs in an object the capture points to.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace s4d::sim {

class InlineCallback {
 public:
  // Inline capture budget: six pointers or int64s.
  static constexpr std::size_t kInlineBytes = 48;

  InlineCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback>>>
  InlineCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(fn));
  }

  // Destroys the current target (if any) and constructs `fn` in place —
  // the engine's slot-recycling path, which never materializes a
  // temporary InlineCallback.
  template <typename F>
  void Emplace(F&& fn) {
    Reset();
    Construct(std::forward<F>(fn));
  }

  InlineCallback(InlineCallback&& other) noexcept { MoveFrom(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty InlineCallback");
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs dst from src and destroys src (a relocation).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
    // Trivially relocatable + trivially destructible: move is a memcpy and
    // Reset skips the indirect destroy call — true for the typical
    // pointers-and-ints lambda, which keeps the engine hot path free of
    // indirect calls outside the invocation itself.
    bool trivial;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>,
  };

  template <typename F>
  void Construct(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "callback capture exceeds InlineCallback::kInlineBytes; "
                  "capture a pointer to the state instead");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "callback capture is over-aligned for InlineCallback");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "InlineCallback relocates captures, so their move "
                  "constructor must be noexcept");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    ops_ = &kInlineOps<Fn>;
  }

  void MoveFrom(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->trivial) {
        __builtin_memcpy(storage_, other.storage_, kInlineBytes);
      } else {
        ops_->relocate(storage_, other.storage_);
      }
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace s4d::sim
