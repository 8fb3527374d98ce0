// InlineVector<T, N>: a vector that stores up to N elements in place and
// spills to the heap past that.
//
// The middleware builds a few short lists per request (a routing plan's
// segments, a DMT lookup's mapped pieces and gaps); nearly all of them hold
// one or two elements, so keeping them inline takes the heap off the
// request path. A spilled vector keeps its heap block across clear(), so a
// reused one (a pooled join's segment list) stops allocating once warm.
//
// Elements must be trivially copy-constructible and trivially destructible
// (plain structs and std::pair of scalars): they are copied by
// construction and never destroyed. Indexing is S4D_DCHECK-bounded.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace s4d {

template <typename T, std::size_t N>
class InlineVector {
  static_assert(N > 0, "InlineVector needs room for one element");
  static_assert(std::is_trivially_copy_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "InlineVector holds trivially copied, never destroyed types");

 public:
  InlineVector() = default;

  InlineVector(const InlineVector& other) { Append(other); }

  // The source ends empty (inline again, if it had spilled) and reusable.
  InlineVector(InlineVector&& other) noexcept { Take(other); }

  InlineVector& operator=(const InlineVector& other) {
    if (this != &other) {
      clear();
      Append(other);
    }
    return *this;
  }

  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) {
      Release();
      Take(other);
    }
    return *this;
  }

  ~InlineVector() { Release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  // True once the elements live on the heap.
  bool spilled() const { return data_ != inline_.items; }

  T& operator[](std::size_t i) {
    S4D_DCHECK(i < size_) << "InlineVector index " << i << " of " << size_;
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    S4D_DCHECK(i < size_) << "InlineVector index " << i << " of " << size_;
    return data_[i];
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  void push_back(const T& value) { emplace_back(value); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) Grow();
    T* slot = ::new (static_cast<void*>(data_ + size_))
        T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  // Keeps the storage, inline or heap.
  void clear() { size_ = 0; }

 private:
  // The in-place slots. A union, so that no element is constructed before
  // emplace_back places one.
  union Slots {
    Slots() {}
    T items[N];
  };

  void Grow() {
    const std::size_t size = size_;
    const std::size_t capacity = 2 * capacity_;
    T* data = std::allocator<T>().allocate(capacity);
    std::uninitialized_copy(data_, data_ + size, data);
    Release();
    data_ = data;
    size_ = size;
    capacity_ = capacity;
  }

  void Append(const InlineVector& other) {
    for (const T& value : other) push_back(value);
  }

  // Frees a spilled block; the vector is then inline and empty.
  void Release() {
    if (spilled()) std::allocator<T>().deallocate(data_, capacity_);
    data_ = inline_.items;
    capacity_ = N;
    size_ = 0;
  }

  // Adopts `other`'s elements (its heap block, if spilled) into an empty,
  // inline vector and leaves `other` empty and inline.
  void Take(InlineVector& other) {
    if (other.spilled()) {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_.items;
      other.capacity_ = N;
    } else {
      Append(other);
    }
    other.size_ = 0;
  }

  Slots inline_;
  T* data_ = inline_.items;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace s4d
